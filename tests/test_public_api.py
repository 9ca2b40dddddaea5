"""Public API surface and exception-hierarchy tests."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import exceptions

from tests.conftest import random_points


class TestPackageSurface:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_engines_importable_from_top_level(self):
        assert repro.NofNSkyline is not None
        assert repro.N1N2Skyline is not None
        assert repro.TimeWindowSkyline is not None
        assert repro.ContinuousQueryManager is not None

    def test_subpackage_all_names_resolve(self):
        import repro.baselines as baselines
        import repro.bench as bench
        import repro.core as core
        import repro.streams as streams
        import repro.structures as structures

        for module in (baselines, bench, core, streams, structures):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (
                    f"{module.__name__}.{name}"
                )

    def test_public_classes_have_docstrings(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_public_methods_have_docstrings(self):
        for cls in (
            repro.NofNSkyline,
            repro.N1N2Skyline,
            repro.TimeWindowSkyline,
            repro.ContinuousQueryManager,
        ):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    assert member.__doc__, f"{cls.__name__}.{name}"


class TestRetiredSurface:
    """The sharded parallel tier, the red-black tree baseline, the label
    set, the expired-record children and the interval tree (its
    intervals live in the dense index's rows) are gone; ``import repro``
    no longer pulls in ``multiprocessing``."""

    RETIRED = (
        "ShardedNofNSkyline", "ShardedKSkyband", "ShardFailureError",
        "Dynamic2DSkyline", "RedBlackTree", "LabelSet", "ExpiredRecord",
        "Interval", "IntervalHandle", "IntervalTree",
    )

    @pytest.mark.parametrize("name", RETIRED)
    def test_name_is_gone(self, name):
        import repro.baselines as baselines
        import repro.core as core
        import repro.core.events as events
        import repro.structures as structures

        for module in (repro, exceptions, baselines, structures, core, events):
            assert name not in getattr(module, "__all__", ())
            assert not hasattr(module, name), f"{module.__name__}.{name}"

    @pytest.mark.parametrize("module", [
        "repro.parallel", "repro.baselines.dynamic2d", "repro.structures.rbtree",
        "repro.structures.labelset", "repro.structures.interval_tree",
    ])
    def test_module_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize("engine_cls", [
        repro.NofNSkyline, repro.LinearScanNofNSkyline, repro.TimeWindowSkyline,
    ])
    def test_children_of_is_gone(self, engine_cls):
        assert not hasattr(engine_cls, "children_of")

    def test_import_does_not_load_multiprocessing(self):
        probe = (
            "import sys, repro, repro.cli; "
            "print('multiprocessing' in sys.modules)"
        )
        # A fresh interpreter importing the package under test.
        src = Path(repro.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert result.stdout.strip() == "False"


class TestIntrospectionUniformity:
    """Every engine-like object answers the same introspection probes."""

    PROBES = ("structure_version", "cache_stats", "stab_cache")

    def build_all(self, rng):
        points = random_points(rng, 2, 30, grid=6)
        engines = [
            repro.NofNSkyline(dim=2, capacity=10),
            repro.KSkybandEngine(dim=2, capacity=10, k=2),
            repro.ApproxNofNSkyline(dim=2, capacity=10, epsilon=0.25),
            repro.ContinuousQueryManager(repro.NofNSkyline(dim=2, capacity=10)),
        ]
        for engine in engines:
            for point in points:
                engine.append(point)
        window = repro.TimeWindowSkyline(dim=2, horizon=5.0)
        for i, point in enumerate(points):
            window.append(point, float(i + 1))
        engines.append(window)
        return engines

    def test_uniform_surface(self, rng):
        for engine in self.build_all(rng):
            for probe in self.PROBES:
                assert hasattr(engine, probe), (type(engine), probe)
            assert engine.structure_version > 0
            stats = engine.cache_stats()
            assert stats is None or "misses" in stats


class TestExceptionHierarchy:
    ALL_ERRORS = [
        exceptions.DimensionMismatchError,
        exceptions.DuplicateKeyError,
        exceptions.EmptyStructureError,
        exceptions.InvalidIntervalError,
        exceptions.InvalidWindowError,
        exceptions.KeyNotFoundError,
        exceptions.QueryNotRegisteredError,
        exceptions.StreamExhaustedError,
        exceptions.StructureCorruptionError,
    ]

    @pytest.mark.parametrize("error_cls", ALL_ERRORS)
    def test_all_derive_from_repro_error(self, error_cls):
        assert issubclass(error_cls, exceptions.ReproError)
        assert issubclass(error_cls, Exception)

    def test_one_except_clause_catches_library_errors(self):
        engine = repro.NofNSkyline(dim=2, capacity=3)
        with pytest.raises(exceptions.ReproError):
            engine.query(99)

    def test_dimension_mismatch_carries_context(self):
        err = exceptions.DimensionMismatchError(3, 2)
        assert err.expected == 3
        assert err.actual == 2
        assert "3" in str(err) and "2" in str(err)

    def test_engine_errors_are_catchable_specifically(self):
        engine = repro.NofNSkyline(dim=2, capacity=3)
        with pytest.raises(exceptions.InvalidWindowError):
            engine.query(0)
