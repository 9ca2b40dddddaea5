"""Span tracing installed from outside the library.

:class:`Tracer` wraps methods of the classes behind the objects an
engine or manager holds (its R-tree, interval trees, stab caches, query
index), plus the engine's and manager's own entry points, and records a
span per call: name, start, end, parent span and the client round that
caused it.  No library file is edited; :meth:`Tracer.uninstall` puts
every original back.

Wrapping is by class attribute because several component classes use
``__slots__``; the classes are taken from the live objects, so a
component replaced by another class is traced through its new class.  A
method that no longer exists is reported as missing and its layer as
absent instead of failing the run.

Self time is computed as the calls return: a span's duration minus the
durations of the spans directly below it (calls are synchronous, so
child spans never overlap).
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer (repo module) of each span name, for the busy-time split.
LAYER_OF = {
    "continuous.append_many": "core.continuous",
    "continuous.dispatch": "core.continuous",
    "query_index.schedule": "core.continuous",
    "nofn.ingest": "core.nofn",
    "nofn.query": "core.nofn",
    "prefilter": "accel.batch_prefilter",
    "rtree.report_dominated_batch": "structures.rtree_soa",
    "rtree.max_kappa_dominator_batch": "structures.rtree_soa",
    "rtree.parent_walk": "structures.rtree_soa",
    "rtree.delete_many": "structures.rtree_soa",
    "rtree.insert_many": "structures.rtree_soa",
    "rtree.remove_dominated": "structures.rtree_soa",
    "rtree.max_kappa_dominator": "structures.rtree_soa",
    "rtree.insert": "structures.rtree_soa",
    "rtree.delete": "structures.rtree_soa",
    "intervals.insert": "structures.interval_tree",
    "intervals.remove": "structures.interval_tree",
    "intervals.replace": "structures.interval_tree",
    "stab_cache.stab": "accel.stab_cache",
    "n1n2.ingest": "core.n1n2",
    "n1n2.query": "core.n1n2",
}

LAYERS = (
    "core.nofn",
    "accel.batch_prefilter",
    "structures.rtree_soa",
    "structures.interval_tree",
    "accel.stab_cache",
    "core.continuous",
    "core.n1n2",
)

#: Engine attribute holding each traced component, per engine kind.
_COMPONENTS = {
    "nofn": {"rtree": "_rtree", "intervals": "_intervals", "cache": "_stab_cache"},
    "n1n2": {"rtree": "_rtree", "intervals": "_live", "cache": "_live_cache"},
}

#: (component, method, span name).  The n1n2 engine's second interval
#: tree and second cache share the classes of the first, so wrapping the
#: class covers them too.
_COMPONENT_METHODS = (
    ("rtree", "report_dominated_batch", "rtree.report_dominated_batch"),
    ("rtree", "max_kappa_dominator_batch", "rtree.max_kappa_dominator_batch"),
    ("rtree", "delete_many", "rtree.delete_many"),
    ("rtree", "insert_many", "rtree.insert_many"),
    ("rtree", "remove_dominated", "rtree.remove_dominated"),
    ("rtree", "insert", "rtree.insert"),
    ("rtree", "delete", "rtree.delete"),
    ("intervals", "insert", "intervals.insert"),
    ("intervals", "remove", "intervals.remove"),
    ("intervals", "replace", "intervals.replace"),
    ("cache", "stab", "stab_cache.stab"),
)

#: Modules whose ``BatchPrefilter`` name is rebound to a timed factory
#: (the engines build one prefilter per chunk instead of holding one).
_PREFILTER_MODULES = ("repro.core.nofn", "repro.core.n1n2")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = array("q")
        self._parents = array("q")
        self._rounds = array("q")
        self._name_col = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._next_id = 1
        self._open: List[List[Any]] = []  # [span id, child seconds]
        #: name -> [calls, busy seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: ad-hoc query durations split by the snapshot state they met.
        self.stale_query_s: List[float] = []
        self.fresh_query_s: List[float] = []
        self.round = 0
        #: wrap target that no longer exists -> its layer
        self.missing: Dict[str, str] = {}
        #: time inside root spans: the client's library calls.
        self.root_seconds = 0.0
        self._installed: List[Tuple[Any, str, Any, bool]] = []
        self._t0 = perf_counter()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        sid = self._name_ids.get(name)
        if sid is None:
            sid = len(self._names)
            self._names.append(name)
            self._name_ids[name] = sid
            self.totals[name] = [0, 0.0, 0.0]
        return sid

    def _timed(
        self,
        fn: Callable[..., Any],
        name: str,
        alt: Optional[Tuple[str, str]] = None,
        classify: Optional[Callable[[], bool]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span.  ``alt = (kwarg, name)`` records the
        call under ``name`` instead when ``kwarg`` is passed and not
        ``None``; ``classify()`` (true = stale), asked before the call,
        files the call's duration under stale or fresh queries."""
        sid = self._name_id(name)
        alt_kwarg, alt_sid = (alt[0], self._name_id(alt[1])) if alt else ("", sid)
        open_spans = self._open
        names = self._names
        totals = self.totals

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            use = alt_sid if kwargs.get(alt_kwarg) is not None else sid
            stale = classify() if classify is not None else None
            span_id = self._next_id
            self._next_id += 1
            parent = open_spans[-1][0] if open_spans else 0
            frame = [span_id, 0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                took = end - start
                agg = totals[names[use]]
                agg[0] += 1
                agg[1] += took
                agg[2] += took - frame[1]
                if open_spans:
                    open_spans[-1][1] += took
                else:
                    self.root_seconds += took
                if stale is not None:
                    (self.stale_query_s if stale else self.fresh_query_s).append(took)
                self._ids.append(span_id)
                self._parents.append(parent)
                self._rounds.append(self.round)
                self._name_col.append(use)
                self._starts.append(start - self._t0)
                self._ends.append(end - self._t0)

        return wrapped

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        self._installed.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def wrap_method(
        self, obj: Any, method: str, name: str, **options: Any
    ) -> None:
        """Trace ``method`` on ``type(obj)``, or note it as missing."""
        cls = type(obj)
        fn = getattr(cls, method, None)
        if not callable(fn):
            self.missing[f"{cls.__name__}.{method}"] = LAYER_OF[name]
            return
        self._patch(cls, method, self._timed(fn, name, **options))

    def install(self, session: Any) -> None:
        """Wrap every layer boundary the session's objects expose."""
        engine = session.engine
        kind = "n1n2" if session.workload.kind == "n1n2" else "nofn"
        manager = session.manager
        if manager is not None:
            self.wrap_method(manager, "append_many", "continuous.append_many")
            self.wrap_method(manager, "process_batch", "continuous.dispatch")
            index = getattr(manager, "_index", None)
            if index is None:
                self.missing["ContinuousQueryManager._index"] = "core.continuous"
            else:
                self.wrap_method(index, "schedule", "query_index.schedule")
        components = {
            role: getattr(engine, attr, None)
            for role, attr in _COMPONENTS[kind].items()
        }
        cache = components["cache"]
        classify = None
        if cache is not None and hasattr(cache, "is_fresh"):
            # The snapshot the answer reads first: the engine's only
            # cache, or the n1n2 engine's I_RN cache.
            def classify() -> bool:
                return not cache.is_fresh()

        self.wrap_method(engine, "append_many", f"{kind}.ingest")
        self.wrap_method(engine, "append", f"{kind}.ingest")
        self.wrap_method(engine, "query", f"{kind}.query", classify=classify)
        if components["rtree"] is not None:
            self.wrap_method(
                components["rtree"],
                "max_kappa_dominator",
                "rtree.max_kappa_dominator",
                alt=("kappa_below", "rtree.parent_walk"),
            )
        for role, method, name in _COMPONENT_METHODS:
            component = components[role]
            if component is None:
                self.missing[f"{type(engine).__name__}.{_COMPONENTS[kind][role]}"] = (
                    LAYER_OF[name]
                )
                continue
            self.wrap_method(component, method, name)
        for module_name in _PREFILTER_MODULES:
            module = importlib.import_module(module_name)
            factory = getattr(module, "BatchPrefilter", None)
            if factory is None:
                self.missing[f"{module_name}.BatchPrefilter"] = "accel.batch_prefilter"
                continue
            self._patch(module, "BatchPrefilter", self._timed(factory, "prefilter"))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def busy(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_split(self) -> Dict[str, float]:
        """Each layer's share of the time inside root spans, by self time."""
        split = dict.fromkeys(LAYERS, 0.0)
        if self.root_seconds > 0:
            for name, (_, _, own) in self.totals.items():
                split[LAYER_OF[name]] += own / self.root_seconds
        return split

    def absent_layers(self) -> List[str]:
        """Layers with a wrap target that no longer exists."""
        return sorted(set(self.missing.values()))

    def span_count(self) -> int:
        return len(self._ids)

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in completion order; times are
        seconds since the tracer was created."""
        names = self._names
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self._ids)):
                out.write(
                    json.dumps(
                        {
                            "id": self._ids[i],
                            "parent": self._parents[i],
                            "round": self._rounds[i],
                            "name": names[self._name_col[i]],
                            "start": round(self._starts[i], 9),
                            "end": round(self._ends[i], 9),
                        }
                    )
                )
                out.write("\n")
