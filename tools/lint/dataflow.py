"""The dataflow rule pack: REPRO101 and REPRO105.

Each rule pairs the cross-module facts from :mod:`tools.lint.model`
with per-function path queries over :mod:`tools.lint.cfg`:

=========  =============================================================
Code       Discipline enforced
=========  =============================================================
REPRO101   Every method of a version-bearing class (``_version``) that
           mutates a tracked container must bump the counter on *every*
           CFG path through the mutation (exception edges included) —
           otherwise versioned caches (``StabCache``) serve stale
           answers.
REPRO105   Snapshot round-trip parity: keys a producer writes that no
           consumer ever reads rot silently (persist-but-never-restore);
           keys a consumer subscripts that no producer writes crash
           every restore.
=========  =============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from tools.lint.cfg import CFG, CFGNode, build_cfg
from tools.lint.model import (
    MUTATOR_NAMES,
    ClassModel,
    Model,
    ModuleModel,
    local_aliases,
    resolve_path,
)
from tools.lint.rules import Finding

__all__ = ["check_module_dataflow", "check_snapshot_parity"]


def _finding(module: ModuleModel, node: ast.AST, code: str, message: str,
             scope: str) -> Finding:
    return Finding(
        module.path,
        getattr(node, "lineno", 0),
        getattr(node, "col_offset", 0),
        code,
        message,
        scope,
    )


def _frags(cfg: CFG) -> List[Tuple[CFGNode, ast.AST]]:
    """The fragment-bearing nodes with their fragments, mypy-narrowed."""
    return [
        (node, node.frag) for node in cfg.real_nodes()
        if node.frag is not None
    ]


# ----------------------------------------------------------------------
# Shared small helpers
# ----------------------------------------------------------------------


def _assign_targets(frag: ast.AST) -> List[ast.expr]:
    """The targets this fragment writes through.  A bare local name
    that an assignment or ``del`` (re)binds is left out: ``rows =
    self._rows`` creates an alias, it writes nothing.  An augmented
    assignment's name stays (``rows += more`` extends a list in
    place)."""
    targets: List[ast.expr] = []
    for node in ast.walk(frag):
        if isinstance(node, ast.AugAssign):
            targets.append(node.target)
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            # ``del self._axis[slot]`` mutates the container just as an
            # assignment does; rules that key on writes must see it.
            bound = node.targets
        elif isinstance(node, ast.AnnAssign):
            bound = [node.target]
        else:
            continue
        targets.extend(t for t in bound if not isinstance(t, ast.Name))
    return targets


def _writes_path(frag: ast.AST, path: str,
                 aliases: Dict[str, str]) -> bool:
    """Does this fragment assign (or aug-assign) to ``path`` itself or a
    subscript of it?"""
    for target in _assign_targets(frag):
        inner = target
        while isinstance(inner, ast.Subscript):
            inner = inner.value
        resolved = resolve_path(inner, aliases)
        if resolved == path:
            return True
    return False


# ----------------------------------------------------------------------
# REPRO101 — mutation without version bump
# ----------------------------------------------------------------------


def _container_mutation(frag: ast.AST, tracked_paths: Dict[str, str],
                        aliases: Dict[str, str]) -> Optional[str]:
    """The tracked attr this fragment mutates, if any."""
    for sub in ast.walk(frag):
        if (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in MUTATOR_NAMES):
            base = resolve_path(sub.func.value, aliases)
            if base is not None and base in tracked_paths:
                return tracked_paths[base]
    for path, attr in tracked_paths.items():
        if _writes_path(frag, path, aliases):
            return attr
    return None


def _check_version_bumps(module: ModuleModel, cls: ClassModel,
                         findings: List[Finding]) -> None:
    if not cls.has_version or not cls.tracked_containers:
        return
    version_path = "self._version"
    tracked_paths = {
        f"self.{attr}": attr for attr in cls.tracked_containers
    }
    for name, fn in cls.methods.items():
        if name == "__init__":
            continue
        aliases = local_aliases(fn)
        cfg = build_cfg(fn)

        def bumps_version(node: CFGNode,
                          _aliases: Dict[str, str] = aliases) -> bool:
            return node.frag is not None and _writes_path(
                node.frag, version_path, _aliases
            )

        for node, frag in _frags(cfg):
            attr = _container_mutation(frag, tracked_paths, aliases)
            if attr is None:
                continue
            if not cfg.must_pass_through(
                node.index, bumps_version, count_exceptional=True
            ):
                findings.append(_finding(
                    module, frag, "REPRO101",
                    f"{cls.name}.{name} mutates tracked container "
                    f"self.{attr} on a path that never bumps "
                    f"self._version — versioned caches will serve "
                    f"stale answers",
                    f"{cls.name}.{name}",
                ))


# ----------------------------------------------------------------------
# REPRO105 — snapshot round-trip parity
# ----------------------------------------------------------------------

#: A producer is only compared against the consumed-key universe when at
#: least this fraction of its keys are consumed somewhere (otherwise it
#: is a dict for some other purpose that happens to live in a
#: ``*snapshot*``-named function).
_PARITY_OVERLAP = 0.5

#: A consumer's hard-required keys are only checked against the produced
#: universe when it demonstrably consumes snapshots (>= this many of its
#: keys are produced somewhere).
_CONSUMER_MIN_OVERLAP = 2


def check_snapshot_parity(model: Model) -> List[Finding]:
    findings: List[Finding] = []
    produced = model.produced_keys()
    consumed = model.consumed_keys()
    any_consumers = any(m.consumers for m in model.modules.values())

    if any_consumers:
        for module in model.modules.values():
            for producer in module.producers:
                keys = set(producer.keys)
                if len(keys) < 3:
                    continue
                overlap = len(keys & consumed) / len(keys)
                if overlap < _PARITY_OVERLAP:
                    continue
                for key in sorted(keys - consumed):
                    findings.append(Finding(
                        module.path, producer.keys[key], 0, "REPRO105",
                        f"{producer.qualname} persists key '{key}' that "
                        f"no restore/consumer ever reads — it will rot "
                        f"silently",
                        producer.qualname,
                    ))

    for module in model.modules.values():
        for consumer in module.consumers:
            keys = set(consumer.subscript_keys) | consumer.get_keys
            if len(keys & produced) < _CONSUMER_MIN_OVERLAP:
                continue
            for key in sorted(set(consumer.subscript_keys) - produced):
                findings.append(Finding(
                    module.path, consumer.subscript_keys[key], 0,
                    "REPRO105",
                    f"{consumer.qualname} requires key '{key}' that no "
                    f"snapshot producer ever writes — restore will "
                    f"KeyError",
                    consumer.qualname,
                ))
    return findings


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def check_module_dataflow(module: ModuleModel) -> List[Finding]:
    """Run REPRO101 over one module (REPRO105 is whole-run; see
    :func:`check_snapshot_parity`)."""
    findings: List[Finding] = []
    for cls in module.classes.values():
        _check_version_bumps(module, cls, findings)
    return findings
