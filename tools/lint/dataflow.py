"""The dataflow rule pack: REPRO101-105.

Each rule pairs the cross-module facts from :mod:`tools.lint.model`
with per-function path queries over :mod:`tools.lint.cfg`:

=========  =============================================================
Code       Discipline enforced
=========  =============================================================
REPRO101   Every method of a version-bearing class (``_version`` or a
           ``changes`` counter) that mutates a tracked container must
           bump the counter on *every* CFG path through the mutation
           (exception edges included) — otherwise versioned caches
           (``StabCache``, memoised ``QueryGroup`` views) serve stale
           answers.
REPRO102   Seqlock protocol: inside a flip function, every write to the
           control buffer must sit between the odd and even seq words;
           a reader that copies bytes out of a data segment must
           re-read the header (and compare ``.seq``) before trusting
           the copy.
REPRO103   A ``SharedMemory(create=True)`` handle must be owned before
           anything can fail: stored on ``self`` (whose class must
           define ``close``), returned, closed, or handed to another
           function — on **all** paths, exception edges included; and
           any module that creates segments must also know how to
           ``unlink`` them.
REPRO104   A raw write into the SoA index's pooled ``_points``/
           ``_kappas`` arrays must be followed on every normal path by a
           block-summary maintenance touch.  Likewise a class keeping an
           ``X`` container beside an ``X_kernel`` flat mirror (the query
           index's sorted axis) must drop the mirror whenever it
           mutates ``X``.
REPRO105   Snapshot round-trip parity: keys a producer writes that no
           consumer ever reads rot silently (persist-but-never-restore);
           keys a consumer subscripts that no producer writes crash
           every restore.
=========  =============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from tools.lint.cfg import CFG, CFGNode, FunctionNode, build_cfg
from tools.lint.model import (
    MUTATOR_NAMES,
    POOLED_SUMMARY_ATTRS,
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
    targets: List[ast.expr] = []
    for node in ast.walk(frag):
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
        elif isinstance(node, ast.Delete):
            # ``del self._axis[slot]`` mutates the container just as an
            # assignment does; rules that key on writes must see it.
            targets.extend(node.targets)
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
    version_attr = cls.version_attr or "_version"
    version_path = f"self.{version_attr}"
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
                    f"self.{version_attr} — versioned caches will serve "
                    f"stale answers",
                    f"{cls.name}.{name}",
                ))


# ----------------------------------------------------------------------
# REPRO102 — seqlock protocol
# ----------------------------------------------------------------------


def _call_on_struct(frag: ast.AST, structs: Set[str],
                    method: str) -> Optional[ast.Call]:
    for node in ast.walk(frag):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == method
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in structs):
            return node
    return None


def _is_seq_write(frag: ast.AST, module: ModuleModel,
                  aliases: Dict[str, str]) -> bool:
    call = _call_on_struct(frag, module.seq_struct_names, "pack_into")
    if call is None or not call.args:
        return False
    return resolve_path(call.args[0], aliases) in module.control_roots


def _is_control_data_write(frag: ast.AST, module: ModuleModel,
                           aliases: Dict[str, str]) -> bool:
    """A non-seq write into a control root: either another struct packed
    into it, or a raw subscript store."""
    other_structs = module.struct_names - module.seq_struct_names
    call = _call_on_struct(frag, other_structs, "pack_into")
    if call is not None and call.args:
        if resolve_path(call.args[0], aliases) in module.control_roots:
            return True
    for target in _assign_targets(frag):
        if isinstance(target, ast.Subscript):
            if resolve_path(target.value, aliases) in module.control_roots:
                return True
    return False


def _calls_header_reader(frag: ast.AST, module: ModuleModel) -> bool:
    for node in ast.walk(frag):
        if isinstance(node, ast.Call):
            func = node.func
            name: Optional[str] = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name is not None and name in module.header_readers:
                return True
    return False


def _data_copy_node(frag: ast.AST, module: ModuleModel,
                    aliases: Dict[str, str]) -> bool:
    """``x = bytes(seg.buf[...])`` from a *data* (non-control) segment —
    the torn-read hazard REPRO102's reader side guards."""
    control_bases = {
        root[: -len(".buf")] for root in module.control_roots
        if root.endswith(".buf")
    }
    for node in ast.walk(frag):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "bytes" and len(node.args) == 1):
            continue
        arg = node.args[0]
        if not isinstance(arg, ast.Subscript):
            continue
        buf = arg.value
        if not (isinstance(buf, ast.Attribute) and buf.attr == "buf"):
            continue
        base = resolve_path(buf.value, aliases)
        if base is not None and base in control_bases:
            continue
        return True
    return False


def _has_seq_compare(fn: FunctionNode) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            if any(isinstance(op, ast.Attribute) and op.attr == "seq"
                   for op in operands):
                return True
    return False


def _check_seqlock(module: ModuleModel, findings: List[Finding]) -> None:
    if not module.seq_struct_names or not module.control_roots:
        return
    for info in module.functions:
        fn = info.node
        aliases = local_aliases(fn)
        cfg = build_cfg(fn)
        scope = info.qualname

        pairs = _frags(cfg)
        seq_present = any(
            _is_seq_write(frag, module, aliases) for _, frag in pairs
        )
        data_nodes = [
            (node, frag) for node, frag in pairs
            if _is_control_data_write(frag, module, aliases)
        ]

        if seq_present:
            def is_seq(node: CFGNode,
                       _aliases: Dict[str, str] = aliases) -> bool:
                return node.frag is not None and _is_seq_write(
                    node.frag, module, _aliases
                )

            for node, frag in data_nodes:
                if not cfg.bracketed_by(node.index, is_seq):
                    findings.append(_finding(
                        module, frag, "REPRO102",
                        f"{scope}: control-buffer write is not bracketed "
                        f"by seq-word flips (odd before, even after) — "
                        f"readers can observe a torn header",
                        scope,
                    ))
        else:
            for node, frag in data_nodes:
                findings.append(_finding(
                    module, frag, "REPRO102",
                    f"{scope}: writes the seqlock control buffer outside "
                    f"any flip function — no seq bracket protects readers",
                    scope,
                ))

        # Reader side: a bytes() copy out of a data segment must be
        # followed by a header re-read on every normal path, and the
        # function must actually compare .seq somewhere.
        if module.header_readers and info.name not in module.header_readers:
            copy_nodes = [
                (node, frag) for node, frag in pairs
                if _data_copy_node(frag, module, aliases)
            ]

            def rechecks(node: CFGNode) -> bool:
                return node.frag is not None and _calls_header_reader(
                    node.frag, module
                )

            for node, frag in copy_nodes:
                if not cfg.must_pass_through(
                    node.index, rechecks, count_exceptional=False
                ):
                    findings.append(_finding(
                        module, frag, "REPRO102",
                        f"{scope}: copies bytes out of a replica segment "
                        f"without re-reading the header afterwards — the "
                        f"copy may be torn",
                        scope,
                    ))
                elif not _has_seq_compare(fn):
                    findings.append(_finding(
                        module, frag, "REPRO102",
                        f"{scope}: re-reads the header but never compares "
                        f".seq — the torn-read check is incomplete",
                        scope,
                    ))


# ----------------------------------------------------------------------
# REPRO103 — SharedMemory lifecycle
# ----------------------------------------------------------------------


def _creation_call(frag: ast.AST, module: ModuleModel) -> Optional[ast.Call]:
    """A direct or wrapped ``SharedMemory(..., create=True)`` call with a
    *literal* True (attach sites pass False or a variable)."""
    for node in ast.walk(frag):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Name):
            continue
        name = node.func.id
        if name != "SharedMemory" and name not in module.shm_wrappers:
            continue
        for kw in node.keywords:
            if (kw.arg == "create" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True):
                return node
    return None


def _name_in(value: ast.expr, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name
        for node in ast.walk(value)
    )


def _is_resolution(frag: ast.AST, name: str) -> bool:
    """Does this fragment take ownership of local ``name``: store it on
    an object, return it, close it, or hand it to another function?"""
    for node in ast.walk(frag):
        if isinstance(node, ast.Return):
            if node.value is not None and _name_in(node.value, name):
                return True
        elif isinstance(node, ast.Assign):
            stores = any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            )
            if stores and _name_in(node.value, name):
                return True
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("close", "unlink")
                    and isinstance(func.value, ast.Name)
                    and func.value.id == name):
                return True
            args: List[ast.expr] = list(node.args)
            args.extend(kw.value for kw in node.keywords)
            if any(isinstance(a, ast.Name) and a.id == name for a in args):
                return True
    return False


def _check_shm_lifecycle(module: ModuleModel, findings: List[Finding]) -> None:
    module_creates = False
    first_creation: Optional[ast.AST] = None
    for info in module.functions:
        if info.name in module.shm_wrappers:
            continue  # the wrapper itself handles attach-vs-create
        fn = info.node
        cfg = build_cfg(fn)
        scope = info.qualname
        for node, frag in _frags(cfg):
            call = _creation_call(frag, module)
            if call is None:
                continue
            module_creates = True
            if first_creation is None:
                first_creation = call

            # Creation stored straight onto an object?
            owned_at_birth = False
            local_name: Optional[str] = None
            if isinstance(frag, ast.Assign) and len(frag.targets) == 1:
                target = frag.targets[0]
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    owned_at_birth = True
                elif isinstance(target, ast.Name):
                    local_name = target.id
            elif isinstance(frag, ast.Return):
                owned_at_birth = True  # caller takes ownership

            if owned_at_birth:
                if info.class_name is not None:
                    owner = module.classes.get(info.class_name)
                    if owner is not None and not owner.has_close:
                        findings.append(_finding(
                            module, call, "REPRO103",
                            f"{scope}: stores a created SharedMemory "
                            f"segment on {info.class_name}, which has no "
                            f"close() to release it",
                            scope,
                        ))
                continue
            if local_name is None:
                findings.append(_finding(
                    module, call, "REPRO103",
                    f"{scope}: SharedMemory(create=True) result is "
                    f"discarded — the segment leaks",
                    scope,
                ))
                continue

            def resolves(cnode: CFGNode, _name: str = local_name) -> bool:
                return cnode.frag is not None and _is_resolution(
                    cnode.frag, _name
                )

            if cfg.can_escape(node.index, resolves, count_exceptional=True):
                findings.append(_finding(
                    module, call, "REPRO103",
                    f"{scope}: created SharedMemory segment "
                    f"'{local_name}' can leak — a path (exception edges "
                    f"included) reaches exit before it is stored, "
                    f"returned, closed, or handed off",
                    scope,
                ))
    if module_creates and not module.has_unlinker and first_creation is not None:
        findings.append(_finding(
            module, first_creation, "REPRO103",
            "module creates SharedMemory segments but has no "
            "unlink-capable janitor — segments outlive every process",
            "<module>",
        ))


# ----------------------------------------------------------------------
# REPRO104 — flat-mirror / block-summary invalidation
# ----------------------------------------------------------------------


def _mirror_pairs(cls: ClassModel) -> Dict[str, str]:
    """``{container_attr: kernel_attr}`` for every ``X`` / ``X_kernel``
    pair the class keeps — a tracked container with a lazily rebuilt
    flat mirror (``self._axis`` / ``self._axis_kernel`` style)."""
    pairs: Dict[str, str] = {}
    for kernel_attr in cls.cache_attrs:
        if not kernel_attr.endswith("_kernel"):
            continue
        stem = kernel_attr[: -len("_kernel")]
        if stem in cls.tracked_containers:
            pairs[stem] = kernel_attr
    return pairs


def _check_mirror_kernels(module: ModuleModel,
                          findings: List[Finding]) -> None:
    """A mutation of a mirrored container must drop/rewrite its kernel
    on every normal path, or searches run against a stale mirror."""
    for cls in module.classes.values():
        pairs = _mirror_pairs(cls)
        if not pairs:
            continue
        for name, fn in cls.methods.items():
            if name == "__init__":
                continue
            aliases = local_aliases(fn)
            cfg = build_cfg(fn)
            scope = f"{cls.name}.{name}"
            for attr, kernel_attr in pairs.items():
                tracked_paths = {f"self.{attr}": attr}
                kernel_path = f"self.{kernel_attr}"

                def invalidates(node: CFGNode,
                                _aliases: Dict[str, str] = aliases,
                                _path: str = kernel_path) -> bool:
                    return node.frag is not None and _writes_path(
                        node.frag, _path, _aliases
                    )

                for node, frag in _frags(cfg):
                    if _container_mutation(
                        frag, tracked_paths, aliases
                    ) is None:
                        continue
                    if invalidates(node):
                        continue
                    if not cfg.must_pass_through(
                        node.index, invalidates, count_exceptional=False
                    ):
                        findings.append(_finding(
                            module, frag, "REPRO104",
                            f"{scope}: mutates self.{attr} on a path "
                            f"that never invalidates its "
                            f"self.{kernel_attr} mirror — vectorised "
                            f"routing will search a stale axis",
                            scope,
                        ))


def _pooled_write(frag: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    for target in _assign_targets(frag):
        if not isinstance(target, ast.Subscript):
            continue
        path = resolve_path(target.value, aliases)
        if path in ("self._points", "self._kappas"):
            return path
    return None


def _check_pooled_summaries(module: ModuleModel,
                            findings: List[Finding]) -> None:
    for cls in module.classes.values():
        if not cls.is_pooled:
            continue
        for name, fn in cls.methods.items():
            if name == "__init__":
                continue
            aliases = local_aliases(fn)
            cfg = build_cfg(fn)
            scope = f"{cls.name}.{name}"
            maintenance = cls.maintenance_methods

            def maintains(node: CFGNode,
                          _maint: Set[str] = maintenance) -> bool:
                frag = node.frag
                if frag is None:
                    return False
                for sub in ast.walk(frag):
                    if (isinstance(sub, ast.Attribute)
                            and sub.attr in POOLED_SUMMARY_ATTRS):
                        return True
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and isinstance(sub.func.value, ast.Name)
                            and sub.func.value.id == "self"
                            and sub.func.attr in _maint):
                        return True
                return False

            for node, frag in _frags(cfg):
                path = _pooled_write(frag, aliases)
                if path is None:
                    continue
                if maintains(node):
                    continue
                if not cfg.must_pass_through(
                    node.index, maintains, count_exceptional=False
                ):
                    findings.append(_finding(
                        module, frag, "REPRO104",
                        f"{scope}: raw write into {path} on a path that "
                        f"never refreshes the block summaries "
                        f"(_blk_*/_dirty) — maintenance pruning goes "
                        f"stale",
                        scope,
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
    """Run REPRO101-104 over one module (REPRO105 is whole-run; see
    :func:`check_snapshot_parity`)."""
    findings: List[Finding] = []
    for cls in module.classes.values():
        _check_version_bumps(module, cls, findings)
    _check_seqlock(module, findings)
    _check_shm_lifecycle(module, findings)
    _check_mirror_kernels(module, findings)
    _check_pooled_summaries(module, findings)
    return findings
