"""Cross-module class/protocol model for the dataflow lint rules.

One pass over every linted file classifies the code the REPRO101-105
rules care about:

* which classes carry a version counter (``_version``, or the
  continuous-query ``changes`` convention) and which of their
  attributes are *tracked containers* (REPRO101);
* which modules speak the seqlock protocol — the ``struct.Struct``
  constants whose name contains ``SEQ``, the control-buffer roots they
  flip, and the header-reader helpers (REPRO102);
* which functions wrap ``SharedMemory`` creation and whether the module
  has an unlink-capable janitor (REPRO103);
* which classes keep an ``X_kernel`` flat mirror or pool SoA blocks,
  and which methods count as block-summary maintenance (REPRO104);
* which functions produce snapshot/spec dictionaries and which consume
  them (REPRO105).

Everything here is *name-based heuristics tuned to this codebase's
conventions* — the point is catching the discipline slips the fast
paths depend on, not general-purpose soundness.  The rules that consume
this model live in :mod:`tools.lint.dataflow`.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

__all__ = [
    "ClassModel", "FunctionInfo", "Model", "ModuleModel", "ProducerInfo",
    "ConsumerInfo", "MUTATOR_NAMES", "POOLED_MAINTENANCE_METHODS",
    "POOLED_SUMMARY_ATTRS", "VERSION_COUNTER_ATTRS", "build_model",
    "expr_path", "local_aliases", "iter_functions",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Attributes that act as a class's change/version counter (REPRO101).
#: ``_version`` is the StabCache convention; ``changes`` is the
#: continuous-query convention — a :class:`QueryGroup`'s memoised
#: sorted views are invalidated through its cumulative ``changes``
#: counter exactly the way versioned caches key on ``_version``, so a
#: container mutation that skips the bump serves the same stale answer.
#: ``changes`` only counts when ``__init__`` assigns it an integer
#: literal (plain data attributes named ``changes`` stay untracked).
VERSION_COUNTER_ATTRS: FrozenSet[str] = frozenset({"_version", "changes"})

#: Method names on a tracked container that mutate it (REPRO101).
MUTATOR_NAMES: FrozenSet[str] = frozenset({
    "append", "appendleft", "add", "insert", "extend", "remove",
    "discard", "pop", "popleft", "popitem", "clear", "update", "push",
    "replace", "delete", "delete_node", "setdefault", "sort", "reverse",
})

#: Container-constructor names recognised in ``__init__`` (REPRO101).
_CONTAINER_CTORS: FrozenSet[str] = frozenset({
    "list", "dict", "set", "deque", "defaultdict", "OrderedDict",
    "Counter", "bytearray",
})

#: Block-summary attributes of an SoA pool (REPRO104).  A statement that
#: touches any of these (or calls a method that does) counts as keeping
#: the summaries honest after a pooled-array write.
POOLED_SUMMARY_ATTRS: FrozenSet[str] = frozenset({
    "_blk_lower", "_blk_upper", "_blk_maxk", "_blk_len", "_dirty",
})

#: Pooled arrays whose raw writes trigger the SoA side of REPRO104.
_POOLED_TRIGGER_ATTRS: FrozenSet[str] = frozenset({"_points", "_kappas"})

#: Bulk-maintenance methods of an SoA pool (REPRO104).  These are part
#: of the pooled-class *contract* — each call re-summarises every block
#: it touches — so they count as maintenance by name, independently of
#: the attribute-reference heuristic below (no blanket waivers needed
#: in the batched-ingest call sites).
POOLED_MAINTENANCE_METHODS: FrozenSet[str] = frozenset({
    "insert_many", "delete_many",
})

#: Function-name pattern marking snapshot/spec *producers* (REPRO105).
_PRODUCER_NAME = re.compile(r"snapshot|spec|dump|config", re.IGNORECASE)

#: Parameter names marking snapshot/spec *consumers* (REPRO105).
_CONSUMER_PARAMS: FrozenSet[str] = frozenset({"snap", "snapshot", "spec"})


def expr_path(node: ast.expr) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as a dotted path.

    ``self._control.buf`` -> ``"self._control.buf"``; anything with a
    call or subscript in the chain renders as ``None``.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = expr_path(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def local_aliases(fn: FunctionNode) -> Dict[str, str]:
    """Flow-insensitive local-name aliases: ``buf = self._control.buf``
    yields ``{"buf": "self._control.buf"}``.  Names rebound to anything
    that is not a plain Name/Attribute chain are dropped (ambiguous)."""
    aliases: Dict[str, str] = {}
    poisoned: Set[str] = set()
    for stmt in ast.walk(fn):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = expr_path(stmt.value)
        if value is None or value == target.id:
            poisoned.add(target.id)
            continue
        if target.id in aliases and aliases[target.id] != value:
            poisoned.add(target.id)
            continue
        aliases[target.id] = value
    for name in poisoned:
        aliases.pop(name, None)
    # Resolve alias-of-alias chains (bounded; cycles just stop).
    for _ in range(3):
        changed = False
        for name, path in list(aliases.items()):
            head, _, rest = path.partition(".")
            if head in aliases and head != name:
                resolved = aliases[head] + ("." + rest if rest else "")
                if resolved != path:
                    aliases[name] = resolved
                    changed = True
        if not changed:
            break
    return aliases


def resolve_path(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """``expr_path`` with the leading local name substituted through the
    function's alias map."""
    path = expr_path(node)
    if path is None:
        return None
    head, _, rest = path.partition(".")
    if head in aliases:
        return aliases[head] + ("." + rest if rest else "")
    return path


def iter_functions(tree: ast.AST) -> Iterator[Tuple[str, FunctionNode]]:
    """Yield ``(qualname, fn)`` for every def in a module, including
    methods (``Class.method``); nested defs get dotted parents too."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, FunctionNode]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child
                yield from walk(child, qual + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")

    return walk(tree, "")


class FunctionInfo:
    """Per-function facts needed across rule checks."""

    __slots__ = ("qualname", "name", "node", "class_name")

    def __init__(self, qualname: str, node: FunctionNode,
                 class_name: Optional[str]) -> None:
        self.qualname = qualname
        self.name = node.name
        self.node = node
        self.class_name = class_name


class ProducerInfo:
    """A snapshot/spec-producing function: const keys it writes."""

    __slots__ = ("qualname", "path", "keys")

    def __init__(self, qualname: str, path: str) -> None:
        self.qualname = qualname
        self.path = path
        #: key -> first line it is produced at
        self.keys: Dict[str, int] = {}


class ConsumerInfo:
    """A snapshot/spec-consuming function: const keys it reads."""

    __slots__ = ("qualname", "path", "lineno", "subscript_keys", "get_keys")

    def __init__(self, qualname: str, path: str, lineno: int) -> None:
        self.qualname = qualname
        self.path = path
        self.lineno = lineno
        #: key -> first line read via ``d[key]`` (hard requirement)
        self.subscript_keys: Dict[str, int] = {}
        #: keys read via ``d.get(key, ...)`` (optional, never flagged)
        self.get_keys: Set[str] = set()


class ClassModel:
    """What the rules need to know about one class."""

    __slots__ = (
        "name", "path", "lineno", "has_version", "version_attr",
        "tracked_containers", "cache_attrs", "is_pooled", "methods",
        "has_close", "maintenance_methods",
    )

    def __init__(self, name: str, path: str, lineno: int) -> None:
        self.name = name
        self.path = path
        self.lineno = lineno
        #: class assigns a version counter in ``__init__``
        self.has_version = False
        #: which counter it is (``_version`` wins when both appear)
        self.version_attr: Optional[str] = None
        #: attrs holding mutable containers built in ``__init__``
        self.tracked_containers: Set[str] = set()
        #: flat-mirror attrs (``self._axis_kernel = None`` style)
        self.cache_attrs: Set[str] = set()
        #: SoA pool (``_points`` + ``_dirty``) — summary-discipline rules
        self.is_pooled = False
        self.methods: Dict[str, FunctionNode] = {}
        self.has_close = False
        #: methods that touch the SoA block summaries
        self.maintenance_methods: Set[str] = set()


class ModuleModel:
    """Per-file slice of the model."""

    __slots__ = (
        "path", "tree", "classes", "functions", "struct_names",
        "seq_struct_names", "control_roots", "header_readers",
        "shm_wrappers", "has_unlinker", "producers", "consumers",
    )

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.classes: Dict[str, ClassModel] = {}
        self.functions: List[FunctionInfo] = []
        #: module-level ``NAME = struct.Struct(...)`` constants
        self.struct_names: Set[str] = set()
        #: the subset whose name contains ``SEQ`` — seqlock flip words
        self.seq_struct_names: Set[str] = set()
        #: resolved paths seq flips write to (e.g. ``self._control.buf``)
        self.control_roots: Set[str] = set()
        #: function/method names that unpack a header from a control root
        self.header_readers: Set[str] = set()
        #: functions forwarding a caller-supplied ``create`` flag to
        #: ``SharedMemory`` (attach-vs-create pass-through wrappers)
        self.shm_wrappers: Set[str] = set()
        #: module contains an ``.unlink()``-calling janitor
        self.has_unlinker = False
        self.producers: List[ProducerInfo] = []
        self.consumers: List[ConsumerInfo] = []


class Model:
    """The whole-run model the dataflow rules query."""

    __slots__ = ("modules",)

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleModel] = {}

    # -- REPRO105 aggregates -------------------------------------------

    def produced_keys(self) -> Set[str]:
        keys: Set[str] = set()
        for module in self.modules.values():
            for producer in module.producers:
                keys.update(producer.keys)
        return keys

    def consumed_keys(self) -> Set[str]:
        keys: Set[str] = set()
        for module in self.modules.values():
            for consumer in module.consumers:
                keys.update(consumer.subscript_keys)
                keys.update(consumer.get_keys)
        return keys


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------


def _is_container_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set,
                          ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Name):
            return (func.id in _CONTAINER_CTORS
                    or (func.id[:1].isupper() and func.id.isidentifier()))
        if isinstance(func, ast.Attribute):
            return func.attr in _CONTAINER_CTORS
    return False


def _init_self_assigns(init: FunctionNode) -> Iterator[Tuple[str, ast.expr]]:
    """``(attr, value)`` for every ``self.<attr> = value`` in __init__
    (plain and annotated assignments alike)."""
    for stmt in ast.walk(init):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        if (target is not None and value is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            yield target.attr, value


def _scan_init(model: ClassModel, init: FunctionNode) -> None:
    for attr, value in _init_self_assigns(init):
        if attr in VERSION_COUNTER_ATTRS and isinstance(
            value, ast.Constant
        ) and isinstance(value.value, int):
            model.has_version = True
            if model.version_attr is None or attr == "_version":
                model.version_attr = attr
            continue
        if attr.endswith("_kernel") and isinstance(
            value, ast.Constant
        ) and value.value is None:
            model.cache_attrs.add(attr)
            continue
        if _is_container_value(value):
            model.tracked_containers.add(attr)


def _writes_attr(fn: FunctionNode, attrs: FrozenSet[str]) -> bool:
    for node in ast.walk(fn):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            inner = target
            while isinstance(inner, ast.Subscript):
                inner = inner.value
            if isinstance(inner, ast.Attribute) and inner.attr in attrs:
                return True
    return False


def _references_attr(fn: FunctionNode, attrs: FrozenSet[str]) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr in attrs
        for node in ast.walk(fn)
    )


def _finish_class(model: ClassModel) -> None:
    if model.is_pooled:
        model.maintenance_methods |= POOLED_MAINTENANCE_METHODS
    for name, fn in model.methods.items():
        if name == "close":
            model.has_close = True
        if _references_attr(fn, POOLED_SUMMARY_ATTRS) or _writes_attr(
            fn, POOLED_SUMMARY_ATTRS
        ):
            model.maintenance_methods.add(name)
    # One transitive round: a method that only calls maintenance methods
    # (e.g. delete -> _release_block) is itself maintenance.
    for name, fn in model.methods.items():
        if name in model.maintenance_methods:
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in model.maintenance_methods):
                model.maintenance_methods.add(name)
                break


def _scan_class(module: ModuleModel, node: ast.ClassDef) -> None:
    model = ClassModel(node.name, module.path, node.lineno)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.methods[stmt.name] = stmt
    init = model.methods.get("__init__")
    if init is not None:
        _scan_init(model, init)
        # SoA pools assign numpy arrays (`_np.zeros(...)`) which are not
        # container literals; detect the pool by its signature attrs.
        attrs_assigned = {attr for attr, _ in _init_self_assigns(init)}
        if "_points" in attrs_assigned and "_dirty" in attrs_assigned:
            model.is_pooled = True
    _finish_class(model)
    module.classes[node.name] = model


def _scan_structs(module: ModuleModel) -> None:
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        value = stmt.value
        if not isinstance(target, ast.Name):
            continue
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "Struct"):
            module.struct_names.add(target.id)
            if "SEQ" in target.id.upper():
                module.seq_struct_names.add(target.id)


def _forwards_create_flag(call: ast.Call) -> bool:
    """True when a ``SharedMemory(...)`` call defers attach-vs-create.

    Either the ``create`` keyword is a non-literal expression (typically
    a parameter forwarded verbatim) or the call expands ``**kwargs`` so
    the flag is invisible here.  A literal ``create=True`` / ``False``
    makes the call a concrete creation/attach site instead.
    """
    starred = False
    for kw in call.keywords:
        if kw.arg is None:
            starred = True
        elif kw.arg == "create":
            return not isinstance(kw.value, ast.Constant)
    return starred


def _scan_function_protocols(module: ModuleModel, info: FunctionInfo) -> None:
    fn = info.node
    aliases = local_aliases(fn)
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # SharedMemory wrapper?  Only a *pass-through* counts: the call
        # forwards a non-literal ``create`` flag (``create=create`` or
        # ``**kwargs``), so the caller decides attach-vs-create and the
        # wrapper itself has nothing to analyze.  A direct call with a
        # literal ``create=True`` is a creation site REPRO103 must see.
        if isinstance(func, ast.Name) and func.id == "SharedMemory":
            if _forwards_create_flag(node):
                module.shm_wrappers.add(info.name)
        if isinstance(func, ast.Attribute) and func.attr == "unlink":
            module.has_unlinker = True
        if not isinstance(func, ast.Attribute):
            continue
        if not isinstance(func.value, ast.Name):
            continue
        struct_name = func.value.id
        if struct_name not in module.struct_names or not node.args:
            continue
        root = resolve_path(node.args[0], aliases)
        if func.attr == "pack_into" and struct_name in module.seq_struct_names:
            if root is not None:
                module.control_roots.add(root)


def _scan_header_readers(module: ModuleModel) -> None:
    """Second pass (needs the full control-root set): find functions
    that unpack a header struct from a control root."""
    for info in module.functions:
        aliases = local_aliases(info.node)
        for node in ast.walk(info.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unpack_from"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in module.struct_names
                    and node.args):
                root = resolve_path(node.args[0], aliases)
                if root is not None and root in module.control_roots:
                    module.header_readers.add(info.name)
                    break


def _const_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _scan_snapshot_roles(module: ModuleModel, info: FunctionInfo) -> None:
    fn = info.node
    is_producer_name = bool(_PRODUCER_NAME.search(fn.name))
    producer: Optional[ProducerInfo] = None
    if is_producer_name:
        producer = ProducerInfo(info.qualname, module.path)
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    text = _const_str(key) if key is not None else None
                    if text is not None and key is not None:
                        producer.keys.setdefault(text, key.lineno)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        text = _const_str(target.slice)
                        if text is not None:
                            producer.keys.setdefault(text, target.lineno)
        if producer.keys:
            module.producers.append(producer)

    params = {arg.arg for arg in fn.args.args}
    params.update(arg.arg for arg in fn.args.kwonlyargs)
    if not (params & _CONSUMER_PARAMS):
        return
    consumer = ConsumerInfo(info.qualname, module.path, fn.lineno)
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and not isinstance(
            node.ctx, ast.Store
        ):
            text = _const_str(node.slice)
            if text is not None:
                consumer.subscript_keys.setdefault(text, node.lineno)
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and node.args):
            text = _const_str(node.args[0])
            if text is not None:
                consumer.get_keys.add(text)
    if consumer.subscript_keys or consumer.get_keys:
        module.consumers.append(consumer)


def build_module_model(path: str, tree: ast.Module) -> ModuleModel:
    module = ModuleModel(path, tree)
    _scan_structs(module)
    class_of: Dict[int, str] = {}
    for class_node in ast.walk(tree):
        if isinstance(class_node, ast.ClassDef):
            _scan_class(module, class_node)
            for stmt in class_node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    class_of[id(stmt)] = class_node.name
    for qualname, fn in iter_functions(tree):
        info = FunctionInfo(qualname, fn, class_of.get(id(fn)))
        module.functions.append(info)
        _scan_function_protocols(module, info)
        _scan_snapshot_roles(module, info)
    _scan_header_readers(module)
    return module


def build_model(sources: Dict[str, ast.Module]) -> Model:
    """Build the whole-run model from ``{path: parsed module}``."""
    model = Model()
    for path, tree in sources.items():
        model.modules[path] = build_module_model(path, tree)
    return model
