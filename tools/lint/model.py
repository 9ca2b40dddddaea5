"""Cross-module class/protocol model for the dataflow lint rules.

One pass over every linted file classifies the code the REPRO101 and
REPRO105 rules care about:

* which classes carry a ``_version`` counter and which of their
  attributes are *tracked containers* (REPRO101);
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
    "ClassModel", "Model", "ModuleModel", "ProducerInfo",
    "ConsumerInfo", "MUTATOR_NAMES", "VERSION_COUNTER_ATTRS", "build_model",
    "expr_path", "local_aliases", "iter_functions",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Attributes that act as a class's version counter (REPRO101): the
#: StabCache convention.  It only counts when ``__init__`` assigns it an
#: integer literal.
VERSION_COUNTER_ATTRS: FrozenSet[str] = frozenset({"_version"})

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
        "name", "path", "lineno", "has_version", "tracked_containers",
        "methods",
    )

    def __init__(self, name: str, path: str, lineno: int) -> None:
        self.name = name
        self.path = path
        self.lineno = lineno
        #: class assigns a version counter in ``__init__``
        self.has_version = False
        #: attrs holding mutable containers built in ``__init__``
        self.tracked_containers: Set[str] = set()
        self.methods: Dict[str, FunctionNode] = {}


class ModuleModel:
    """Per-file slice of the model."""

    __slots__ = ("path", "classes", "producers", "consumers")

    def __init__(self, path: str) -> None:
        self.path = path
        self.classes: Dict[str, ClassModel] = {}
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
            continue
        if _is_container_value(value):
            model.tracked_containers.add(attr)


def _scan_class(module: ModuleModel, node: ast.ClassDef) -> None:
    model = ClassModel(node.name, module.path, node.lineno)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.methods[stmt.name] = stmt
    init = model.methods.get("__init__")
    if init is not None:
        _scan_init(model, init)
    module.classes[node.name] = model


def _const_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _scan_snapshot_roles(module: ModuleModel, qualname: str,
                         fn: FunctionNode) -> None:
    is_producer_name = bool(_PRODUCER_NAME.search(fn.name))
    producer: Optional[ProducerInfo] = None
    if is_producer_name:
        producer = ProducerInfo(qualname, module.path)
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
    consumer = ConsumerInfo(qualname, module.path, fn.lineno)
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
    module = ModuleModel(path)
    for class_node in ast.walk(tree):
        if isinstance(class_node, ast.ClassDef):
            _scan_class(module, class_node)
    for qualname, fn in iter_functions(tree):
        _scan_snapshot_roles(module, qualname, fn)
    return module


def build_model(sources: Dict[str, ast.Module]) -> Model:
    """Build the whole-run model from ``{path: parsed module}``."""
    model = Model()
    for path, tree in sources.items():
        model.modules[path] = build_module_model(path, tree)
    return model
