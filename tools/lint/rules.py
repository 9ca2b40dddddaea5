"""The REPRO lint rules — AST checks for paper-invariant hygiene.

Each rule encodes a convention this codebase relies on for correctness
of the reproduction, not a general style preference:

=========  =============================================================
Code       What it forbids, and why
=========  =============================================================
REPRO001   Bare ``assert`` statements.  ``python -O`` strips asserts,
           so a safety check written as one silently vanishes in
           optimised runs.  Structural checks must raise
           :class:`repro.exceptions.StructureCorruptionError` (via the
           ``corruption()`` factory) instead.
REPRO002   Inline coordinate dominance tests —
           ``all(...)/any(...)`` over ``zip(...)`` with ``<``/``<=``/
           ``>``/``>=`` element comparisons.  Dominance has exactly one
           definition (DESIGN.md section 7: minimisation, weak vs
           strict, the duplicate tie rule) and it lives in
           :mod:`repro.core.dominance`; a hand-rolled comparison
           drifts from it.  ``core/dominance.py`` itself and the MBR
           arithmetic in ``structures/mbr.py`` are exempt.
REPRO003   Mutable default arguments (``def f(x=[])``) — the classic
           shared-state trap.
REPRO004   ``==`` / ``!=`` on coordinate containers (attributes named
           ``values`` or ``points``/``point``).  Coordinates are floats;
           equality on them is almost always a dominance or duplicate
           question that :mod:`repro.core.dominance` answers with the
           documented tie convention.  ``__eq__``/``__ne__``/
           ``__hash__`` implementations are exempt; deliberate
           duplicate-identity checks carry a waiver.
REPRO005   Hot-path node classes without ``__slots__``.  Classes whose
           name ends in ``Node``/``Record``/``Entry``/``Handle``/
           ``Element``/``Interval`` are allocated per stream element or
           per tree node; an instance ``__dict__`` there costs real
           memory and cache locality.  Decorated classes (dataclasses)
           are exempt — they are outcome values, not per-node storage.
=========  =============================================================

Suppression: append ``# lint: skip=REPRO00X`` (comma-separate several
codes) to the offending line — or to the ``def``/``class`` line for
rules that anchor there.  Waivers are deliberate and reviewable; the
catalogue of current ones is in ``docs/DEVELOPING.md``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, NamedTuple, Set, Tuple

__all__ = ["Finding", "RULES", "check_source"]


class Finding(NamedTuple):
    """One rule violation at a source location.

    ``scope`` is the dotted qualname of the enclosing class/function —
    it anchors baseline entries so they survive unrelated line churn.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    scope: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


RULES: Dict[str, str] = {
    "REPRO001": "bare assert (erased by python -O); raise "
                "StructureCorruptionError via corruption() instead",
    "REPRO002": "inline coordinate comparison bypasses core.dominance",
    "REPRO003": "mutable default argument",
    "REPRO004": "float equality on coordinate values; use core.dominance "
                "or an explicit waiver",
    "REPRO005": "hot-path node class without __slots__",
    "REPRO101": "container mutation on a CFG path without a _version "
                "bump; versioned caches go stale",
    "REPRO105": "snapshot round-trip parity: key persisted but never "
                "restored, or required but never produced",
}

#: Files allowed to hand-roll coordinate comparisons (REPRO002): the
#: canonical definition itself, and MBR arithmetic which compares
#: box corners, not element coordinates.
_DOMINANCE_EXEMPT_SUFFIXES: Tuple[str, ...] = (
    "core/dominance.py",
    "structures/mbr.py",
)

_COORD_ATTRS: Set[str] = {"values", "point", "points"}

_SLOTTED_SUFFIXES: Tuple[str, ...] = (
    "Node", "Record", "Entry", "Handle", "Element", "Interval",
)

_EQ_EXEMPT_FUNCS: Set[str] = {"__eq__", "__ne__", "__hash__"}

_ORDER_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _parse_waivers(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of waived codes from ``# lint: skip=...``."""
    waivers: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        marker = line.find("# lint:")
        if marker < 0:
            continue
        directive = line[marker + len("# lint:"):].strip()
        if not directive.startswith("skip="):
            continue
        codes = {c.strip() for c in directive[len("skip="):].split(",")}
        waivers[lineno] = {c for c in codes if c in RULES}
    return waivers


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray"}
    return False


def _is_zip_compare(call: ast.Call) -> bool:
    """``all(... for ... in zip(...))`` (or ``any``) whose element is an
    ordering comparison — the shape of a hand-rolled dominance test."""
    if not (isinstance(call.func, ast.Name) and call.func.id in {"all", "any"}):
        return False
    if len(call.args) != 1 or not isinstance(call.args[0], ast.GeneratorExp):
        return False
    gen = call.args[0]
    iterates_zip = any(
        isinstance(comp.iter, ast.Call)
        and isinstance(comp.iter.func, ast.Name)
        and comp.iter.func.id == "zip"
        for comp in gen.generators
    )
    if not iterates_zip:
        return False
    return any(
        isinstance(op, _ORDER_OPS)
        for node in ast.walk(gen.elt)
        if isinstance(node, ast.Compare)
        for op in node.ops
    )


class _Checker(ast.NodeVisitor):
    def __init__(self, path: str, dominance_exempt: bool) -> None:
        self.path = path
        self.dominance_exempt = dominance_exempt
        self.findings: List[Finding] = []
        self._func_stack: List[str] = []
        self._scope_stack: List[str] = []

    def _scope(self) -> str:
        return ".".join(self._scope_stack) if self._scope_stack else "<module>"

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        self.findings.append(
            Finding(self.path, line, col, code, message, self._scope())
        )

    # -- REPRO001 ------------------------------------------------------

    def visit_Assert(self, node: ast.Assert) -> None:
        self._report(node, "REPRO001", RULES["REPRO001"])
        self.generic_visit(node)

    # -- REPRO002 ------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if not self.dominance_exempt and _is_zip_compare(node):
            self._report(node, "REPRO002", RULES["REPRO002"])
        self.generic_visit(node)

    # -- REPRO003 + function context for REPRO004 ----------------------

    def _check_function(self, node: ast.AST, args: ast.arguments,
                        name: str) -> None:
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if _is_mutable_literal(default):
                self._report(default, "REPRO003",
                             f"{RULES['REPRO003']} in {name}()")
        self._func_stack.append(name)
        self._scope_stack.append(name)
        self.generic_visit(node)
        self._scope_stack.pop()
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node, node.args, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node, node.args, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_function(node, node.args, "<lambda>")

    # -- REPRO004 ------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            self.generic_visit(node)
            return
        if self._func_stack and self._func_stack[-1] in _EQ_EXEMPT_FUNCS:
            self.generic_visit(node)
            return
        operands = [node.left] + list(node.comparators)
        if any(
            isinstance(operand, ast.Attribute)
            and operand.attr in _COORD_ATTRS
            for operand in operands
        ):
            self._report(node, "REPRO004", RULES["REPRO004"])
        self.generic_visit(node)

    # -- REPRO005 ------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name.endswith(_SLOTTED_SUFFIXES) and not node.decorator_list:
            has_slots = any(
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets
                )
                for stmt in node.body
            )
            if not has_slots:
                self._report(node, "REPRO005",
                             f"class {node.name}: {RULES['REPRO005']}")
        self._scope_stack.append(node.name)
        self.generic_visit(node)
        self._scope_stack.pop()


def collect_flat_findings(path: str, tree: ast.Module) -> List[Finding]:
    """Run the flat (single-statement) rules; no waiver filtering."""
    normalized = path.replace("\\", "/")
    checker = _Checker(
        path,
        dominance_exempt=normalized.endswith(_DOMINANCE_EXEMPT_SUFFIXES),
    )
    checker.visit(tree)
    return checker.findings


def check_source(path: str, source: str) -> List[Finding]:
    """Lint one file's source with the full rule pack (flat rules plus
    the REPRO1xx dataflow pack, modelled over this file alone);
    returns unsuppressed findings."""
    # Local import: the engine builds on rules, model and dataflow; this
    # keeps the historical ``from tools.lint.rules import check_source``
    # entry point while the real orchestration lives in the package.
    from tools.lint import analyze_sources

    return analyze_sources({path: source}).findings
