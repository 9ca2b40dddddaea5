"""Per-function control-flow graphs for the dataflow lint rules.

The REPRO101 rule is a *path* property ("every path through the
mutation also bumps the version"), so a flat AST walk cannot express
it.  This module builds a statement-level CFG for one function
and answers the path query the rules need:

* :meth:`CFG.must_pass_through` — does **every** entry→exit path that
  executes a given node also execute a *satisfier* node?

Design points, deliberately simple rather than exactly faithful:

* One CFG node per executable statement *fragment*: an ``if``/``while``
  node carries only its test expression, a ``for`` only its iterable —
  so predicates that inspect ``node.frag`` never see the body of a
  compound statement.
* **Exception edges.**  Every fragment containing a call (or an
  explicit ``raise``/``assert``) gets an edge to the innermost
  enclosing handler dispatch, or to the synthetic ``raise_exit``.
  These edges are kept separate from normal successors so a rule can
  distinguish "the node completed" from "the node itself raised".
* ``try``/``except`` is modelled with a *dispatch* node: body fragments
  raise into the dispatch, the dispatch fans out to each handler (and
  onward to the outer handler unless some handler catches everything).
  ``finally`` bodies run on the normal path and are also entered from
  the dispatch, with an exceptional edge out of their last node —
  an over-approximation that keeps cleanup-in-finally sound for the
  leak rule.
* Loops get both the take-the-loop and the zero-iteration edge, even
  for ``while True`` — conservative extra paths only ever make the
  rules stricter, never unsound.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, List, Optional, Sequence, Set, Union

__all__ = ["CFG", "CFGNode", "build_cfg"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Statement types traversed structurally; everything else is a plain
#: single-fragment node.
_PLAIN = (
    ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Delete,
    ast.Assert, ast.Pass, ast.Import, ast.ImportFrom, ast.Global,
    ast.Nonlocal,
)


class CFGNode:
    """One executable fragment of the function body."""

    __slots__ = ("index", "frag", "label", "succ", "exc_succ")

    def __init__(self, index: int, frag: Optional[ast.AST], label: str) -> None:
        self.index = index
        #: The AST fragment that executes at this node (``None`` for the
        #: synthetic entry/exit/dispatch nodes).  Walking ``frag`` never
        #: reaches into a compound statement's body.
        self.frag = frag
        self.label = label
        self.succ: List[int] = []
        self.exc_succ: List[int] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        line = getattr(self.frag, "lineno", "-")
        return f"CFGNode({self.index}, {self.label}, line={line})"


class CFG:
    """Control-flow graph of one function."""

    __slots__ = ("nodes", "entry", "exit", "raise_exit")

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self.entry = 0
        self.exit = 0
        self.raise_exit = 0

    # ------------------------------------------------------------------
    # Construction helpers (used by the builder)
    # ------------------------------------------------------------------

    def _new_node(self, frag: Optional[ast.AST], label: str) -> int:
        node = CFGNode(len(self.nodes), frag, label)
        self.nodes.append(node)
        return node.index

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def real_nodes(self) -> Iterable[CFGNode]:
        """All nodes carrying an AST fragment."""
        return (node for node in self.nodes if node.frag is not None)

    def _reach(
        self,
        starts: Sequence[int],
        blocked: Set[int],
        include_exceptional: bool = True,
    ) -> Set[int]:
        """Nodes reachable from ``starts`` without passing *through* a
        blocked node (blocked nodes appear in the result as endpoints
        but are never traversed beyond)."""
        seen: Set[int] = set()
        stack = list(starts)
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            if index in blocked:
                continue
            node = self.nodes[index]
            targets = list(node.succ)
            if include_exceptional:
                targets.extend(node.exc_succ)
            for target in targets:
                if target not in seen:
                    stack.append(target)
        return seen

    def _matching(self, predicate: Callable[[CFGNode], bool]) -> Set[int]:
        return {
            node.index
            for node in self.nodes
            if node.frag is not None and predicate(node)
        }

    def must_pass_through(
        self,
        target: int,
        satisfier: Callable[[CFGNode], bool],
        count_exceptional: bool = True,
    ) -> bool:
        """Whether every entry→exit path executing ``target`` also
        executes a satisfier node.

        ``target``'s own exception edge is excluded: an exception *from*
        the target means the operation may not have happened, so no
        obligation arises on that path.  ``count_exceptional`` controls
        whether an escape to the exceptional exit (from a *later* node)
        violates the obligation.
        """
        blocked = self._matching(satisfier)
        if target in blocked:
            return True
        before = self._reach([self.entry], blocked)
        if target not in before:
            return True  # no satisfier-free way to even reach the target
        after = self._reach(self.nodes[target].succ, blocked)
        if self.exit in after:
            return False
        if count_exceptional and self.raise_exit in after:
            return False
        return True


class _LoopFrame:
    __slots__ = ("head", "breaks")

    def __init__(self, head: int) -> None:
        self.head = head
        self.breaks: List[int] = []


def _may_raise(frag: Optional[ast.AST]) -> bool:
    if frag is None:
        return False
    if isinstance(frag, (ast.Raise, ast.Assert)):
        return True
    return any(isinstance(sub, ast.Call) for sub in ast.walk(frag))


def _catches_everything(handlers: Sequence[ast.ExceptHandler]) -> bool:
    for handler in handlers:
        if handler.type is None:
            return True
        if isinstance(handler.type, ast.Name) and handler.type.id in (
            "Exception", "BaseException"
        ):
            return True
    return False


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.loops: List[_LoopFrame] = []
        #: Innermost exception target (dispatch node or raise_exit).
        self.exc_targets: List[int] = []

    # -- wiring --------------------------------------------------------

    def _connect(self, frontier: Sequence[int], target: int) -> None:
        for index in frontier:
            succ = self.cfg.nodes[index].succ
            if target not in succ:
                succ.append(target)

    def _node(self, frag: Optional[ast.AST], label: str) -> int:
        index = self.cfg._new_node(frag, label)
        if _may_raise(frag):
            node = self.cfg.nodes[index]
            node.exc_succ.append(self.exc_targets[-1])
        return index

    # -- statement dispatch --------------------------------------------

    def _stmts(self, body: Sequence[ast.stmt], frontier: List[int]) -> List[int]:
        for stmt in body:
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        if isinstance(stmt, _PLAIN):
            index = self._node(stmt, type(stmt).__name__)
            self._connect(frontier, index)
            return [index]
        if isinstance(stmt, ast.Return):
            index = self._node(stmt, "Return")
            self._connect(frontier, index)
            self.cfg.nodes[index].succ.append(self.cfg.exit)
            return []
        if isinstance(stmt, ast.Raise):
            index = self._node(stmt, "Raise")
            self._connect(frontier, index)
            # _may_raise already wired the exception edge.
            return []
        if isinstance(stmt, ast.Break):
            index = self._node(stmt, "Break")
            self._connect(frontier, index)
            if self.loops:
                self.loops[-1].breaks.append(index)
            return []
        if isinstance(stmt, ast.Continue):
            index = self._node(stmt, "Continue")
            self._connect(frontier, index)
            if self.loops:
                self.cfg.nodes[index].succ.append(self.loops[-1].head)
            return []
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        # Nested defs/classes and anything unmodelled: opaque node.
        index = self._node(stmt, type(stmt).__name__)
        self._connect(frontier, index)
        return [index]

    # -- compound statements -------------------------------------------

    def _if(self, stmt: ast.If, frontier: List[int]) -> List[int]:
        test = self._node(stmt.test, "If")
        self._connect(frontier, test)
        then_out = self._stmts(stmt.body, [test])
        if stmt.orelse:
            else_out = self._stmts(stmt.orelse, [test])
            return then_out + else_out
        return then_out + [test]

    def _while(self, stmt: ast.While, frontier: List[int]) -> List[int]:
        test = self._node(stmt.test, "While")
        self._connect(frontier, test)
        frame = _LoopFrame(test)
        self.loops.append(frame)
        body_out = self._stmts(stmt.body, [test])
        self.loops.pop()
        self._connect(body_out, test)
        exits = [test] + frame.breaks
        if stmt.orelse:
            return self._stmts(stmt.orelse, [test]) + frame.breaks
        return exits

    def _for(self, stmt: Union[ast.For, ast.AsyncFor], frontier: List[int]) -> List[int]:
        head = self._node(stmt.iter, "For")
        self._connect(frontier, head)
        frame = _LoopFrame(head)
        self.loops.append(frame)
        body_out = self._stmts(stmt.body, [head])
        self.loops.pop()
        self._connect(body_out, head)
        exits = [head] + frame.breaks
        if stmt.orelse:
            return self._stmts(stmt.orelse, [head]) + frame.breaks
        return exits

    def _try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        dispatch = self.cfg._new_node(None, "except-dispatch")
        self.exc_targets.append(dispatch)
        body_out = self._stmts(stmt.body, frontier)
        self.exc_targets.pop()
        if stmt.orelse:
            body_out = self._stmts(stmt.orelse, body_out)
        handler_outs: List[int] = []
        for handler in stmt.handlers:
            entry = self._node(handler.type, "ExceptHandler")
            self.cfg.nodes[dispatch].succ.append(entry)
            handler_outs.extend(self._stmts(handler.body, [entry]))
        if not _catches_everything(stmt.handlers) and not stmt.finalbody:
            # An uncaught exception propagates past the handlers.  With
            # a ``finally`` present, propagation instead routes through
            # the finally body (wired below), whose last node carries
            # the outward exception edge — a direct bypass here would
            # let leaks "escape" around cleanup that always runs.
            self.cfg.nodes[dispatch].exc_succ.append(self.exc_targets[-1])
        after = body_out + handler_outs
        if stmt.finalbody:
            # The finally body runs on the normal path, and is also
            # entered from the dispatch (exception pending); its last
            # node can then re-raise outward.
            first = len(self.cfg.nodes)
            final_out = self._stmts(stmt.finalbody, after)
            if len(self.cfg.nodes) > first:
                self.cfg.nodes[dispatch].succ.append(first)
                for index in final_out:
                    node = self.cfg.nodes[index]
                    if self.exc_targets[-1] not in node.exc_succ:
                        node.exc_succ.append(self.exc_targets[-1])
            return final_out
        return after

    def _with(self, stmt: Union[ast.With, ast.AsyncWith], frontier: List[int]) -> List[int]:
        for item in stmt.items:
            index = self._node(item, "withitem")
            self._connect(frontier, index)
            frontier = [index]
        return self._stmts(stmt.body, frontier)

    # -- entry point ----------------------------------------------------

    def build(self, fn: FunctionNode) -> CFG:
        cfg = self.cfg
        cfg.entry = cfg._new_node(None, "entry")
        cfg.exit = cfg._new_node(None, "exit")
        cfg.raise_exit = cfg._new_node(None, "raise-exit")
        self.exc_targets.append(cfg.raise_exit)
        frontier = self._stmts(fn.body, [cfg.entry])
        self._connect(frontier, cfg.exit)
        return cfg


def build_cfg(fn: FunctionNode) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder().build(fn)
