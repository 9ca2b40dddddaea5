"""Unit tests for the per-function CFG behind the dataflow lint rules.

These pin down the path-sensitivity that REPRO101 relies on:
exception edges from may-raise fragments, the ``count_exceptional``
switch, branch/loop zero-iteration edges, and the try/except/finally
modelling.
"""

from __future__ import annotations

import ast
import textwrap

from tools.lint.cfg import CFGNode, build_cfg


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    fn = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    )
    return build_cfg(fn)


def _calls(name):
    """Predicate: the node's fragment contains a call to ``name``."""

    def pred(node: CFGNode) -> bool:
        if node.frag is None:
            return False
        for sub in ast.walk(node.frag):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Name) and func.id == name:
                return True
            if isinstance(func, ast.Attribute) and func.attr == name:
                return True
        return False

    return pred


def _writes_attr(name):
    """Predicate: the node's fragment assigns to ``<anything>.name`` or
    ``<anything>.name[...]``."""

    def pred(node: CFGNode) -> bool:
        if not isinstance(node.frag, ast.Assign):
            return False
        for target in node.frag.targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and target.attr == name:
                return True
        return False

    return pred


def only_node(cfg, pred):
    matches = [node.index for node in cfg.real_nodes() if pred(node)]
    assert len(matches) == 1, f"expected exactly one match, got {matches}"
    return matches[0]


class TestExceptionEdges:
    def test_call_fragment_gets_exception_edge(self):
        cfg = cfg_of(
            """
            def f(self, x):
                self.items.append(x)
                return x
            """
        )
        target = only_node(cfg, _calls("append"))
        assert cfg.raise_exit in cfg.nodes[target].exc_succ

    def test_pure_assignment_has_no_exception_edge(self):
        cfg = cfg_of(
            """
            def f(self, x):
                self.value = x
            """
        )
        target = only_node(cfg, _writes_attr("value"))
        assert cfg.nodes[target].exc_succ == []


class TestMustPassThrough:
    # The REPRO101 shape: a mutation whose version bump must dominate
    # every outgoing path, including the exceptional ones.

    def test_straight_line_is_satisfied(self):
        cfg = cfg_of(
            """
            def push(self, x):
                self.items.append(x)
                self._version += 1
            """
        )
        target = only_node(cfg, _calls("append"))

        def bumps(node: CFGNode) -> bool:
            return isinstance(node.frag, ast.AugAssign)

        assert cfg.must_pass_through(target, bumps, count_exceptional=True)

    def test_may_raise_call_before_bump_escapes_exceptionally(self):
        # append → notify() → bump: notify's exception edge reaches the
        # raise exit before the bump, so the obligation fails when
        # exceptional paths count and holds when they do not.
        cfg = cfg_of(
            """
            def push(self, x):
                self.items.append(x)
                self.notify(x)
                self._version += 1
            """
        )
        target = only_node(cfg, _calls("append"))

        def bumps(node: CFGNode) -> bool:
            return isinstance(node.frag, ast.AugAssign)

        assert not cfg.must_pass_through(target, bumps, count_exceptional=True)
        assert cfg.must_pass_through(target, bumps, count_exceptional=False)

    def test_targets_own_exception_edge_is_excluded(self):
        # If the mutation *itself* raises, it never happened — that path
        # carries no obligation even with count_exceptional=True.
        cfg = cfg_of(
            """
            def push(self, x):
                self.items.append(x)
                self._version = self._version + 1
            """
        )
        target = only_node(cfg, _calls("append"))
        bump = _writes_attr("_version")
        assert cfg.must_pass_through(target, bump, count_exceptional=True)

    def test_one_unbumped_branch_fails(self):
        cfg = cfg_of(
            """
            def push(self, x, fast):
                self.items.append(x)
                if fast:
                    return x
                self._version = self._version + 1
                return x
            """
        )
        target = only_node(cfg, _calls("append"))
        bump = _writes_attr("_version")
        assert not cfg.must_pass_through(target, bump, count_exceptional=False)

    def test_bump_on_both_branches_passes(self):
        cfg = cfg_of(
            """
            def push(self, x, fast):
                self.items.append(x)
                if fast:
                    self._version = self._version + 1
                    return x
                self._version = self._version + 2
                return x
            """
        )
        target = only_node(cfg, _calls("append"))
        bump = _writes_attr("_version")
        assert cfg.must_pass_through(target, bump, count_exceptional=False)

    def test_loop_zero_iteration_edge(self):
        # A bump only inside a for body does not dominate: the loop may
        # run zero times.
        cfg = cfg_of(
            """
            def push(self, x, batches):
                self.items.append(x)
                for batch in batches:
                    self._version = self._version + 1
                return x
            """
        )
        target = only_node(cfg, _calls("append"))
        bump = _writes_attr("_version")
        assert not cfg.must_pass_through(target, bump, count_exceptional=False)

    def test_try_finally_bump_covers_the_exception_path(self):
        cfg = cfg_of(
            """
            def push(self, x):
                self.items.append(x)
                try:
                    self.notify(x)
                finally:
                    self._version = self._version + 1
            """
        )
        target = only_node(cfg, _calls("append"))
        bump = _writes_attr("_version")
        assert cfg.must_pass_through(target, bump, count_exceptional=True)

    def test_except_handler_return_skips_the_bump(self):
        cfg = cfg_of(
            """
            def push(self, x):
                self.items.append(x)
                try:
                    self.notify(x)
                except ValueError:
                    return None
                self._version = self._version + 1
            """
        )
        target = only_node(cfg, _calls("append"))
        bump = _writes_attr("_version")
        # The handler returns without bumping: a satisfier-free path to
        # the normal exit exists even ignoring exceptional edges.
        assert not cfg.must_pass_through(target, bump, count_exceptional=False)


class TestCompoundFragments:
    def test_if_node_carries_only_its_test(self):
        cfg = cfg_of(
            """
            def f(self, flag, x):
                if flag:
                    self.items.append(x)
            """
        )
        if_nodes = [n for n in cfg.real_nodes() if n.label == "If"]
        assert len(if_nodes) == 1
        # The test expression alone — no Call from the body leaks in.
        assert not any(
            isinstance(sub, ast.Call) for sub in ast.walk(if_nodes[0].frag)
        )

    def test_for_node_carries_only_its_iterable(self):
        cfg = cfg_of(
            """
            def f(self, rows):
                for row in iter_rows(rows):
                    self.items.append(row)
            """
        )
        for_nodes = [n for n in cfg.real_nodes() if n.label == "For"]
        assert len(for_nodes) == 1
        assert _calls("iter_rows")(for_nodes[0])
        assert not _calls("append")(for_nodes[0])
