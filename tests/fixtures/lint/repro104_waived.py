"""REPRO104 waived variant: the violation, suppressed."""


class DemoPool:
    def __init__(self):
        self._points = [[0.0]]
        self._kappas = [0]
        self._dirty = set()
        self._blk_lower = [0.0]

    def _recompute_block(self, block):
        self._blk_lower[block] = 0.0

    def move_row(self, src, dst):
        self._points[dst] = self._points[src]  # lint: skip=REPRO104
        return dst
