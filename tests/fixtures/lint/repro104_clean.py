"""REPRO104 clean variants: every raw pooled-array write is followed by
block-summary maintenance — marking the SoA block dirty or recomputing
its summary."""


class DemoPool:
    def __init__(self):
        self._points = [[0.0]]
        self._kappas = [0]
        self._dirty = set()
        self._blk_lower = [0.0]

    def _recompute_block(self, block):
        self._blk_lower[block] = 0.0

    def move_row(self, src, dst, block):
        self._points[dst] = self._points[src]
        self._dirty.add(block)
        return dst

    def rewrite_row(self, row, point, block):
        self._points[row] = point
        self._recompute_block(block)
