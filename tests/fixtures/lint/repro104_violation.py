"""REPRO104 seeded violation: a raw SoA pooled-array write with no
block-summary maintenance."""


class DemoPool:
    def __init__(self):
        self._points = [[0.0]]
        self._kappas = [0]
        self._dirty = set()
        self._blk_lower = [0.0]

    def _recompute_block(self, block):
        self._blk_lower[block] = 0.0

    def move_row(self, src, dst):
        # Raw pooled write: the block summaries still describe the old
        # occupant of `dst`.
        self._points[dst] = self._points[src]
        return dst
