"""Dense kappa-ordered dominance index over ``R_N``.

Algorithm 1 asks ``R_N`` two questions per arrival: which elements the
newcomer weakly dominates (``D_{e_new}``), and which is its youngest
weak dominator (the critical parent).  The paper answers both with an
R-tree (section 3.3) because pruning pays on a large searched set.  But
Theorem 2 keeps ``R_N`` small (``E|R_N| = O(log^d N)``), so this index
answers them with NumPy passes over one dense matrix instead:

* ``R_N`` is one ``(dim, rows)`` float64 matrix plus an ascending int64
  kappa vector, in arrival order.  The engines insert ascending kappas,
  so an insert is an append (and a kappa not above the newest row is
  rejected);
* a delete writes NaN into its column.  No comparison with NaN is true,
  so a dead column never matches a search; the matrix compacts when
  dead columns outnumber live ones.  NaN is therefore also rejected as
  a coordinate;
* dominance reporting is one probes x rows mask (per block of probes),
  built one axis at a time, and the hits come out in kappa order for
  free; a chunk searches with the probes that dominate the rest, then
  attributes the hit rows with one more mask over them alone;
* the critical-dominator search sweeps the columns newest-first in
  doubling segments and stops at the first hit, which in kappa order
  *is* the youngest dominator: the paper's best-first stop.  A
  ``kappa_below`` bound starts the sweep at its ``searchsorted`` cut.

The matrix is also Theorem 3's interval list.  Every row carries the
half-open interval ``(low, label]`` in two float64 columns: ``label``
is the element's own label (its kappa, or its timestamp in a time
window) and ``low`` its encoding's lower end (the critical parent's
label, or the k-skyband threshold).  Labels ascend with the rows, as
kappas do (a label not above the newest row's is rejected), and a
deleted row keeps its label while its low becomes ``+inf``.  A stab at
``t`` reports the rows with ``low < t <= label`` in one pass over the
columns; no point stabs a deleted row, so the pass needs no liveness
filter, and its hits come out in row order, which is label order.
Every write bumps ``_version``, so a reader such as
:class:`~repro.accel.stab_cache.StabCache` can tell with one integer
comparison that the intervals are unchanged.

The engines search and mutate a chunk at a time (``append`` is a chunk
of one), so the chunk-wide methods run the single-probe search, and
the bulk insert the single insert, when the chunk has one member.  The
single-probe searches keep the pointer
:class:`~repro.structures.rtree.RTree`'s names, entry objects with
tuple points and kappa-sorted answers.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.exceptions import (
    DimensionMismatchError,
    DuplicateKeyError,
    InvalidIntervalError,
    KeyNotFoundError,
    corruption,
)

Point = Tuple[float, ...]

#: Columns the single-probe dominator sweep tests before doubling.
_FIRST_SEGMENT = 256

#: The low of a deleted row: no point ``t`` has ``low < t``, so no
#: point stabs the row, whose label stays in place.
_DEAD_LOW = math.inf

#: Probes per block of the chunk-wide dominance mask.  A block x rows
#: mask stays cache-resident (about 1.3x faster than one chunk x rows
#: mask at d=5, |R_N| about 6,000) and bounds the temporaries.
_PROBE_BLOCK = 64

#: Columns the chunk-wide dominator sweep tests before doubling.
_FIRST_BATCH_SEGMENT = 1024

#: Ufunc buffer size (in elements) for the chunk-wide masks.  NumPy
#: routes a broadcast comparison through its ufunc buffers whenever the
#: rows are shorter than about a third of the buffer (8,192 elements by
#: default); that copy made a 50 x 1,500 mask about 5x slower than the
#: same work over longer rows (NumPy 2.4, x86-64).  With 1,024 the
#: masks of small windows and the sweep's first segments stay on the
#: unbuffered loop.
_MASK_BUFSIZE = 1024


@contextmanager
def _mask_buffers() -> Iterator[None]:
    """Run the enclosed masks with :data:`_MASK_BUFSIZE` ufunc buffers,
    restoring the caller's buffer size afterwards."""
    previous = _np.setbufsize(_MASK_BUFSIZE)
    try:
        yield
    finally:
        _np.setbufsize(previous)


def _grown(column: Any, used: int, cap: int) -> Any:
    """A ``cap``-long copy of ``column`` keeping its first ``used``
    values."""
    grown = _np.empty(cap, dtype=column.dtype)
    grown[:used] = column[:used]
    return grown


def _check_interval(low: float, label: float) -> None:
    """Reject an empty or NaN interval ``(low, label]``."""
    if not low < label:
        raise InvalidIntervalError(
            f"half-open interval needs low < label, got ({low}, {label}]"
        )


class DenseEntry:
    """A stored record: a point, its kappa and a payload.

    ``row`` is the entry's column in the matrix (and in the interval
    columns).  Compaction moves it, and it is ``-1`` once the entry has
    been deleted.
    """

    __slots__ = ("point", "kappa", "data", "row")

    def __init__(self, point: Point, kappa: int, data: Any, row: int) -> None:
        self.point = point
        self.kappa = kappa
        self.data = data
        self.row = row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DenseEntry(kappa={self.kappa}, point={self.point})"


class DenseIndex:
    """``R_N`` as a dense kappa-ordered matrix with NaN tombstones, each
    row carrying its interval ``(low, label]``.

    Parameters
    ----------
    dim:
        Dimensionality of stored points.
    """

    #: Identifies the index kind in benchmark reports.
    layout = "dense"

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self._points = _np.empty((dim, 16), dtype=_np.float64)
        self._kappas = _np.empty(16, dtype=_np.int64)
        self._lows = _np.empty(16, dtype=_np.float64)
        self._labels = _np.empty(16, dtype=_np.float64)
        #: The entry of each used column, ``None`` for a tombstone.
        self._rows: List[Optional[DenseEntry]] = []
        self._entries: Dict[int, DenseEntry] = {}
        self._version = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, kappa: int) -> bool:
        return kappa in self._entries

    def entries(self) -> Iterator[DenseEntry]:
        """Iterate the live entries in kappa order."""
        return iter([entry for entry in self._rows if entry is not None])

    @property
    def version(self) -> int:
        """Write counter: bumped by every insert, delete, compaction and
        :meth:`set_low`.  Two equal versions guarantee the same rows and
        intervals, so a read-path cache validates a memoized stab with
        one integer comparison."""
        return self._version

    def interval(self, kappa: int) -> Tuple[float, float]:
        """The ``(low, label)`` of the live row labelled ``kappa``.

        Raises
        ------
        KeyNotFoundError
            If no live row has this ``kappa``.
        """
        entry = self._entries.get(kappa)
        if entry is None:
            raise KeyNotFoundError(f"no entry with kappa={kappa}")
        return float(self._lows[entry.row]), float(self._labels[entry.row])

    def intervals(self) -> Tuple[Any, Any, List[Any]]:
        """The used rows as ``(lows, labels, entries)``: the interval
        columns (a deleted row keeps its label, with a ``+inf`` low),
        and the live list of each row's entry (``None`` for a deleted
        row, which no point stabs).  The columns are views of arrays the next write
        may replace: read them now, do not keep them."""
        used = len(self._rows)
        return self._lows[:used], self._labels[:used], self._rows

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _coords(self, point: Sequence[float]) -> Point:
        """``point`` as a float tuple; rejects a wrong dimension or NaN."""
        if len(point) != self.dim:
            raise DimensionMismatchError(self.dim, len(point))
        coords = tuple(map(float, point))
        if any(map(math.isnan, coords)):
            axis = [math.isnan(v) for v in coords].index(True)
            raise ValueError(
                f"coordinate {axis} is NaN; NaN marks a deleted row"
            )
        return coords

    def _check_kappas(self, kappas: Sequence[int]) -> None:
        """Reject a present or non-ascending kappa before any write."""
        newest = int(self._kappas[len(self._rows) - 1]) if self._rows else None
        for kappa in kappas:
            if kappa in self._entries:
                raise DuplicateKeyError(
                    f"entry with kappa={kappa} already present"
                )
            if newest is not None and kappa <= newest:
                raise ValueError(
                    f"kappa={kappa} is not above the newest row's "
                    f"{newest}; rows are kept in ascending kappa order"
                )
            newest = kappa

    def _check_labels(self, labels: Sequence[float]) -> None:
        """Reject labels that do not ascend above the newest row's
        before any write: a stab reports its hits in row order, which
        must be label order."""
        used = len(self._rows)
        newest = float(self._labels[used - 1]) if used else -math.inf
        for label in labels:
            if not label > newest:
                raise ValueError(
                    f"label={label} is not above the newest row's "
                    f"{newest}; rows are kept in ascending label order"
                )
            newest = label

    def _probes(self, points: Sequence[Sequence[float]]) -> Any:
        """A probe chunk (a point sequence or an ``(m, dim)`` matrix) as
        an ``(m, dim)`` float64 matrix."""
        if isinstance(points, _np.ndarray):
            if points.ndim != 2 or points.shape[1] != self.dim:
                raise DimensionMismatchError(self.dim, points.shape[-1])
            if points.dtype == _np.float64:
                return points
        else:
            for p in points:
                if len(p) != self.dim:
                    raise DimensionMismatchError(self.dim, len(p))
        return _np.asarray(points, dtype=_np.float64).reshape(
            len(points), self.dim
        )

    def _probe(self, q: Sequence[float]) -> Any:
        """A single probe as a ``(dim, 1)`` column."""
        if len(q) != self.dim:
            raise DimensionMismatchError(self.dim, len(q))
        return _np.asarray(q, dtype=_np.float64).reshape(self.dim, 1)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        """Make room for ``extra`` more columns (amortised doubling)."""
        used = len(self._rows)
        cap = int(self._kappas.shape[0])
        if used + extra <= cap:
            return
        while cap < used + extra:
            cap *= 2
        points = _np.empty((self.dim, cap), dtype=_np.float64)
        points[:, :used] = self._points[:, :used]
        self._points = points
        self._kappas = _grown(self._kappas, used, cap)
        self._lows = _grown(self._lows, used, cap)
        self._labels = _grown(self._labels, used, cap)

    def insert(
        self,
        point: Sequence[float],
        kappa: int,
        data: Any = None,
        low: float = 0.0,
        label: Optional[float] = None,
    ) -> DenseEntry:
        """Append ``point`` with arrival label ``kappa`` and the interval
        ``(low, label]`` (``label`` defaults to ``kappa``).

        Raises
        ------
        DimensionMismatchError
            If the point has the wrong dimensionality.
        ValueError
            If a coordinate is NaN, or ``kappa`` or ``label`` is not
            above the newest row's.
        DuplicateKeyError
            If an entry with this ``kappa`` is present.
        InvalidIntervalError
            Unless ``low < label``.
        """
        coords = self._coords(point)
        self._check_kappas((kappa,))
        high = float(kappa) if label is None else float(label)
        _check_interval(float(low), high)
        self._check_labels((high,))
        return self._append_row(coords, coords, kappa, data, float(low), high)

    def _append_row(
        self,
        coords: Point,
        column: Any,
        kappa: int,
        data: Any,
        low: float,
        label: float,
    ) -> DenseEntry:
        """Write one validated row (``column`` holds ``coords``)."""
        self._reserve(1)
        self._version += 1
        row = len(self._rows)
        self._points[:, row] = column
        self._kappas[row] = kappa
        self._lows[row] = low
        self._labels[row] = label
        entry = DenseEntry(coords, kappa, data, row)
        self._rows.append(entry)
        self._entries[kappa] = entry
        return entry

    def insert_many(
        self,
        points: Sequence[Sequence[float]],
        kappas: Sequence[int],
        datas: Optional[Sequence[Any]] = None,
        lows: Optional[Sequence[float]] = None,
        labels: Optional[Sequence[float]] = None,
    ) -> List[DenseEntry]:
        """Append a chunk's survivors in one validated write.

        ``points`` is a point sequence or an ``(m, dim)`` matrix; the
        dimension and NaN checks run once over the whole chunk.
        ``kappas`` must ascend and start above the newest row's, and so
        must the labels.  Row ``i`` gets the interval
        ``(lows[i], labels[i]]``; ``lows`` defaults to 0 and ``labels``
        to ``kappas``.
        All-or-nothing: every check runs before the first write.
        """
        count = len(points)
        columns: Dict[str, Optional[Sequence[Any]]] = {
            "kappas": kappas, "payloads": datas, "lows": lows, "labels": labels,
        }
        for name, column in columns.items():
            if column is not None and len(column) != count:
                raise ValueError(
                    f"insert_many got {count} points but {len(column)} "
                    f"{name}"
                )
        block = self._probes(points)
        if count == 1:
            # One row: the single insert's checks, on the block's row.
            row = block[0]
            coords = tuple(row.tolist())
            if any(map(math.isnan, coords)):
                self._coords(coords)  # raises the NaN error
            kappa = int(kappas[0])
            self._check_kappas((kappa,))
            low = 0.0 if lows is None else float(lows[0])
            label = float(kappa) if labels is None else float(labels[0])
            _check_interval(low, label)
            self._check_labels((label,))
            return [
                self._append_row(
                    coords, row, kappa, None if datas is None else datas[0],
                    low, label,
                )
            ]
        bad = _np.flatnonzero(_np.isnan(block).any(axis=1))
        if bad.size:
            self._coords(points[int(bad[0])])  # raises that point's error
        self._check_kappas(kappas)
        if not count:
            return []
        kappa_col = _np.asarray(kappas, dtype=_np.int64)
        low_col = (
            _np.zeros(count) if lows is None
            else _np.asarray(lows, dtype=_np.float64)
        )
        label_col = (
            kappa_col.astype(_np.float64) if labels is None
            else _np.asarray(labels, dtype=_np.float64)
        )
        nonempty = low_col < label_col
        bad = int(nonempty.argmin())
        if not nonempty[bad]:
            _check_interval(float(low_col[bad]), float(label_col[bad]))
        self._check_labels(label_col.tolist())
        self._reserve(count)
        self._version += 1
        start = len(self._rows)
        stop = start + count
        self._points[:, start:stop] = block.T
        self._kappas[start:stop] = kappa_col
        self._lows[start:stop] = low_col
        self._labels[start:stop] = label_col
        entries = [
            DenseEntry(
                tuple(c), int(kappas[i]), None if datas is None else datas[i],
                start + i,
            )
            for i, c in enumerate(block.tolist())
        ]
        self._rows.extend(entries)
        for entry in entries:
            self._entries[entry.kappa] = entry
        return entries

    def set_low(self, kappa: int, low: float) -> None:
        """Move the low of the live row labelled ``kappa`` (the
        k-skyband's reseat, when an element's threshold dominator
        changes).

        Raises
        ------
        KeyNotFoundError
            If no live row has this ``kappa``.
        InvalidIntervalError
            Unless ``low`` is below the row's label; nothing changes.
        """
        entry = self._entries.get(kappa)
        if entry is None:
            raise KeyNotFoundError(f"no entry with kappa={kappa}")
        _check_interval(low, float(self._labels[entry.row]))
        self._version += 1
        self._lows[entry.row] = low

    def _compact(self) -> None:
        """Drop every tombstone, keeping arrival order."""
        self._version += 1
        used = len(self._rows)
        keep = _np.flatnonzero(~_np.isnan(self._points[0, :used]))
        count = int(keep.size)
        self._points[:, :count] = _np.take(self._points[:, :used], keep, axis=1)
        for column in (self._kappas, self._lows, self._labels):
            column[:count] = column[keep]
        rows = [entry for entry in self._rows if entry is not None]
        for row, entry in enumerate(rows):
            entry.row = row
        self._rows = rows

    def delete_many(self, kappas: Sequence[int]) -> List[DenseEntry]:
        """Remove a chunk's victims with one tombstone write: NaN into
        their points and ``+inf`` into their lows (their labels stay, so
        the labels keep ascending).  The matrix then compacts if the dead
        outnumber the live.

        All-or-nothing: unknown or repeated kappas raise before any
        mutation.  Returns the removed entries in argument order.
        """
        if not kappas:
            return []
        seen: Set[int] = set()
        for kappa in kappas:
            if kappa in seen:
                raise KeyNotFoundError(
                    f"kappa={kappa} repeated in delete_many"
                )
            seen.add(kappa)
            if kappa not in self._entries:
                raise KeyNotFoundError(f"no entry with kappa={kappa}")
        self._version += 1
        removed = [self._entries.pop(kappa) for kappa in kappas]
        cols = [entry.row for entry in removed]
        # One column is a plain index (a list index costs about ten
        # times as much to write); more are converted once for the two
        # writes.
        at: Any = cols[0] if len(cols) == 1 else _np.array(cols)
        self._points[:, at] = _np.nan
        self._lows[at] = _DEAD_LOW
        rows = self._rows
        for entry in removed:
            rows[entry.row] = None
            entry.row = -1
        live = len(self._entries)
        if len(rows) - live > live:
            self._compact()
        return removed

    # ------------------------------------------------------------------
    # Stabbing (Theorem 3)
    # ------------------------------------------------------------------

    def stab(self, t: float) -> List[Any]:
        """The payloads of the rows whose interval ``(low, label]``
        contains ``t``, in label order: one ``(low < t) & (t <= label)``
        pass over the used rows, deleted rows never matching."""
        lows, labels, rows = self.intervals()
        hits = ((lows < t) & (labels >= t)).nonzero()[0].tolist()
        return [rows[row].data for row in hits]

    # ------------------------------------------------------------------
    # Dominance reporting (Algorithm 1 line 9)
    # ------------------------------------------------------------------

    def _live_at(self, cols: List[int]) -> List[DenseEntry]:
        return [entry for col in cols if (entry := self._rows[col]) is not None]

    def _dominated_by(self, probe: Any) -> List[DenseEntry]:
        """Entries weakly dominated by a ``(dim, 1)`` probe column,
        sorted by kappa."""
        used = len(self._rows)
        # ``logical_and.reduce`` and ``.nonzero()`` are ``.all(axis=0)``
        # and ``np.flatnonzero`` without their Python-level wrappers,
        # which are a visible share of a one-probe search.
        dominated = _np.logical_and.reduce(self._points[:, :used] >= probe, axis=0)
        return self._live_at(dominated.nonzero()[0].tolist())

    def report_dominated(self, q: Sequence[float]) -> List[DenseEntry]:
        """Entries weakly dominated by ``q`` (non-destructive), sorted
        by kappa."""
        return self._dominated_by(self._probe(q))

    def report_dominated_batch(
        self,
        points: Sequence[Sequence[float]],
        first_only: bool = True,
        survivors: Optional[Sequence[int]] = None,
    ) -> List[List[DenseEntry]]:
        """Dominated entries for a whole chunk of probes, one probes x
        rows mask per block of :data:`_PROBE_BLOCK` probes.

        Returns one kappa-sorted bucket per probe.  With
        ``first_only=True`` (the skyline engines) each dominated entry
        is attributed to the *earliest* probe that dominates it: the
        arrival that ejects it.  With ``first_only=False`` (the
        k-skyband engine) an entry appears in the bucket of *every*
        probe dominating it.  Non-destructive: the chunk pipeline
        applies the removals later via :meth:`delete_many`.  One probe
        is one :meth:`report_dominated` mask.

        ``survivors`` (first-only attribution) lists the probes that the
        search over all rows needs: every probe must be weakly
        dominated by one of them, as the prefilter's survivors dominate
        each doomed member.  Weak dominance is transitive, so they hit
        the same rows as the whole chunk; one more mask, over the hit
        rows alone, then attributes each row to its earliest dominating
        probe.
        """
        probes = self._probes(points)
        if len(probes) == 1:
            return [self._dominated_by(probes.T)]
        buckets: List[List[DenseEntry]] = [[] for _ in range(len(probes))]
        used = len(self._rows)
        if used == 0 or not len(probes):
            return buckets
        pts = self._points[:, :used]
        if not first_only:
            for lo in range(0, len(probes), _PROBE_BLOCK):
                cols, dom = self._block_mask(pts, probes[lo:lo + _PROBE_BLOCK])
                pos, hit = _np.nonzero(dom)
                for at, col in zip((pos + lo).tolist(), cols[hit].tolist()):
                    buckets[at].append(self._rows[col])
            return buckets
        search = probes if survivors is None else probes[survivors]
        if len(search) > _PROBE_BLOCK:
            # Which probe hits a column does not matter here, so the
            # probes are blocked in the order of the axis they spread
            # most along: neighbours make tighter lower envelopes.
            axis = int(search.var(axis=0).argmax())
            search = search[_np.argsort(search[:, axis], kind="stable")]
        claimed = _np.zeros(used, dtype=bool)
        for lo in range(0, len(search), _PROBE_BLOCK):
            cols, dom = self._block_mask(
                pts, search[lo:lo + _PROBE_BLOCK], claimed
            )
            claimed[cols[dom.any(axis=0)]] = True
        cols = _np.flatnonzero(claimed)
        # Hit columns x probes, so that each row's argmax (the earliest
        # probe dominating that column) reads a contiguous row.
        by_axis = _np.ascontiguousarray(probes.T)
        with _mask_buffers():
            sub = _np.take(pts, cols, axis=1)
            dom = sub[0, :, None] >= by_axis[None, 0]
            for k in range(1, self.dim):
                dom &= sub[k, :, None] >= by_axis[None, k]
        for at, col in zip(dom.argmax(axis=1).tolist(), cols.tolist()):
            buckets[at].append(self._rows[col])
        return buckets

    def _block_mask(
        self, pts: Any, block: Any, claimed: Optional[Any] = None
    ) -> Tuple[Any, Any]:
        """The columns of ``pts`` a probe of ``block`` may dominate, and
        the block x columns weak-dominance mask over them.

        Only a column above the block's lower envelope on every axis
        can be dominated by one of its probes, and a column already
        ``claimed`` (by an earlier block) is left out.
        """
        with _mask_buffers():
            reach = (pts >= block.min(axis=0)[:, None]).all(axis=0)
            if claimed is not None:
                reach &= ~claimed
            cols = _np.flatnonzero(reach)
            # ``np.take`` keeps the gathered matrix C-ordered, so each
            # axis row stays contiguous for the mask.
            sub = _np.take(pts, cols, axis=1)
            dom = block[:, 0, None] <= sub[None, 0]
            for k in range(1, self.dim):
                dom &= block[:, k, None] <= sub[None, k]
        return cols, dom

    # ------------------------------------------------------------------
    # Critical-dominator search (Algorithm 1 line 14)
    # ------------------------------------------------------------------

    def max_kappa_dominator(
        self, q: Sequence[float], kappa_below: Optional[int] = None
    ) -> Optional[DenseEntry]:
        """The entry with the largest ``kappa`` weakly dominating ``q``
        (optionally restricted to ``kappa < kappa_below``), or ``None``.

        Sweeps newest-first in doubling segments; the first segment
        with a hit holds the answer in its last hit column.
        """
        return self._newest_dominator(self._probe(q), kappa_below)

    def _newest_dominator(
        self, probe: Any, kappa_below: Optional[int]
    ) -> Optional[DenseEntry]:
        """:meth:`max_kappa_dominator` of a ``(dim, 1)`` probe column."""
        hi = len(self._rows)
        if kappa_below is not None:
            hi = int(_np.searchsorted(self._kappas[:hi], kappa_below))
        pts = self._points
        seg = _FIRST_SEGMENT
        while hi > 0:
            lo = max(0, hi - seg)
            hits = _np.logical_and.reduce(pts[:, lo:hi] <= probe, axis=0).nonzero()[0]
            if hits.size:
                return self._rows[lo + int(hits[-1])]
            hi = lo
            seg *= 2
        return None

    def max_kappa_dominator_batch(
        self, points: Sequence[Sequence[float]]
    ) -> List[Optional[DenseEntry]]:
        """``[max_kappa_dominator(p) for p in points]`` in one sweep.

        The columns are swept newest-first in doubling segments, one
        probes x segment mask per step; a probe drops out at its first
        segment with a hit, whose last hit column is its answer.  Most
        probes resolve in the first segment, so only the probes with no
        dominator at all pay for the full depth.  One probe is one
        :meth:`max_kappa_dominator` sweep.
        """
        probes = self._probes(points)
        if len(probes) == 1:
            return [self._newest_dominator(probes.T, None)]
        best: List[Optional[DenseEntry]] = [None] * len(probes)
        if not len(probes):
            return best
        pts = self._points
        alive = _np.arange(len(points))
        hi = len(self._rows)
        seg = _FIRST_BATCH_SEGMENT
        while hi > 0 and alive.size:
            lo = max(0, hi - seg)
            pa = probes[alive]
            with _mask_buffers():
                dom = pts[None, 0, lo:hi] <= pa[:, 0, None]
                for k in range(1, self.dim):
                    dom &= pts[None, k, lo:hi] <= pa[:, k, None]
            hit = dom.any(axis=1)
            if hit.any():
                last = (hi - 1) - dom[hit, ::-1].argmax(axis=1)
                for pos, col in zip(alive[hit].tolist(), last.tolist()):
                    best[pos] = self._rows[col]
                alive = alive[~hit]
            hi = lo
            seg *= 2
        return best

    # ------------------------------------------------------------------
    # Validation (used by the sanitizer and the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the matrix and its interval columns against the entry
        objects.

        ``dense-order`` (kappas strictly ascending, and the labels too,
        so that a stab's hits come out in label order),
        ``dense-links`` (each entry's ``row`` names its column),
        ``dense-tombstone`` (a dead column is all NaN with a ``+inf``
        low), ``dense-interval`` (a live row's ``low`` is below its
        ``label``), ``dense-mirror`` (a live column and its
        kappa equal the entry's point and kappa) and ``dense-count``
        (live columns match the entry map).

        Raises
        ------
        StructureCorruptionError
            On the first violated property (survives ``python -O``).
        """
        used = len(self._rows)
        pts = self._points[:, :used]
        kappas = self._kappas[:used]
        if used > 1 and not bool((kappas[1:] > kappas[:-1]).all()):
            raise corruption(
                "dense_index", "dense-order",
                "row kappas are not strictly ascending",
            )
        live: List[DenseEntry] = []
        for row, entry in enumerate(self._rows):
            if entry is None:
                continue
            if entry.row != row:
                raise corruption(
                    "dense_index", "dense-links",
                    f"column {row} holds an entry that names row "
                    f"{entry.row}",
                    kappas=(entry.kappa,),
                )
            live.append(entry)
        cols = [entry.row for entry in live]
        dead = _np.ones(used, dtype=bool)
        dead[cols] = False
        if not bool(_np.isnan(pts[:, dead]).all()):
            raise corruption(
                "dense_index", "dense-tombstone",
                "a deleted column holds a coordinate other than NaN",
            )
        if live:
            want = _np.asarray([entry.point for entry in live]).T
            want_kappas = _np.asarray([entry.kappa for entry in live])
            bad = (pts[:, cols] != want).any(axis=0) | (
                kappas[cols] != want_kappas
            )
            if bool(bad.any()):
                culprit = live[int(_np.argmax(bad))]
                raise corruption(
                    "dense_index", "dense-mirror",
                    "the matrix does not mirror the entry objects",
                    kappas=(culprit.kappa,),
                )
        if len(live) != len(self._entries):
            raise corruption(
                "dense_index", "dense-count",
                f"entry count mismatch: {len(live)} live columns, "
                f"index has {len(self._entries)}",
            )
        for kappa, entry in self._entries.items():
            if (
                entry.kappa != kappa
                or not 0 <= entry.row < used
                or self._rows[entry.row] is not entry
            ):
                raise corruption(
                    "dense_index", "dense-links",
                    f"stale row link for kappa={kappa}",
                    kappas=(kappa,),
                )
        lows, labels, _ = self.intervals()
        if not bool((lows[dead] == _DEAD_LOW).all()):
            raise corruption(
                "dense_index", "dense-tombstone",
                "a deleted row holds a low other than +inf",
            )
        bad = ~(lows[cols] < labels[cols])
        if bool(bad.any()):
            culprit = live[int(_np.argmax(bad))]
            raise corruption(
                "dense_index", "dense-interval",
                f"row {culprit.row} holds the empty interval "
                f"({lows[culprit.row]}, {labels[culprit.row]}]",
                kappas=(culprit.kappa,),
            )
        if used > 1 and not bool((labels[1:] > labels[:-1]).all()):
            raise corruption(
                "dense_index", "dense-order",
                "row labels are not strictly ascending",
            )
