"""Shared-memory stab-snapshot replicas: the zero-IPC shard read path.

The process backend's original query path paid one command/result IPC
round trip per shard *per stab* — and each reply queued behind the
shard's fire-and-forget ingest backlog, so a query under load cost
hundreds of milliseconds while a single engine answered in microseconds
(BENCH_shard.json).  The paper's whole point is that a stab is a cheap
interval-stabbing lookup; this module moves that lookup into the
router's own address space.

Each shard worker **publishes** its stab state into
:mod:`multiprocessing.shared_memory` after maintenance; the router
**reads** it directly and answers n-of-N / k-skyband stabs with plain
``searchsorted`` arithmetic — zero IPC on the read path.  The published
state is the interval tree's slot arrays (the flat
``low``/``high`` arrays of the interval encoding that the worker's own
:class:`~repro.accel.stab_cache.StabCache` scans), sorted by ``low``
in one ``np.lexsort`` per publish, plus the element payload table and
the shard's retained in-window suffix (the k-skyband merge witnesses).

**Seqlock double buffering.**  A tiny fixed-size *control block* per
shard carries a sequence word, the active buffer index, the shard's
``structure_version`` and high-water ``seen`` kappa, and per-slot
generation/size metadata.  The writer fills the *inactive* data buffer,
then flips the control block: bump ``seq`` to odd, rewrite the fields
(active index + version in one go), bump ``seq`` back to even.  A
reader snapshots the header, copies the active buffer out, and re-reads
the header; any ``seq`` change (or an odd ``seq``) means the copy may
be torn and the read is rejected — the router then falls back to the
ordinary command-queue path, so a torn snapshot is never *served*.
Data buffers grow by replacement (a new segment under a new generation
name) because POSIX shared memory cannot be resized in place; the
control block names the current generation, and stale attachments are
detected by the generation check.

**Versioning.**  The interval tree's ``version`` counter (bumped on
every structural write, see :mod:`repro.structures.interval_tree`)
rides in the control block: a replica answer is exact *at the version
it claims* — the state after some prefix of the shard's ingest stream.
The router decides how much staleness to tolerate (its ``replica_lag``
knob); this module only guarantees never-torn, version-labelled
snapshots.

**Memoized spans.**  Stab answers are constant on the elementary spans
between consecutive interval endpoints, so the decoded
:class:`ReplicaSnapshot` memoizes per span exactly like the worker-side
``StabCache`` does.  The memo is rebuilt reader-side per version rather
than shipped: the worker's own memo only fills from worker-local stabs,
which the zero-IPC design precisely avoids.

**Cleanup.**  Python's ``resource_tracker`` would both spam warnings
and unlink segments behind our back (attachments register too on
3.9-3.12), so every open is *untracked* and ownership is explicit: the
router unlinks all segments on ``close()`` and via an ``atexit``
backstop, using only the deterministic name scheme plus the control
block's generation counters — which works even after ``kill -9`` of a
worker, because the names never depend on worker-side state the router
cannot reconstruct (a grow races at most one generation ahead of the
control block, and cleanup sweeps that too).
"""

from __future__ import annotations

import pickle
import struct
from bisect import bisect_left
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.element import StreamElement

__all__ = [
    "ReplicaPublisher",
    "ReplicaReader",
    "ReplicaSnapshot",
    "cleanup_replica_segments",
    "replica_prefixes",
]

#: Control block layout: magic, seq, active slot, structure version,
#: seen kappa, per-slot generation, per-slot used bytes, per-slot
#: capacity, publish count.
_CTRL = struct.Struct("<8sQQqqqqqqqqq")
_CTRL_MAGIC = b"RSREPL01"
_CTRL_SIZE = 128
#: Byte offset of the ``seq`` word inside the control block.
_SEQ = struct.Struct("<Q")
_SEQ_OFFSET = 8

#: Data buffer layout: interval count, retained count, dimensionality —
#: followed by lows/highs/kappas, interval values, retained kappas,
#: retained values, and a pickled payload blob (see ``encode_state``).
_DATA_HEADER = struct.Struct("<qqq")

#: Smallest data segment allocated; buffers grow geometrically.
_MIN_CAPACITY = 4096

#: Distinct elementary spans memoized per decoded snapshot before the
#: memo is cleared wholesale (mirrors ``StabCache``'s policy).
_MAX_MEMO = 1024

#: How many read retries a reader attempts before reporting a torn
#: snapshot (each retry re-reads the control block from scratch).
_READ_RETRIES = 3


# ----------------------------------------------------------------------
# Untracked shared memory (ownership is explicit, see module docstring)
# ----------------------------------------------------------------------


#: What attaching to a segment that is not available raises: it does
#: not exist, or it exists but is not sized yet.  ``SharedMemory(
#: create=True)`` runs ``shm_open`` before ``ftruncate``, and attaching
#: in between fails to map the empty file with a ``ValueError``.
_UNAVAILABLE = (FileNotFoundError, OSError, ValueError)

#: Whether this interpreter's ``SharedMemory`` registers opens with the
#: resource tracker (no ``track=False`` support; Python <= 3.12).
#: ``None`` until the first open feature-detects it.
_TRACKED_OPENS: Optional[bool] = None


def _open_segment(name: str, create: bool, size: int = 0) -> SharedMemory:
    """Open a shared-memory segment without resource-tracker tracking.

    Python 3.13+ supports ``track=False`` natively; earlier versions
    register every create *and attach* with the tracker, which would
    unlink segments behind the owner's back and print "leaked
    shared_memory objects" warnings at shutdown — so the registration
    is reverted immediately (:func:`_unlink_segment` compensates for the
    matching ``unregister`` the stdlib's ``unlink`` then performs).
    """
    global _TRACKED_OPENS
    kwargs: Dict[str, Any] = {"name": name, "create": create}
    if create:
        kwargs["size"] = size
    try:
        shm = SharedMemory(**dict(kwargs, track=False))
        _TRACKED_OPENS = False
    except TypeError:  # Python < 3.13: no ``track`` parameter
        shm = SharedMemory(**kwargs)
        _TRACKED_OPENS = True
        try:
            resource_tracker.unregister(
                getattr(shm, "_name", shm.name), "shared_memory"
            )
        except Exception:  # pragma: no cover - tracker internals moved
            pass
    return shm


def _unlink_segment(segment: SharedMemory) -> None:
    """Unlink an open segment without confusing the resource tracker.

    On tracked-open interpreters ``SharedMemory.unlink`` unconditionally
    *unregisters* the name — but :func:`_open_segment` already did, so
    the name is re-registered first to keep the tracker's books balanced
    (an unbalanced unregister makes the tracker process print a
    ``KeyError`` traceback at shutdown).
    """
    if _TRACKED_OPENS:
        try:
            resource_tracker.register(
                getattr(segment, "_name", segment.name), "shared_memory"
            )
        except Exception:  # pragma: no cover - tracker internals moved
            pass
    segment.unlink()


def _unlink_quietly(name: str) -> None:
    """Unlink a segment if it exists; swallow every failure (cleanup
    must never raise — it runs from ``close``/``atexit`` paths)."""
    try:
        segment = _open_segment(name, create=False)
    except FileNotFoundError:
        return
    except ValueError:
        # Not sized yet (see :data:`_UNAVAILABLE`), which only POSIX
        # shared memory can be: nothing to map and no tracker
        # registration to balance, so unlink the bare name.
        import _posixshmem

        try:
            _posixshmem.shm_unlink("/" + name)
        except OSError:  # pragma: no cover - lost a cleanup race
            pass
        return
    except OSError:  # pragma: no cover - platform-specific open failure
        return
    try:
        _unlink_segment(segment)
    except FileNotFoundError:  # pragma: no cover - lost a cleanup race
        pass
    finally:
        segment.close()


def _control_name(prefix: str) -> str:
    return prefix + "c"


def _slot_name(prefix: str, slot: int, gen: int) -> str:
    return f"{prefix}{slot}g{gen}"


def replica_prefixes(token: str, shards: int) -> List[str]:
    """Deterministic per-shard segment-name prefixes for one executor.

    ``token`` must be unique per executor instance (the executor embeds
    its pid plus random bits); the shard index keeps workers apart.
    """
    return [f"rs{token}s{index}_" for index in range(shards)]


def cleanup_replica_segments(prefixes: Sequence[str]) -> None:
    """Unlink every segment any of ``prefixes`` may have created.

    Safe against crashed or ``kill -9``-ed workers: the slot names are
    derived from the control block's generation counters, sweeping one
    generation past the recorded one to cover a grow that died between
    segment creation and the control flip.  Never raises.
    """
    for prefix in prefixes:
        gens = [0, 0]
        try:
            control = _open_segment(_control_name(prefix), create=False)
        except _UNAVAILABLE:
            control = None
        if control is not None:
            try:
                fields = _CTRL.unpack_from(control.buf, 0)
                if fields[0] == _CTRL_MAGIC:
                    gens = [int(fields[5]), int(fields[6])]
            except (struct.error, ValueError):  # pragma: no cover
                pass
            finally:
                control.close()
        for slot in (0, 1):
            for gen in range(1, gens[slot] + 2):
                _unlink_quietly(_slot_name(prefix, slot, gen))
        _unlink_quietly(_control_name(prefix))


# ----------------------------------------------------------------------
# Encoding: shard engine state -> bytes
# ----------------------------------------------------------------------


class _ShardState:
    """One shard's exported stab state, ready to encode."""

    __slots__ = (
        "version",
        "seen",
        "lows",
        "highs",
        "kappas",
        "values",
        "payloads",
        "ret_kappas",
        "ret_values",
        "ret_payloads",
    )

    def __init__(
        self,
        version: int,
        seen: int,
        lows: Any,
        highs: Any,
        kappas: Any,
        values: Any,
        payloads: List[Any],
        ret_kappas: Any,
        ret_values: Any,
        ret_payloads: List[Any],
    ) -> None:
        self.version = version
        self.seen = seen
        self.lows = lows
        self.highs = highs
        self.kappas = kappas
        self.values = values
        self.payloads = payloads
        self.ret_kappas = ret_kappas
        self.ret_values = ret_values
        self.ret_payloads = ret_payloads


def export_shard_state(engine: Any) -> _ShardState:
    """Snapshot a shard engine's stab state for publication.

    The intervals come from the interval tree's flat slot arrays, sorted
    by low in one ``np.lexsort`` (the same arrays the worker's own
    :class:`~repro.accel.stab_cache.StabCache` scans, whatever the
    ``query_cache`` setting).  The retained table (kappa-ascending)
    carries the merge witnesses for the k-skyband path.
    """
    dim = int(engine.dim)
    lows, highs, records = engine._intervals.sorted_by_low()
    elements = [record.element for record in records]
    retained = sorted(
        (record.element for _, record in engine._labels.items()),
        key=lambda element: element.kappa,
    )
    return _ShardState(
        version=int(engine.structure_version),
        seen=int(engine.seen_so_far),
        lows=lows,
        highs=highs,
        kappas=np.asarray([e.kappa for e in elements], dtype=np.int64),
        values=np.asarray(
            [e.values for e in elements], dtype=np.float64
        ).reshape(len(elements), dim),
        payloads=[e.payload for e in elements],
        ret_kappas=np.asarray([e.kappa for e in retained], dtype=np.int64),
        ret_values=np.asarray(
            [e.values for e in retained], dtype=np.float64
        ).reshape(len(retained), dim),
        ret_payloads=[e.payload for e in retained],
    )


def _payload_blob(payloads: List[Any], ret_payloads: List[Any]) -> bytes:
    """Pickle the payload tables; the all-``None`` common case collapses
    to a tiny sentinel so payload-free streams publish almost no pickle."""
    interval_part = None if all(p is None for p in payloads) else payloads
    retained_part = (
        None if all(p is None for p in ret_payloads) else ret_payloads
    )
    return pickle.dumps(
        (interval_part, retained_part), protocol=pickle.HIGHEST_PROTOCOL
    )


def encode_state(state: _ShardState) -> bytes:
    """Serialise a :class:`_ShardState` into one data-buffer payload."""
    n = len(state.payloads)
    r = len(state.ret_payloads)
    dim = state.values.shape[1] if n else state.ret_values.shape[1] if r else 1
    parts = [
        _DATA_HEADER.pack(n, r, dim),
        state.lows.tobytes(),
        state.highs.tobytes(),
        state.kappas.tobytes(),
        state.values.tobytes(),
        state.ret_kappas.tobytes(),
        state.ret_values.tobytes(),
        _payload_blob(state.payloads, state.ret_payloads),
    ]
    return b"".join(parts)


def decode_state(
    buf: bytes, version: int, seen: int
) -> "ReplicaSnapshot":
    """Parse one data-buffer payload back into a queryable snapshot.

    Raises on any malformed input (truncated buffer, bad pickle); the
    reader treats that exactly like a torn read.
    """
    n, r, dim = _DATA_HEADER.unpack_from(buf, 0)
    if n < 0 or r < 0 or dim < 1:
        raise ValueError(f"corrupt replica header: n={n} r={r} dim={dim}")
    offset = _DATA_HEADER.size
    need = offset + 8 * (3 * n + n * dim + r + r * dim)
    if len(buf) < need:
        raise ValueError(
            f"truncated replica payload: {len(buf)} bytes < {need}"
        )

    def take(count: int, dtype: Any) -> Any:
        nonlocal offset
        array = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
        offset += count * 8
        return array

    lows = take(n, np.float64)
    highs = take(n, np.float64)
    kappas = take(n, np.int64)
    values = take(n * dim, np.float64).reshape(n, dim)
    ret_kappas = take(r, np.int64)
    ret_values = take(r * dim, np.float64).reshape(r, dim)
    payloads, ret_payloads = pickle.loads(buf[offset:])
    return ReplicaSnapshot(
        version=version,
        seen=seen,
        lows=lows,
        highs=highs,
        kappas=kappas,
        values=values,
        payloads=payloads,
        ret_kappas=ret_kappas,
        ret_values=ret_values,
        ret_payloads=ret_payloads,
    )


# ----------------------------------------------------------------------
# The decoded, queryable snapshot (router side)
# ----------------------------------------------------------------------


class ReplicaSnapshot:
    """A decoded shard replica: immutable, queryable, version-labelled.

    Answers exactly what the shard engine would have answered at stream
    position ``seen`` / interval-encoding version ``version``:
    :meth:`stab` is the per-shard n-of-N (or k-skyband) stabbing answer,
    :meth:`retained_suffix` the retained in-window witness suffix.  Both
    return fresh kappa-ascending lists of
    :class:`~repro.core.element.StreamElement`.
    """

    __slots__ = (
        "version",
        "seen",
        "_lows",
        "_highs",
        "_kappas",
        "_values",
        "_payloads",
        "_ret_kappas",
        "_ret_values",
        "_ret_payloads",
        "_bounds",
        "_memo",
        "_ret_elements",
    )

    def __init__(
        self,
        version: int,
        seen: int,
        lows: Any,
        highs: Any,
        kappas: Any,
        values: Any,
        payloads: Optional[List[Any]],
        ret_kappas: Any,
        ret_values: Any,
        ret_payloads: Optional[List[Any]],
    ) -> None:
        self.version = version
        self.seen = seen
        self._lows = lows
        self._highs = highs
        self._kappas = kappas
        self._values = values
        self._payloads = payloads
        self._ret_kappas = ret_kappas
        self._ret_values = ret_values
        self._ret_payloads = ret_payloads
        # Elementary-span boundaries for the stab memo, as in StabCache.
        self._bounds: List[float] = np.unique(
            np.concatenate((lows, highs))
        ).tolist()
        self._memo: Dict[int, Tuple[StreamElement, ...]] = {}
        self._ret_elements: Optional[List[StreamElement]] = None

    def __len__(self) -> int:
        return int(self._kappas.shape[0])

    def _element(self, index: int) -> StreamElement:
        payload = (
            None if self._payloads is None else self._payloads[index]
        )
        return StreamElement(
            self._values[index].tolist(), int(self._kappas[index]), payload
        )

    def stab(self, t: float) -> List[StreamElement]:
        """Elements whose interval satisfies ``low < t <= high``,
        kappa-ascending — this shard's answer to a global stab point,
        as of :attr:`seen`."""
        span = bisect_left(self._bounds, t)
        cached = self._memo.get(span)
        if cached is not None:
            return list(cached)
        idx = int(np.searchsorted(self._lows, t, side="left"))
        if idx == 0:
            hit: List[int] = []
        else:
            hit = np.flatnonzero(self._highs[:idx] >= t).tolist()
        hit.sort(key=lambda i: int(self._kappas[i]))
        out = [self._element(i) for i in hit]
        if len(self._memo) >= _MAX_MEMO:
            self._memo.clear()
        self._memo[span] = tuple(out)
        return list(out)

    def retained_suffix(self, stab: float) -> List[StreamElement]:
        """Retained elements with ``kappa >= stab``, kappa-ascending —
        the k-skyband merge witnesses, as of :attr:`seen`."""
        if self._ret_elements is None:
            self._ret_elements = [
                StreamElement(
                    self._ret_values[i].tolist(),
                    int(self._ret_kappas[i]),
                    None
                    if self._ret_payloads is None
                    else self._ret_payloads[i],
                )
                for i in range(int(self._ret_kappas.shape[0]))
            ]
        start = int(np.searchsorted(self._ret_kappas, stab, side="left"))
        return list(self._ret_elements[start:])

    def stats(self) -> Dict[str, int]:
        """Size counters, for ``replica_stats()`` introspection."""
        return {
            "version": self.version,
            "seen": self.seen,
            "intervals": len(self),
            "retained": int(self._ret_kappas.shape[0]),
            "memo_size": len(self._memo),
        }


# ----------------------------------------------------------------------
# Publisher (worker side)
# ----------------------------------------------------------------------


class ReplicaPublisher:
    """Owns a shard's control block and data buffers; workers call
    :meth:`publish` after maintenance.

    Single-writer by construction (each shard worker owns exactly one
    publisher); the seqlock exists for the *readers*.
    """

    __slots__ = (
        "prefix",
        "_control",
        "_slots",
        "_gens",
        "_caps",
        "_active",
        "_seq",
        "_published_version",
        "_published_seen",
        "publishes",
        "closed",
    )

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._control = _open_segment(
            _control_name(prefix), create=True, size=_CTRL_SIZE
        )
        self._slots: List[Optional[SharedMemory]] = [None, None]
        self._gens = [0, 0]
        self._caps = [0, 0]
        self._active = 1  # first publish fills slot 0
        self._seq = 0
        self._published_version = -1
        self._published_seen = -1
        self.publishes = 0
        self.closed = False
        self._write_header(used=[0, 0], version=-1, seen=0)

    def _write_header(
        self, used: List[int], version: int, seen: int
    ) -> None:
        """Seqlock flip: odd seq, rewrite fields, even seq."""
        buf = self._control.buf
        odd = self._seq + 1
        _SEQ.pack_into(buf, _SEQ_OFFSET, odd)
        _CTRL.pack_into(
            buf,
            0,
            _CTRL_MAGIC,
            odd,
            self._active,
            version,
            seen,
            self._gens[0],
            self._gens[1],
            used[0],
            used[1],
            self._caps[0],
            self._caps[1],
            self.publishes,
        )
        self._seq = odd + 1
        _SEQ.pack_into(buf, _SEQ_OFFSET, self._seq)

    def _ensure_slot(self, slot: int, need: int) -> SharedMemory:
        """Grow-by-replacement: a new segment under the next generation
        name (POSIX shared memory cannot resize in place)."""
        current = self._slots[slot]
        if current is not None and self._caps[slot] >= need:
            return current
        capacity = _MIN_CAPACITY
        while capacity < need:
            capacity *= 2
        gen = self._gens[slot] + 1
        previous_gen = self._gens[slot]
        replacement = _open_segment(
            _slot_name(self.prefix, slot, gen), create=True, size=capacity
        )
        # Take ownership of the new segment before anything that can
        # raise: if close/unlink of the old one fails, close() still
        # releases the replacement instead of leaking it.
        self._slots[slot] = replacement
        self._gens[slot] = gen
        self._caps[slot] = capacity
        if current is not None:
            current.close()
            _unlink_quietly(_slot_name(self.prefix, slot, previous_gen))
        return replacement

    def publish(self, engine: Any) -> bool:
        """Export ``engine``'s stab state and flip it live.

        No-ops (returning ``False``) when the engine's version *and*
        seen kappa match the last publication — republish-after-
        maintenance calls are free on quiescent shards.
        """
        if self.closed:
            raise ValueError("publisher is closed")
        version = int(engine.structure_version)
        seen = int(engine.seen_so_far)
        if (
            version == self._published_version
            and seen == self._published_seen
        ):
            return False
        payload = encode_state(export_shard_state(engine))
        slot = 1 - self._active
        segment = self._ensure_slot(slot, len(payload))
        segment.buf[: len(payload)] = payload
        self._active = slot
        used = [0, 0]
        used[slot] = len(payload)
        self.publishes += 1
        self._write_header(used=used, version=version, seen=seen)
        self._published_version = version
        self._published_seen = seen
        return True

    def close(self, unlink: bool = False) -> None:
        """Detach (and optionally unlink) every owned segment."""
        if self.closed:
            return
        self.closed = True
        names = [_slot_name(self.prefix, s, self._gens[s]) for s in (0, 1)]
        for segment in self._slots:
            if segment is not None:
                segment.close()
        self._slots = [None, None]
        self._control.close()
        if unlink:
            for name in names:
                _unlink_quietly(name)
            _unlink_quietly(_control_name(self.prefix))


# ----------------------------------------------------------------------
# Reader (router side)
# ----------------------------------------------------------------------


class _Header:
    """One decoded control block."""

    __slots__ = ("seq", "active", "version", "seen", "gens", "used", "caps",
                 "publishes")

    def __init__(self, fields: Tuple[Any, ...]) -> None:
        self.seq = int(fields[1])
        self.active = int(fields[2])
        self.version = int(fields[3])
        self.seen = int(fields[4])
        self.gens = (int(fields[5]), int(fields[6]))
        self.used = (int(fields[7]), int(fields[8]))
        self.caps = (int(fields[9]), int(fields[10]))
        self.publishes = int(fields[11])


class ReplicaReader:
    """Attaches to one shard's replica and serves consistent snapshots.

    :meth:`read` returns the latest :class:`ReplicaSnapshot`, a cached
    decode when the version has not moved, or ``None`` whenever a
    consistent snapshot cannot be produced *right now* (control block
    missing, nothing published yet, or a flip in progress) — the caller
    falls back to the command-queue path, never blocks.
    """

    __slots__ = (
        "prefix",
        "_control",
        "_attachments",
        "_cached",
        "reads",
        "cached_hits",
        "decodes",
        "torn",
        "unavailable",
        "reattaches",
    )

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._control: Optional[SharedMemory] = None
        # slot -> (generation, attachment)
        self._attachments: Dict[int, Tuple[int, SharedMemory]] = {}
        self._cached: Optional[ReplicaSnapshot] = None
        self.reads = 0
        self.cached_hits = 0
        self.decodes = 0
        self.torn = 0
        self.unavailable = 0
        self.reattaches = 0

    def _read_header(self) -> Optional[_Header]:
        if self._control is None:
            try:
                self._control = _open_segment(
                    _control_name(self.prefix), create=False
                )
            except _UNAVAILABLE:
                return None
        try:
            fields = _CTRL.unpack_from(self._control.buf, 0)
        except (struct.error, ValueError):  # pragma: no cover
            return None
        if fields[0] != _CTRL_MAGIC:
            return None
        return _Header(fields)

    def header(self) -> Optional[_Header]:
        """The current control block, or ``None`` when unattachable
        (introspection only — no torn-read protection)."""
        return self._read_header()

    def _slot_segment(self, slot: int, gen: int) -> Optional[SharedMemory]:
        held = self._attachments.get(slot)
        if held is not None and held[0] == gen:
            return held[1]
        try:
            segment = _open_segment(
                _slot_name(self.prefix, slot, gen), create=False
            )
        except _UNAVAILABLE:
            return None
        if held is not None:
            held[1].close()
            self.reattaches += 1
        self._attachments[slot] = (gen, segment)
        return segment

    def read(self) -> Optional[ReplicaSnapshot]:
        """The latest consistent snapshot, or ``None`` (see class doc)."""
        self.reads += 1
        for _ in range(_READ_RETRIES):
            header = self._read_header()
            if header is None:
                self.unavailable += 1
                return None
            if header.seq % 2:
                self.torn += 1
                continue
            if header.gens[header.active] == 0:
                self.unavailable += 1  # nothing published yet
                return None
            cached = self._cached
            if (
                cached is not None
                and cached.version == header.version
                and cached.seen == header.seen
            ):
                self.cached_hits += 1
                return cached
            segment = self._slot_segment(
                header.active, header.gens[header.active]
            )
            used = header.used[header.active]
            if segment is None or used > segment.size:
                # The writer replaced this generation under us.
                self.torn += 1
                continue
            data = bytes(segment.buf[:used])
            confirm = self._read_header()
            if confirm is None or confirm.seq != header.seq:
                self.torn += 1
                continue
            try:
                snapshot = decode_state(data, header.version, header.seen)
            except Exception:
                # A torn copy that slipped the seq check can only be
                # malformed bytes; reject it the same way.
                self.torn += 1
                continue
            self.decodes += 1
            self._cached = snapshot
            return snapshot
        return None

    def stats(self) -> Dict[str, Any]:
        """Lifetime counters plus the current header fields."""
        info: Dict[str, Any] = {
            "reads": self.reads,
            "cached_hits": self.cached_hits,
            "decodes": self.decodes,
            "torn": self.torn,
            "unavailable": self.unavailable,
            "reattaches": self.reattaches,
        }
        header = self._read_header()
        if header is not None:
            info.update(
                version=header.version,
                seen=header.seen,
                publishes=header.publishes,
                bytes=header.used[header.active],
            )
        return info

    def close(self) -> None:
        """Detach from every segment (never unlinks — the executor's
        cleanup owns that, so readers can come and go freely)."""
        for _, segment in self._attachments.values():
            segment.close()
        self._attachments.clear()
        if self._control is not None:
            self._control.close()
            self._control = None
        self._cached = None


def pending_elements(
    seen: int, m: int, shard: int, shards: int
) -> int:
    """How many elements routed to ``shard`` a replica at ``seen`` has
    not absorbed, given ``m`` global arrivals.

    Round-robin routing sends kappa ``k`` to shard ``(k - 1) % shards``,
    so this counts the kappas in ``(seen, m]`` congruent to
    ``shard + 1`` — exact staleness without any per-shard bookkeeping.
    """
    if m <= seen:
        return 0

    def routed_up_to(upto: int) -> int:
        if upto < shard + 1:
            return 0
        return (upto - shard - 1) // shards + 1

    return routed_up_to(m) - routed_up_to(seen)
