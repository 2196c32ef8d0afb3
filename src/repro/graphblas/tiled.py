"""Tiled, spill-to-disk execution: bounded-memory SpGEMM and mxv.

The governor's admission control refuses an oversized operation.  For
the tileable ops this module turns that into "run anyway, bounded
memory": a :class:`TiledMatrix` partitions a matrix into a 2D grid of
hypersparse blocks, SpGEMM/mxv are scheduled tile by tile, and cold tiles
are spilled to one raw-array arena file per pool and reloaded on demand
under an LRU byte budget (:class:`SpillPool`).  The dispatcher routes a plan
here when the governor tagged it over-budget (see
:meth:`~repro.graphblas.governor.ExecutionContext.admit`) or when the
caller asked for ``method="tiled"`` explicitly.

**Bit-identity.**  Tiled results are bit-identical to the in-memory
kernels, floats included, because each chunk is the in-memory kernel's
call: :func:`~repro.graphblas.mxm.mxm_coo` (Gustavson) or
:func:`~repro.graphblas.mxv.spmv_pull` on the chunk's whole rows in
global coordinates, with the kernels
:func:`repro.graphblas.compiled.select_class` picks for the product.

**Fault hardening.**  Tile writes and reads trip the ``io.write`` /
``io.read`` fault points; the pool re-runs one that raised ``OSError``
(:data:`_IO_ATTEMPTS` tries, a delay of :data:`_IO_DELAY_S` doubling
between them) — the library's one retry, for the one failure that really
passes.  A pool's arena is an anonymous file (unlinked as it is
created), so neither :meth:`SpillPool.close` nor a crash leaves anything
on disk, and a failed operation leaves operands bit-identical.
Cancellation and deadlines are polled at every tile boundary.

**The arena.**  A store *is* its three or four arrays (the paper's O(1)
import/export argument), so a spilled tile is those arrays and nothing
else: one fixed int64 header (:data:`_HEADER_FIELDS`) followed by ``h``,
``indptr``, ``minor`` and ``values`` as they sit in memory, written with
one positional write at the arena's end.  The pool's offset table
records ``(offset, nbytes)`` only after the whole write, so a failed or
short write is overwritten in place by its retry.  A reload is one read
of ``nbytes`` into a preallocated buffer and four views on it; the bytes
read must be what the header implies, so a short or torn tile is an
``OSError`` for that retry, never a garbage tile.  Checkpoints keep
compressed ``.npz`` files (written once, kept, read by other processes);
a spilled tile lives for one operation and is re-read many times.

**Write-behind.**  Everything :func:`mxm_tiled` produces enters the pool
at the *eviction* end: output streams to disk as it is made instead of
flushing the operand tiles the very next chunk reads again.  A chunked
stripe's row-run pieces stay pieces — a grid cell holds an ordered list
of them — so nothing is reloaded to be concatenated and spilled a second
time, and a bounded drain touches only the pieces its rows overlap.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import OrderedDict

import numpy as np

from . import compiled, faults, governor, telemetry
from .errors import InvalidValue
from .formats import Orientation, SparseStore, group_starts
from .mxm import _gather_ranges, mxm_coo
from .mxv import spmv_pull
from .plan import resolve_semiring
from .types import lookup_type

__all__ = [
    "TiledMatrix",
    "SpillPool",
    "mxm_tiled",
    "mxv_tiled",
    "choose_tile_dim",
    "execute",
    "DEFAULT_TILE_DIM",
    "MIN_TILE_DIM",
]

_INDEX = np.int64

#: Tile edge used when no budget information is available.
DEFAULT_TILE_DIM = 4096

#: Smallest tile edge the budget heuristic will choose.
MIN_TILE_DIM = 64

#: Spilled-tile header: eight int64 words, then the arrays in this order —
#: ``h`` (absent when ``h_len`` is -1), ``indptr``, ``minor``, ``values``.
_HEADER_FIELDS = ("magic", "n_major", "n_minor", "is_row", "h_len",
                  "indptr_len", "nvals", "value_dtype")
_HEADER_BYTES = 8 * len(_HEADER_FIELDS)
_MAGIC = int.from_bytes(b"GBTILE01", "little")

#: Tile I/O tries per read or write (the first included), and the delay
#: before the second, doubling after each further failure.
_IO_ATTEMPTS = 3
_IO_DELAY_S = 0.005


def _retry_io(fn, op: str):
    """Run the tile read or write ``fn()``, re-running it on ``OSError``.

    Before each re-run it polls the governing context (a cancelled or
    expired one aborts instead of sleeping), counts the re-run in its
    ``stats["retries"]`` and emits a ``governor.retry`` decision.  The
    last failure propagates.
    """
    ctx = governor.current()
    delay = _IO_DELAY_S
    for attempt in range(1, _IO_ATTEMPTS + 1):
        try:
            return fn()
        except OSError as exc:
            if attempt == _IO_ATTEMPTS:
                raise
            if ctx is not None:
                ctx.check()
                ctx.stats["retries"] += 1
            if telemetry.ENABLED:
                telemetry.decision(
                    "governor.retry", op=op, attempt=attempt,
                    delay_s=delay, error=type(exc).__name__,
                )
            time.sleep(delay)
            delay *= 2


def _write_tile(fd: int, offset: int, store: SparseStore) -> int:
    """Write ``store`` at ``offset`` of ``fd`` as header + raw arrays (no
    re-encoding), in one positional write; returns the bytes written."""
    if faults.ENABLED:
        faults.trip("io.write")
    dt = store.values.dtype
    code = dt.str.encode("ascii")
    if len(code) > 8 or np.dtype(dt.str) != dt:
        raise InvalidValue(f"cannot spill values of dtype {dt}")
    header = np.array(
        [_MAGIC, store.n_major, store.n_minor,
         store.orientation is Orientation.ROW,
         -1 if store.h is None else store.h.size,
         store.indptr.size, store.minor.size,
         int.from_bytes(code.ljust(8, b"\0"), "little")],
        dtype=_INDEX,
    )
    bufs = [header] + [np.ascontiguousarray(arr, dtype=_INDEX)
                       for arr in (store.h, store.indptr, store.minor)
                       if arr is not None]
    # not every dtype exports a buffer (datetime64); its bytes always do
    bufs.append(np.ascontiguousarray(store.values).view(np.uint8))
    nbytes = sum(b.nbytes for b in bufs)
    wrote = os.pwritev(fd, bufs, offset)
    if wrote != nbytes:
        raise OSError(f"short tile write: {wrote} of {nbytes} B")
    return nbytes


def _read_tile(fd: int, offset: int, nbytes: int) -> SparseStore:
    """Load the tile of ``nbytes`` at ``offset`` of ``fd``: one read into a
    preallocated buffer, then views on that buffer.

    The arrays of the returned store are writable views of one private
    buffer.  Any disagreement between the header and the bytes read
    raises ``OSError`` (transient: the pool re-runs the read).
    """
    buf = np.empty(nbytes, dtype=np.uint8)
    got = os.preadv(fd, [buf], offset)
    if got != nbytes or nbytes < _HEADER_BYTES:
        raise OSError(f"tile at offset {offset} is torn: "
                      f"read {got} of {nbytes} B")
    head = buf[:_HEADER_BYTES].view(_INDEX)
    magic, n_major, n_minor, is_row, h_len, indptr_len, nvals, code = (
        int(x) for x in head
    )
    try:
        if magic != _MAGIC or min(h_len + 1, indptr_len, nvals) < 0:
            raise ValueError("bad header")
        dt = np.dtype(code.to_bytes(8, "little").rstrip(b"\0").decode("ascii"))
    except (ValueError, TypeError, OverflowError) as exc:
        raise OSError(f"tile at offset {offset} has a corrupt header") from exc
    h_words = max(h_len, 0)
    values_at = _HEADER_BYTES + 8 * (h_words + indptr_len + nvals)
    if nbytes != values_at + nvals * dt.itemsize:
        raise OSError(
            f"tile at offset {offset} is torn: {nbytes} B written, header "
            f"implies {values_at + nvals * dt.itemsize} B"
        )
    index = buf[_HEADER_BYTES:values_at].view(_INDEX)
    indptr_end = h_words + indptr_len
    return SparseStore(
        Orientation.ROW if is_row else Orientation.COL,
        n_major,
        n_minor,
        index[:h_words] if h_len >= 0 else None,
        index[h_words:indptr_end],
        index[indptr_end:],
        buf[values_at:].view(dt),
    )


# --------------------------------------------------------------------------
# the spill pool
# --------------------------------------------------------------------------

class SpillPool:
    """LRU byte budget over resident tiles, spilling cold ones to disk.

    Tiles are immutable once :meth:`put`: a tile is written to disk at
    most once (first eviction) and later evictions merely drop the
    in-memory copy.  ``put(..., behind=True)`` is the write-behind door
    for produced output: the tile enters at the eviction end, so it goes
    to disk before any tile a consumer is still re-reading.  Spilled
    tiles share one arena file in ``directory`` (default: the
    ``spill.directory`` option, else the system temp dir), unlinked as it
    is created, so the directory keeps no entry of the pool.  All spill
    I/O runs on the coordinating thread —
    worker threads of the parallel engine never touch the pool — so the
    thread-local fault/telemetry/governor machinery observes every
    spill and reload.
    """

    def __init__(self, budget: int | None = None, directory=None) -> None:
        if budget is None:
            budget = governor.spill_config()[2]
        self.budget = max(0, int(budget))
        base = directory if directory is not None else governor.spill_config()[1]
        if base is None:
            base = tempfile.gettempdir()
        base = str(base)
        os.makedirs(base, exist_ok=True)
        # unlinked as it is created: the pool's disk space goes with the
        # descriptor, at close or at a crash, and no cleanup is needed
        self._arena = tempfile.TemporaryFile(dir=base)
        self._arena_end = 0
        self._lock = threading.RLock()
        self._resident: OrderedDict[str, SparseStore] = OrderedDict()
        self._nbytes: dict[str, int] = {}
        # the offset table: key -> (offset, nbytes) of its spilled copy
        self._spilled: dict[str, tuple[int, int]] = {}
        self._resident_bytes = 0
        self._names = 0
        self._closed = False
        self.stats = {
            "tiles": 0, "spills": 0, "reloads": 0, "evictions": 0,
            "spilled_bytes": 0, "reloaded_bytes": 0,
        }

    # -- naming -------------------------------------------------------------

    def unique_name(self, prefix: str = "t") -> str:
        with self._lock:
            self._names += 1
            return f"{prefix}{self._names}"

    # -- tile lifecycle -----------------------------------------------------

    def put(self, key: str, store: SparseStore, *,
            behind: bool = False) -> None:
        """Register an immutable tile; may spill LRU tiles to stay in budget.

        With ``behind`` the new tile is itself the first eviction
        candidate (write-behind) instead of the last.
        """
        with self._lock:
            self._check_open()
            if key in self._nbytes:
                raise InvalidValue(f"tile {key!r} already in the pool")
            nbytes = int(store.nbytes)
            self._nbytes[key] = nbytes
            self._resident[key] = store
            if behind:
                self._resident.move_to_end(key, last=False)
            self._resident_bytes += nbytes
            self.stats["tiles"] += 1
            self._evict()

    def get(self, key: str) -> SparseStore:
        """Fetch a tile, reloading from disk (with retry) if it was spilled."""
        with self._lock:
            self._check_open()
            store = self._resident.get(key)
            if store is not None:
                self._resident.move_to_end(key)
                return store
            if key not in self._nbytes:
                raise InvalidValue(f"unknown tile {key!r}")
            store = self._load(key)
            self._resident[key] = store
            self._resident_bytes += self._nbytes[key]
            self._evict(keep=key)
            return store

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidValue("spill pool is closed")

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    def _evict(self, keep: str | None = None) -> None:
        while self._resident_bytes > self.budget:
            victim = next(
                (k for k in self._resident if k != keep), None
            )
            if victim is None:
                break  # only the pinned tile remains; it must stay usable
            store = self._resident.pop(victim)
            if victim not in self._spilled:
                try:
                    self._spill(victim, store)
                except BaseException:
                    # failed spill: the tile stays resident (MRU) so the
                    # operation can still be retried or fail cleanly with
                    # operands untouched — nothing was lost
                    self._resident[victim] = store
                    raise
            self._resident_bytes -= self._nbytes[victim]
            self.stats["evictions"] += 1

    # -- disk I/O (fault-injected, retried) ---------------------------------

    def _spill(self, key: str, store: SparseStore) -> None:
        fd, offset = self._arena.fileno(), self._arena_end
        nbytes = _retry_io(lambda: _write_tile(fd, offset, store),
                           "tile.spill")
        self._spilled[key] = (offset, nbytes)
        self._arena_end = offset + nbytes
        self.stats["spills"] += 1
        self.stats["spilled_bytes"] += int(nbytes)
        if telemetry.ENABLED:
            telemetry.decision("governor.spill", tile=key, bytes=int(nbytes))
            telemetry.tally("governor.spill", calls=1, bytes_moved=int(nbytes))

    def _load(self, key: str) -> SparseStore:
        fd, (offset, nbytes) = self._arena.fileno(), self._spilled[key]

        def _read() -> SparseStore:
            if faults.ENABLED:
                faults.trip("io.read")
            return _read_tile(fd, offset, nbytes)

        store = _retry_io(_read, "tile.reload")
        self.stats["reloads"] += 1
        self.stats["reloaded_bytes"] += int(store.nbytes)
        if telemetry.ENABLED:
            telemetry.decision("governor.reload", tile=key,
                               bytes=int(store.nbytes))
            telemetry.tally("governor.reload", calls=1,
                            bytes_moved=int(store.nbytes))
        return store

    # -- teardown -----------------------------------------------------------

    def close(self) -> None:
        """Drop every tile and close the arena, freeing its disk space
        (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._resident.clear()
            self._nbytes.clear()
            self._spilled.clear()
            self._resident_bytes = 0
            self._arena.close()

    def __enter__(self) -> "SpillPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------
# the tiled matrix
# --------------------------------------------------------------------------

def choose_tile_dim(n_major: int, n_minor: int, est_bytes: int | None = None,
                    budget: int | None = None) -> int:
    """Pick a tile edge so one output stripe's estimate fits a chunk.

    Targets roughly ``budget / 6`` estimated bytes per stripe, the share
    :func:`mxm_tiled` gives one chunk by default, so a typical stripe is
    one kernel call; clamped to ``[MIN_TILE_DIM, max(n_major, n_minor)]``.
    """
    n = max(int(n_major), int(n_minor), 1)
    if budget is None or not est_bytes or est_bytes <= 0:
        return max(1, min(n, DEFAULT_TILE_DIM))
    target = max(int(budget) // 6, 1 << 16)
    per_row = max(int(est_bytes) // max(int(n_major), 1), 1)
    td = target // per_row
    return int(min(max(td, MIN_TILE_DIM), n))


def _group_by_tile(minor: np.ndarray, tile_dim: int):
    """Yield ``(tile_col, index_array)`` in ascending tile column.

    The grouping sort is stable, so entries inside each group keep their
    original (major, minor) order — the invariant the tile constructors
    rely on (``assume_sorted_unique``).
    """
    jb = minor // tile_dim
    order = np.argsort(jb, kind="stable")
    jb_sorted = jb[order]
    starts = group_starts(jb_sorted)
    ends = np.append(starts[1:], jb_sorted.size)
    for s, e in zip(starts, ends):
        yield int(jb_sorted[s]), order[s:e]


class TiledMatrix:
    """A matrix as a 2D grid of hypersparse tiles registered in a pool.

    The grid lives in the major/minor space of the store it was built
    from: ``nrows`` is the store's major dimension.  Only non-empty cells
    exist.  A cell is an ordered list of row-run *pieces* (one piece
    unless a chunked :func:`mxm_tiled` stripe produced it); each piece is
    a row-oriented hypersparse
    :class:`~repro.graphblas.formats.SparseStore` with tile-local
    coordinates, held by a :class:`SpillPool` that spills cold ones to
    disk under its byte budget.  Per-row entry counts and ``nvals`` are
    recorded as pieces are put, so neither ever reads a tile back.
    """

    def __init__(self, nrows: int, ncols: int, tile_dim: int, dtype,
                 pool: SpillPool, *, name: str | None = None) -> None:
        if tile_dim < 1:
            raise InvalidValue(f"tile_dim must be >= 1, got {tile_dim}")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.tile_dim = int(tile_dim)
        self.dtype = dtype
        self.pool = pool
        self.name = name if name is not None else pool.unique_name("M")
        self.grid_rows = -(-self.nrows // self.tile_dim) if self.nrows else 0
        self.grid_cols = -(-self.ncols // self.tile_dim) if self.ncols else 0
        # (bi, bj) -> [(pool key, row_lo, row_hi), ...] in ascending rows;
        # rows are tile-local and a piece holds entries of [row_lo, row_hi)
        self._cells: dict[tuple[int, int], list[tuple[str, int, int]]] = {}
        self._lens = np.zeros(self.nrows, dtype=np.int64)
        self._nvals = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_store(cls, store: SparseStore, tile_dim: int, pool: SpillPool,
                   *, dtype=None, name: str | None = None) -> "TiledMatrix":
        """Partition a major-oriented store into a 2D tile grid."""
        if dtype is None:
            dtype = lookup_type(store.values.dtype)
        t = cls(store.n_major, store.n_minor, tile_dim, dtype, pool, name=name)
        td = t.tile_dim
        for bi in range(t.grid_rows):
            governor.poll()
            maj, minr, vals = store.major_slab(bi * td, (bi + 1) * td)
            if maj.size == 0:
                continue
            maj_loc = maj - bi * td
            for bj, idx in _group_by_tile(minr, td):
                t._put_tile(
                    bi, bj, maj_loc[idx], minr[idx] - bj * td, vals[idx]
                )
        return t

    @classmethod
    def from_matrix(cls, A, tile_dim: int, pool: SpillPool,
                    *, name: str | None = None) -> "TiledMatrix":
        """Tile a :class:`~repro.graphblas.matrix.Matrix` (waits pending
        updates through the epoch machinery first)."""
        return cls.from_store(A.by_row(), tile_dim, pool, dtype=A.dtype,
                              name=name)

    def _tile_shape(self, bi: int, bj: int) -> tuple[int, int]:
        td = self.tile_dim
        return (min(td, self.nrows - bi * td), min(td, self.ncols - bj * td))

    def _put_tile(self, bi: int, bj: int, maj_loc, min_loc, vals, *,
                  rows: tuple[int, int] | None = None,
                  behind: bool = False) -> None:
        """Append a piece to cell (bi, bj): the whole tile, or the entries
        of tile-local ``rows`` = [lo, hi) after the pieces already there."""
        nmaj, nmin = self._tile_shape(bi, bj)
        store = SparseStore.from_coo(
            Orientation.ROW, nmaj, nmin, maj_loc, min_loc, vals, self.dtype,
            hyper=True, assume_sorted_unique=True,
        )
        lo, hi = rows if rows is not None else (0, nmaj)
        pieces = self._cells.setdefault((bi, bj), [])
        key = f"{self.name}/{bi}.{bj}.{len(pieces)}"
        self.pool.put(key, store, behind=behind)
        pieces.append((key, lo, hi))
        # h is unique within a piece, so the fancy += counts every entry
        self._lens[store.h + bi * self.tile_dim] += np.diff(store.indptr)
        self._nvals += store.nvals

    # -- access -------------------------------------------------------------

    def tile(self, bi: int, bj: int) -> SparseStore | None:
        """The (bi, bj) tile store, or None when that tile is empty.

        A cell of several pieces is concatenated on demand (the result is
        not cached: operand use of a chunked product is the rare case).
        """
        pieces = self._cells.get((bi, bj))
        if pieces is None:
            return None
        stores = [self.pool.get(key) for key, _, _ in pieces]
        if len(stores) == 1:
            return stores[0]
        # ascending disjoint row runs: concatenation is sorted-unique
        offsets = np.cumsum([0] + [s.nvals for s in stores])
        indptr = [s.indptr[:-1] + off for s, off in zip(stores, offsets)]
        indptr.append(offsets[-1:])
        return SparseStore(
            Orientation.ROW, stores[0].n_major, stores[0].n_minor,
            np.concatenate([s.h for s in stores]),
            np.concatenate(indptr),
            np.concatenate([s.minor for s in stores]),
            np.concatenate([s.values for s in stores]),
        )

    def major_lengths(self) -> np.ndarray:
        """Entries per global major index (metadata; reads no tile).

        The tiled SpGEMM uses this to predict each output row's flops
        (``sum of B-row lengths over A's row entries``) so stripes run in
        bounded-memory row chunks.
        """
        return self._lens.copy()

    @property
    def nvals(self) -> int:
        return self._nvals

    def iter_stripes(self, max_bytes: int | None = None):
        """Yield ``(rows, cols, values)`` blocks, ascending rows.

        Entries in each block are sorted (row, col) and globally indexed.
        By default one block per tile stripe; with ``max_bytes`` a skewed
        stripe (far more entries than its siblings) is further split into
        row runs of roughly that many coordinate bytes, sized from the
        exact per-row counts, so streaming consumers (checksums, exports)
        hold a bounded block no matter how lopsided the matrix is.  A row
        run loads only the pieces whose rows it overlaps.
        """
        td = self.tile_dim
        target = None
        if max_bytes is not None:
            target = max(int(max_bytes), 1 << 16) // 24
        for bi in range(self.grid_rows):
            rows_here = min(td, self.nrows - bi * td)
            bounds = [(0, rows_here)]
            if target is not None:
                bounds = _chunk_bounds(
                    self._lens[bi * td:bi * td + rows_here], target
                )
            for lo, hi in bounds:
                governor.poll()
                block = self._stripe_coo(bi, lo, hi)
                if block is not None:
                    yield block

    def _stripe_coo(self, bi: int, lo: int, hi: int):
        """Stripe ``bi``'s entries of tile-local rows [lo, hi), sorted."""
        td = self.tile_dim
        parts_i, parts_j, parts_v = [], [], []
        for bj in range(self.grid_cols):
            for key, p_lo, p_hi in self._cells.get((bi, bj), ()):
                if p_hi <= lo or p_lo >= hi:
                    continue
                maj, minr, v = self.pool.get(key).major_slab(lo, hi)
                if maj.size == 0:
                    continue
                parts_i.append(maj + bi * td)
                parts_j.append(minr + bj * td)
                parts_v.append(v)
        if not parts_i:
            return None
        i = np.concatenate(parts_i)
        # parts arrive in ascending tile column, so a stable sort on the
        # row alone leaves each row's entries in ascending column
        order = np.argsort(i, kind="stable")
        return (i[order], np.concatenate(parts_j)[order],
                np.concatenate(parts_v)[order])

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All entries as globally indexed, sorted-unique COO arrays."""
        stripes = list(self.iter_stripes())
        if not stripes:
            return (
                np.empty(0, dtype=_INDEX),
                np.empty(0, dtype=_INDEX),
                np.empty(0, dtype=self.dtype.np_dtype),
            )
        return (
            np.concatenate([s[0] for s in stripes]),
            np.concatenate([s[1] for s in stripes]),
            np.concatenate([s[2] for s in stripes]),
        )

    def to_matrix(self):
        """Assemble back into a :class:`~repro.graphblas.matrix.Matrix`."""
        from .matrix import Matrix

        r, c, v = self.to_coo()
        return Matrix.from_coo(r, c, v, nrows=self.nrows, ncols=self.ncols,
                               dtype=self.dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TiledMatrix {self.nrows}x{self.ncols} tile_dim={self.tile_dim}"
            f" tiles={len(self._cells)}>"
        )


# --------------------------------------------------------------------------
# tiled kernels
# --------------------------------------------------------------------------

def _row_store(T: TiledMatrix, i, k, v) -> SparseStore:
    """Sorted-unique global (i, k, v) of ``T`` as a hypersparse row store
    over ``T``'s whole index space: what the in-memory kernel reads."""
    return SparseStore.from_coo(Orientation.ROW, T.nrows, T.ncols, i, k, v,
                                T.dtype, hyper=True, assume_sorted_unique=True)


def _gather_rows(T: TiledMatrix, ks: np.ndarray) -> SparseStore | None:
    """Rows ``ks`` (global, sorted unique) of ``T`` across every tile
    column, as one row store; None when none of them has an entry."""
    td = T.tile_dim
    parts_k, parts_j, parts_v = [], [], []
    cuts = np.searchsorted(ks, np.arange(T.grid_rows + 1) * td)
    for bk in np.flatnonzero(np.diff(cuts)):
        governor.poll()  # tile boundary: cancellation/deadline point
        k_loc = ks[cuts[bk]:cuts[bk + 1]] - bk * td
        for bj in range(T.grid_cols):
            tile = T.tile(bk, bj)
            if tile is None:
                continue
            starts, ends = tile.major_ranges(k_loc)
            gather = _gather_ranges(starts, ends)
            if gather.size == 0:
                continue
            parts_k.append(np.repeat(k_loc + bk * td, ends - starts))
            parts_j.append(tile.minor[gather] + bj * td)
            parts_v.append(tile.values[gather])
    if not parts_k:
        return None
    k = np.concatenate(parts_k)
    order = np.argsort(k, kind="stable")  # as in TiledMatrix._stripe_coo
    return _row_store(T, k[order], np.concatenate(parts_j)[order],
                      np.concatenate(parts_v)[order])


def _chunk_bounds(counts: np.ndarray, target: int) -> list[tuple[int, int]]:
    """Partition rows into maximal runs whose summed counts fit ``target``.

    A single row over the target still forms its own chunk (the kernel
    folds a row in one piece).
    """
    if counts.size == 0:
        return [(0, 0)]
    cum = np.cumsum(counts)
    if int(cum[-1]) <= target:
        return [(0, counts.size)]
    bounds = []
    lo = 0
    base = 0
    while lo < counts.size:
        hi = int(np.searchsorted(cum, base + target, side="right"))
        if hi <= lo:
            hi = lo + 1
        bounds.append((lo, hi))
        base = int(cum[hi - 1])
        lo = hi
    return bounds


def mxm_tiled(A: TiledMatrix, B: TiledMatrix, semiring="PLUS_TIMES",
              out_type=None, *, pool: SpillPool | None = None,
              name: str | None = None, chunk_bytes: int | None = None,
              nthreads: int | None = None,
              selection: tuple | None = None) -> TiledMatrix:
    """C = A (+).(x) B over tile grids; returns a tiled C.

    Each row chunk of an output stripe is one in-memory Gustavson
    product (:func:`~repro.graphblas.mxm.mxm_coo`): the chunk's A rows
    from every inner tile against the B rows they reference, gathered
    from every column tile, both in global coordinates.  Output is
    registered in ``pool`` write-behind as it is produced, so an
    over-budget product streams to disk instead of accumulating in RAM
    or displacing the operand tiles the next chunk reads again.
    Cancellation/deadline tokens are polled at every tile boundary.

    ``chunk_bytes`` bounds a chunk's working set: rows are grouped by a
    per-row flop prediction (``B.major_lengths()``, ~24 B per partial
    product) so skewed stripes (RMAT hubs) run in several chunks, and
    each chunk's output becomes one row-run piece of its grid cells.  A
    chunk's gathered B entries never outnumber its predicted flops.
    Values below 1 MiB are raised to 1 MiB; the default is
    ``memory_budget / 6`` of the active governor context, and with no
    budget a stripe is one chunk.

    ``nthreads`` caps the kernel's row-blocked parallelism
    (``GxB_NTHREADS``).  ``selection`` is the
    :func:`~repro.graphblas.compiled.select_class` result the chunks
    run on; by default it is chosen for the operand and output types,
    as the in-memory plan would.
    """
    sr = resolve_semiring(semiring)
    if A.ncols != B.nrows:
        raise InvalidValue(f"inner dimensions differ: {A.ncols} vs {B.nrows}")
    if A.tile_dim != B.tile_dim:
        raise InvalidValue(
            f"tile dims differ: {A.tile_dim} vs {B.tile_dim}"
        )
    if out_type is None:
        out_type = sr.out_type(A.dtype, B.dtype)
    if selection is None:
        selection = compiled.select_class(
            sr, A.dtype, B.dtype, out_type,
            max(A.nrows, A.ncols, B.nrows, B.ncols))
    kernels = selection[0]
    pool = pool if pool is not None else A.pool
    C = TiledMatrix(A.nrows, B.ncols, A.tile_dim, out_type, pool, name=name)
    td = A.tile_dim

    if chunk_bytes is None:
        ctx = governor.current()
        if ctx is not None and ctx.memory_budget is not None:
            chunk_bytes = ctx.memory_budget // 6
    chunk_target = None
    if chunk_bytes is not None and chunk_bytes > 0:
        # ~24 B per partial product (two int64 coords + a value)
        chunk_target = max(int(chunk_bytes), 1 << 20) // 24
    b_rowlen = B.major_lengths()

    for bi in range(A.grid_rows):
        governor.poll()  # tile boundary: cancellation/deadline point
        rows_here = min(td, A.nrows - bi * td)
        stripe = A._stripe_coo(bi, 0, rows_here)
        if stripe is None:
            continue
        ai, ak, av = stripe
        bounds = [(0, rows_here)]
        if chunk_target is not None:
            # predicted partial products per row of the stripe
            counts = np.bincount(ai - bi * td, weights=b_rowlen[ak],
                                 minlength=rows_here).astype(np.int64)
            bounds = _chunk_bounds(counts, chunk_target)
        cuts = np.searchsorted(ai, [bi * td + lo for lo, _ in bounds]
                               + [bi * td + rows_here])
        for (lo, hi), s, e in zip(bounds, cuts, cuts[1:]):
            if s == e:
                continue
            b_rows = _gather_rows(B, np.unique(ak[s:e]))
            if b_rows is None:
                continue
            r, c, v = mxm_coo(
                _row_store(A, ai[s:e], ak[s:e], av[s:e]), b_rows, sr,
                out_type, method="gustavson", nthreads=nthreads,
                kernels=kernels,
            )
            del b_rows
            r_loc = r - bi * td
            # each chunk is one row-run piece of the cells it touches
            for bj, idx in _group_by_tile(c, td):
                C._put_tile(bi, bj, r_loc[idx], c[idx] - bj * td, v[idx],
                            rows=(lo, hi), behind=True)
    return C


def mxv_tiled(A: TiledMatrix, u_dense: np.ndarray, u_present: np.ndarray,
              semiring, out_type, matrix_first: bool = True, *,
              nthreads: int | None = None,
              selection: tuple | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """y = A (+).(x) u over an outer-major tile grid; sorted (idx, vals).

    ``A`` must be tiled from the store whose *major* axis is the output
    dimension (the pull orientation).  Each stripe is one in-memory pull
    (:func:`~repro.graphblas.mxv.spmv_pull`) over the stripe's rows in
    global coordinates.  ``u_dense`` carries the vector's type, which
    like the in-memory plan's operand types picks the kernels;
    ``nthreads`` and ``selection`` are as for :func:`mxm_tiled`.
    """
    sr = resolve_semiring(semiring)
    if selection is None:
        u_type = lookup_type(u_dense.dtype)
        args = (A.dtype, u_type) if matrix_first else (u_type, A.dtype)
        selection = compiled.select_class(sr, *args, out_type,
                                          max(A.nrows, A.ncols))
    td = A.tile_dim
    out_i, out_v = [], []
    for bi in range(A.grid_rows):
        governor.poll()  # tile boundary: cancellation/deadline point
        stripe = A._stripe_coo(bi, 0, min(td, A.nrows - bi * td))
        if stripe is None:
            continue
        idx, vals = spmv_pull(
            _row_store(A, *stripe), u_dense, u_present, sr, out_type,
            matrix_first=matrix_first, nthreads=nthreads,
            kernels=selection[0],
        )
        out_i.append(idx)
        out_v.append(vals)
    if not out_i:
        return np.empty(0, dtype=_INDEX), np.empty(0, dtype=out_type.np_dtype)
    return np.concatenate(out_i), np.concatenate(out_v)


# --------------------------------------------------------------------------
# dispatch entry point
# --------------------------------------------------------------------------

def _spill_pool_for(plan) -> SpillPool:
    ctx = governor.current()
    if ctx is not None:
        sdir, sbudget = ctx.spill_settings()
    else:
        _, sdir, sbudget = governor.spill_config()
    return SpillPool(budget=sbudget, directory=sdir)


def _plan_tile_dim(plan, n_major, n_minor) -> int:
    td = plan.params.get("tile_dim")
    if td:
        return int(td)
    ctx = governor.current()
    budget = ctx.memory_budget if ctx is not None else None
    return choose_tile_dim(n_major, n_minor, plan.params.get("est_bytes"),
                           budget)


def _select(plan) -> None:
    """Choose the plan's kernels once, as the in-memory backend does, so
    ``plan.done`` and EXPLAIN report the tier every chunk ran on."""
    plan.kernel = "numpy" if compiled.select(plan) is None else "compiled"


def _report_pool(pool: SpillPool, op: str) -> None:
    """One ``governor.pool`` decision summarizing a plan's spill traffic.

    Pools are per-plan and closed immediately after use, so this is the
    record EXPLAIN reports and the metrics registry aggregate from —
    emitted before ``close()`` while the stats are still meaningful.
    """
    if not telemetry.ENABLED:
        return
    st = pool.stats
    telemetry.decision(
        "governor.pool", op=op, tiles=st["tiles"], spills=st["spills"],
        reloads=st["reloads"], evictions=st["evictions"],
        spilled_bytes=st["spilled_bytes"], reloaded_bytes=st["reloaded_bytes"],
        resident_bytes=pool.resident_bytes, budget=pool.budget,
    )


def execute(plan):
    """Serve a plan the governor re-planned as tiled (or an explicit
    ``method="tiled"`` request).  Called by the backend dispatcher."""
    if plan.op == "mxm":
        return _execute_mxm(plan)
    if plan.op in ("mxv", "vxm"):
        return _execute_matvec(plan)
    raise InvalidValue(f"tiled execution does not serve {plan.op!r}")


def _execute_mxm(plan):
    from .mask import write_matrix

    A, B = plan.args
    C, d, sr = plan.out, plan.desc, plan.operator
    a_rows = A.by_col().transposed() if d.transpose_a else A.by_row()
    b_rows = B.by_col().transposed() if d.transpose_b else B.by_row()
    td = _plan_tile_dim(plan, a_rows.n_major, b_rows.n_minor)
    if telemetry.ENABLED:
        telemetry.decision(
            "governor.tile_plan", op="mxm", tile_dim=td,
            est_bytes=plan.params.get("est_bytes"),
        )
    _select(plan)
    pool = _spill_pool_for(plan)
    try:
        A_t = TiledMatrix.from_store(a_rows, td, pool, dtype=A.dtype)
        if B is A and d.transpose_b == d.transpose_a:
            B_t = A_t  # A*A: one set of operand tiles serves both sides
        else:
            B_t = TiledMatrix.from_store(b_rows, td, pool, dtype=B.dtype)
        C_t = mxm_tiled(A_t, B_t, sr, plan.out_type, pool=pool,
                        nthreads=d.nthreads, selection=plan.selection)
        tr, tc, tv = C_t.to_coo()
    finally:
        _report_pool(pool, "mxm")
        pool.close()
    return write_matrix(
        C, tr, tc, tv, mask=plan.mask, accum=plan.accum, desc=d,
        # the stripe assembly guarantees sorted-unique output
        sorted_unique=True,
    )


def _execute_matvec(plan):
    from .mask import write_vector

    p = plan.params
    is_mxv = p["is_mxv"]
    A, u = plan.args if is_mxv else (plan.args[1], plan.args[0])
    w, d, sr = plan.out, plan.desc, plan.operator
    store = A.by_col().transposed() if p["transposed"] else A.by_row()
    td = _plan_tile_dim(plan, store.n_major, store.n_minor)
    if telemetry.ENABLED:
        telemetry.decision(
            "governor.tile_plan", op="mxv" if is_mxv else "vxm", tile_dim=td,
            est_bytes=p.get("est_bytes"),
        )
    _select(plan)
    pool = _spill_pool_for(plan)
    try:
        A_t = TiledMatrix.from_store(store, td, pool, dtype=A.dtype)
        ti, tv = mxv_tiled(A_t, u.to_dense(), u.pattern(), sr, plan.out_type,
                           matrix_first=is_mxv, nthreads=d.nthreads,
                           selection=plan.selection)
    finally:
        _report_pool(pool, "mxv" if is_mxv else "vxm")
        pool.close()
    return write_vector(w, ti, tv, mask=plan.mask, accum=plan.accum, desc=d)
