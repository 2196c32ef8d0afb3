"""Tiled, spill-to-disk execution: bounded-memory SpGEMM and mxv.

The governor's admission control refuses an oversized operation.  For
the tileable ops this module turns that into "run anyway, bounded
memory": a :class:`TiledMatrix` partitions a matrix into a 2D grid of
hypersparse blocks, SpGEMM/mxv are scheduled tile by tile, and cold tiles
are spilled to disk as atomic raw-array files and reloaded on demand under
an LRU byte budget (:class:`SpillPool`).  The dispatcher routes a plan
here when the governor tagged it over-budget (see
:meth:`~repro.graphblas.governor.ExecutionContext.admit`) or when the
caller asked for ``method="tiled"`` explicitly.

**Bit-identity.**  Tiled results are bit-identical to the in-memory
kernels, floats included.  The in-memory path folds each output entry's
partial products in ascending-``k`` order; the tiled path reproduces that
order exactly by keeping partial products *unreduced* across inner
tiles, concatenating them in ascending ``k``-tile order (within-tile
expansion is already ``k``-ascending per row), stable-sorting by output
coordinate, and reducing once per output stripe.  Reducing per tile and
folding across tiles would regroup floating-point sums; collecting first
does not.  The same argument covers mxv: push and pull both fold
ascending-``k`` per output index, and so does the tiled expansion.  The
reduction itself is the one the in-memory kernel uses for the same
product: the compiled strict left fold (``KernelSet.segfold``, the
SPA's order) exactly when :func:`repro.graphblas.compiled.select_class`
picks the compiled tier, NumPy's segment reduction otherwise.

**Fault hardening.**  Spill writes go through the atomic temp-file +
rename writer shared with :mod:`repro.io.checkpoint`, tripping the
``io.write`` / ``io.read`` fault points; the pool retries ``OSError``
and ``OutOfMemory`` on that I/O itself, on the governing context's
:class:`~repro.graphblas.retry.RetryPolicy` schedule and seed when it
has one (a default schedule otherwise).  A crash mid-spill leaves only a
``*.tmp.*`` file, rolled back by :func:`rollback_partial_spills`;
:meth:`SpillPool.close` removes every tile file, so a failed operation
leaves operands bit-identical and no orphaned tiles on disk.
Cancellation and deadlines are polled at every tile boundary.

**Tile files.**  A store *is* its three or four arrays (the paper's
O(1) import/export argument), so a spilled tile is those arrays and
nothing else: one fixed int64 header (:data:`_HEADER_FIELDS`) followed by
``h``, ``indptr``, ``minor`` and ``values`` as they sit in memory.  A
reload is one ``readinto`` a preallocated buffer and four views on it;
the file length must equal what the header implies, so a short or torn
file is an ``OSError`` for the retry policy, never a garbage tile.
Checkpoints keep compressed ``.npz`` (written once, kept, read by other
processes); tile files live for one operation and are re-read many times.

**Write-behind.**  Everything :func:`mxm_tiled` produces enters the pool
at the *eviction* end: output streams to disk as it is made instead of
flushing the operand tiles the very next chunk reads again.  A chunked
stripe's row-run pieces stay pieces — a grid cell holds an ordered list
of them — so nothing is reloaded to be concatenated and spilled a second
time, and a bounded drain touches only the pieces its rows overlap.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from collections import OrderedDict

import numpy as np

from . import compiled, engine, faults, governor, telemetry
from .errors import InvalidValue, OutOfMemory
from .formats import Orientation, SparseStore, coo_sort_fold, group_starts
from .mxm import _gather_ranges, _positional_values
from .mxv import _vec_positional
from .plan import resolve_semiring
from .types import lookup_type

__all__ = [
    "TiledMatrix",
    "SpillPool",
    "mxm_tiled",
    "mxv_tiled",
    "choose_tile_dim",
    "rollback_partial_spills",
    "execute",
    "DEFAULT_TILE_DIM",
    "MIN_TILE_DIM",
]

_INDEX = np.int64

#: Tile edge used when no budget information is available.
DEFAULT_TILE_DIM = 4096

#: Smallest tile edge the budget heuristic will choose.
MIN_TILE_DIM = 64

#: Tile-file header: eight int64 words, then the arrays in this order —
#: ``h`` (absent when ``h_len`` is -1), ``indptr``, ``minor``, ``values``.
_HEADER_FIELDS = ("magic", "n_major", "n_minor", "is_row", "h_len",
                  "indptr_len", "nvals", "value_dtype")
_HEADER_BYTES = 8 * len(_HEADER_FIELDS)
_MAGIC = int.from_bytes(b"GBTILE01", "little")


def _write_tile(f, store: SparseStore) -> None:
    """Write ``store`` to ``f`` as header + raw arrays (no re-encoding)."""
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
    f.write(header.data)
    for arr in (store.h, store.indptr, store.minor):
        if arr is not None:
            f.write(np.ascontiguousarray(arr, dtype=_INDEX).data)
    # not every dtype exports a buffer (datetime64); its bytes always do
    f.write(np.ascontiguousarray(store.values).view(np.uint8).data)


def _read_tile(path: str) -> SparseStore:
    """Load a tile file: one ``readinto``, then views on that buffer.

    The arrays of the returned store are writable views of one private
    buffer.  Any disagreement between the header and the file length
    raises ``OSError`` (transient for the pool's retry policy).
    """
    with open(path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        buf = np.empty(size, dtype=np.uint8)
        got = f.readinto(buf) if size else 0
    if got != size or size < _HEADER_BYTES:
        raise OSError(f"tile file {path!r} is torn: read {got} of {size} B")
    head = buf[:_HEADER_BYTES].view(_INDEX)
    magic, n_major, n_minor, is_row, h_len, indptr_len, nvals, code = (
        int(x) for x in head
    )
    try:
        if magic != _MAGIC or min(h_len + 1, indptr_len, nvals) < 0:
            raise ValueError("bad header")
        dt = np.dtype(code.to_bytes(8, "little").rstrip(b"\0").decode("ascii"))
    except (ValueError, TypeError, OverflowError) as exc:
        raise OSError(f"tile file {path!r} has a corrupt header") from exc
    h_words = max(h_len, 0)
    values_at = _HEADER_BYTES + 8 * (h_words + indptr_len + nvals)
    if size != values_at + nvals * dt.itemsize:
        raise OSError(
            f"tile file {path!r} is torn: {size} B on disk, header implies "
            f"{values_at + nvals * dt.itemsize} B"
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


def rollback_partial_spills(directory) -> list:
    """Remove leftover ``*.tmp.*`` files from interrupted spill writes.

    An atomic spill that crashed between opening its temp file and the
    rename leaves a ``<tile>.tile.tmp.<pid>`` file behind; completed tile
    files never have that infix.  Returns the paths removed.
    """
    removed = []
    directory = str(directory)
    if not os.path.isdir(directory):
        return removed
    for fname in os.listdir(directory):
        if ".tmp." in fname:
            path = os.path.join(directory, fname)
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - racing cleanup is fine
                continue
            removed.append(path)
    return removed


# --------------------------------------------------------------------------
# the spill pool
# --------------------------------------------------------------------------

class SpillPool:
    """LRU byte budget over resident tiles, spilling cold ones to disk.

    Tiles are immutable once :meth:`put`: a tile is written to disk at
    most once (first eviction) and later evictions merely drop the
    in-memory copy.  ``put(..., behind=True)`` is the write-behind door
    for produced output: the tile enters at the eviction end, so it goes
    to disk before any tile a consumer is still re-reading.  All spill
    I/O runs on the coordinating thread —
    worker threads of the parallel engine never touch the pool — so the
    thread-local fault/telemetry/governor machinery observes every
    spill and reload.
    """

    def __init__(self, budget: int | None = None, directory=None,
                 retry=None) -> None:
        if budget is None:
            budget = governor.spill_config()[2]
        self.budget = max(0, int(budget))
        base = directory if directory is not None else governor.spill_config()[1]
        if base is None:
            base = tempfile.gettempdir()
        base = str(base)
        os.makedirs(base, exist_ok=True)
        # Partial-spill rollback: a crashed predecessor using this
        # directory can only have left *.tmp.* files (the atomic writer
        # renames completed tiles); remove them before reusing the space.
        self.rolled_back = rollback_partial_spills(base)
        self.dir = tempfile.mkdtemp(prefix="gbspill-", dir=base)
        # tile I/O failures are the pool's to retry, whatever classes the
        # caller's policy names: only its schedule and seed are taken
        if retry is None:
            retry = governor.RetryPolicy(attempts=3, base_delay=0.005)
        self._retry = retry.retrying(OSError, OutOfMemory)
        self._lock = threading.RLock()
        self._resident: OrderedDict[str, SparseStore] = OrderedDict()
        self._nbytes: dict[str, int] = {}
        self._on_disk: set[str] = set()
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

    def _path(self, key: str) -> str:
        return os.path.join(self.dir, key.replace("/", "_") + ".tile")

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
            if victim not in self._on_disk:
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
        # deferred: repro.io imports this package back at load time
        from ..io.checkpoint import atomic_write

        path = self._path(key)
        nbytes = governor.with_retry(
            lambda: atomic_write(path, lambda f: _write_tile(f, store)),
            self._retry, op="tile.spill",
        )
        self._on_disk.add(key)
        self.stats["spills"] += 1
        self.stats["spilled_bytes"] += int(nbytes)
        if telemetry.ENABLED:
            telemetry.decision("governor.spill", tile=key, bytes=int(nbytes))
            telemetry.tally("governor.spill", calls=1, bytes_moved=int(nbytes))

    def _load(self, key: str) -> SparseStore:
        path = self._path(key)

        def _read() -> SparseStore:
            if faults.ENABLED:
                faults.trip("io.read")
            return _read_tile(path)

        store = governor.with_retry(_read, self._retry, op="tile.reload")
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
        """Remove every tile file and the pool directory (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._resident.clear()
            self._nbytes.clear()
            self._on_disk.clear()
            self._resident_bytes = 0
            shutil.rmtree(self.dir, ignore_errors=True)

    def __enter__(self) -> "SpillPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------
# the tiled matrix
# --------------------------------------------------------------------------

def choose_tile_dim(n_major: int, n_minor: int, est_bytes: int | None = None,
                    budget: int | None = None) -> int:
    """Pick a tile edge so one output stripe's expansion fits the budget.

    Targets roughly ``budget / 6`` bytes of expanded partial products per
    stripe (the sort and reduce passes hold a small constant multiple of
    the expansion), clamped to ``[MIN_TILE_DIM, max(n_major, n_minor)]``.
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

        The tiled SpGEMM uses this to predict each output row's expansion
        size (``sum of B-row lengths over A's row entries``) so stripes
        can be folded in bounded-memory row chunks.
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
        j = np.concatenate(parts_j)
        v = np.concatenate(parts_v)
        order = np.lexsort((j, i))  # entries are unique: canonical order
        return i[order], j[order], v[order]

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

def _expand_pair(a_coo, b_tile, i0, k0, j0, mult):
    """Unreduced partial products of one (I,K) x (K,J) tile pair.

    ``a_coo`` is the A-tile's (rows, cols, values) COO triple — possibly a
    row-restricted slice of it, when the stripe is folded in chunks.
    Pure numpy, thread-safe: no telemetry, faults, or governor access, so
    the engine may run several pairs on its shared pool.  Globalizes the
    coordinates with the tile origins so positional semirings see the same
    (i, k, j) the in-memory kernel would.
    """
    ar, ac, av = a_coo
    starts, ends = b_tile.major_ranges(ac)
    lens = ends - starts
    gather = _gather_ranges(starts, ends)
    if gather.size == 0:
        return None
    i = np.repeat(ar, lens) + i0
    j = b_tile.minor[gather] + j0
    if mult.positional is not None:
        k = np.repeat(ac, lens) + k0
        vals = _positional_values(mult, i, k, j)
    else:
        vals = mult.apply(np.repeat(av, lens), b_tile.values[gather])
    return i, j, vals


def _folder(semiring, out_type, kernels):
    """``fold(vals, seg)`` with the in-memory kernel's own reduction: the
    compiled strict left fold when ``kernels`` (the product's compiled
    selection) is set, NumPy's otherwise."""
    if kernels is not None:
        return lambda vals, seg: kernels.segfold(
            np.ascontiguousarray(out_type.cast_array(vals)), seg)
    return lambda vals, seg: semiring.add.reduce_segments(vals, seg, out_type)


def _chunk_bounds(counts: np.ndarray, target: int) -> list[tuple[int, int]]:
    """Partition rows into maximal runs whose summed counts fit ``target``.

    A single row over the target still forms its own chunk (the fold
    cannot split a row without changing the reduction order).
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
              name: str | None = None,
              chunk_bytes: int | None = None) -> TiledMatrix:
    """C = A (+).(x) B over tile grids; returns a tiled C.

    Per output stripe I, partial products are collected unreduced across
    inner tiles K in ascending order and folded once (see the module
    docstring for why this is bit-identical to the in-memory kernel).
    Output is registered in ``pool`` write-behind as it is produced, so
    an over-budget product streams to disk instead of accumulating in
    RAM or displacing the operand tiles the next chunk reads again.
    Cancellation/deadline tokens are polled at every (I, K) boundary.

    ``chunk_bytes`` bounds the unreduced expansion held in memory at
    once: skewed stripes (RMAT hubs) are folded in row chunks sized from
    a per-row flop prediction (``B.major_lengths()``), and each chunk's
    output becomes one row-run piece of its grid cells, so not even one
    output stripe needs to be fully resident.  The fold decomposes
    exactly per output row — a row's partials never mix with another
    row's in the segment reduction — so any row partition yields bit
    for bit the same values.  Defaults to ``memory_budget / 6`` of the
    active governor context; with no budget the stripe is one chunk.
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
    pool = pool if pool is not None else A.pool
    C = TiledMatrix(A.nrows, B.ncols, A.tile_dim, out_type, pool, name=name)
    mult = sr.mult
    fold = _folder(sr, out_type, compiled.select_class(
        sr, A.dtype, B.dtype, out_type,
        max(A.nrows, A.ncols, B.nrows, B.ncols))[0])
    td = A.tile_dim

    if chunk_bytes is None:
        ctx = governor.current()
        if ctx is not None and ctx.memory_budget is not None:
            chunk_bytes = ctx.memory_budget // 6
    chunk_target = None
    if chunk_bytes is not None and chunk_bytes > 0:
        # ~24 B per unreduced partial (two int64 coords + a value)
        chunk_target = max(int(chunk_bytes), 1 << 20) // 24
    b_rowlen = B.major_lengths()

    for bi in range(A.grid_rows):
        rows_here = min(td, A.nrows - bi * td)
        # load this stripe's A entries once; predict per-row expansion
        a_data = []
        counts = None
        if chunk_target is not None:
            counts = np.zeros(rows_here, dtype=np.int64)
        for bk in range(A.grid_cols):
            governor.poll()  # tile boundary: cancellation/deadline point
            a_tile = A.tile(bi, bk)
            if a_tile is None or a_tile.nvals == 0:
                continue
            ar, ac, av = a_tile.to_coo()
            flops = b_rowlen[ac + bk * td]  # partials each A entry expands to
            a_data.append((bk, ar, ac, av, flops))
            if counts is not None:
                np.add.at(counts, ar, flops)
        if not a_data:
            continue
        if counts is None:
            bounds = [(0, rows_here)]
        else:
            bounds = _chunk_bounds(counts, chunk_target)

        for lo, hi in bounds:
            parts = []
            for bk, ar, ac, av, flops in a_data:
                governor.poll()  # tile boundary: cancellation/deadline point
                s = int(np.searchsorted(ar, lo))
                e = int(np.searchsorted(ar, hi))
                if s == e:
                    continue
                a_coo = (ar[s:e], ac[s:e], av[s:e])
                tasks = []
                for bj in range(B.grid_cols):
                    b_tile = B.tile(bk, bj)
                    if b_tile is None or b_tile.nvals == 0:
                        continue
                    tasks.append((a_coo, b_tile, bi * td, bk * td, bj * td,
                                  mult))
                workers = 1
                if len(tasks) > 1:
                    workers = engine.admit_blocks(
                        "mxm.tiled", int(flops[s:e].sum()),
                        engine.MIN_PARALLEL_FLOPS, None,
                        lambda _: max(a_coo[2].nbytes * 3
                                      + max(t[1].nbytes for t in tasks), 1),
                        sr, out_type)
                if workers > 1:
                    results = engine.run_blocks(
                        _expand_pair, tasks, min(workers, len(tasks))
                    )
                else:
                    results = [_expand_pair(*t) for t in tasks]
                parts.extend(r for r in results if r is not None)
            if not parts:
                continue
            i = np.concatenate([p[0] for p in parts])
            j = np.concatenate([p[1] for p in parts])
            vals = np.concatenate([p[2] for p in parts])
            del parts
            # fold once per stripe, in the in-memory kernel's order
            i, j, vals = coo_sort_fold(i, j, vals, C.nrows, C.ncols,
                                       out_type, fold)
            i_loc = i - bi * td
            # each chunk is one row-run piece of the cells it touches
            for bj, idx in _group_by_tile(j, td):
                C._put_tile(bi, bj, i_loc[idx], j[idx] - bj * td, vals[idx],
                            rows=(lo, hi), behind=True)
    return C


def mxv_tiled(A: TiledMatrix, u_dense: np.ndarray, u_present: np.ndarray,
              semiring, out_type, matrix_first: bool = True
              ) -> tuple[np.ndarray, np.ndarray]:
    """y = A (+).(x) u over an outer-major tile grid; sorted (idx, vals).

    ``A`` must be tiled from the store whose *major* axis is the output
    dimension (the pull orientation).  Per output stripe, partial
    products stream in ascending inner-tile order and are folded once —
    bit-identical to both the push and pull in-memory kernels, which fold
    ascending-``k`` per output index.  ``u_dense`` carries the vector's
    type (it picks the fold, like the in-memory plan's operand types).
    """
    sr = resolve_semiring(semiring)
    mult = sr.mult
    u_type = lookup_type(u_dense.dtype)
    args = (A.dtype, u_type) if matrix_first else (u_type, A.dtype)
    fold = _folder(sr, out_type, compiled.select_class(
        sr, *args, out_type, max(A.nrows, A.ncols))[0])
    td = A.tile_dim
    out_i, out_v = [], []
    for bi in range(A.grid_rows):
        parts = []
        for bj in range(A.grid_cols):
            governor.poll()  # tile boundary: cancellation/deadline point
            tile = A.tile(bi, bj)
            if tile is None or tile.nvals == 0:
                continue
            il, kl, av = tile.to_coo()
            k = kl + bj * td
            sel = u_present[k]
            if not sel.any():
                continue
            m = il[sel] + bi * td
            k = k[sel]
            av = av[sel]
            if mult.positional is not None:
                vals = _vec_positional(mult.positional, k, m, matrix_first)
            else:
                u_v = u_dense[k]
                vals = mult.apply(av, u_v) if matrix_first \
                    else mult.apply(u_v, av)
            parts.append((m, vals))
        if not parts:
            continue
        m = np.concatenate([p[0] for p in parts])
        vals = np.concatenate([p[1] for p in parts])
        order = np.argsort(m, kind="stable")
        m, vals = m[order], vals[order]
        seg = group_starts(m)
        if seg.size != m.size:
            vals = fold(vals, seg)
            m = m[seg]
        else:
            vals = out_type.cast_array(vals)
        out_i.append(m)
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
        retry = ctx.retry
    else:
        _, sdir, sbudget = governor.spill_config()
        retry = None
    return SpillPool(budget=sbudget, directory=sdir, retry=retry)


def _plan_tile_dim(plan, n_major, n_minor) -> int:
    td = plan.params.get("tile_dim")
    if td:
        return int(td)
    ctx = governor.current()
    budget = ctx.memory_budget if ctx is not None else None
    return choose_tile_dim(n_major, n_minor, plan.params.get("est_bytes"),
                           budget)


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
    pool = _spill_pool_for(plan)
    try:
        A_t = TiledMatrix.from_store(a_rows, td, pool, dtype=A.dtype)
        if B is A and d.transpose_b == d.transpose_a:
            B_t = A_t  # A*A: one set of operand tiles serves both sides
        else:
            B_t = TiledMatrix.from_store(b_rows, td, pool, dtype=B.dtype)
        C_t = mxm_tiled(A_t, B_t, sr, plan.out_type, pool=pool)
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
    pool = _spill_pool_for(plan)
    try:
        A_t = TiledMatrix.from_store(store, td, pool, dtype=A.dtype)
        ti, tv = mxv_tiled(A_t, u.to_dense(), u.pattern(), sr, plan.out_type,
                           matrix_first=is_mxv)
    finally:
        _report_pool(pool, "mxv" if is_mxv else "vxm")
        pool.close()
    return write_vector(w, ti, tv, mask=plan.mask, accum=plan.accum, desc=d)
