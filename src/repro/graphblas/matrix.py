"""The opaque ``GrB_Matrix`` object.

Storage is a :class:`~repro.graphblas.formats.SparseStore` in one of the
four formats the paper describes (CSR, CSC, HyperCSR, HyperCSC), plus the
two deferred-update structures of section II.A:

* **pending tuples** — an unordered list of (i, j, v) for fast insertion;
* **zombies** — entries tagged for deletion but still physically present.

``wait()`` assembles both in a single O(n + e + p log p) pass, which is why
a sequence of e ``setElement`` calls is as fast as one e-tuple ``build`` —
the quantitative claim reproduced by bench E1.  In blocking mode each update
assembles immediately (O(e) per call).

A matrix may cache its opposite-orientation twin (``by_row``/``by_col``
below) — the dual CSR+CSC storage that GraphBLAST (section II.E, Figure 3)
uses for direction-optimized traversal, at 2x memory.
"""

from __future__ import annotations

import time as _time

import numpy as np

from . import context, engine, faults, governor, telemetry, updatelog
from .errors import (
    IndexOutOfBounds,
    InvalidValue,
    NoValue,
    UninitializedObject,
    check_index,
)
from .formats import Orientation, SparseStore, merge_sorted_delta
from .ops import SECOND, binary
from .types import Type, lookup_type
from .updatelog import DeltaBatch, UpdateLog, coords_isin as _coords_isin

__all__ = ["Matrix"]

_INDEX = np.int64
_EMPTY_IDX = np.empty(0, dtype=_INDEX)

#: Most recent assembled windows kept per delta-tracking matrix; consumers
#: that fall further behind recompute from scratch instead of patching.
DELTA_LOG_LIMIT = 64

# Switch to hypersparse when fewer than 1/HYPER_SWITCH of rows are non-empty
# (SuiteSparse exploits hypersparsity automatically; same spirit here).
HYPER_SWITCH = 16

# Above this major dimension a full O(n) pointer array is never allocated:
# matrices are born hypersparse, so "matrices with enormous dimensions can
# be created, as long as e << n" (section II.A).
AUTO_HYPER_DIM = 1 << 26


class Matrix:
    """An opaque sparse matrix over a GraphBLAS domain.

    Create with :meth:`Matrix.new`, :meth:`Matrix.from_coo`,
    :meth:`Matrix.from_dense`, or the capi facade.  All Table-I operations
    live in :mod:`repro.graphblas.operations`; this class only owns storage,
    incremental updates, and format control.
    """

    __slots__ = (
        "dtype",
        "nrows",
        "ncols",
        "_store",
        "_alt",
        "_log",
        "_deltas",
        "_track_deltas",
        "_valid",
        "_keep_both",
        "_epoch",
        "_alt_epoch",
        "__weakref__",
    )

    def __init__(self, dtype, nrows: int, ncols: int):
        nrows = int(nrows)
        ncols = int(ncols)
        if nrows <= 0 or ncols <= 0:
            raise InvalidValue("matrix dimensions must be positive")
        if faults.ENABLED:
            faults.trip("alloc")
        self.dtype: Type = lookup_type(dtype)
        self.nrows = nrows
        self.ncols = ncols
        self._store = SparseStore.empty(
            Orientation.ROW, nrows, ncols, self.dtype, hyper=nrows > AUTO_HYPER_DIM
        )
        self._alt: SparseStore | None = None  # cached flipped orientation
        # one ordered update log: insertions (pending tuples) and deletions
        # (zombies); ordering matters when both touch the same coordinate
        self._log = UpdateLog(matrix=True)
        # settled windows (DeltaBatch chain) when track_deltas() is on
        self._deltas: list[DeltaBatch] = []
        self._track_deltas = False
        self._valid = True
        self._keep_both = False
        # Mutation epoch for dual-format cache invalidation: bumped on
        # every primary-store change; the cached twin is only served while
        # _alt_epoch matches (engine.DUAL_FORMAT mode).
        self._epoch = 0
        self._alt_epoch = -1

    # -- constructors ------------------------------------------------------

    @classmethod
    def new(cls, dtype, nrows: int, ncols: int) -> "Matrix":
        """``GrB_Matrix_new``."""
        return cls(dtype, nrows, ncols)

    @classmethod
    def from_coo(
        cls,
        rows,
        cols,
        values,
        *,
        nrows: int | None = None,
        ncols: int | None = None,
        dtype=None,
        dup="PLUS",
    ) -> "Matrix":
        """Build from coordinate arrays (convenience over new + build)."""
        rows = np.asarray(rows, dtype=_INDEX)
        cols = np.asarray(cols, dtype=_INDEX)
        values = np.asarray(values)
        if np.isscalar(values) or values.ndim == 0:
            values = np.broadcast_to(values, rows.shape).copy()
        if nrows is None:
            nrows = int(rows.max()) + 1 if rows.size else 1
        if ncols is None:
            ncols = int(cols.max()) + 1 if cols.size else 1
        if dtype is None:
            dtype = values.dtype if values.size else np.float64
        m = cls(dtype, nrows, ncols)
        m.build(rows, cols, values, dup=dup)
        return m

    @classmethod
    def from_dense(cls, array, *, missing=None, dtype=None) -> "Matrix":
        """Build from a dense 2-D array; ``missing`` marks absent entries."""
        array = np.asarray(array)
        if array.ndim != 2:
            raise InvalidValue("from_dense needs a 2-D array")
        if missing is None:
            mask = np.ones(array.shape, dtype=bool)
        elif missing != missing:  # NaN sentinel
            mask = ~np.isnan(array)
        else:
            mask = array != missing
        rows, cols = np.nonzero(mask)
        return cls.from_coo(
            rows,
            cols,
            array[mask],
            nrows=array.shape[0],
            ncols=array.shape[1],
            dtype=dtype or array.dtype,
        )

    @classmethod
    def sparse_identity(cls, n: int, dtype=np.float64, value=1) -> "Matrix":
        idx = np.arange(n, dtype=_INDEX)
        return cls.from_coo(idx, idx, np.full(n, value), nrows=n, ncols=n, dtype=dtype)

    # -- invariants --------------------------------------------------------

    def _require_valid(self) -> None:
        if not self._valid:
            raise UninitializedObject(
                "matrix contents were moved out by export (section IV move semantics)"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def has_pending(self) -> bool:
        return bool(self._log)

    @property
    def npending(self) -> int:
        """Pending insertions (the paper's *pending tuples*)."""
        return self._log.npending

    @property
    def nzombies(self) -> int:
        """Pending deletions (the paper's *zombies*)."""
        return self._log.nzombies

    # Raw update-log views, kept as assignable properties because the capi
    # snapshot/restore path and the resilience harness address the log
    # through them.
    @property
    def _pend_i(self) -> list[int]:
        return self._log.i

    @_pend_i.setter
    def _pend_i(self, value) -> None:
        self._log.i = list(value)

    @property
    def _pend_j(self) -> list[int]:
        return self._log.j

    @_pend_j.setter
    def _pend_j(self, value) -> None:
        self._log.j = list(value)

    @property
    def _pend_v(self) -> list:
        return self._log.v

    @_pend_v.setter
    def _pend_v(self, value) -> None:
        self._log.v = list(value)

    @property
    def _pend_del(self) -> list[bool]:
        return self._log.deleted

    @_pend_del.setter
    def _pend_del(self, value) -> None:
        self._log.deleted = list(value)

    @property
    def nvals(self) -> int:
        """``GrB_Matrix_nvals``: forces assembly of pending work."""
        self.wait()
        return self._store.nvals

    @property
    def format(self) -> str:
        s = self._store
        if s.orientation is Orientation.ROW:
            return "hypercsr" if s.hyper else "csr"
        return "hypercsc" if s.hyper else "csc"

    @property
    def nbytes(self) -> int:
        """Bytes held by the primary store (pending work not counted)."""
        self._require_valid()
        return self._store.nbytes

    # -- deferred updates (zombies & pending tuples) ------------------------

    def set_element(self, i: int, j: int, value) -> None:
        """``GrB_Matrix_setElement``: O(1) amortized in non-blocking mode."""
        self._require_valid()
        i = check_index(i, self.nrows, "row index", exc=IndexOutOfBounds)
        j = check_index(j, self.ncols, "col index", exc=IndexOutOfBounds)
        if faults.ENABLED:
            faults.trip("setElement")
        self._log_update(i, j, value, False)

    def remove_element(self, i: int, j: int) -> None:
        """``GrB_Matrix_removeElement``: tags a zombie for deferred deletion."""
        self._require_valid()
        i = check_index(i, self.nrows, "row index", exc=IndexOutOfBounds)
        j = check_index(j, self.ncols, "col index", exc=IndexOutOfBounds)
        if faults.ENABLED:
            faults.trip("removeElement")
        self._log_update(i, j, 0, True)

    def _log_update(self, i: int, j: int, value, is_delete: bool) -> None:
        """Append one action to the update log; in blocking mode assemble at
        once, un-appending the action if assembly fails so no half-applied
        update survives.

        The cached twin is *not* nulled here: it still flips the settled
        store, and ``wait()`` either patches it from the delta or drops it.
        The epoch bump keeps every epoch-checked consumer honest meanwhile.
        """
        log = self._log
        if not log:
            log.from_epoch = self._epoch
            if updatelog.TRACK_DEPTH:
                updatelog.register_for_depth(self)
        log.append(i, j, value, is_delete)
        self._epoch += 1
        if context.get_mode() == context.Mode.BLOCKING:
            try:
                self.wait()
            except BaseException:
                log.pop()
                self._epoch -= 1
                raise

    def update_batch(self, rows, cols, values=None, *, deleted=None) -> "Matrix":
        """Append a batch of set/remove actions to the update log, in order.

        The vectorized counterpart of e ``setElement``/``removeElement``
        calls — the paper's "e setElement calls are as cheap as one build",
        with the per-element Python loop removed.  ``deleted`` marks
        removeElement actions (scalar or per-element); ``values`` may be a
        scalar, an array, or None (deletions / structural batches).  In
        blocking mode the whole batch assembles at once and is rolled back
        in full on failure.
        """
        self._require_valid()
        rows = np.asarray(rows, dtype=_INDEX).ravel()
        cols = np.asarray(cols, dtype=_INDEX).ravel()
        if rows.size != cols.size:
            raise InvalidValue("update_batch row/col arrays must match in length")
        if rows.size == 0:
            return self
        if rows.min() < 0 or rows.max() >= self.nrows:
            raise IndexOutOfBounds("row index out of bounds in update_batch")
        if cols.min() < 0 or cols.max() >= self.ncols:
            raise IndexOutOfBounds("col index out of bounds in update_batch")
        if deleted is None:
            dels = [False] * rows.size
        else:
            dels = np.broadcast_to(
                np.asarray(deleted, dtype=bool), rows.shape
            ).tolist()
        if values is None:
            vals = [0] * rows.size
        else:
            v = np.asarray(values)
            if v.ndim == 0:
                vals = [v.item()] * rows.size
            else:
                if v.size != rows.size:
                    raise InvalidValue(
                        "update_batch values must be scalar or match length"
                    )
                vals = v.ravel().tolist()
        if faults.ENABLED:
            faults.trip("setElement")
        log = self._log
        before = len(log)
        if not log:
            log.from_epoch = self._epoch
            if updatelog.TRACK_DEPTH:
                updatelog.register_for_depth(self)
        log.extend(rows.tolist(), cols.tolist(), vals, dels)
        self._epoch += rows.size
        if context.get_mode() == context.Mode.BLOCKING:
            try:
                self.wait()
            except BaseException:
                log.truncate(before)
                self._epoch -= rows.size
                raise
        return self

    # -- settled delta windows ---------------------------------------------

    def track_deltas(self, flag: bool = True) -> "Matrix":
        """Record a :class:`DeltaBatch` per assembled window.

        While on, every ``wait()`` that settles pending work appends its
        window to a bounded chain retrievable with :meth:`deltas_since` —
        the feed consumed by incremental maintenance.  Off by default
        (zero cost for matrices nobody maintains state against).
        """
        self._track_deltas = bool(flag)
        if not flag:
            self._deltas.clear()
        return self

    @property
    def last_delta(self) -> DeltaBatch | None:
        """The most recently assembled window, if tracking is on."""
        return self._deltas[-1] if self._deltas else None

    def deltas_since(self, epoch: int) -> list[DeltaBatch] | None:
        """The contiguous window chain from settled ``epoch`` to now.

        Returns ``[]`` when nothing changed, or None when the chain cannot
        be reconstructed — tracking off, work still pending, a bulk
        mutation (build/clear/resize/set_format) broke the chain, or the
        bounded window log no longer reaches back to ``epoch``.  A None
        means the consumer must recompute from scratch.
        """
        if not self._track_deltas or self.has_pending:
            return None
        if epoch == self._epoch:
            return []
        chain: list[DeltaBatch] = []
        for d in reversed(self._deltas):
            chain.append(d)
            if d.epoch_from == epoch:
                break
        else:
            return None
        chain.reverse()
        at = epoch
        for d in chain:
            if d.epoch_from != at:
                return None
            at = d.epoch_to
        return chain if at == self._epoch else None

    def _remember_delta(self, delta: DeltaBatch) -> None:
        if self._deltas and self._deltas[-1].epoch_to != delta.epoch_from:
            # a bulk mutation bumped the epoch without a window in between:
            # older batches can no longer chain to any cached consumer state
            self._deltas.clear()
        self._deltas.append(delta)
        if len(self._deltas) > DELTA_LOG_LIMIT:
            del self._deltas[0]

    def wait(self) -> "Matrix":
        """``GrB_Matrix_wait``: kill zombies and assemble pending tuples.

        A single O(n + e + p log p) pass (hypersparse: O(e + p log p)), per
        the paper's section II.A.
        """
        self._require_valid()
        if not self.has_pending:
            return self
        # Poll before any assembly work: a cancellation here leaves
        # the store and the whole pending/zombie log fully intact.
        governor.poll()
        if faults.ENABLED:
            faults.trip("assemble")
        if telemetry.ENABLED:
            _t0 = _time.perf_counter()
            _pending = len(self._log)
            _zombies = sum(self._log.deleted)
        orient = self._store.orientation
        hyper = self._store.hyper
        res = self._log.resolve(
            self.dtype, major_is_row=orient is Orientation.ROW
        )
        li, lj, ins, lv = res.i, res.j, res.ins, res.values

        major, minor, values = self._store.to_coo()
        if orient is Orientation.COL:
            rows, cols = minor, major
            n_major, n_minor = self.ncols, self.nrows
        else:
            rows, cols = major, minor
            n_major, n_minor = self.nrows, self.ncols

        prev_r = prev_c = _EMPTY_IDX
        prev_v = None
        if res.fast and rows.size == 0:
            # empty store + sorted unique insertions: assemble with no
            # sort and no dedup at all
            pmaj, pmin = (lj, li) if orient is Orientation.COL else (li, lj)
            assembled = SparseStore.from_coo(
                orient,
                n_major,
                n_minor,
                pmaj,
                pmin,
                lv,
                self.dtype,
                hyper=hyper,
                assume_sorted_unique=True,
            )
        else:
            # zombie kill + pending override: drop stored entries touched
            # by the log, then merge the surviving insertions into the
            # kept run (already sorted) instead of re-sorting everything
            keep = ~_coords_isin(rows, cols, li, lj, self.ncols)
            if self._track_deltas and not keep.all():
                hit = ~keep
                prev_r, prev_c = rows[hit].copy(), cols[hit].copy()
                prev_v = values[hit].copy()
            ins_maj, ins_min = (
                (lj[ins], li[ins]) if orient is Orientation.COL else (li[ins], lj[ins])
            )
            assembled = merge_sorted_delta(
                orient,
                n_major,
                n_minor,
                major[keep],
                minor[keep],
                values[keep],
                ins_maj,
                ins_min,
                lv,
                self.dtype,
                hyper=hyper,
            )
            if assembled is None:
                # enormous dimensions overflow the composite merge key:
                # fall back to the re-sorting assembly
                cat_maj = np.concatenate([major[keep], ins_maj])
                cat_min = np.concatenate([minor[keep], ins_min])
                cat_val = np.concatenate([values[keep], lv])
                assembled = SparseStore.from_coo(
                    orient,
                    n_major,
                    n_minor,
                    cat_maj,
                    cat_min,
                    cat_val,
                    self.dtype,
                    dup=SECOND,
                    hyper=hyper,
                )

        # Patch the cached twin from the same delta instead of dropping it
        # (engine on only): the alt store flips the pre-window epoch, so
        # killing the same coordinates and merging the same insertions in
        # its orientation re-synchronizes it without an O(e log e) rebuild.
        new_alt = None
        if self._alt is not None and engine.DUAL_FORMAT:
            new_alt = self._patched_alt(li, lj, ins, lv)

        # atomic commit: nothing is touched until assembly fully succeeded,
        # so a mid-assembly failure leaves both the store and the update log
        # exactly as they were
        from_epoch = self._log.from_epoch
        self._store = assembled
        self._log.clear()
        self._epoch += 1
        if new_alt is not None:
            self._alt = new_alt
            self._alt_epoch = self._epoch
        else:
            self._alt = None
        if self._track_deltas:
            if prev_v is None:
                prev_v = np.empty(0, dtype=self.dtype.np_dtype)
            self._remember_delta(
                DeltaBatch(
                    self.nrows,
                    self.ncols,
                    self.dtype,
                    li[ins],
                    lj[ins],
                    lv,
                    li[~ins],
                    lj[~ins],
                    prev_r,
                    prev_c,
                    prev_v,
                    from_epoch,
                    self._epoch,
                )
            )
        if telemetry.ENABLED:
            telemetry.decision(
                "assembly",
                object="matrix",
                pending=_pending,
                zombies=_zombies,
                nvals=int(assembled.nvals),
                fast_path=res.fast,
                twin_patched=new_alt is not None,
            )
            telemetry.record_op("wait", _time.perf_counter() - _t0, int(assembled.nvals))
        return self

    def _patched_alt(self, li, lj, ins, lv) -> SparseStore | None:
        """Apply the resolved log to the flipped-orientation twin.

        Returns the patched store, or None when the composite merge key
        would overflow (the caller then drops the twin and lets the next
        ``by_row``/``by_col`` rebuild it).
        """
        alt = self._alt
        amaj, amin, avals = alt.to_coo()
        if alt.orientation is Orientation.ROW:
            arows, acols = amaj, amin
            ins_maj, ins_min = li[ins], lj[ins]
        else:
            arows, acols = amin, amaj
            ins_maj, ins_min = lj[ins], li[ins]
        keep = ~_coords_isin(arows, acols, li, lj, self.ncols)
        return merge_sorted_delta(
            alt.orientation,
            alt.n_major,
            alt.n_minor,
            amaj[keep],
            amin[keep],
            avals[keep],
            ins_maj,
            ins_min,
            lv,
            self.dtype,
            hyper=alt.hyper,
        )

    # -- element access ----------------------------------------------------

    def extract_element(self, i: int, j: int):
        """``GrB_Matrix_extractElement``; raises :class:`NoValue` if absent."""
        self._require_valid()
        self.wait()
        i, j = int(i), int(j)
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexOutOfBounds(f"({i},{j}) outside {self.shape}")
        s = self._store
        maj, mino = (i, j) if s.orientation is Orientation.ROW else (j, i)
        start, end = s.major_ranges(np.array([maj], dtype=_INDEX))
        lo, hi = int(start[0]), int(end[0])
        pos = lo + np.searchsorted(s.minor[lo:hi], mino)
        if pos < hi and s.minor[pos] == mino:
            return s.values[pos].item() if self.dtype.builtin else s.values[pos]
        raise NoValue(f"no entry at ({i},{j})")

    def get(self, i: int, j: int, default=None):
        """Pythonic extract_element returning ``default`` when absent."""
        try:
            return self.extract_element(i, j)
        except NoValue:
            return default

    def __getitem__(self, key):
        i, j = key
        return self.extract_element(i, j)

    def __setitem__(self, key, value) -> None:
        i, j = key
        self.set_element(i, j, value)

    def build(
        self, rows, cols, values, dup="PLUS", *, assume_sorted_unique=False
    ) -> "Matrix":
        """``GrB_Matrix_build``: bulk construction from tuples.

        The target must be empty (``OutputNotEmpty`` otherwise, per spec).
        ``assume_sorted_unique`` skips the sort/dedup pass; the caller
        asserts the tuples are strictly sorted along this matrix's storage
        orientation with no duplicate coordinates.
        """
        from .errors import OutputNotEmpty

        self._require_valid()
        if self._store.nvals or self.has_pending:
            raise OutputNotEmpty("build requires an empty matrix")
        if faults.ENABLED:
            faults.trip("build")
        rows = np.asarray(rows, dtype=_INDEX)
        cols = np.asarray(cols, dtype=_INDEX)
        values = np.asarray(values)
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.nrows:
                raise IndexOutOfBounds("row index out of bounds in build")
            if cols.min() < 0 or cols.max() >= self.ncols:
                raise IndexOutOfBounds("col index out of bounds in build")
        dup_op = binary(dup) if dup is not None else None
        hyper = self._store.hyper
        self._store = SparseStore.from_coo(
            self._store.orientation,
            self._store.n_major,
            self._store.n_minor,
            rows if self._store.orientation is Orientation.ROW else cols,
            cols if self._store.orientation is Orientation.ROW else rows,
            values,
            self.dtype,
            dup=dup_op,
            hyper=hyper,
            assume_sorted_unique=assume_sorted_unique,
        )
        self._alt = None
        self._epoch += 1
        return self

    def extract_tuples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``GrB_Matrix_extractTuples``: Omega(e) copy-out of all entries."""
        self._require_valid()
        self.wait()
        major, minor, values = self._store.to_coo()
        if self._store.orientation is Orientation.COL:
            rows, cols = minor.copy(), major
        else:
            rows, cols = major, minor.copy()
        return rows, cols, values.copy()

    # -- format control ------------------------------------------------------

    def set_format(self, fmt: str) -> "Matrix":
        """Switch storage among csr / csc / hypercsr / hypercsc."""
        self._require_valid()
        self.wait()
        fmt = fmt.lower()
        want_orient = Orientation.COL if fmt.endswith("csc") else Orientation.ROW
        if fmt not in ("csr", "csc", "hypercsr", "hypercsc"):
            raise InvalidValue(f"unknown format {fmt!r}")
        want_hyper = fmt.startswith("hyper")
        s = self._store.with_orientation(want_orient)
        s = s.to_hyper() if want_hyper else s.to_full_pointer()
        self._store = s
        self._alt = None
        self._epoch += 1
        if telemetry.ENABLED:
            telemetry.decision(
                "format", object="matrix", format=fmt, forced=True,
                nvals=int(s.nvals),
            )
        return self

    def auto_format(self) -> "Matrix":
        """Pick hypersparse automatically when most vectors are empty."""
        self._require_valid()
        self.wait()
        s = self._store
        nonempty = s.nvec if s.hyper else int(np.count_nonzero(np.diff(s.indptr)))
        if nonempty * HYPER_SWITCH < s.n_major:
            self._store = s.to_hyper()
        else:
            self._store = s.to_full_pointer()
        if telemetry.ENABLED:
            telemetry.decision(
                "format",
                object="matrix",
                format=self.format,
                forced=False,
                nonempty=nonempty,
                n_major=int(s.n_major),
            )
        return self

    def keep_both_orientations(self, flag: bool = True) -> "Matrix":
        """Keep both CSR and CSC copies alive (GraphBLAST's 2x-memory mode)."""
        self._keep_both = bool(flag)
        if not flag:
            self._alt = None
        return self

    def by_row(self) -> SparseStore:
        """Row-oriented store view (converting and caching if needed)."""
        return self._oriented(Orientation.ROW)

    def by_col(self) -> SparseStore:
        """Column-oriented store view (converting and caching if needed)."""
        return self._oriented(Orientation.COL)

    def to_tiled(self, tile_dim: int, *, pool=None):
        """Partition into a :class:`~repro.graphblas.tiled.TiledMatrix`.

        Waits pending updates first (the tiles snapshot the settled
        epoch).  ``pool`` defaults to a fresh
        :class:`~repro.graphblas.tiled.SpillPool` configured from the
        governing context / environment.
        """
        from . import tiled as _tiled

        if pool is None:
            pool = _tiled.SpillPool()
        return _tiled.TiledMatrix.from_matrix(self, tile_dim, pool)

    def _oriented(self, orientation: Orientation) -> SparseStore:
        self._require_valid()
        self.wait()
        if self._store.orientation == orientation:
            return self._store
        if (
            self._alt is not None
            and self._alt.orientation == orientation
            and (self._keep_both or self._alt_epoch == self._epoch)
        ):
            return self._alt
        alt = self._store.with_orientation(orientation)
        if self._keep_both or engine.DUAL_FORMAT:
            # persistent dual-orientation twin: invalidated by nulling on
            # every mutation AND by the epoch check (belt and braces), so
            # a stale twin can never be served
            self._alt = alt
            self._alt_epoch = self._epoch
            if telemetry.ENABLED:
                telemetry.decision(
                    "engine.twin",
                    object="matrix",
                    orientation=orientation.name.lower(),
                    nvals=int(alt.nvals),
                    epoch=self._epoch,
                )
        return alt

    # -- whole-object operations -------------------------------------------

    def dup(self) -> "Matrix":
        """``GrB_Matrix_dup``: deep copy."""
        self._require_valid()
        self.wait()
        out = Matrix(self.dtype, self.nrows, self.ncols)
        out._store = self._store.copy()
        out._keep_both = self._keep_both
        return out

    def clear(self) -> "Matrix":
        """``GrB_Matrix_clear``: drop all entries, keep dimensions/type."""
        self._require_valid()
        self._log.clear()
        self._deltas.clear()
        self._store = SparseStore.empty(
            self._store.orientation,
            self._store.n_major,
            self._store.n_minor,
            self.dtype,
            hyper=self._store.hyper,
        )
        self._alt = None
        self._epoch += 1
        return self

    def resize(self, nrows: int, ncols: int) -> "Matrix":
        """``GrB_Matrix_resize``: grow or shrink (dropping outside entries)."""
        self._require_valid()
        self.wait()
        nrows, ncols = int(nrows), int(ncols)
        if nrows <= 0 or ncols <= 0:
            raise InvalidValue("matrix dimensions must be positive")
        rows, cols, vals = self.extract_tuples()
        keep = (rows < nrows) & (cols < ncols)
        orient = self._store.orientation
        hyper = self._store.hyper
        self.nrows, self.ncols = nrows, ncols
        n_major, n_minor = (
            (nrows, ncols) if orient is Orientation.ROW else (ncols, nrows)
        )
        major = rows[keep] if orient is Orientation.ROW else cols[keep]
        minor = cols[keep] if orient is Orientation.ROW else rows[keep]
        self._store = SparseStore.from_coo(
            orient,
            n_major,
            n_minor,
            major,
            minor,
            vals[keep],
            self.dtype,
            hyper=hyper,
            assume_sorted_unique=(orient is Orientation.ROW),
        )
        self._alt = None
        self._epoch += 1
        return self

    def to_dense(self, fill=0) -> np.ndarray:
        """Dense 2-D array with ``fill`` in empty positions (test helper)."""
        self._require_valid()
        self.wait()
        out = np.full((self.nrows, self.ncols), fill, dtype=self.dtype.np_dtype)
        rows, cols, vals = self.extract_tuples()
        out[rows, cols] = vals
        return out

    def pattern(self) -> np.ndarray:
        """Dense boolean structure matrix (test helper)."""
        self._require_valid()
        self.wait()
        out = np.zeros((self.nrows, self.ncols), dtype=bool)
        rows, cols, _ = self.extract_tuples()
        out[rows, cols] = True
        return out

    def to_scipy(self, format: str = "csr"):
        """Export as a ``scipy.sparse`` matrix (``csr``/``csc``/``coo``).

        Explicit zeros are preserved: scipy keeps stored entries until one
        of its own operations prunes them, so the round-trip through
        :meth:`from_scipy` is pattern-exact.  Raises ImportError when
        scipy is not installed.
        """
        import scipy.sparse as sp

        rows, cols, vals = self.extract_tuples()
        coo = sp.coo_matrix((vals, (rows, cols)), shape=self.shape)
        return coo.asformat(format)

    @classmethod
    def from_scipy(cls, A, *, dtype=None) -> "Matrix":
        """Build from any ``scipy.sparse`` matrix, keeping stored zeros."""
        coo = A.tocoo()
        return cls.from_coo(
            coo.row,
            coo.col,
            coo.data,
            nrows=A.shape[0],
            ncols=A.shape[1],
            dtype=dtype,
            dup=None,
        )

    def isequal(self, other: "Matrix") -> bool:
        """Same type, dimensions, pattern, and values (LAGraph_IsEqual)."""
        if not isinstance(other, Matrix):
            return False
        if self.dtype != other.dtype or self.shape != other.shape:
            return False
        r1, c1, v1 = self.extract_tuples()
        r2, c2, v2 = other.extract_tuples()
        if r1.size != r2.size:
            return False
        # extractTuples order depends on the storage orientation; compare
        # canonically (row-major) so CSR and CSC twins test equal
        o1 = np.lexsort((c1, r1))
        o2 = np.lexsort((c2, r2))
        return (
            bool(np.array_equal(r1[o1], r2[o2]))
            and bool(np.array_equal(c1[o1], c2[o2]))
            and bool(np.array_equal(v1[o1], v2[o2]))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self._valid:
            return "Matrix(<moved>)"
        pend = f", pending={self.npending}, zombies={self.nzombies}" if self.has_pending else ""
        return (
            f"Matrix({self.dtype.name}, {self.nrows}x{self.ncols}, "
            f"nvals={self._store.nvals}{pend}, format={self.format})"
        )
