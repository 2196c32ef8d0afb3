"""Sparse storage formats: CSR, CSC, and their hypersparse variants.

The paper (section II.A) describes SuiteSparse's four storage forms: a
matrix is a packed collection of sparse vectors, stored row-major (CSR) or
column-major (CSC), each with an optional *hypersparse* variant in which the
pointer array itself becomes sparse so that storage is O(e) instead of
O(n + e) — letting matrices of enormous dimension exist as long as e << n.

:class:`SparseStore` implements one orientation of such a structure over
NumPy arrays.  All kernels consume stores through two access patterns:

* :meth:`SparseStore.to_coo` — the entries as sorted coordinate arrays, and
* :meth:`SparseStore.major_ranges` — (start, end) slices of selected major
  vectors, O(k log nvec) for hypersparse, O(k) otherwise;

so every kernel works on all four formats, as the paper requires ("all
methods can operate on all four matrix formats in any combination").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidObject, InvalidValue
from .monoid import Monoid
from .types import Type

__all__ = [
    "Orientation",
    "SparseStore",
    "reduce_by_segments",
    "group_starts",
    "coo_sort_order",
    "coo_sort_fold",
    "merge_sorted_delta",
    "ragged_take",
]

_INDEX = np.int64

# Composite sort keys (major * n_minor + minor) must stay inside int64;
# beyond this the sort falls back to np.lexsort on the index pair.
_KEY_LIMIT = 2**62


def _composite_key(
    major: np.ndarray, minor: np.ndarray, n_major: int, n_minor: int
) -> np.ndarray | None:
    """``major * n_minor + minor`` as one int64 key, or None when unsafe.

    Safe only when both index arrays are in-range for the stated dims and
    the product cannot overflow (huge hypersparse dims fall back).
    """
    if major.size == 0 or n_minor <= 0 or n_major > _KEY_LIMIT // n_minor:
        return None
    if major.min() < 0 or major.max() >= n_major:
        return None
    if minor.min() < 0 or minor.max() >= n_minor:
        return None
    return major * np.int64(n_minor) + minor


def coo_sort_order(
    major: np.ndarray,
    minor: np.ndarray,
    n_major: int,
    n_minor: int,
) -> np.ndarray | None:
    """Stable (major, minor) sort permutation, or None if already strictly
    sorted and duplicate-free.

    Uses a single composite-key argsort when the key fits in int64 (one
    sort instead of lexsort's two passes); the permutation is identical to
    ``np.lexsort((minor, major))`` either way, both being stable.
    """
    major = np.asarray(major, dtype=_INDEX)
    minor = np.asarray(minor, dtype=_INDEX)
    key = _composite_key(major, minor, n_major, n_minor)
    if key is not None:
        if key.size == 1 or bool(np.all(key[1:] > key[:-1])):
            return None
        return np.argsort(key, kind="stable")
    if major.size <= 1:
        return None
    sorted_unique = bool(
        np.all(
            (major[1:] > major[:-1])
            | ((major[1:] == major[:-1]) & (minor[1:] > minor[:-1]))
        )
    )
    if sorted_unique:
        return None
    return np.lexsort((minor, major))


def coo_sort_fold(major, minor, values, n_major, n_minor, dtype: Type, fold):
    """Sort COO triples into (major, minor) order and fold duplicates.

    Each run of equal pairs becomes one entry whose value is
    ``fold(values, starts)`` over the sorted values (``starts``: where
    each run begins); unique entries are only cast to ``dtype``.  Returns
    sorted-unique (major, minor, values).  The one sort-and-group step of
    ``build`` and Gustavson's expansion, so both order ties the same way
    (:func:`coo_sort_order`).
    """
    order = coo_sort_order(major, minor, n_major, n_minor)
    if order is not None:
        major, minor, values = major[order], minor[order], values[order]
        starts = group_starts(major, minor)
        if starts.size != major.size:
            return major[starts], minor[starts], fold(values, starts)
    return major, minor, dtype.cast_array(values)


def ragged_take(
    arr: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Concatenate ``arr[starts[k] : starts[k] + counts[k]]`` for every k.

    The vectorized gather behind delta-restricted kernels (PageRank
    residual adjustment, per-window wedge counting): one arange plus one
    repeat instead of a Python loop over slices.
    """
    counts = np.asarray(counts, dtype=_INDEX)
    total = int(counts.sum())
    if total == 0:
        return arr[:0]
    ends = np.cumsum(counts)
    shift = np.repeat(np.asarray(starts, dtype=_INDEX) - (ends - counts), counts)
    return arr[np.arange(total, dtype=_INDEX) + shift]


def merge_sorted_delta(
    orientation: "Orientation",
    n_major: int,
    n_minor: int,
    kept_major: np.ndarray,
    kept_minor: np.ndarray,
    kept_values: np.ndarray,
    ins_major: np.ndarray,
    ins_minor: np.ndarray,
    ins_values: np.ndarray,
    dtype: Type,
    *,
    hyper: bool,
) -> "SparseStore | None":
    """Merge surviving entries with a disjoint batch of insertions.

    ``kept_*`` must be sorted-unique in (major, minor) order (a store's
    entries after dropping the coordinates an update window touched);
    ``ins_*`` are the window's insertions, unique among themselves and
    disjoint from ``kept_*``.  The merge is O(e + d log d) — a searchsorted
    interleave instead of the O(e log e) full re-sort ``from_coo`` would
    pay — which is what makes per-window twin patching and incremental
    assembly cheaper than rebuild.

    Returns None when the composite sort key would overflow (enormous
    hypersparse dimensions); callers fall back to the re-sort path.
    """
    ins_major = np.asarray(ins_major, dtype=_INDEX)
    ins_minor = np.asarray(ins_minor, dtype=_INDEX)
    if ins_major.size == 0:
        return SparseStore.from_coo(
            orientation, n_major, n_minor, kept_major, kept_minor, kept_values,
            dtype, hyper=hyper, assume_sorted_unique=True,
        )
    order = coo_sort_order(ins_major, ins_minor, n_major, n_minor)
    if order is not None:
        ins_major = ins_major[order]
        ins_minor = ins_minor[order]
        ins_values = np.asarray(ins_values)[order]
    if kept_major.size == 0:
        return SparseStore.from_coo(
            orientation, n_major, n_minor, ins_major, ins_minor, ins_values,
            dtype, hyper=hyper, assume_sorted_unique=True,
        )
    kept_key = _composite_key(kept_major, kept_minor, n_major, n_minor)
    ins_key = _composite_key(ins_major, ins_minor, n_major, n_minor)
    if kept_key is None or ins_key is None:
        return None
    pos = np.searchsorted(kept_key, ins_key)
    major = np.insert(kept_major, pos, ins_major)
    minor = np.insert(kept_minor, pos, ins_minor)
    values = np.insert(
        dtype.cast_array(kept_values), pos, dtype.cast_array(ins_values)
    )
    return SparseStore.from_coo(
        orientation, n_major, n_minor, major, minor, values,
        dtype, hyper=hyper, assume_sorted_unique=True,
    )


class Orientation(str, enum.Enum):
    ROW = "row"
    COL = "col"

    @property
    def flipped(self) -> "Orientation":
        return Orientation.COL if self is Orientation.ROW else Orientation.ROW


def reduce_by_segments(op, values: np.ndarray, starts: np.ndarray, dtype: Type):
    """Left-fold ``op`` over contiguous segments of ``values``.

    ``op`` may be a :class:`Monoid` or a plain :class:`BinaryOp` (the ``dup``
    argument of ``build``); the fold is applied in storage order, matching
    the spec's rule that duplicates combine in sequence order.
    """
    if isinstance(op, Monoid):
        return op.reduce_segments(values, starts, dtype)
    values = dtype.cast_array(np.asarray(values))
    starts = np.asarray(starts, dtype=_INDEX)
    if starts.size == 0:
        return np.empty(0, dtype=dtype.np_dtype)
    uf = op.ufunc if isinstance(op.ufunc, np.ufunc) else None
    if uf is not None:
        return dtype.cast_array(uf.reduceat(values, starts))
    # Non-ufunc fold, vectorized across segments: advance all segments one
    # position per step, so each segment still sees a strict left-to-right
    # fold (sequence order matters — the op need not be associative).
    ends = np.append(starts[1:], values.size)
    lengths = ends - starts
    vfn = np.frompyfunc(op.fn, 2, 1)
    acc = values[starts].astype(object)
    for k in range(1, int(lengths.max())):
        active = lengths > k
        if not np.any(active):
            break
        acc[active] = vfn(acc[active], values[starts[active] + k])
    return dtype.cast_array(acc)


def group_starts(*sorted_keys: np.ndarray) -> np.ndarray:
    """Offsets where each run of equal keys begins in sorted key arrays
    (with several arrays, a run is equal in every one)."""
    first = sorted_keys[0]
    if first.size == 0:
        return np.empty(0, dtype=_INDEX)
    change = np.empty(first.size, dtype=bool)
    change[0] = True
    np.not_equal(first[1:], first[:-1], out=change[1:])
    for keys in sorted_keys[1:]:
        change[1:] |= keys[1:] != keys[:-1]
    return np.flatnonzero(change).astype(_INDEX)


@dataclass
class SparseStore:
    """One orientation of a sparse matrix (or a sparse vector when 1 x n).

    Attributes
    ----------
    orientation:
        ROW for CSR/HyperCSR, COL for CSC/HyperCSC.
    n_major, n_minor:
        Dimensions along/across the storage direction.
    h:
        For hypersparse stores, the sorted ids of non-empty major vectors;
        ``None`` for plain CSR/CSC.
    indptr:
        Vector boundaries: length ``len(h)+1`` if hypersparse else
        ``n_major+1``.
    minor:
        Minor indices of entries, sorted within each major vector.
    values:
        Entry values, parallel to ``minor``.
    kernel_args:
        At most one ``StoreArgs`` (:mod:`repro.graphblas.compiled.toolchain`):
        a full-pointer store's arrays in compiled-kernel form, built on
        first use.  Stores are immutable, so it never goes stale;
        transposed views share it.
    """

    orientation: Orientation
    n_major: int
    n_minor: int
    h: np.ndarray | None
    indptr: np.ndarray
    minor: np.ndarray
    values: np.ndarray
    kernel_args: list = field(default_factory=list, repr=False, compare=False)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(
        orientation: Orientation,
        n_major: int,
        n_minor: int,
        dtype: Type,
        hyper: bool = False,
    ) -> "SparseStore":
        if hyper:
            return SparseStore(
                orientation,
                n_major,
                n_minor,
                np.empty(0, dtype=_INDEX),
                np.zeros(1, dtype=_INDEX),
                np.empty(0, dtype=_INDEX),
                np.empty(0, dtype=dtype.np_dtype),
            )
        return SparseStore(
            orientation,
            n_major,
            n_minor,
            None,
            np.zeros(n_major + 1, dtype=_INDEX),
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=dtype.np_dtype),
        )

    @staticmethod
    def from_coo(
        orientation: Orientation,
        n_major: int,
        n_minor: int,
        major: np.ndarray,
        minor: np.ndarray,
        values: np.ndarray,
        dtype: Type,
        dup=None,
        hyper: bool = False,
        assume_sorted_unique: bool = False,
    ) -> "SparseStore":
        """Build a store from coordinate arrays.

        Duplicates are folded with ``dup`` (a BinaryOp or Monoid); if ``dup``
        is None duplicates raise :class:`InvalidValue`, matching
        ``GrB_Matrix_build`` with ``dup == NULL``.
        """
        major = np.asarray(major, dtype=_INDEX)
        minor = np.asarray(minor, dtype=_INDEX)
        values = np.asarray(values)
        if not (major.shape == minor.shape == values.shape):
            raise InvalidValue("COO arrays must have identical length")
        if assume_sorted_unique or not major.size:
            values = dtype.cast_array(values)
        else:
            def fold(vals, starts):
                if dup is None:
                    raise InvalidValue("duplicate indices and no dup operator")
                return reduce_by_segments(dup, vals, starts, dtype)

            major, minor, values = coo_sort_fold(
                major, minor, values, n_major, n_minor, dtype, fold)

        if hyper:
            hstarts = group_starts(major)
            h = major[hstarts] if major.size else np.empty(0, dtype=_INDEX)
            indptr = np.empty(h.size + 1, dtype=_INDEX)
            indptr[:-1] = hstarts
            indptr[-1] = major.size
        else:
            h = None
            indptr = np.zeros(n_major + 1, dtype=_INDEX)
            if major.size:
                np.add.at(indptr, major + 1, 1)
                np.cumsum(indptr, out=indptr)
        return SparseStore(orientation, n_major, n_minor, h, indptr, minor, values)

    # -- basic properties --------------------------------------------------

    @property
    def hyper(self) -> bool:
        return self.h is not None

    @property
    def nvals(self) -> int:
        return int(self.minor.size)

    @property
    def nvec(self) -> int:
        """Number of (stored) major vectors."""
        return int(self.h.size) if self.hyper else self.n_major

    @property
    def nbytes(self) -> int:
        """Bytes of index+value storage: O(e) hypersparse, O(n+e) otherwise."""
        total = self.indptr.nbytes + self.minor.nbytes + self.values.nbytes
        if self.hyper:
            total += self.h.nbytes
        return total

    def check_valid(self) -> None:
        """Internal-consistency check (used by tests and GxB-style verify)."""
        if self.indptr[0] != 0 or self.indptr[-1] != self.nvals:
            raise InvalidObject("indptr endpoints corrupt")
        if np.any(np.diff(self.indptr) < 0):
            raise InvalidObject("indptr not monotone")
        if self.hyper:
            if np.any(np.diff(self.h) <= 0):
                raise InvalidObject("hyperlist not strictly increasing")
            if self.h.size and (self.h[0] < 0 or self.h[-1] >= self.n_major):
                raise InvalidObject("hyperlist out of range")
        if self.minor.size:
            if self.minor.min() < 0 or self.minor.max() >= self.n_minor:
                raise InvalidObject("minor index out of range")
        starts = self.indptr[:-1]
        ends = self.indptr[1:]
        for s, e in zip(starts, ends):  # sortedness within each vector
            seg = self.minor[s:e]
            if seg.size > 1 and np.any(np.diff(seg) <= 0):
                raise InvalidObject("minor indices unsorted or duplicated")

    # -- access patterns for kernels ---------------------------------------

    def expand_major(self) -> np.ndarray:
        """Major index of every entry (COO expansion), O(e)."""
        counts = np.diff(self.indptr)
        ids = self.h if self.hyper else np.arange(self.n_major, dtype=_INDEX)
        return np.repeat(ids, counts)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries as (major, minor, values), sorted major-then-minor."""
        return self.expand_major(), self.minor, self.values

    def major_ranges(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(start, end) positions of each requested major vector's entries.

        Missing (empty) vectors get start == end.  O(k log nvec) for
        hypersparse stores, O(k) for full stores.
        """
        rows = np.asarray(rows, dtype=_INDEX)
        if self.hyper:
            if self.h.size == 0:
                # empty store: indptr is just [0], and np.where evaluates
                # indptr[pos_c + 1] even under an all-False condition
                z = np.zeros(rows.size, dtype=_INDEX)
                return z, z.copy()
            pos = np.searchsorted(self.h, rows)
            pos_c = np.minimum(pos, self.h.size - 1)
            found = self.h[pos_c] == rows
            starts = np.where(found, self.indptr[pos_c], 0)
            ends = np.where(found, self.indptr[pos_c + 1], 0)
            return starts.astype(_INDEX), ends.astype(_INDEX)
        return self.indptr[rows], self.indptr[rows + 1]

    def major_slab(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries of major vectors ``[lo, hi)`` as (major, minor, values).

        Major indices are global; minor/values are views into the store's
        arrays (callers must copy before mutating).  Entries keep the
        store's canonical (major, minor) sort.  O(log nvec) span lookup
        for hypersparse stores, O(1) otherwise — the slab-extraction
        primitive behind :mod:`repro.graphblas.tiled`.
        """
        lo = max(0, min(int(lo), self.n_major))
        hi = max(lo, min(int(hi), self.n_major))
        if self.hyper:
            a = int(np.searchsorted(self.h, lo))
            b = int(np.searchsorted(self.h, hi))
            p0, p1 = int(self.indptr[a]), int(self.indptr[b])
            major = np.repeat(self.h[a:b], np.diff(self.indptr[a:b + 1]))
        else:
            p0, p1 = int(self.indptr[lo]), int(self.indptr[hi])
            major = np.repeat(
                np.arange(lo, hi, dtype=_INDEX),
                np.diff(self.indptr[lo:hi + 1]),
            )
        return major, self.minor[p0:p1], self.values[p0:p1]

    def vector_counts(self) -> np.ndarray:
        """Entry count of each major vector, length ``n_major`` (dense)."""
        counts = np.zeros(self.n_major, dtype=_INDEX)
        ids = self.h if self.hyper else np.arange(self.n_major, dtype=_INDEX)
        counts[ids] = np.diff(self.indptr)
        return counts

    # -- conversions -------------------------------------------------------

    def with_orientation(self, orientation: Orientation) -> "SparseStore":
        """Convert to the requested orientation (O(e log e) sort if flipped)."""
        if orientation == self.orientation:
            return self
        major, minor, values = self.to_coo()
        return SparseStore.from_coo(
            orientation,
            self.n_minor,
            self.n_major,
            minor,
            major,
            values,
            _dtype_of(values),
            hyper=self.hyper,
        )

    def transposed(self) -> "SparseStore":
        """O(1) logical transpose: same arrays, flipped orientation."""
        return SparseStore(
            self.orientation.flipped,
            self.n_major,
            self.n_minor,
            self.h,
            self.indptr,
            self.minor,
            self.values,
            self.kernel_args,
        )

    def to_hyper(self) -> "SparseStore":
        if self.hyper:
            return self
        counts = np.diff(self.indptr)
        nonempty = np.flatnonzero(counts).astype(_INDEX)
        indptr = np.empty(nonempty.size + 1, dtype=_INDEX)
        indptr[0] = 0
        np.cumsum(counts[nonempty], out=indptr[1:])
        return SparseStore(
            self.orientation,
            self.n_major,
            self.n_minor,
            nonempty,
            indptr,
            self.minor,
            self.values,
        )

    def to_full_pointer(self) -> "SparseStore":
        if not self.hyper:
            return self
        indptr = np.zeros(self.n_major + 1, dtype=_INDEX)
        counts = np.diff(self.indptr)
        indptr[self.h + 1] = counts
        np.cumsum(indptr, out=indptr)
        return SparseStore(
            self.orientation,
            self.n_major,
            self.n_minor,
            None,
            indptr,
            self.minor,
            self.values,
        )

    def copy(self) -> "SparseStore":
        return SparseStore(
            self.orientation,
            self.n_major,
            self.n_minor,
            None if self.h is None else self.h.copy(),
            self.indptr.copy(),
            self.minor.copy(),
            self.values.copy(),
        )


def _dtype_of(values: np.ndarray) -> Type:
    from .types import lookup_type

    return lookup_type(values.dtype)
