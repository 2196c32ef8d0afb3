"""The opaque ``GrB_Vector`` object.

A sparse vector is a sorted index array plus a parallel value array — the
same "sparse vector" building block the paper's section II.A describes as
the component of CSR/CSC matrices, and the ``SparseVector`` half of
GraphBLAST's Figure 3.  ``to_dense``/``from_dense`` provide the
``DenseVector`` half used by pull-direction kernels.

Incremental updates use the same ordered pending-log mechanism as
:class:`~repro.graphblas.matrix.Matrix`.
"""

from __future__ import annotations

import time as _time

import numpy as np

from . import context, faults, governor, telemetry, updatelog
from .errors import (
    IndexOutOfBounds,
    InvalidValue,
    NoValue,
    OutputNotEmpty,
    UninitializedObject,
    check_index,
)
from .formats import group_starts, reduce_by_segments
from .ops import binary
from .types import Type, lookup_type
from .updatelog import UpdateLog

__all__ = ["Vector"]

_INDEX = np.int64


class Vector:
    """An opaque sparse vector over a GraphBLAS domain."""

    __slots__ = (
        "dtype",
        "size",
        "indices",
        "values",
        "_log",
        "_valid",
        "__weakref__",
    )

    def __init__(self, dtype, size: int):
        size = int(size)
        if size <= 0:
            raise InvalidValue("vector size must be positive")
        if faults.ENABLED:
            faults.trip("alloc")
        self.dtype: Type = lookup_type(dtype)
        self.size = size
        self.indices = np.empty(0, dtype=_INDEX)
        self.values = np.empty(0, dtype=self.dtype.np_dtype)
        self._log = UpdateLog(matrix=False)
        self._valid = True

    # -- constructors ------------------------------------------------------

    @classmethod
    def new(cls, dtype, size: int) -> "Vector":
        """``GrB_Vector_new``."""
        return cls(dtype, size)

    @classmethod
    def from_coo(cls, indices, values, *, size=None, dtype=None, dup="PLUS") -> "Vector":
        indices = np.asarray(indices, dtype=_INDEX)
        values = np.asarray(values)
        if np.isscalar(values) or values.ndim == 0:
            values = np.broadcast_to(values, indices.shape).copy()
        if size is None:
            size = int(indices.max()) + 1 if indices.size else 1
        if dtype is None:
            dtype = values.dtype if values.size else np.float64
        v = cls(dtype, size)
        v.build(indices, values, dup=dup)
        return v

    @classmethod
    def from_dense(cls, array, *, missing=None, dtype=None) -> "Vector":
        array = np.asarray(array)
        if array.ndim != 1:
            raise InvalidValue("from_dense needs a 1-D array")
        if missing is None:
            mask = np.ones(array.shape, dtype=bool)
        elif missing != missing:  # NaN sentinel
            mask = ~np.isnan(array)
        else:
            mask = array != missing
        (idx,) = np.nonzero(mask)
        return cls.from_coo(
            idx, array[mask], size=array.shape[0], dtype=dtype or array.dtype
        )

    @classmethod
    def full(cls, value, size: int, dtype=None) -> "Vector":
        """Dense vector of one value (an iso-valued DenseVector)."""
        arr = np.full(size, value)
        return cls.from_dense(arr, dtype=dtype or arr.dtype)

    # -- invariants ----------------------------------------------------------

    def _require_valid(self) -> None:
        if not self._valid:
            raise UninitializedObject("vector contents were moved out by export")

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
        self.wait()
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        return self.indices.nbytes + self.values.nbytes

    # -- deferred updates ----------------------------------------------------

    def set_element(self, i: int, value) -> None:
        """``GrB_Vector_setElement`` (pending-tuple deferred)."""
        self._require_valid()
        i = check_index(i, self.size, "index", exc=IndexOutOfBounds)
        if faults.ENABLED:
            faults.trip("setElement")
        self._log_update(i, value, False)

    def remove_element(self, i: int) -> None:
        """``GrB_Vector_removeElement`` (zombie deferred)."""
        self._require_valid()
        i = check_index(i, self.size, "index", exc=IndexOutOfBounds)
        if faults.ENABLED:
            faults.trip("removeElement")
        self._log_update(i, 0, True)

    def _log_update(self, i: int, value, is_delete: bool) -> None:
        """Append one action to the update log; in blocking mode assemble at
        once, un-appending the action if assembly fails so no half-applied
        update survives."""
        log = self._log
        if not log and updatelog.TRACK_DEPTH:
            updatelog.register_for_depth(self)
        log.append(i, None, value, is_delete)
        if context.get_mode() == context.Mode.BLOCKING:
            try:
                self.wait()
            except BaseException:
                log.pop()
                raise

    def wait(self) -> "Vector":
        """``GrB_Vector_wait``: assemble the pending log."""
        self._require_valid()
        if not self.has_pending:
            return self
        # Poll before any assembly work: a cancellation here leaves
        # the arrays and the whole pending log fully intact.
        governor.poll()
        if faults.ENABLED:
            faults.trip("assemble")
        if telemetry.ENABLED:
            _t0 = _time.perf_counter()
            _pending = len(self._log)
            _zombies = sum(self._log.deleted)
        # sortedness fast path and last-wins dedup live in the shared log
        res = self._log.resolve(self.dtype)
        li, ins, lv = res.i, res.ins, res.values

        if res.fast and self.indices.size == 0:
            self.indices, self.values = li, lv
        else:
            keep = ~np.isin(self.indices, li)
            idx = np.concatenate([self.indices[keep], li[ins]])
            val = np.concatenate([self.values[keep], lv])
            order = np.argsort(idx, kind="stable")
            # atomic commit: assemble fully, then swap in the result and drop
            # the update log, so a mid-assembly failure changes nothing
            self.indices, self.values = idx[order], val[order]
        self._log.clear()
        if telemetry.ENABLED:
            telemetry.decision(
                "assembly",
                object="vector",
                pending=_pending,
                zombies=_zombies,
                nvals=int(self.indices.size),
                fast_path=res.fast,
            )
            telemetry.record_op(
                "wait", _time.perf_counter() - _t0, int(self.indices.size)
            )
        return self

    # -- element access ------------------------------------------------------

    def extract_element(self, i: int):
        self._require_valid()
        self.wait()
        i = int(i)
        if not 0 <= i < self.size:
            raise IndexOutOfBounds(f"{i} outside [0,{self.size})")
        pos = np.searchsorted(self.indices, i)
        if pos < self.indices.size and self.indices[pos] == i:
            v = self.values[pos]
            return v.item() if self.dtype.builtin else v
        raise NoValue(f"no entry at {i}")

    def get(self, i: int, default=None):
        try:
            return self.extract_element(i)
        except NoValue:
            return default

    def __getitem__(self, i):
        return self.extract_element(i)

    def __setitem__(self, i, value) -> None:
        self.set_element(i, value)

    def build(self, indices, values, dup="PLUS") -> "Vector":
        """``GrB_Vector_build``: bulk construction; target must be empty."""
        self._require_valid()
        if self.indices.size or self.has_pending:
            raise OutputNotEmpty("build requires an empty vector")
        if faults.ENABLED:
            faults.trip("build")
        indices = np.asarray(indices, dtype=_INDEX)
        values = np.asarray(values)
        if indices.shape != values.shape:
            raise InvalidValue("index/value arrays must have identical length")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.size:
                raise IndexOutOfBounds("index out of bounds in build")
            order = np.argsort(indices, kind="stable")
            indices, values = indices[order], values[order]
            starts = group_starts(indices)
            if starts.size != indices.size:
                if dup is None:
                    raise InvalidValue("duplicate indices and no dup operator")
                values = reduce_by_segments(binary(dup), values, starts, self.dtype)
                indices = indices[starts]
            else:
                values = self.dtype.cast_array(values)
        else:
            values = self.dtype.cast_array(values)
        self.indices, self.values = indices, values
        return self

    def extract_tuples(self) -> tuple[np.ndarray, np.ndarray]:
        """``GrB_Vector_extractTuples``: Omega(e) copy-out."""
        self._require_valid()
        self.wait()
        return self.indices.copy(), self.values.copy()

    # -- whole-object operations ---------------------------------------------

    def dup(self) -> "Vector":
        self._require_valid()
        self.wait()
        out = Vector(self.dtype, self.size)
        out.indices = self.indices.copy()
        out.values = self.values.copy()
        return out

    def clear(self) -> "Vector":
        self._require_valid()
        self.indices = np.empty(0, dtype=_INDEX)
        self.values = np.empty(0, dtype=self.dtype.np_dtype)
        self._log.clear()
        return self

    def resize(self, size: int) -> "Vector":
        self._require_valid()
        self.wait()
        size = int(size)
        if size <= 0:
            raise InvalidValue("vector size must be positive")
        keep = self.indices < size
        self.indices = self.indices[keep]
        self.values = self.values[keep]
        self.size = size
        return self

    def to_dense(self, fill=0) -> np.ndarray:
        """Dense 1-D array (the DenseVector view of Figure 3)."""
        self._require_valid()
        self.wait()
        out = np.full(self.size, fill, dtype=self.dtype.np_dtype)
        out[self.indices] = self.values
        return out

    def pattern(self) -> np.ndarray:
        self._require_valid()
        self.wait()
        out = np.zeros(self.size, dtype=bool)
        out[self.indices] = True
        return out

    @property
    def density(self) -> float:
        """nvals / size — the direction-optimization switch statistic."""
        return self.nvals / self.size

    def to_scipy(self):
        """Export as a 1-column ``scipy.sparse.csc_matrix`` (size x 1).

        Stored zeros survive the conversion; ImportError without scipy.
        """
        import scipy.sparse as sp

        idx, vals = self.extract_tuples()
        return sp.csc_matrix(
            (vals, (idx, np.zeros(idx.size, dtype=np.int64))), shape=(self.size, 1)
        )

    @classmethod
    def from_scipy(cls, v, *, dtype=None) -> "Vector":
        """Build from a 1-column (or 1-row) ``scipy.sparse`` matrix."""
        coo = v.tocoo()
        if coo.shape[1] == 1:
            idx, size = coo.row, coo.shape[0]
        elif coo.shape[0] == 1:
            idx, size = coo.col, coo.shape[1]
        else:
            raise ValueError("from_scipy needs a 1-row or 1-column matrix")
        return cls.from_coo(idx, coo.data, size=size, dtype=dtype, dup=None)

    def isequal(self, other: "Vector") -> bool:
        if not isinstance(other, Vector):
            return False
        if self.dtype != other.dtype or self.size != other.size:
            return False
        i1, v1 = self.extract_tuples()
        i2, v2 = other.extract_tuples()
        return bool(np.array_equal(i1, i2)) and bool(np.array_equal(v1, v2))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self._valid:
            return "Vector(<moved>)"
        return (
            f"Vector({self.dtype.name}, size={self.size}, "
            f"nvals={self.indices.size})"
        )
