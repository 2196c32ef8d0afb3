"""Dense spec-literal reference implementation (the "MATLAB mimic").

The paper (section II.A) describes how SuiteSparse is tested: every
operation is written twice — once as high-performance sparse kernels, and
again as a very short, simple dense-matrix mimic whose pattern is held in a
separate Boolean matrix and which follows the API specification line by
line ("matrix multiply is written with a brute-force triply-nested for
loop").  Each computation is then executed both ways and must match in both
value and pattern.

This module is that mimic.  It deliberately shares **no kernel code** with
the sparse engine: values are dense NumPy arrays, structure is a separate
Boolean array, operators are applied through their scalar Python functions
(``op.fn``), and ``mxm`` really is a triply-nested loop.  The conformance
suite (tests/graphblas/test_conformance.py) drives both implementations
over randomized inputs and asserts equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptor import Descriptor, desc as _desc
from .matrix import Matrix
from .monoid import Monoid, monoid as _monoid
from .ops import BinaryOp, IndexUnaryOp, binary as _binary, indexunary as _indexunary, unary as _unary
from .semiring import Semiring, semiring as _semiring
from .types import Type
from .vector import Vector

__all__ = [
    "RefMatrix",
    "RefVector",
    "ref_mxm",
    "ref_mxv",
    "ref_vxm",
    "ref_ewise_add",
    "ref_ewise_mult",
    "ref_apply",
    "ref_select",
    "ref_reduce_rowwise",
    "ref_reduce_scalar",
    "ref_transpose",
    "ref_extract",
    "ref_assign",
    "ref_subassign",
    "ref_kronecker",
]


@dataclass
class RefMatrix:
    """Dense values + separate Boolean pattern (the mimic's data model)."""

    vals: np.ndarray
    pattern: np.ndarray
    dtype: Type

    @classmethod
    def zeros(cls, dtype: Type, nrows: int, ncols: int) -> "RefMatrix":
        return cls(
            np.zeros((nrows, ncols), dtype=dtype.np_dtype),
            np.zeros((nrows, ncols), dtype=bool),
            dtype,
        )

    @classmethod
    def from_matrix(cls, A: Matrix) -> "RefMatrix":
        return cls(A.to_dense(), A.pattern(), A.dtype)

    def to_matrix(self) -> Matrix:
        rows, cols = np.nonzero(self.pattern)
        return Matrix.from_coo(
            rows,
            cols,
            self.vals[rows, cols],
            nrows=self.vals.shape[0],
            ncols=self.vals.shape[1],
            dtype=self.dtype,
        )

    @property
    def shape(self):
        return self.vals.shape

    def copy(self) -> "RefMatrix":
        return RefMatrix(self.vals.copy(), self.pattern.copy(), self.dtype)

    def matches(self, A: Matrix) -> bool:
        """Value-and-pattern equality against a sparse Matrix.

        Patterns must be identical.  Values are compared exactly for
        integral domains; float domains allow last-ulp differences from
        summation order (the paper: bitwise identity "in most cases").
        """
        if not np.array_equal(self.pattern, A.pattern()):
            return False
        mine = np.where(self.pattern, self.vals, 0)
        theirs = np.where(A.pattern(), A.to_dense(), 0)
        return _values_match(mine, theirs, self.dtype)


@dataclass
class RefVector:
    vals: np.ndarray
    pattern: np.ndarray
    dtype: Type

    @classmethod
    def zeros(cls, dtype: Type, size: int) -> "RefVector":
        return cls(
            np.zeros(size, dtype=dtype.np_dtype), np.zeros(size, dtype=bool), dtype
        )

    @classmethod
    def from_vector(cls, v: Vector) -> "RefVector":
        return cls(v.to_dense(), v.pattern(), v.dtype)

    @property
    def size(self):
        return self.vals.size

    def copy(self) -> "RefVector":
        return RefVector(self.vals.copy(), self.pattern.copy(), self.dtype)

    def matches(self, v: Vector) -> bool:
        if not np.array_equal(self.pattern, v.pattern()):
            return False
        mine = np.where(self.pattern, self.vals, 0)
        theirs = np.where(v.pattern(), v.to_dense(), 0)
        return _values_match(mine, theirs, self.dtype)


def _values_match(a: np.ndarray, b: np.ndarray, dtype: Type) -> bool:
    if dtype.builtin and dtype.is_float:
        rtol = 1e-5 if dtype.np_dtype == np.float32 else 1e-9
        atol = 1e-6 if dtype.np_dtype == np.float32 else 1e-12
        return bool(np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=True))
    return bool(np.array_equal(a, b))


def _cast(dtype: Type, value):
    return dtype.cast_array(np.asarray(value)).item() if dtype.builtin else value


# --------------------------------------------------------------------------
# the write step, line by line from the spec
# --------------------------------------------------------------------------

def _ref_write_matrix(C: RefMatrix, Z: RefMatrix, mask: RefMatrix | None, d: Descriptor) -> RefMatrix:
    nrows, ncols = C.shape
    out = RefMatrix.zeros(C.dtype, nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if mask is None:
                admit = True
            elif d.structural_mask:
                admit = bool(mask.pattern[i, j])
            else:
                admit = bool(mask.pattern[i, j]) and bool(mask.vals[i, j])
            if d.complement_mask and mask is not None:
                admit = not admit
            if admit:
                if Z.pattern[i, j]:
                    out.pattern[i, j] = True
                    out.vals[i, j] = _cast(C.dtype, Z.vals[i, j])
            else:
                if not d.replace and C.pattern[i, j]:
                    out.pattern[i, j] = True
                    out.vals[i, j] = C.vals[i, j]
    return out


def _ref_accum_matrix(C: RefMatrix, T: RefMatrix, accum: BinaryOp | None) -> RefMatrix:
    if accum is None:
        Z = RefMatrix.zeros(C.dtype, *C.shape)
        Z.pattern[:] = T.pattern
        for i in range(C.shape[0]):
            for j in range(C.shape[1]):
                if T.pattern[i, j]:
                    Z.vals[i, j] = _cast(C.dtype, T.vals[i, j])
        return Z
    Z = RefMatrix.zeros(C.dtype, *C.shape)
    for i in range(C.shape[0]):
        for j in range(C.shape[1]):
            if C.pattern[i, j] and T.pattern[i, j]:
                Z.pattern[i, j] = True
                Z.vals[i, j] = _cast(C.dtype, accum.fn(C.vals[i, j], T.vals[i, j]))
            elif C.pattern[i, j]:
                Z.pattern[i, j] = True
                Z.vals[i, j] = C.vals[i, j]
            elif T.pattern[i, j]:
                Z.pattern[i, j] = True
                Z.vals[i, j] = _cast(C.dtype, T.vals[i, j])
    return Z


def _finish_matrix(C, T, mask, accum, d) -> RefMatrix:
    Z = _ref_accum_matrix(C, T, accum)
    return _ref_write_matrix(C, Z, mask, d)


def _ref_write_vector(w: RefVector, Z: RefVector, mask: RefVector | None, d: Descriptor) -> RefVector:
    out = RefVector.zeros(w.dtype, w.size)
    for i in range(w.size):
        if mask is None:
            admit = True
        elif d.structural_mask:
            admit = bool(mask.pattern[i])
        else:
            admit = bool(mask.pattern[i]) and bool(mask.vals[i])
        if d.complement_mask and mask is not None:
            admit = not admit
        if admit:
            if Z.pattern[i]:
                out.pattern[i] = True
                out.vals[i] = _cast(w.dtype, Z.vals[i])
        else:
            if not d.replace and w.pattern[i]:
                out.pattern[i] = True
                out.vals[i] = w.vals[i]
    return out


def _ref_accum_vector(w: RefVector, t: RefVector, accum: BinaryOp | None) -> RefVector:
    Z = RefVector.zeros(w.dtype, w.size)
    for i in range(w.size):
        if accum is not None and w.pattern[i] and t.pattern[i]:
            Z.pattern[i] = True
            Z.vals[i] = _cast(w.dtype, accum.fn(w.vals[i], t.vals[i]))
        elif accum is not None and w.pattern[i]:
            Z.pattern[i] = True
            Z.vals[i] = w.vals[i]
        elif t.pattern[i]:
            Z.pattern[i] = True
            Z.vals[i] = _cast(w.dtype, t.vals[i])
    return Z


def _finish_vector(w, t, mask, accum, d) -> RefVector:
    Z = _ref_accum_vector(w, t, accum)
    return _ref_write_vector(w, Z, mask, d)


def _maybe_transpose(A: RefMatrix, flag: bool) -> RefMatrix:
    if not flag:
        return A
    return RefMatrix(A.vals.T.copy(), A.pattern.T.copy(), A.dtype)


# --------------------------------------------------------------------------
# the operations
# --------------------------------------------------------------------------

def ref_mxm(C, A, B, semiring="PLUS_TIMES", *, mask=None, accum=None, desc=None) -> RefMatrix:
    """Brute-force triply-nested-loop matrix multiply over a semiring."""
    d = _desc(desc)
    sr = _semiring(semiring)
    accum = None if accum is None else _binary(accum)
    A = _maybe_transpose(A, d.transpose_a)
    B = _maybe_transpose(B, d.transpose_b)
    m, n = A.shape[0], B.shape[1]
    inner = A.shape[1]
    out_type = sr.out_type(A.dtype, B.dtype)
    T = RefMatrix.zeros(out_type, m, n)
    for i in range(m):
        for j in range(n):
            acc = None
            for k in range(inner):
                if A.pattern[i, k] and B.pattern[k, j]:
                    if sr.mult.positional is not None:
                        t = _ref_positional(sr.mult.positional, i, k, j)
                    else:
                        t = sr.mult.fn(A.vals[i, k], B.vals[k, j])
                    acc = t if acc is None else sr.add.op.fn(acc, t)
            if acc is not None:
                T.pattern[i, j] = True
                T.vals[i, j] = _cast(out_type, acc)
    return _finish_matrix(C, T, mask, accum, d)


def _ref_positional(kind: str, i: int, k: int, j: int):
    return {
        "firsti": i,
        "firsti1": i + 1,
        "firstj": k,
        "secondi": k,
        "secondj": j,
        "secondj1": j + 1,
    }[kind]


def ref_mxv(w, A, u, semiring="PLUS_TIMES", *, mask=None, accum=None, desc=None) -> RefVector:
    d = _desc(desc)
    sr = _semiring(semiring)
    accum = None if accum is None else _binary(accum)
    A = _maybe_transpose(A, d.transpose_a)
    out_type = sr.out_type(A.dtype, u.dtype)
    t = RefVector.zeros(out_type, A.shape[0])
    for i in range(A.shape[0]):
        acc = None
        for k in range(A.shape[1]):
            if A.pattern[i, k] and u.pattern[k]:
                if sr.mult.positional is not None:
                    p = _ref_positional(sr.mult.positional, i, k, 0)
                else:
                    p = sr.mult.fn(A.vals[i, k], u.vals[k])
                acc = p if acc is None else sr.add.op.fn(acc, p)
        if acc is not None:
            t.pattern[i] = True
            t.vals[i] = _cast(out_type, acc)
    return _finish_vector(w, t, mask, accum, d)


def ref_vxm(w, u, A, semiring="PLUS_TIMES", *, mask=None, accum=None, desc=None) -> RefVector:
    d = _desc(desc)
    sr = _semiring(semiring)
    accum = None if accum is None else _binary(accum)
    A = _maybe_transpose(A, d.transpose_a)
    out_type = sr.out_type(u.dtype, A.dtype)
    t = RefVector.zeros(out_type, A.shape[1])
    for j in range(A.shape[1]):
        acc = None
        for k in range(A.shape[0]):
            if u.pattern[k] and A.pattern[k, j]:
                if sr.mult.positional is not None:
                    p = _ref_positional(sr.mult.positional, k, k, j)
                else:
                    p = sr.mult.fn(u.vals[k], A.vals[k, j])
                acc = p if acc is None else sr.add.op.fn(acc, p)
        if acc is not None:
            t.pattern[j] = True
            t.vals[j] = _cast(out_type, acc)
    return _finish_vector(w, t, mask, accum, d)


def ref_ewise_add(C, A, B, op="PLUS", *, mask=None, accum=None, desc=None):
    d = _desc(desc)
    if isinstance(op, Semiring):
        op = op.add.op
    elif isinstance(op, Monoid):
        op = op.op
    else:
        op = _binary(op)
    accum = None if accum is None else _binary(accum)
    if isinstance(A, RefVector):
        out_type = op.out_type(A.dtype, B.dtype)
        t = RefVector.zeros(out_type, A.size)
        for i in range(A.size):
            if A.pattern[i] and B.pattern[i]:
                t.pattern[i] = True
                t.vals[i] = _cast(out_type, op.fn(A.vals[i], B.vals[i]))
            elif A.pattern[i]:
                t.pattern[i] = True
                t.vals[i] = _cast(out_type, A.vals[i])
            elif B.pattern[i]:
                t.pattern[i] = True
                t.vals[i] = _cast(out_type, B.vals[i])
        return _finish_vector(C, t, mask, accum, d)
    A = _maybe_transpose(A, d.transpose_a)
    B = _maybe_transpose(B, d.transpose_b)
    out_type = op.out_type(A.dtype, B.dtype)
    T = RefMatrix.zeros(out_type, *A.shape)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            if A.pattern[i, j] and B.pattern[i, j]:
                T.pattern[i, j] = True
                T.vals[i, j] = _cast(out_type, op.fn(A.vals[i, j], B.vals[i, j]))
            elif A.pattern[i, j]:
                T.pattern[i, j] = True
                T.vals[i, j] = _cast(out_type, A.vals[i, j])
            elif B.pattern[i, j]:
                T.pattern[i, j] = True
                T.vals[i, j] = _cast(out_type, B.vals[i, j])
    return _finish_matrix(C, T, mask, accum, d)


def ref_ewise_mult(C, A, B, op="TIMES", *, mask=None, accum=None, desc=None):
    d = _desc(desc)
    if isinstance(op, Semiring):
        op = op.add.op
    elif isinstance(op, Monoid):
        op = op.op
    else:
        op = _binary(op)
    accum = None if accum is None else _binary(accum)
    if isinstance(A, RefVector):
        out_type = op.out_type(A.dtype, B.dtype)
        t = RefVector.zeros(out_type, A.size)
        for i in range(A.size):
            if A.pattern[i] and B.pattern[i]:
                t.pattern[i] = True
                t.vals[i] = _cast(out_type, op.fn(A.vals[i], B.vals[i]))
        return _finish_vector(C, t, mask, accum, d)
    A = _maybe_transpose(A, d.transpose_a)
    B = _maybe_transpose(B, d.transpose_b)
    out_type = op.out_type(A.dtype, B.dtype)
    T = RefMatrix.zeros(out_type, *A.shape)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            if A.pattern[i, j] and B.pattern[i, j]:
                T.pattern[i, j] = True
                T.vals[i, j] = _cast(out_type, op.fn(A.vals[i, j], B.vals[i, j]))
    return _finish_matrix(C, T, mask, accum, d)


def ref_apply(C, A, op="IDENTITY", *, left=None, right=None, thunk=None, mask=None, accum=None, desc=None):
    from .ops import INDEXUNARY_OPS

    d = _desc(desc)
    accum = None if accum is None else _binary(accum)
    is_iu = isinstance(op, IndexUnaryOp) or (
        isinstance(op, str) and op.upper() in INDEXUNARY_OPS
    )

    def f(value, i, j):
        if is_iu:
            return _indexunary(op).fn(value, i, j, thunk if thunk is not None else 0)
        if left is not None:
            return _binary(op).fn(left, value)
        if right is not None:
            return _binary(op).fn(value, right)
        return _unary(op).fn(value)

    if is_iu:
        out_type = _indexunary(op).out_type(A.dtype)
    elif left is not None or right is not None:
        out_type = _binary(op).out_type(A.dtype, A.dtype)
    else:
        out_type = _unary(op).out_type(A.dtype)

    if isinstance(A, RefVector):
        t = RefVector.zeros(out_type, A.size)
        for i in range(A.size):
            if A.pattern[i]:
                t.pattern[i] = True
                t.vals[i] = _cast(out_type, f(A.vals[i], i, 0))
        return _finish_vector(C, t, mask, accum, d)
    A = _maybe_transpose(A, d.transpose_a)
    T = RefMatrix.zeros(out_type, *A.shape)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            if A.pattern[i, j]:
                T.pattern[i, j] = True
                T.vals[i, j] = _cast(out_type, f(A.vals[i, j], i, j))
    return _finish_matrix(C, T, mask, accum, d)


def ref_select(C, A, op, thunk=0, *, mask=None, accum=None, desc=None):
    d = _desc(desc)
    accum = None if accum is None else _binary(accum)
    iu = _indexunary(op)
    if isinstance(A, RefVector):
        t = RefVector.zeros(A.dtype, A.size)
        for i in range(A.size):
            if A.pattern[i] and bool(iu.fn(A.vals[i], i, 0, thunk)):
                t.pattern[i] = True
                t.vals[i] = A.vals[i]
        return _finish_vector(C, t, mask, accum, d)
    A = _maybe_transpose(A, d.transpose_a)
    T = RefMatrix.zeros(A.dtype, *A.shape)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            if A.pattern[i, j] and bool(iu.fn(A.vals[i, j], i, j, thunk)):
                T.pattern[i, j] = True
                T.vals[i, j] = A.vals[i, j]
    return _finish_matrix(C, T, mask, accum, d)


def ref_reduce_rowwise(w, A, op="PLUS", *, mask=None, accum=None, desc=None):
    d = _desc(desc)
    mon = _monoid(op)
    accum = None if accum is None else _binary(accum)
    A = _maybe_transpose(A, d.transpose_a)
    t = RefVector.zeros(A.dtype, A.shape[0])
    for i in range(A.shape[0]):
        acc = None
        for j in range(A.shape[1]):
            if A.pattern[i, j]:
                acc = A.vals[i, j] if acc is None else mon.op.fn(acc, A.vals[i, j])
        if acc is not None:
            t.pattern[i] = True
            t.vals[i] = _cast(A.dtype, acc)
    return _finish_vector(w, t, mask, accum, d)


def ref_reduce_scalar(A, op="PLUS", *, accum=None, init=None):
    mon = _monoid(op)
    acc = None
    if isinstance(A, RefVector):
        it = ((A.pattern[i], A.vals[i]) for i in range(A.size))
    else:
        it = (
            (A.pattern[i, j], A.vals[i, j])
            for i in range(A.shape[0])
            for j in range(A.shape[1])
        )
    for present, v in it:
        if present:
            acc = v if acc is None else mon.op.fn(acc, v)
    if acc is None:
        acc = mon.identity(A.dtype)
    acc = _cast(A.dtype, acc)
    if accum is not None and init is not None:
        acc = _cast(A.dtype, _binary(accum).fn(init, acc))
    return acc


def ref_transpose(C, A, *, mask=None, accum=None, desc=None):
    d = _desc(desc)
    accum = None if accum is None else _binary(accum)
    T = _maybe_transpose(A, not d.transpose_a)
    T = RefMatrix(T.vals.astype(A.dtype.np_dtype), T.pattern, A.dtype)
    return _finish_matrix(C, T, mask, accum, d)


def ref_extract(C, A, I=None, J=None, *, mask=None, accum=None, desc=None):
    d = _desc(desc)
    accum = None if accum is None else _binary(accum)
    if isinstance(A, RefVector):
        I = np.arange(A.size) if I is None else np.asarray(I, dtype=np.int64)
        t = RefVector.zeros(A.dtype, I.size)
        for out_i, i in enumerate(I):
            if A.pattern[i]:
                t.pattern[out_i] = True
                t.vals[out_i] = A.vals[i]
        return _finish_vector(C, t, mask, accum, d)
    A = _maybe_transpose(A, d.transpose_a)
    I = np.arange(A.shape[0]) if I is None else np.asarray(I, dtype=np.int64)
    if np.isscalar(J) and not isinstance(C, RefMatrix):  # column extract
        t = RefVector.zeros(A.dtype, I.size)
        for out_i, i in enumerate(I):
            if A.pattern[i, int(J)]:
                t.pattern[out_i] = True
                t.vals[out_i] = A.vals[i, int(J)]
        return _finish_vector(C, t, mask, accum, d)
    J = np.arange(A.shape[1]) if J is None else np.asarray(J, dtype=np.int64)
    T = RefMatrix.zeros(A.dtype, I.size, J.size)
    for out_i, i in enumerate(I):
        for out_j, j in enumerate(J):
            if A.pattern[i, j]:
                T.pattern[out_i, out_j] = True
                T.vals[out_i, out_j] = A.vals[i, j]
    return _finish_matrix(C, T, mask, accum, d)


def ref_assign(C, A, I=None, J=None, *, mask=None, accum=None, desc=None):
    d = _desc(desc)
    accum = None if accum is None else _binary(accum)
    if isinstance(C, RefVector):
        I = np.arange(C.size) if I is None else np.asarray(I, dtype=np.int64)
        Z = C.copy()
        if isinstance(A, RefVector):
            for k, i in enumerate(I):
                if A.pattern[k]:
                    if accum is not None and Z.pattern[i]:
                        Z.vals[i] = _cast(C.dtype, accum.fn(Z.vals[i], A.vals[k]))
                    else:
                        Z.pattern[i] = True
                        Z.vals[i] = _cast(C.dtype, A.vals[k])
                elif accum is None:
                    Z.pattern[i] = False
                    Z.vals[i] = 0
        else:  # scalar fill
            for i in I:
                if accum is not None and Z.pattern[i]:
                    Z.vals[i] = _cast(C.dtype, accum.fn(Z.vals[i], A))
                else:
                    Z.pattern[i] = True
                    Z.vals[i] = _cast(C.dtype, A)
        return _ref_write_vector(C, Z, mask, d)

    I = np.arange(C.shape[0]) if I is None else np.asarray(I, dtype=np.int64)
    J = np.arange(C.shape[1]) if J is None else np.asarray(J, dtype=np.int64)
    Z = C.copy()
    if isinstance(A, RefMatrix):
        A2 = _maybe_transpose(A, d.transpose_a)
        for a_i, i in enumerate(I):
            for a_j, j in enumerate(J):
                if A2.pattern[a_i, a_j]:
                    if accum is not None and Z.pattern[i, j]:
                        Z.vals[i, j] = _cast(
                            C.dtype, accum.fn(Z.vals[i, j], A2.vals[a_i, a_j])
                        )
                    else:
                        Z.pattern[i, j] = True
                        Z.vals[i, j] = _cast(C.dtype, A2.vals[a_i, a_j])
                elif accum is None:
                    Z.pattern[i, j] = False
                    Z.vals[i, j] = 0
    elif isinstance(A, RefVector):
        if I.size == 1:
            for a_j, j in enumerate(J):
                _ref_assign_one(Z, C.dtype, accum, int(I[0]), j, A, a_j)
        elif J.size == 1:
            for a_i, i in enumerate(I):
                _ref_assign_one(Z, C.dtype, accum, i, int(J[0]), A, a_i)
    else:  # scalar fill
        for i in I:
            for j in J:
                if accum is not None and Z.pattern[i, j]:
                    Z.vals[i, j] = _cast(C.dtype, accum.fn(Z.vals[i, j], A))
                else:
                    Z.pattern[i, j] = True
                    Z.vals[i, j] = _cast(C.dtype, A)
    return _ref_write_matrix(C, Z, mask, d)


def _ref_assign_one(Z, dtype, accum, i, j, A, k):
    if A.pattern[k]:
        if accum is not None and Z.pattern[i, j]:
            Z.vals[i, j] = _cast(dtype, accum.fn(Z.vals[i, j], A.vals[k]))
        else:
            Z.pattern[i, j] = True
            Z.vals[i, j] = _cast(dtype, A.vals[k])
    elif accum is None:
        Z.pattern[i, j] = False
        Z.vals[i, j] = 0


def ref_subassign(C, A, I=None, J=None, *, mask=None, accum=None, desc=None):
    """GxB_subassign: mask and REPLACE act inside the I x J region only."""
    d = _desc(desc)
    accum = None if accum is None else _binary(accum)
    if isinstance(C, RefVector):
        I = np.arange(C.size) if I is None else np.asarray(I, dtype=np.int64)
        out = C.copy()
        for k, i in enumerate(I):
            if mask is None:
                admit = True
            elif d.structural_mask:
                admit = bool(mask.pattern[k])
            else:
                admit = bool(mask.pattern[k]) and bool(mask.vals[k])
            if d.complement_mask and mask is not None:
                admit = not admit
            a_has = A.pattern[k] if isinstance(A, RefVector) else True
            a_val = A.vals[k] if isinstance(A, RefVector) else A
            if admit:
                if a_has:
                    if accum is not None and out.pattern[i]:
                        out.vals[i] = _cast(C.dtype, accum.fn(out.vals[i], a_val))
                    else:
                        out.pattern[i] = True
                        out.vals[i] = _cast(C.dtype, a_val)
                elif accum is None:
                    out.pattern[i] = False
                    out.vals[i] = 0
            elif d.replace:
                out.pattern[i] = False
                out.vals[i] = 0
        return out

    I = np.arange(C.shape[0]) if I is None else np.asarray(I, dtype=np.int64)
    J = np.arange(C.shape[1]) if J is None else np.asarray(J, dtype=np.int64)
    A2 = _maybe_transpose(A, d.transpose_a) if isinstance(A, RefMatrix) else A
    out = C.copy()
    for ai, i in enumerate(I):
        for aj, j in enumerate(J):
            if mask is None:
                admit = True
            elif d.structural_mask:
                admit = bool(mask.pattern[ai, aj])
            else:
                admit = bool(mask.pattern[ai, aj]) and bool(mask.vals[ai, aj])
            if d.complement_mask and mask is not None:
                admit = not admit
            if isinstance(A2, RefMatrix):
                a_has = A2.pattern[ai, aj]
                a_val = A2.vals[ai, aj]
            elif isinstance(A2, RefVector):
                k = aj if I.size == 1 else ai  # row- or column-subassign
                a_has = A2.pattern[k]
                a_val = A2.vals[k]
            else:
                a_has, a_val = True, A2
            if admit:
                if a_has:
                    if accum is not None and out.pattern[i, j]:
                        out.vals[i, j] = _cast(
                            C.dtype, accum.fn(out.vals[i, j], a_val)
                        )
                    else:
                        out.pattern[i, j] = True
                        out.vals[i, j] = _cast(C.dtype, a_val)
                elif accum is None:
                    out.pattern[i, j] = False
                    out.vals[i, j] = 0
            elif d.replace:
                out.pattern[i, j] = False
                out.vals[i, j] = 0
    return out


def ref_kronecker(C, A, B, op="TIMES", *, mask=None, accum=None, desc=None):
    d = _desc(desc)
    if isinstance(op, Semiring):
        op = op.add.op
    elif isinstance(op, Monoid):
        op = op.op
    else:
        op = _binary(op)
    accum = None if accum is None else _binary(accum)
    A = _maybe_transpose(A, d.transpose_a)
    B = _maybe_transpose(B, d.transpose_b)
    out_type = op.out_type(A.dtype, B.dtype)
    m = A.shape[0] * B.shape[0]
    n = A.shape[1] * B.shape[1]
    T = RefMatrix.zeros(out_type, m, n)
    for ai in range(A.shape[0]):
        for aj in range(A.shape[1]):
            if not A.pattern[ai, aj]:
                continue
            for bi in range(B.shape[0]):
                for bj in range(B.shape[1]):
                    if B.pattern[bi, bj]:
                        T.pattern[ai * B.shape[0] + bi, aj * B.shape[1] + bj] = True
                        T.vals[ai * B.shape[0] + bi, aj * B.shape[1] + bj] = _cast(
                            out_type, op.fn(A.vals[ai, aj], B.vals[bi, bj])
                        )
    return _finish_matrix(C, T, mask, accum, d)
