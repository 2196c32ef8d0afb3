"""The GraphBLAS operations of Table I — the dispatch shim.

Every operation follows the spec's canonical pipeline, now split into two
explicit halves:

1. :mod:`repro.graphblas.plan` resolves the engine-independent parts —
   descriptor, operator/semiring/accumulator names, shapes, index sets —
   into a typed :class:`~repro.graphblas.plan.OpPlan`;
2. :mod:`repro.graphblas.backends` routes the plan to the active
   :class:`~repro.graphblas.backends.KernelBackend` (``optimized`` by
   default; ``compiled``, ``reference`` or ``differential`` by selection).

This module is the thin shim tying the halves together.  It owns the
fault-injection trip points, which must fire exactly once per call
whichever engine runs; the per-call telemetry record is the
dispatcher's.

Matrix and vector variants share entry points and dispatch on object type,
mirroring the polymorphic C interface the IBM implementation builds with
``_Generic`` (section II.B).

Signatures are "output first": ``mxm(C, A, B, semiring, mask=…, accum=…,
desc=…)`` updates and returns ``C``.  Each operation also accepts
``backend=`` to override the engine for that single call.  The strict
C-API shape lives in :mod:`repro.graphblas.capi`.
"""

from __future__ import annotations

import numpy as np

from . import faults, governor, plan as _plan
from .backends import dispatch as _dispatch
from .errors import DimensionMismatch, InvalidValue
from .matrix import Matrix
from .mxv import DirectionOptimizer
from .plan import (
    ALL,
    _All,
    resolve_accum as _resolve_accum,
    resolve_ewise_op as _ewise_op,
    resolve_index as _resolve_index,
)
from .types import lookup_type
from .vector import Vector

__all__ = [
    "ALL",
    "mxm",
    "mxv",
    "vxm",
    "ewise_add",
    "ewise_mult",
    "apply",
    "select",
    "reduce_rowwise",
    "reduce_scalar",
    "transpose",
    "extract",
    "assign",
    "subassign",
    "kronecker",
    "concat",
    "split",
    "diag",
    "diag_extract",
    "nvals_like",
]


# --------------------------------------------------------------------------
# Table-I operations: plan, then dispatch
# --------------------------------------------------------------------------

def mxm(C, A, B, semiring="PLUS_TIMES", *, mask=None, accum=None, desc=None,
        method="auto", backend=None):
    """``GrB_mxm``: C<mask> (+)= A (+).(x) B."""
    p = _plan.plan_mxm(C, A, B, semiring, mask=mask, accum=accum, desc=desc,
                       method=method)
    return _dispatch(p, backend)


def mxv(w, A, u, semiring="PLUS_TIMES", *, mask=None, accum=None, desc=None,
        method="auto", optimizer: DirectionOptimizer | None = None,
        backend=None):
    """``GrB_mxv``: w<mask> (+)= A (+).(x) u, with push/pull selection."""
    p = _plan.plan_mxv(w, A, u, semiring, mask=mask, accum=accum, desc=desc,
                       method=method, optimizer=optimizer)
    return _dispatch(p, backend)


def vxm(w, u, A, semiring="PLUS_TIMES", *, mask=None, accum=None, desc=None,
        method="auto", optimizer: DirectionOptimizer | None = None,
        backend=None):
    """``GrB_vxm``: w^T<mask> (+)= u^T (+).(x) A."""
    p = _plan.plan_vxm(w, u, A, semiring, mask=mask, accum=accum, desc=desc,
                       method=method, optimizer=optimizer)
    return _dispatch(p, backend)


def ewise_add(C, A, B, op="PLUS", *, mask=None, accum=None, desc=None,
              backend=None):
    """``GrB_eWiseAdd``: set *union* of patterns; op applied where both."""
    if faults.ENABLED:
        faults.trip("ewise")
    p = _plan.plan_ewise_add(C, A, B, op, mask=mask, accum=accum, desc=desc)
    return _dispatch(p, backend)


def ewise_mult(C, A, B, op="TIMES", *, mask=None, accum=None, desc=None,
               backend=None):
    """``GrB_eWiseMult``: set *intersection* of patterns."""
    if faults.ENABLED:
        faults.trip("ewise")
    p = _plan.plan_ewise_mult(C, A, B, op, mask=mask, accum=accum, desc=desc)
    return _dispatch(p, backend)


def apply(C, A, op="IDENTITY", *, left=None, right=None, thunk=None,
          mask=None, accum=None, desc=None, backend=None):
    """``GrB_apply``: C<mask> (+)= f(A).

    ``op`` may be a UnaryOp; a BinaryOp with ``left`` or ``right`` bound
    (``GrB_apply_BinaryOp1st/2nd``); or an IndexUnaryOp with ``thunk``.
    """
    if faults.ENABLED:
        faults.trip("apply")
    p = _plan.plan_apply(C, A, op, left=left, right=right, thunk=thunk,
                         mask=mask, accum=accum, desc=desc)
    return _dispatch(p, backend)


def select(C, A, op, thunk=0, *, mask=None, accum=None, desc=None,
           backend=None):
    """``GrB_select``: keep entries where the index-unary predicate holds."""
    if faults.ENABLED:
        faults.trip("select")
    p = _plan.plan_select(C, A, op, thunk, mask=mask, accum=accum, desc=desc)
    return _dispatch(p, backend)


def reduce_rowwise(w, A, op="PLUS", *, mask=None, accum=None, desc=None,
                   backend=None):
    """``GrB_reduce`` (matrix to vector): w(i) = (+)_j A(i, j).

    Reduce columns instead by setting the transpose descriptor.
    """
    if faults.ENABLED:
        faults.trip("reduce")
    p = _plan.plan_reduce_rowwise(w, A, op, mask=mask, accum=accum, desc=desc)
    return _dispatch(p, backend)


def reduce_scalar(A, op="PLUS", *, accum=None, init=None, backend=None):
    """``GrB_reduce`` (to scalar): fold every stored value with a monoid.

    Returns a Python value; an empty object reduces to the monoid identity.
    ``accum``/``init`` fold the result into a prior value.
    """
    if faults.ENABLED:
        faults.trip("reduce")
    p = _plan.plan_reduce_scalar(A, op, accum=accum, init=init)
    return _dispatch(p, backend)


def transpose(C, A, *, mask=None, accum=None, desc=None, backend=None):
    """``GrB_transpose``: C<mask> (+)= A^T.

    Per the C API's quirk, setting the INP0 transpose descriptor yields
    C<mask> (+)= A (the two transposes cancel).
    """
    if faults.ENABLED:
        faults.trip("transpose")
    p = _plan.plan_transpose(C, A, mask=mask, accum=accum, desc=desc)
    return _dispatch(p, backend)


def extract(C, A, I=ALL, J=ALL, *, mask=None, accum=None, desc=None,
            backend=None):
    """``GrB_extract``: C<mask> (+)= A(I, J) (matrix), w (+)= u(I) (vector),
    or w (+)= A(I, j) (column extract when J is a scalar and A a matrix)."""
    if faults.ENABLED:
        faults.trip("extract")
    p = _plan.plan_extract(C, A, I, J, mask=mask, accum=accum, desc=desc)
    return _dispatch(p, backend)


def assign(C, A, I=ALL, J=ALL, *, mask=None, accum=None, desc=None,
           backend=None):
    """``GrB_assign``: C<mask>(I, J) (+)= A.

    ``A`` may be a Matrix, a Vector (row/column assign through vector C), or
    a scalar (constant fill of the region).  The mask spans all of C, per
    GrB_assign (not GxB_subassign) semantics.
    """
    if faults.ENABLED:
        faults.trip("assign")
    p = _plan.plan_assign(C, A, I, J, mask=mask, accum=accum, desc=desc)
    return _dispatch(p, backend)


def subassign(C, A, I=ALL, J=ALL, *, mask=None, accum=None, desc=None,
              backend=None):
    """``GxB_subassign``: C(I, J)<mask> (+)= A.

    Unlike :func:`assign`, the mask (and REPLACE) apply only *inside* the
    I x J region — the mask has the region's dimensions.  Entries of C
    outside the region are never touched.
    """
    if faults.ENABLED:
        faults.trip("assign")
    p = _plan.plan_subassign(C, A, I, J, mask=mask, accum=accum, desc=desc)
    return _dispatch(p, backend)


def kronecker(C, A, B, op="TIMES", *, mask=None, accum=None, desc=None,
              backend=None):
    """``GrB_kronecker``: C<mask> (+)= kron(A, B)."""
    if faults.ENABLED:
        faults.trip("kronecker")
    p = _plan.plan_kronecker(C, A, B, op, mask=mask, accum=accum, desc=desc)
    return _dispatch(p, backend)


# --------------------------------------------------------------------------
# structural utilities (not part of the Table-I kernel surface)
# --------------------------------------------------------------------------

def concat(tiles, dtype=None) -> Matrix:
    """``GxB_Matrix_concat``: assemble a block matrix from a 2-D tile grid.

    ``tiles`` is a list of rows of Matrices; tiles in a grid row must share
    nrows, tiles in a grid column must share ncols.
    """
    if not tiles or not tiles[0]:
        raise InvalidValue("concat needs a non-empty tile grid")
    ncols_per = [t.ncols for t in tiles[0]]
    for row in tiles:
        if len(row) != len(ncols_per):
            raise DimensionMismatch("ragged tile grid")
        if any(t.ncols != w for t, w in zip(row, ncols_per)):
            raise DimensionMismatch("tile column widths differ")
        if len({t.nrows for t in row}) != 1:
            raise DimensionMismatch("tile row heights differ")
    row_off = np.concatenate([[0], np.cumsum([row[0].nrows for row in tiles])])
    col_off = np.concatenate([[0], np.cumsum(ncols_per)])
    out_dtype = lookup_type(dtype) if dtype is not None else tiles[0][0].dtype
    rows_all, cols_all, vals_all = [], [], []
    for bi, row in enumerate(tiles):
        governor.poll()
        for bj, t in enumerate(row):
            r, c, v = t.extract_tuples()
            rows_all.append(r + row_off[bi])
            cols_all.append(c + col_off[bj])
            vals_all.append(out_dtype.cast_array(v))
    C = Matrix(out_dtype, int(row_off[-1]), int(col_off[-1]))
    C.build(
        np.concatenate(rows_all),
        np.concatenate(cols_all),
        np.concatenate(vals_all),
        dup=None,
    )
    return C


def split(A: Matrix, row_sizes, col_sizes) -> list[list[Matrix]]:
    """``GxB_Matrix_split``: the inverse of :func:`concat`.

    ``row_sizes``/``col_sizes`` must sum to A's dimensions; returns the
    grid of tiles.
    """
    row_sizes = [int(s) for s in row_sizes]
    col_sizes = [int(s) for s in col_sizes]
    if sum(row_sizes) != A.nrows or sum(col_sizes) != A.ncols:
        raise DimensionMismatch("tile sizes must sum to the matrix dimensions")
    if any(s <= 0 for s in row_sizes + col_sizes):
        raise InvalidValue("tile sizes must be positive")
    row_off = np.concatenate([[0], np.cumsum(row_sizes)])
    col_off = np.concatenate([[0], np.cumsum(col_sizes)])
    out = []
    for bi in range(len(row_sizes)):
        governor.poll()
        row = []
        for bj in range(len(col_sizes)):
            t = Matrix(A.dtype, row_sizes[bi], col_sizes[bj])
            extract(
                t,
                A,
                np.arange(row_off[bi], row_off[bi + 1]),
                np.arange(col_off[bj], col_off[bj + 1]),
            )
            row.append(t)
        out.append(row)
    return out


def diag(v: Vector, k: int = 0, dtype=None) -> Matrix:
    """Build a square matrix with vector ``v`` on diagonal ``k`` (GxB_diag)."""
    i, vals = v.extract_tuples()
    n = v.size + abs(int(k))
    rows = i if k >= 0 else i - k
    cols = i + k if k >= 0 else i
    return Matrix.from_coo(
        rows, cols, vals, nrows=n, ncols=n, dtype=dtype or v.dtype
    )


def diag_extract(A: Matrix, k: int = 0, dtype=None) -> Vector:
    """Extract diagonal ``k`` of a matrix as a vector (GxB_Vector_diag)."""
    k = int(k)
    if k >= A.ncols or -k >= A.nrows:
        raise InvalidValue(f"diagonal {k} outside a {A.shape} matrix")
    r, c, v = A.extract_tuples()
    on_diag = (c - r) == k
    idx = r[on_diag] if k >= 0 else c[on_diag]
    size = min(A.nrows, A.ncols - k) if k >= 0 else min(A.ncols, A.nrows + k)
    return Vector.from_coo(
        idx, v[on_diag], size=size, dtype=dtype or A.dtype, dup=None
    )


def nvals_like(x) -> int:
    """Uniform nvals accessor used by generic harness code."""
    return x.nvals
