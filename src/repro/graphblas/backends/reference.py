"""The dense spec-literal mimic as a first-class kernel backend.

Promotes :mod:`repro.graphblas.reference` — the paper's "MATLAB mimic",
written line by line from the spec with dense values and a separate
Boolean pattern — from test helper to a selectable engine:

    with graphblas.backend("reference"):
        ops.mxm(C, A, B, "PLUS_TIMES")   # triply-nested loop, for real

Each call converts the sparse operands to :class:`RefMatrix` /
:class:`RefVector`, runs the ``ref_*`` kernel (which applies descriptor,
accumulator, and mask semantics itself, spec-literally), and adopts the
dense result back into the caller's sparse container in place — so
algorithm code cannot tell which engine ran, only how long it took.

:func:`run_ref` is the plan→ref-kernel mapping, shared with the
``differential`` backend, which runs the same kernels as an oracle.

Deliberately O(n^2)/O(n^3): correctness oracle, not a performance path.
"""

from __future__ import annotations

import numpy as np

from .. import governor
from ..matrix import Matrix
from ..plan import TABLE1_OPS, OpPlan
from ..reference import (
    RefMatrix,
    RefVector,
    ref_apply,
    ref_assign,
    ref_ewise_add,
    ref_ewise_mult,
    ref_extract,
    ref_kronecker,
    ref_mxm,
    ref_mxv,
    ref_reduce_rowwise,
    ref_reduce_scalar,
    ref_select,
    ref_subassign,
    ref_transpose,
    ref_vxm,
)
from ..vector import Vector
from . import KernelBackend


def to_ref(x):
    """Sparse container (or scalar) -> dense mimic object (or scalar)."""
    if isinstance(x, Matrix):
        return RefMatrix.from_matrix(x)
    if isinstance(x, Vector):
        return RefVector.from_vector(x)
    return x


def adopt_matrix(C: Matrix, R: RefMatrix) -> Matrix:
    """Write a dense-mimic result into the sparse output container in place."""
    rows, cols = np.nonzero(R.pattern)
    built = Matrix(C.dtype, C.nrows, C.ncols)
    built.build(rows, cols, C.dtype.cast_array(R.vals[rows, cols]), dup=None)
    fmt = C.format
    C._store = built._store
    C._pend_i, C._pend_j = [], []
    C._pend_v, C._pend_del = [], []
    C._alt = None
    if fmt != C.format:
        C.set_format(fmt)
    return C


def adopt_vector(w: Vector, r: RefVector) -> Vector:
    (idx,) = np.nonzero(r.pattern)
    built = Vector(w.dtype, w.size)
    built.build(idx, w.dtype.cast_array(r.vals[idx]), dup=None)
    w.indices = built.indices
    w.values = built.values
    w._pend_i, w._pend_v, w._pend_del = [], [], []
    return w


def run_ref(plan: OpPlan, out, args, mask):
    """Run the dense mimic kernel for a plan on pre-converted Ref operands.

    ``out``/``args``/``mask`` are the plan's containers already converted
    through :func:`to_ref` (callers snapshot them *before* another engine
    mutates the real output).  Returns the resulting Ref object, or the
    Python scalar for ``reduce_scalar``.
    """
    op, p, accum, d = plan.op, plan.params, plan.accum, plan.desc
    if op == "mxm":
        return ref_mxm(out, args[0], args[1], plan.operator,
                       mask=mask, accum=accum, desc=d)
    if op == "mxv":
        return ref_mxv(out, args[0], args[1], plan.operator,
                       mask=mask, accum=accum, desc=d)
    if op == "vxm":
        return ref_vxm(out, args[0], args[1], plan.operator,
                       mask=mask, accum=accum, desc=d)
    if op == "ewise_add":
        return ref_ewise_add(out, args[0], args[1], plan.operator,
                             mask=mask, accum=accum, desc=d)
    if op == "ewise_mult":
        return ref_ewise_mult(out, args[0], args[1], plan.operator,
                              mask=mask, accum=accum, desc=d)
    if op == "apply":
        return ref_apply(out, args[0], plan.operator,
                         left=p["left"], right=p["right"], thunk=p["thunk"],
                         mask=mask, accum=accum, desc=d)
    if op == "select":
        return ref_select(out, args[0], plan.operator, p["thunk"],
                          mask=mask, accum=accum, desc=d)
    if op == "reduce_rowwise":
        return ref_reduce_rowwise(out, args[0], plan.operator,
                                  mask=mask, accum=accum, desc=d)
    if op == "reduce_scalar":
        return ref_reduce_scalar(args[0], plan.operator,
                                 accum=accum, init=p["init"])
    if op == "transpose":
        return ref_transpose(out, args[0], mask=mask, accum=accum, desc=d)
    if op == "extract":
        J = p["j"] if p["kind"] == "col" else p.get("J")
        return ref_extract(out, args[0], p["I"], J,
                           mask=mask, accum=accum, desc=d)
    if op == "assign":
        return ref_assign(out, args[0], p.get("I"), p.get("J"),
                          mask=mask, accum=accum, desc=d)
    if op == "subassign":
        return ref_subassign(out, args[0], p.get("I"), p.get("J"),
                             mask=mask, accum=accum, desc=d)
    if op == "kronecker":
        return ref_kronecker(out, args[0], args[1], plan.operator,
                             mask=mask, accum=accum, desc=d)
    raise NotImplementedError(op)  # pragma: no cover - TABLE1_OPS is closed


class ReferenceBackend(KernelBackend):
    """Spec-literal dense engine (the conformance oracle, promoted)."""

    name = "reference"

    def _run(self, plan: OpPlan):
        if governor.ACTIVE:
            governor.poll()
        R = run_ref(
            plan,
            to_ref(plan.out),
            tuple(to_ref(a) for a in plan.args),
            to_ref(plan.mask),
        )
        if plan.op == "reduce_scalar":
            return R
        if isinstance(R, RefMatrix):
            return adopt_matrix(plan.out, R)
        return adopt_vector(plan.out, R)


for _op in TABLE1_OPS:
    setattr(ReferenceBackend, _op, ReferenceBackend._run)
del _op
