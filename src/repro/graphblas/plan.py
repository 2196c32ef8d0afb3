"""The engine-independent front half of every Table-I operation.

Each GraphBLAS operation splits cleanly into two halves:

1. a *planning* half that is identical no matter which engine runs the
   kernel — resolve string names to operator objects (ops, monoids,
   semirings, accumulators), apply descriptor flags, validate shapes,
   domains and index sets, and compute the output type; and
2. a *kernel* half that actually computes — the optimized sparse engine,
   the dense spec-literal mimic, or any future backend (GPU,
   distributed).

This module is half 1.  Every planner returns a typed :class:`OpPlan`
carrying the resolved pieces; :mod:`repro.graphblas.backends` routes the
plan to a :class:`~repro.graphblas.backends.KernelBackend`.  The split is
what the paper's testing methodology (section II.A) implies: two engines
can only be compared pattern-for-pattern and value-for-value if everything
*around* the kernel — masks, accumulators, descriptors, typecasting rules —
is decided once, in one place.

The resolvers here are the canonical name→object lookups for the whole
package; :mod:`repro.graphblas.operations` and the pygb DSL both use them
rather than re-implementing their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import governor, telemetry
from .descriptor import Descriptor, desc as _desc
from .errors import (
    DimensionMismatch,
    DomainMismatch,
    IndexOutOfBounds,
    InvalidValue,
)
from .matrix import Matrix
from .monoid import Monoid, monoid as _monoid
from .ops import (
    BinaryOp,
    INDEXUNARY_OPS,
    IndexUnaryOp,
    UnaryOp,
    binary as _binary,
    indexunary as _indexunary,
    unary as _unary,
)
from .semiring import Semiring, semiring as _semiring
from .types import Type, lookup_type
from .vector import Vector

__all__ = [
    "ALL",
    "OpPlan",
    "TABLE1_OPS",
    "resolve_descriptor",
    "resolve_accum",
    "resolve_binary",
    "resolve_ewise_op",
    "resolve_semiring",
    "resolve_monoid",
    "resolve_unary",
    "resolve_indexunary",
    "resolve_index",
    "resolver_cache_stats",
    "reset_resolver_cache",
    "plan_mxm",
    "plan_mxv",
    "plan_vxm",
    "plan_ewise_add",
    "plan_ewise_mult",
    "plan_apply",
    "plan_select",
    "plan_reduce_rowwise",
    "plan_reduce_scalar",
    "plan_transpose",
    "plan_extract",
    "plan_assign",
    "plan_subassign",
    "plan_kronecker",
]

_INDEX = np.int64

# The Table-I kernel surface every backend must serve.
TABLE1_OPS = (
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
)


class _All:
    """``GrB_ALL``: select every index of a dimension."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ALL"


ALL = _All()


# --------------------------------------------------------------------------
# canonical resolvers (name -> operator object)
# --------------------------------------------------------------------------

# String-spec resolutions are memoized: the resolved operator objects are
# immutable registry singletons, and hot loops (BFS, PageRank iterations)
# re-resolve the same handful of names on every call.  Non-string specs
# (already-resolved objects, user-defined ops) bypass the cache.
_resolve_cache: dict[tuple[str, str], object] = {}
_resolve_stats = {"hits": 0, "misses": 0}


def _cached_resolve(kind: str, spec, resolver):
    if not isinstance(spec, str):
        return resolver(spec)
    key = (kind, spec.upper())
    hit = _resolve_cache.get(key)
    if hit is not None:
        _resolve_stats["hits"] += 1
        if telemetry.ENABLED:
            telemetry.tally("plan.resolve_cache", calls=1)
        return hit
    obj = resolver(spec)
    _resolve_cache[key] = obj
    _resolve_stats["misses"] += 1
    return obj


def resolver_cache_stats() -> dict:
    """Hit/miss counters and size of the name->operator memo table."""
    stats = dict(_resolve_stats)
    stats["size"] = len(_resolve_cache)
    return stats


def reset_resolver_cache() -> None:
    _resolve_cache.clear()
    _resolve_stats["hits"] = 0
    _resolve_stats["misses"] = 0


def resolve_descriptor(spec) -> Descriptor:
    """Resolve a Descriptor from a Descriptor, None, or predefined name."""
    if spec is None:
        return _desc(None)
    return _cached_resolve("desc", spec, _desc)


def resolve_accum(spec) -> BinaryOp | None:
    """Resolve an accumulator: None stays None, else a BinaryOp."""
    return None if spec is None else _cached_resolve("binary", spec, _binary)


def resolve_binary(spec) -> BinaryOp:
    """Resolve a BinaryOp from an op object or (case-insensitive) name."""
    return _cached_resolve("binary", spec, _binary)


def resolve_ewise_op(spec) -> BinaryOp:
    """eWise ops accept a BinaryOp, Monoid (its op), or Semiring (its add)."""
    if isinstance(spec, Semiring):
        return spec.add.op
    if isinstance(spec, Monoid):
        return spec.op
    return _cached_resolve("binary", spec, _binary)


def resolve_semiring(spec) -> Semiring:
    """Resolve a Semiring from a Semiring, name, or "add_mult" string."""
    return _cached_resolve("semiring", spec, _semiring)


def resolve_monoid(spec) -> Monoid:
    """Resolve a Monoid from a Monoid or (case-insensitive) name."""
    return _cached_resolve("monoid", spec, _monoid)


def resolve_unary(spec) -> UnaryOp:
    """Resolve a UnaryOp from an op object or (case-insensitive) name."""
    return _cached_resolve("unary", spec, _unary)


def resolve_indexunary(spec) -> IndexUnaryOp:
    """Resolve an IndexUnaryOp from an op object or name."""
    return _cached_resolve("indexunary", spec, _indexunary)


def resolve_index(I, dim: int) -> np.ndarray:
    """Resolve an index specification (ALL, slice, int, array) to indices."""
    if I is None or isinstance(I, _All):
        return np.arange(dim, dtype=_INDEX)
    if isinstance(I, slice):
        return np.arange(*I.indices(dim), dtype=_INDEX)
    if np.isscalar(I):
        I = [I]
    I = np.asarray(I, dtype=_INDEX)
    if I.size and (I.min() < 0 or I.max() >= dim):
        raise IndexOutOfBounds(f"index set exceeds dimension {dim}")
    return I


def _is_all(I) -> bool:
    return I is None or isinstance(I, _All)


def _check_write(out, mask, accum) -> None:
    """The shared write step's validation, hoisted so every engine agrees.

    Messages match :mod:`repro.graphblas.mask` exactly; raising at plan
    time keeps error behavior identical across backends.
    """
    if accum is not None and accum.positional:
        raise DomainMismatch("positional ops cannot be accumulators")
    if mask is None:
        return
    if isinstance(out, Vector):
        if mask.size != out.size:
            raise DimensionMismatch(
                f"mask size {mask.size} != output size {out.size}"
            )
    elif mask.shape != out.shape:
        raise DimensionMismatch(
            f"mask shape {mask.shape} != output shape {out.shape}"
        )


def _mat_shape(A: Matrix, transposed: bool) -> tuple[int, int]:
    return (A.ncols, A.nrows) if transposed else A.shape


# --------------------------------------------------------------------------
# the plan object
# --------------------------------------------------------------------------

@dataclass
class OpPlan:
    """A fully resolved, validated Table-I operation, ready for any backend.

    Attributes
    ----------
    op:
        Operation name; also the :class:`KernelBackend` method invoked.
    out:
        The output container (Matrix or Vector); None for ``reduce_scalar``,
        which returns a Python value.
    args:
        The input containers/scalars in positional order.
    desc:
        The resolved :class:`~repro.graphblas.descriptor.Descriptor`.
    mask, accum:
        The (unresolved mask container, resolved accumulator) pair of the
        shared accum-then-mask write step.
    operator:
        The resolved algebraic object: Semiring, BinaryOp, Monoid, UnaryOp,
        or IndexUnaryOp depending on ``op``.
    out_type:
        Domain of the intermediate result T (None where not applicable).
    params:
        Engine-independent op-specific extras (resolved index sets, mxv
        method, apply binding, ...).  Backends read what they need and are
        free to ignore hints (e.g. the reference engine ignores ``method``).
    selection:
        This plan's compiled-tier choice, ``(kernel set | None, outcome)``
        with outcome ``"hit"``, ``"built"`` or ``"declined"``; set by
        :func:`repro.graphblas.compiled.select` on first use.
    chosen:
        What the engine chose and did for this plan, as fields of its
        ``op`` record: the kernel tier (``kernel``, with ``kernel_cache``
        and ``toolchain`` when compiled), the SpGEMM ``method`` or
        push/pull direction that ran (with the ``density`` and
        ``threshold`` behind an ``auto`` direction), and for the tiled
        route its ``tile_dim`` and spill-pool counts.  Written by the
        code that makes each choice; :mod:`repro.graphblas.backends`
        emits it.
    """

    op: str
    out: Matrix | Vector | None
    args: tuple
    desc: Descriptor
    mask: Matrix | Vector | None = None
    accum: BinaryOp | None = None
    operator: object | None = None
    out_type: Type | None = None
    params: dict = field(default_factory=dict)
    selection: tuple | None = None
    chosen: dict = field(default_factory=dict)


def _admitted(*args, **kwargs) -> OpPlan:
    """Build an OpPlan and submit it to the execution governor.

    Every planner funnels its finished plan through here — after all
    shape/domain validation, before any backend sees it — so a plan the
    governor rejects (budget, deadline, cancellation) raises its typed
    error without allocating the output, leaving all operands valid.
    """
    p = OpPlan(*args, **kwargs)
    governor.admit(p)
    return p


# --------------------------------------------------------------------------
# planners — one per Table-I operation
# --------------------------------------------------------------------------

def plan_mxm(C, A, B, semiring="PLUS_TIMES", *, mask=None, accum=None,
             desc=None, method: str = "auto") -> OpPlan:
    d = resolve_descriptor(desc)
    sr = resolve_semiring(semiring)
    accum = resolve_accum(accum)
    nra, nca = _mat_shape(A, d.transpose_a)
    nrb, ncb = _mat_shape(B, d.transpose_b)
    if nca != nrb:
        raise DimensionMismatch(f"inner dims differ: {nca} vs {nrb}")
    if C.shape != (nra, ncb):
        raise DimensionMismatch(f"output is {C.shape}, expected {(nra, ncb)}")
    _check_write(C, mask, accum)
    return _admitted(
        "mxm", C, (A, B), d, mask=mask, accum=accum, operator=sr,
        out_type=sr.out_type(A.dtype, B.dtype),
        params={"method": method, "inner": nca},
    )


def _plan_matvec(op, w, A, u, semiring, mask, accum, desc, method,
                 optimizer) -> OpPlan:
    is_mxv = op == "mxv"
    d = resolve_descriptor(desc)
    sr = resolve_semiring(semiring)
    accum = resolve_accum(accum)
    # effective transpose: vxm(u, A) is mxv with A^T, so fold the flag
    transposed = d.transpose_a if is_mxv else not d.transpose_a
    inner = A.nrows if transposed else A.ncols
    outer = A.ncols if transposed else A.nrows
    if u.size != inner:
        raise DimensionMismatch(f"vector size {u.size}, matrix inner dim {inner}")
    if w.size != outer:
        raise DimensionMismatch(f"output size {w.size}, matrix outer dim {outer}")
    if method not in ("auto", "push", "pull", "tiled"):
        raise InvalidValue(f"unknown mxv method {method!r}")
    _check_write(w, mask, accum)
    out_type = (
        sr.out_type(A.dtype, u.dtype) if is_mxv else sr.out_type(u.dtype, A.dtype)
    )
    args = (A, u) if is_mxv else (u, A)
    return _admitted(
        op, w, args, d, mask=mask, accum=accum, operator=sr, out_type=out_type,
        params={
            "method": method,
            "optimizer": optimizer,
            "transposed": transposed,
            "is_mxv": is_mxv,
        },
    )


def plan_mxv(w, A, u, semiring="PLUS_TIMES", *, mask=None, accum=None,
             desc=None, method="auto", optimizer=None) -> OpPlan:
    return _plan_matvec("mxv", w, A, u, semiring, mask, accum, desc, method,
                        optimizer)


def plan_vxm(w, u, A, semiring="PLUS_TIMES", *, mask=None, accum=None,
             desc=None, method="auto", optimizer=None) -> OpPlan:
    return _plan_matvec("vxm", w, A, u, semiring, mask, accum, desc, method,
                        optimizer)


def _plan_ewise(op_name, which, C, A, B, op, mask, accum, desc) -> OpPlan:
    d = resolve_descriptor(desc)
    bop = resolve_ewise_op(op)
    accum = resolve_accum(accum)
    if bop.positional:
        raise DomainMismatch(f"positional ops are not valid in {which}")
    if isinstance(A, Vector):
        if A.size != B.size or C.size != A.size:
            raise DimensionMismatch(f"{which} vector sizes differ")
        is_vector = True
    else:
        shape_a = _mat_shape(A, d.transpose_a)
        shape_b = _mat_shape(B, d.transpose_b)
        if shape_a != shape_b or C.shape != shape_a:
            raise DimensionMismatch(f"{which} matrix shapes differ")
        is_vector = False
    _check_write(C, mask, accum)
    return _admitted(
        op_name, C, (A, B), d, mask=mask, accum=accum, operator=bop,
        out_type=bop.out_type(A.dtype, B.dtype),
        params={"is_vector": is_vector},
    )


def plan_ewise_add(C, A, B, op="PLUS", *, mask=None, accum=None, desc=None) -> OpPlan:
    return _plan_ewise("ewise_add", "eWiseAdd", C, A, B, op, mask, accum, desc)


def plan_ewise_mult(C, A, B, op="TIMES", *, mask=None, accum=None, desc=None) -> OpPlan:
    return _plan_ewise("ewise_mult", "eWiseMult", C, A, B, op, mask, accum, desc)


def plan_apply(C, A, op="IDENTITY", *, left=None, right=None, thunk=None,
               mask=None, accum=None, desc=None) -> OpPlan:
    """``GrB_apply`` planning: classify the operator form and bind arguments.

    ``op`` may be a UnaryOp; a BinaryOp with ``left`` or ``right`` bound
    (``GrB_apply_BinaryOp1st/2nd``); or an IndexUnaryOp with ``thunk``.
    """
    d = resolve_descriptor(desc)
    accum = resolve_accum(accum)
    is_vec = isinstance(A, Vector)
    if is_vec:
        if C.size != A.size:
            raise DimensionMismatch("apply vector sizes differ")
    elif C.shape != _mat_shape(A, d.transpose_a):
        raise DimensionMismatch("apply matrix shapes differ")

    if isinstance(op, IndexUnaryOp) or (
        isinstance(op, str) and op.upper() in INDEXUNARY_OPS
    ):
        iu = resolve_indexunary(op)
        kind = "indexunary"
        operator = iu
        out_type = iu.out_type(A.dtype)
    elif left is not None or right is not None:
        if left is not None and right is not None:
            raise InvalidValue("bind only one side of the binary op")
        bop = resolve_binary(op)
        operator = bop
        if left is not None:
            kind = "bind1st"
            out_type = bop.out_type(lookup_type(np.asarray(left).dtype), A.dtype)
        else:
            kind = "bind2nd"
            out_type = bop.out_type(A.dtype, lookup_type(np.asarray(right).dtype))
    else:
        uop = resolve_unary(op)
        kind = "unary"
        operator = uop
        out_type = uop.out_type(A.dtype)

    _check_write(C, mask, accum)
    return _admitted(
        "apply", C, (A,), d, mask=mask, accum=accum, operator=operator,
        out_type=out_type,
        params={
            "kind": kind,
            "left": left,
            "right": right,
            "thunk": thunk,
            "is_vector": is_vec,
        },
    )


def plan_select(C, A, op, thunk=0, *, mask=None, accum=None, desc=None) -> OpPlan:
    d = resolve_descriptor(desc)
    accum = resolve_accum(accum)
    iu = resolve_indexunary(op)
    if isinstance(A, Vector):
        if C.size != A.size:
            raise DimensionMismatch("select vector sizes differ")
        is_vector = True
    else:
        if C.shape != _mat_shape(A, d.transpose_a):
            raise DimensionMismatch("select matrix shapes differ")
        is_vector = False
    _check_write(C, mask, accum)
    return _admitted(
        "select", C, (A,), d, mask=mask, accum=accum, operator=iu,
        out_type=A.dtype, params={"thunk": thunk, "is_vector": is_vector},
    )


def plan_reduce_rowwise(w, A, op="PLUS", *, mask=None, accum=None, desc=None) -> OpPlan:
    d = resolve_descriptor(desc)
    mon = resolve_monoid(op)
    accum = resolve_accum(accum)
    nr, _ = _mat_shape(A, d.transpose_a)
    if w.size != nr:
        raise DimensionMismatch(f"output size {w.size}, expected {nr}")
    _check_write(w, mask, accum)
    return _admitted(
        "reduce_rowwise", w, (A,), d, mask=mask, accum=accum, operator=mon,
        out_type=A.dtype,
    )


def plan_reduce_scalar(A, op="PLUS", *, accum=None, init=None) -> OpPlan:
    mon = resolve_monoid(op)
    return _admitted(
        "reduce_scalar", None, (A,), Descriptor(), accum=resolve_accum(accum),
        operator=mon, out_type=A.dtype, params={"init": init},
    )


def plan_transpose(C, A, *, mask=None, accum=None, desc=None) -> OpPlan:
    """Per the C API's quirk, the INP0 flag cancels the transpose."""
    d = resolve_descriptor(desc)
    accum = resolve_accum(accum)
    transposed = not d.transpose_a
    if C.shape != _mat_shape(A, transposed):
        raise DimensionMismatch("transpose output shape mismatch")
    _check_write(C, mask, accum)
    return _admitted(
        "transpose", C, (A,), d, mask=mask, accum=accum, out_type=A.dtype,
        params={"transposed": transposed},
    )


def plan_extract(C, A, I=ALL, J=ALL, *, mask=None, accum=None, desc=None) -> OpPlan:
    d = resolve_descriptor(desc)
    accum = resolve_accum(accum)
    params: dict = {}
    if isinstance(A, Vector):
        I_res = resolve_index(I, A.size)
        if C.size != I_res.size:
            raise DimensionMismatch("extract output size mismatch")
        params.update(kind="vector", I=I_res)
    else:
        nr, nc = _mat_shape(A, d.transpose_a)
        col_extract = (
            isinstance(C, Vector) and np.isscalar(J) and not isinstance(J, _All)
        )
        if col_extract:
            I_res = resolve_index(I, nr)
            j = int(J)
            if not 0 <= j < nc:
                raise IndexOutOfBounds(f"column {j} outside [0,{nc})")
            params.update(kind="col", I=I_res, j=j)
        else:
            I_res = resolve_index(I, nr)
            J_res = resolve_index(J, nc)
            if C.shape != (I_res.size, J_res.size):
                raise DimensionMismatch(
                    f"extract output is {C.shape}, expected "
                    f"{(I_res.size, J_res.size)}"
                )
            params.update(kind="matrix", I=I_res, J=J_res)
    _check_write(C, mask, accum)
    return _admitted(
        "extract", C, (A,), d, mask=mask, accum=accum, out_type=A.dtype,
        params=params,
    )


def plan_assign(C, A, I=ALL, J=ALL, *, mask=None, accum=None, desc=None) -> OpPlan:
    d = resolve_descriptor(desc)
    accum = resolve_accum(accum)
    _check_write(C, mask, accum)
    params: dict = {}

    # The ubiquitous "masked fill" (e.g. BFS level stamping): C<mask> = scalar
    # over the full region with no accum/complement/replace.  Flag it so the
    # optimized engine can write the scalar exactly at the mask's admitted
    # coordinates without materializing index sets.
    if (
        not isinstance(A, (Matrix, Vector))
        and _is_all(I)
        and _is_all(J)
        and mask is not None
        and accum is None
        and not d.complement_mask
        and not d.replace
    ):
        params["masked_fill"] = True
        return _admitted(
            "assign", C, (A,), d, mask=mask, accum=accum,
            out_type=C.dtype, params=params,
        )

    if isinstance(C, Vector):
        I_res = resolve_index(I, C.size)
        if isinstance(A, Vector):
            if A.size != I_res.size:
                raise DimensionMismatch("assign input length != index count")
            ai, _ = A.extract_tuples()
            mapped = I_res[ai]
        else:
            mapped = I_res
        if np.unique(mapped).size != mapped.size:
            raise InvalidValue("duplicate indices in assign")
        params.update(I=I_res)
    else:
        I_res = resolve_index(I, C.nrows)
        J_res = resolve_index(J, C.ncols)
        if np.unique(I_res).size != I_res.size or np.unique(J_res).size != J_res.size:
            raise InvalidValue("duplicate indices in assign")
        if isinstance(A, Matrix):
            if _mat_shape(A, d.transpose_a) != (I_res.size, J_res.size):
                raise DimensionMismatch("assign input shape != region shape")
        elif isinstance(A, Vector):
            row_assign = I_res.size == 1 and A.size == J_res.size
            col_assign = J_res.size == 1 and A.size == I_res.size
            if not row_assign and not col_assign:
                raise DimensionMismatch("vector assign needs a single row or column")
        params.update(I=I_res, J=J_res)
    return _admitted(
        "assign", C, (A,), d, mask=mask, accum=accum, out_type=C.dtype,
        params=params,
    )


def plan_subassign(C, A, I=ALL, J=ALL, *, mask=None, accum=None, desc=None) -> OpPlan:
    """``GxB_subassign``: the mask has the I x J *region's* dimensions."""
    d = resolve_descriptor(desc)
    accum = resolve_accum(accum)
    if accum is not None and accum.positional:
        raise DomainMismatch("positional ops cannot be accumulators")
    params: dict = {}
    if isinstance(C, Vector):
        I_res = resolve_index(I, C.size)
        if np.unique(I_res).size != I_res.size:
            raise InvalidValue("duplicate indices in subassign")
        if mask is not None and mask.size != I_res.size:
            raise DimensionMismatch("subassign mask must have region size")
        if isinstance(A, Vector) and A.size != I_res.size:
            raise DimensionMismatch("subassign input length != index count")
        params.update(I=I_res)
    else:
        I_res = resolve_index(I, C.nrows)
        J_res = resolve_index(J, C.ncols)
        if np.unique(I_res).size != I_res.size or np.unique(J_res).size != J_res.size:
            raise InvalidValue("duplicate indices in subassign")
        if mask is not None and mask.shape != (I_res.size, J_res.size):
            raise DimensionMismatch("subassign mask must have region shape")
        if isinstance(A, Matrix):
            if _mat_shape(A, d.transpose_a) != (I_res.size, J_res.size):
                raise DimensionMismatch("subassign input shape != region shape")
        elif isinstance(A, Vector):
            row_assign = I_res.size == 1 and A.size == J_res.size
            col_assign = J_res.size == 1 and A.size == I_res.size
            if not row_assign and not col_assign:
                raise DimensionMismatch("vector subassign needs one row or column")
        params.update(I=I_res, J=J_res)
    return _admitted(
        "subassign", C, (A,), d, mask=mask, accum=accum, out_type=C.dtype,
        params=params,
    )


def plan_kronecker(C, A, B, op="TIMES", *, mask=None, accum=None, desc=None) -> OpPlan:
    d = resolve_descriptor(desc)
    accum = resolve_accum(accum)
    bop = resolve_ewise_op(op)
    nra, nca = _mat_shape(A, d.transpose_a)
    nrb, ncb = _mat_shape(B, d.transpose_b)
    if C.shape != (nra * nrb, nca * ncb):
        raise DimensionMismatch("kronecker output shape mismatch")
    _check_write(C, mask, accum)
    return _admitted(
        "kronecker", C, (A, B), d, mask=mask, accum=accum, operator=bop,
        out_type=bop.out_type(A.dtype, B.dtype),
    )
