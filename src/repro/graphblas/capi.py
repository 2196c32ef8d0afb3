"""Non-polymorphic GraphBLAS C-API facade (``GrB_*``).

Figure 2(d) of the paper shows level-BFS written against the GraphBLAS C
API.  This module reproduces that surface in Python: out-parameters become
return values, every function returns a ``GrB_Info`` code rather than
raising, and errors raised by the back-end are caught at this boundary and
converted — exactly the IBM implementation's front-end/back-end contract
(section II.B: "the body of each GraphBLAS API method is wrapped by a
try/catch block, which then returns the GraphBLAS execution error code
corresponding to the caught exception").

Beyond the IBM contract this facade makes two *transactional* guarantees:

* **Strong exception safety.**  Before running the back-end, every
  Matrix/Vector/Scalar argument is snapshotted (shallow — the engine never
  mutates stores or arrays in place, so holding references suffices).  If
  the back-end raises — including a ``MemoryError`` or an injected fault
  from :mod:`repro.graphblas.faults` — every operand is rolled back
  bit-identically before the error code is returned.  A failed call
  therefore leaves no observable trace, and retrying it after the fault
  clears produces exactly the result an undisturbed call would have.
* **Thread-local error reporting.**  The message of the last failed call
  on the current thread is retrievable with :func:`GrB_error` (the C API's
  ``GrB_error``); successful calls clear it.

``GrB_Matrix_check`` / ``GrB_Vector_check`` expose the deep validator of
:mod:`repro.graphblas.validate` (SuiteSparse's ``GxB_check``) through the
same return-code convention.

The argument order follows the C API: output, mask, accumulator, operator,
inputs, descriptor.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import threading

import numpy as np

from . import backends as _backends
from . import operations as ops
from . import options as _options
from . import telemetry
from . import validate
from .descriptor import Descriptor
from .errors import GraphBLASError, Info, InvalidValue, NoValue
from .matrix import Matrix
from .scalar import Scalar
from .types import (
    BOOL,
    FP32,
    FP64,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
)
from .vector import Vector

__all__ = [
    "GrB_SUCCESS",
    "GrB_NO_VALUE",
    "GrB_NULL",
    "GrB_ALL",
    "GrB_error",
    "GrB_Matrix_new",
    "GrB_Vector_new",
    "GrB_Scalar_new",
    "GrB_Matrix_nrows",
    "GrB_Matrix_ncols",
    "GrB_Matrix_nvals",
    "GrB_Vector_size",
    "GrB_Vector_nvals",
    "GrB_Matrix_build",
    "GrB_Vector_build",
    "GrB_Matrix_setElement",
    "GrB_Vector_setElement",
    "GrB_Matrix_extractElement",
    "GrB_Vector_extractElement",
    "GrB_Matrix_extractTuples",
    "GrB_Vector_extractTuples",
    "GrB_Matrix_removeElement",
    "GrB_Vector_removeElement",
    "GrB_Matrix_dup",
    "GrB_Vector_dup",
    "GrB_Matrix_clear",
    "GrB_Vector_clear",
    "GrB_Matrix_wait",
    "GrB_Vector_wait",
    "GrB_Matrix_check",
    "GrB_Vector_check",
    "GrB_mxm",
    "GrB_mxv",
    "GrB_vxm",
    "GrB_eWiseAdd",
    "GrB_eWiseMult",
    "GrB_apply",
    "GrB_select",
    "GrB_reduce",
    "GrB_transpose",
    "GrB_extract",
    "GrB_assign",
    "GrB_kronecker",
    "GrB_free",
    "GxB_Burble_set",
    "GxB_Burble_get",
    "GxB_BUDGET_EXCEEDED",
    "GxB_DEADLINE_EXCEEDED",
    "GxB_CANCELLED",
    "GxB_Context_new",
    "GxB_Engine_set",
    "GxB_Engine_get",
    "GxB_Compiled_set",
    "GxB_Compiled_get",
    "GxB_Spill_set",
    "GxB_Spill_get",
    "GxB_Serve_set",
    "GxB_Serve_get",
    "GxB_Obs_set",
    "GxB_Obs_get",
    "GxB_Metrics_get",
    "GxB_NTHREADS",
    "global_stats",
]

GrB_SUCCESS = Info.SUCCESS
GrB_NO_VALUE = Info.NO_VALUE
GrB_NULL = None
GrB_ALL = ops.ALL

# Governor result codes (GxB_* extensions, in the spirit of
# GrB_INSUFFICIENT_SPACE): returned by any GrB_* call whose plan the
# active execution governor rejected or interrupted.
GxB_BUDGET_EXCEEDED = Info.BUDGET_EXCEEDED
GxB_DEADLINE_EXCEEDED = Info.DEADLINE_EXCEEDED
GxB_CANCELLED = Info.CANCELLED

# type aliases in C-API spelling
GrB_BOOL, GrB_FP32, GrB_FP64 = BOOL, FP32, FP64
GrB_INT8, GrB_INT16, GrB_INT32, GrB_INT64 = INT8, INT16, INT32, INT64
GrB_UINT8, GrB_UINT16, GrB_UINT32, GrB_UINT64 = UINT8, UINT16, UINT32, UINT64


# -- error reporting & transactional boundary ---------------------------------

_tls = threading.local()


def GrB_error() -> str:
    """``GrB_error``: message of the last failed call on this thread.

    Returns the empty string when the last ``GrB_*`` call succeeded (or
    none has been made yet).
    """
    return getattr(_tls, "last_error", "")


def _record(exc: BaseException) -> Info:
    """Translate a back-end exception to GrB_Info and stash its message."""
    info = exc.info if isinstance(exc, GraphBLASError) else Info.OUT_OF_MEMORY
    _tls.last_error = str(exc) or type(exc).__name__
    return info


def _snapshot(obj):
    """Shallow snapshot of an opaque object's observable state.

    Safe because the engine never mutates a store or a numpy array in
    place after construction — kernels always build fresh objects and
    assign them, so keeping the old references preserves the old bits.
    """
    if isinstance(obj, Matrix):
        return (
            obj._store,
            obj._alt,
            list(obj._pend_i),
            list(obj._pend_j),
            list(obj._pend_v),
            list(obj._pend_del),
            obj.nrows,
            obj.ncols,
            obj._valid,
            obj._keep_both,
            obj._epoch,
            obj._alt_epoch,
        )
    if isinstance(obj, Vector):
        return (
            obj.indices,
            obj.values,
            list(obj._pend_i),
            list(obj._pend_v),
            list(obj._pend_del),
            obj.size,
            obj._valid,
        )
    if isinstance(obj, Scalar):
        return (obj._value, obj._has)
    return None


def _restore(obj, snap) -> None:
    if isinstance(obj, Matrix):
        (
            obj._store,
            obj._alt,
            obj._pend_i,
            obj._pend_j,
            obj._pend_v,
            obj._pend_del,
            obj.nrows,
            obj.ncols,
            obj._valid,
            obj._keep_both,
            obj._epoch,
            obj._alt_epoch,
        ) = snap
    elif isinstance(obj, Vector):
        (
            obj.indices,
            obj.values,
            obj._pend_i,
            obj._pend_v,
            obj._pend_del,
            obj.size,
            obj._valid,
        ) = snap
    elif isinstance(obj, Scalar):
        obj._value, obj._has = snap


def _snapshot_all(args, kwargs):
    return [
        (o, s)
        for o in (*args, *kwargs.values())
        if (s := _snapshot(o)) is not None
    ]


def _trap(fn):
    """Convert back-end exceptions into GrB_Info codes (IBM-style) and roll
    every operand back to its pre-call state on failure."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        snaps = _snapshot_all(args, kwargs)
        try:
            result = fn(*args, **kwargs)
        except (GraphBLASError, MemoryError) as exc:
            for obj, snap in snaps:
                _restore(obj, snap)
            return _record(exc)
        _tls.last_error = ""
        return result

    return wrapper


def _trap_values(n_out: int):
    """Like :func:`_trap` for value-returning wrappers.

    The decorated body returns the payload (a value, or a tuple of
    ``n_out`` values); the wrapper prepends the info code and substitutes
    ``n_out`` ``None``s on failure.  ``NoValue`` maps to ``GrB_NO_VALUE``
    without being recorded as an error (it is informational in the C API).
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            snaps = _snapshot_all(args, kwargs)
            try:
                out = fn(*args, **kwargs)
            except NoValue:
                return (GrB_NO_VALUE,) + (None,) * n_out
            except (GraphBLASError, MemoryError) as exc:
                for obj, snap in snaps:
                    _restore(obj, snap)
                return (_record(exc),) + (None,) * n_out
            _tls.last_error = ""
            if not isinstance(out, tuple):
                out = (out,)
            return (GrB_SUCCESS,) + out

        return wrapper

    return deco


# -- object management -------------------------------------------------------

@_trap_values(1)
def GrB_Matrix_new(dtype, nrows, ncols):
    """Returns (info, matrix)."""
    return Matrix(dtype, nrows, ncols)


@_trap_values(1)
def GrB_Vector_new(dtype, size):
    """Returns (info, vector)."""
    return Vector(dtype, size)


@_trap_values(1)
def GrB_Scalar_new(dtype):
    return Scalar(dtype)


@_trap_values(1)
def GrB_Matrix_nrows(A):
    return A.nrows


@_trap_values(1)
def GrB_Matrix_ncols(A):
    return A.ncols


@_trap_values(1)
def GrB_Matrix_nvals(A):
    return A.nvals


@_trap_values(1)
def GrB_Vector_size(v):
    return v.size


@_trap_values(1)
def GrB_Vector_nvals(v):
    return v.nvals


@_trap
def GrB_Matrix_build(C, I, J, X, nvals=None, dup="PLUS"):
    C.build(np.asarray(I)[:nvals], np.asarray(J)[:nvals], np.asarray(X)[:nvals], dup=dup)
    return GrB_SUCCESS


@_trap
def GrB_Vector_build(w, I, X, nvals=None, dup="PLUS"):
    w.build(np.asarray(I)[:nvals], np.asarray(X)[:nvals], dup=dup)
    return GrB_SUCCESS


@_trap
def GrB_Matrix_setElement(C, x, i, j):
    C.set_element(i, j, x)
    return GrB_SUCCESS


@_trap
def GrB_Vector_setElement(w, x, i):
    w.set_element(i, x)
    return GrB_SUCCESS


@_trap_values(1)
def GrB_Matrix_extractElement(A, i, j):
    """Returns (info, value) — info is GrB_NO_VALUE when absent."""
    return A.extract_element(i, j)


@_trap_values(1)
def GrB_Vector_extractElement(v, i):
    return v.extract_element(i)


@_trap_values(3)
def GrB_Matrix_extractTuples(A):
    return A.extract_tuples()


@_trap_values(2)
def GrB_Vector_extractTuples(v):
    return v.extract_tuples()


@_trap
def GrB_Matrix_removeElement(C, i, j):
    C.remove_element(i, j)
    return GrB_SUCCESS


@_trap
def GrB_Vector_removeElement(w, i):
    w.remove_element(i)
    return GrB_SUCCESS


@_trap_values(1)
def GrB_Matrix_dup(A):
    return A.dup()


@_trap_values(1)
def GrB_Vector_dup(v):
    return v.dup()


@_trap
def GrB_Matrix_clear(C):
    C.clear()
    return GrB_SUCCESS


@_trap
def GrB_Vector_clear(w):
    w.clear()
    return GrB_SUCCESS


@_trap
def GrB_Matrix_wait(C):
    C.wait()
    return GrB_SUCCESS


@_trap
def GrB_Vector_wait(w):
    w.wait()
    return GrB_SUCCESS


def GrB_Matrix_check(A):
    """``GxB_Matrix_check``-style deep validation; returns (info, report).

    ``info`` is ``GrB_SUCCESS``, ``UNINITIALIZED_OBJECT`` (moved-out), or
    ``INVALID_OBJECT``; ``report`` lists every violated invariant.
    """
    probs = validate.problems(A)
    if not probs:
        return GrB_SUCCESS, ""
    return validate.check(A), "; ".join(probs)


def GrB_Vector_check(v):
    """``GxB_Vector_check``-style deep validation; returns (info, report)."""
    probs = validate.problems(v)
    if not probs:
        return GrB_SUCCESS, ""
    return validate.check(v), "; ".join(probs)


def GrB_free(obj):
    """``GrB_free``: release an object (Python GC does the real work)."""
    if obj is not None and hasattr(obj, "_valid"):
        obj._valid = False
    return GrB_SUCCESS


# -- user-defined algebra (GrB_*_new) -----------------------------------------

@_trap_values(1)
def GrB_Type_new(np_dtype):
    """User-defined type from an arbitrary NumPy dtype."""
    from .types import lookup_type

    return lookup_type(np_dtype)


@_trap_values(1)
def GrB_UnaryOp_new(fn, name="user_unary"):
    """User-defined unary op from a scalar Python function."""
    from .ops import UnaryOp

    return UnaryOp(name, fn, np.vectorize(fn), builtin=False)


@_trap_values(1)
def GrB_BinaryOp_new(fn, name="user_binary"):
    """User-defined binary op from a scalar Python function."""
    from .ops import BinaryOp

    return BinaryOp(name, fn, np.vectorize(fn), builtin=False)


@_trap_values(1)
def GrB_Monoid_new(op, identity):
    """``GrB_Monoid_new``: binary op + identity."""
    from .monoid import make_monoid

    return make_monoid(op, identity)


@_trap_values(1)
def GrB_Semiring_new(add_monoid, mult_op):
    """``GrB_Semiring_new``: additive monoid + multiplicative op."""
    from .semiring import make_semiring

    return make_semiring(add_monoid, mult_op)


@_trap_values(1)
def GrB_Descriptor_new():
    """Returns (info, descriptor); set fields with GrB_Descriptor_set."""
    return Descriptor()


_DESC_FIELDS = {
    ("INP0", "TRAN"): {"transpose_a": True},
    ("INP1", "TRAN"): {"transpose_b": True},
    ("MASK", "COMP"): {"complement_mask": True},
    ("MASK", "STRUCTURE"): {"structural_mask": True},
    ("OUTP", "REPLACE"): {"replace": True},
}

# GxB_NTHREADS takes an integer value, unlike the enum-valued GrB fields.
GxB_NTHREADS = "NTHREADS"


def GrB_Descriptor_set(desc, field, value):
    """Returns (info, new descriptor) — descriptors are immutable here."""
    fname = str(field).upper()
    if fname in ("NTHREADS", "GXB_NTHREADS"):
        try:
            n = int(value)
        except (TypeError, ValueError):
            return Info.INVALID_VALUE, desc
        return GrB_SUCCESS, desc.with_(nthreads=n if n > 0 else None)
    key = (fname, str(value).upper())
    if key not in _DESC_FIELDS:
        return Info.INVALID_VALUE, desc
    return GrB_SUCCESS, desc.with_(**_DESC_FIELDS[key])


@_trap
def GxB_subassign(C, Mask, accum, A, I=None, J=None, desc=None):
    """SuiteSparse's region-masked assign (see operations.subassign)."""
    if isinstance(C, Vector):
        ops.subassign(
            C, A, I if I is not None else GrB_ALL, mask=Mask, accum=accum, desc=desc
        )
    else:
        ops.subassign(
            C,
            A,
            I if I is not None else GrB_ALL,
            J if J is not None else GrB_ALL,
            mask=Mask,
            accum=accum,
            desc=desc,
        )
    return GrB_SUCCESS


# -- operations (C argument order: out, mask, accum, op, inputs, desc) -------

@_trap
def GrB_mxm(C, Mask, accum, semiring, A, B, desc=None):
    ops.mxm(C, A, B, semiring, mask=Mask, accum=accum, desc=desc)
    return GrB_SUCCESS


@_trap
def GrB_mxv(w, mask, accum, semiring, A, u, desc=None):
    ops.mxv(w, A, u, semiring, mask=mask, accum=accum, desc=desc)
    return GrB_SUCCESS


@_trap
def GrB_vxm(w, mask, accum, semiring, u, A, desc=None):
    ops.vxm(w, u, A, semiring, mask=mask, accum=accum, desc=desc)
    return GrB_SUCCESS


@_trap
def GrB_eWiseAdd(C, Mask, accum, op, A, B, desc=None):
    ops.ewise_add(C, A, B, op, mask=Mask, accum=accum, desc=desc)
    return GrB_SUCCESS


@_trap
def GrB_eWiseMult(C, Mask, accum, op, A, B, desc=None):
    ops.ewise_mult(C, A, B, op, mask=Mask, accum=accum, desc=desc)
    return GrB_SUCCESS


@_trap
def GrB_apply(C, Mask, accum, op, A, desc=None, *, left=None, right=None, thunk=None):
    ops.apply(C, A, op, left=left, right=right, thunk=thunk, mask=Mask, accum=accum, desc=desc)
    return GrB_SUCCESS


@_trap
def GrB_select(C, Mask, accum, op, A, thunk=0, desc=None):
    ops.select(C, A, op, thunk, mask=Mask, accum=accum, desc=desc)
    return GrB_SUCCESS


@_trap
def GrB_reduce(out, mask_or_accum, *args, **kwargs):
    """Polymorphic reduce.

    * ``GrB_reduce(w, mask, accum, monoid, A, desc)`` — matrix to vector;
    * ``GrB_reduce(scalar, accum, monoid, A_or_u)`` — to a Scalar object.
    """
    if isinstance(out, Vector):
        mask, accum, mon, A = mask_or_accum, args[0], args[1], args[2]
        desc = args[3] if len(args) > 3 else None
        ops.reduce_rowwise(out, A, mon, mask=mask, accum=accum, desc=desc)
        return GrB_SUCCESS
    accum, mon, A = mask_or_accum, args[0], args[1]
    if accum is not None and out.nvals:
        out.set(ops.reduce_scalar(A, mon, accum=accum, init=out.value))
    else:
        out.set(ops.reduce_scalar(A, mon))
    return GrB_SUCCESS


@_trap
def GrB_transpose(C, Mask, accum, A, desc=None):
    ops.transpose(C, A, mask=Mask, accum=accum, desc=desc)
    return GrB_SUCCESS


@_trap
def GrB_extract(C, Mask, accum, A, I=GrB_ALL, J=GrB_ALL, desc=None):
    if isinstance(A, Vector):
        ops.extract(C, A, I, mask=Mask, accum=accum, desc=desc)
    else:
        ops.extract(C, A, I, J, mask=Mask, accum=accum, desc=desc)
    return GrB_SUCCESS


@_trap
def GrB_assign(C, Mask, accum, A, I=GrB_ALL, J=GrB_ALL, desc=None):
    if isinstance(C, Vector):
        ops.assign(C, A, I, mask=Mask, accum=accum, desc=desc)
    else:
        ops.assign(C, A, I, J, mask=Mask, accum=accum, desc=desc)
    return GrB_SUCCESS


@_trap
def GrB_kronecker(C, Mask, accum, op, A, B, desc=None):
    ops.kronecker(C, A, B, op, mask=Mask, accum=accum, desc=desc)
    return GrB_SUCCESS


# -- GxB-style global diagnostics ---------------------------------------------


def GxB_Burble_set(flag) -> Info:
    """``GxB_Global_Option_set(GxB_BURBLE, …)``: toggle the burble stream.

    Enabling the burble starts a telemetry collector on this thread when
    none is active (so the very first ``GxB_Burble_set(True)`` suffices,
    as in SuiteSparse).  Disabling only silences the stream — counters keep
    accumulating until :func:`repro.graphblas.telemetry.disable`.
    """
    col = telemetry.active()
    if flag:
        if col is None:
            telemetry.enable(burble=True)
        else:
            col.burble = True
    elif col is not None:
        col.burble = False
    return GrB_SUCCESS


def GxB_Burble_get() -> bool:
    """``GxB_Global_Option_get(GxB_BURBLE)``: is the burble on?"""
    col = telemetry.active()
    return col is not None and col.burble


def GxB_Backend_set(name) -> Info:
    """``GxB_Global_Option_set``-style kernel backend selection.

    Sets the process-default :class:`~repro.graphblas.backends.KernelBackend`
    (``"optimized"``, ``"compiled"``, ``"reference"``, ``"differential"``);
    an unknown name returns ``GrB_INVALID_VALUE`` like any other bad
    global option.
    """
    try:
        _backends.set_default_backend(name)
    except GraphBLASError as exc:
        return exc.info
    return GrB_SUCCESS


def GxB_Backend_get() -> str:
    """``GxB_Global_Option_get``-style: the currently selected backend name."""
    return _backends.current_backend_name()


def _option_pair(group, owner, apply, live, doc):
    """Build ``GxB_<Group>_set`` / ``GxB_<Group>_get`` from the option table.

    The one place option errors become ``GrB_Info`` codes.  ``owner`` is
    the module that consumes the group, imported on first call (``serve``
    and ``obs`` must not load with the C API); ``apply(module, **options)``
    is its setter, and ``live(module)`` is the run-time state the getter
    layers over the table's values (the owner's snapshot, where it has one).
    """
    names = tuple(_options.GROUPS[group])

    def _set(value=None, /, **options) -> Info:
        if value is not None:
            options[names[0]] = value
        try:
            apply(importlib.import_module(owner, __package__), **options)
        except (GraphBLASError, TypeError, ValueError) as exc:
            info = _record(exc)
            return info if isinstance(exc, GraphBLASError) else Info.INVALID_VALUE
        return GrB_SUCCESS

    def _get() -> dict:
        module = importlib.import_module(owner, __package__)
        return {**_options.get(group), **live(module)}

    _set.__name__ = _set.__qualname__ = f"GxB_{group.capitalize()}_set"
    _get.__name__ = _get.__qualname__ = f"GxB_{group.capitalize()}_get"
    _set.__doc__ = (
        f"``GxB_Global_Option_set``-style {doc}\n\nSets the ``{group}`` "
        f"options ({', '.join(names)}; the first may be positional).  ``None`` "
        "keeps a value; a bad name or value returns ``GrB_INVALID_VALUE``.")
    _get.__doc__ = (
        f"``GxB_Global_Option_get``-style: every ``{group}`` option's "
        "effective value plus the owner's run-time state, as one plain dict.")
    return _set, _get


GxB_Engine_set, GxB_Engine_get = _option_pair(
    "engine", ".engine", lambda m, **kw: m.set_engine(**kw),
    lambda m: {**dataclasses.asdict(m.get_config()),
               "pool": m.pool_stats()},
    "performance-engine control: ``GxB_Engine_set(False)`` disables "
    "dual-format twins and parallel blocks, so results can be "
    "cross-checked bit for bit against the serial, single-format paths.",
)
GxB_Compiled_set, GxB_Compiled_get = _option_pair(
    "compiled", ".compiled", lambda m, **kw: m.set_config(**kw),
    lambda m: {**m.get_config(), "resolved": m.toolchain_name(),
               "available": m.available(), "cache": m.cache_stats()},
    "JIT kernel-tier control (the getter's ``resolved`` is the toolchain "
    "actually in use, None when unusable).",
)
GxB_Spill_set, GxB_Spill_get = _option_pair(
    "spill", ".governor", lambda m, **kw: m.set_spill_config(**kw),
    lambda m: {},
    "spill-to-disk control for over-budget operations.",
)
GxB_Serve_set, GxB_Serve_get = _option_pair(
    "serve", "..serve.config", lambda m, **kw: m.set_serve_config(**kw),
    lambda m: m.serve_config().as_dict(),
    "serving defaults, inherited by every subsequently constructed "
    "``GraphServer`` (the getter adds the per-server-only fields).",
)
GxB_Obs_set, GxB_Obs_get = _option_pair(
    "obs", "..obs",
    lambda m, enabled, **kw: m.enable(**kw) if enabled else m.disable(),
    lambda m: {"enabled": m.enabled()},
    "observability switch: ``GxB_Obs_set(True)`` installs the process-wide "
    "metrics sink behind ``GxB_Metrics_get``; ``False`` stops collection "
    "(totals stay readable).  The getter's ``enabled`` is the live state.",
)


def GxB_Metrics_get(format="snapshot"):
    """``GxB_Global``-style metrics export from the process registry.

    ``format`` selects the representation: ``"snapshot"`` (nested dict
    with per-histogram p50/p90/p99), ``"json"`` (the same, serialized),
    or ``"prometheus"`` (text exposition format, ready to serve as a
    scrape body).  Readable whether or not observability is enabled —
    a never-enabled registry simply exports no samples.
    """
    from .. import obs as _obs

    if format == "snapshot":
        return _obs.snapshot()
    if format == "json":
        return _obs.json_snapshot()
    if format == "prometheus":
        return _obs.prometheus_text()
    raise InvalidValue(
        f"unknown metrics format {format!r}; "
        "expected snapshot, json, or prometheus"
    )


def GxB_Context_new(*, memory_budget=None, deadline=None, spill=None,
                    spill_dir=None, spill_budget=None):
    """``GxB_Context``-style handle over the execution governor.

    Returns an un-entered
    :class:`~repro.graphblas.governor.ExecutionContext`; use it as a
    context manager around a batch of GrB_* calls.  A call rejected or
    interrupted by the governor returns :data:`GxB_BUDGET_EXCEEDED`,
    :data:`GxB_DEADLINE_EXCEEDED`, or :data:`GxB_CANCELLED` through the
    usual transactional boundary — operands are rolled back and
    :func:`GrB_error` carries the governor's message.  An over-budget
    mxm/mxv/vxm is re-planned as tiled spill-to-disk execution
    (``spill``/``spill_dir``/``spill_budget`` override the
    ``GxB_Spill_set`` / environment defaults); every other over-budget
    call, and any with ``spill=False``, returns
    :data:`GxB_BUDGET_EXCEEDED` before its output is allocated.
    """
    from . import governor as _governor

    return _governor.ExecutionContext(
        memory_budget=memory_budget, deadline=deadline, spill=spill,
        spill_dir=spill_dir, spill_budget=spill_budget,
    )


def global_stats(include_events: bool = False) -> dict:
    """``GxB_Global``-style diagnostics: this thread's telemetry snapshot.

    Returns an empty dict when no collector is active, so callers can poll
    unconditionally.
    """
    if telemetry.active() is None:
        return {}
    return telemetry.snapshot(include_events=include_events)
