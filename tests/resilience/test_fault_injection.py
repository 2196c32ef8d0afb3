"""Fault injection into every Table-I operation through the C-API boundary.

For each (operation, injection point, exception) triple:

1. arm the fault and issue the call through :mod:`repro.graphblas.capi`;
2. if the point lay on the executed path (``plan.fires > 0``), the call
   must return ``GrB_OUT_OF_MEMORY`` and every operand — output, inputs,
   mask, scalar — must be *bit-identical* to its pre-call state and still
   pass deep validation;
3. the same call again (fault disarmed) must succeed and match the dense
   spec-literal reference oracle.

If the point was never reached the call must simply have succeeded and
the oracle must still hold (this keeps the op x point cross-product
honest without hand-maintaining a reachability table).
"""

import numpy as np
import pytest

from repro.graphblas import (
    Info,
    Matrix,
    OutOfMemory,
    Scalar,
    Vector,
    faults,
    validate,
)
from repro.graphblas import capi, compiled
from repro.graphblas import reference as ref
from repro.io import mmread, mmwrite
from tests.helpers import kernel_tier, random_matrix_np, random_vector_np
from tests.resilience._state import assert_same_state, deep_state

N = 24
#: the kernel tiers behind the fault points: NumPy always, compiled
#: kernels when a toolchain resolves
TIERS = ("numpy", "compiled") if compiled.available() else ("numpy",)


class Env:
    """Fresh operands per test (faults must never leak between cases)."""

    def __init__(self, seed=7):
        rng = np.random.default_rng(seed)
        self.A, _, _ = random_matrix_np(rng, N, N, 0.2)
        self.B, _, _ = random_matrix_np(rng, N, N, 0.2)
        self.M, _, _ = random_matrix_np(rng, N, N, 0.35)
        self.u, _, _ = random_vector_np(rng, N, 0.3)
        self.m, _, _ = random_vector_np(rng, N, 0.45)
        self.C = Matrix("FP64", N, N)
        self.w = Vector("FP64", N)
        self.s = Scalar("FP64")
        self.I = np.arange(0, N, 2)
        self.sub, _, _ = random_matrix_np(rng, self.I.size, self.I.size, 0.3)


def _r(x):
    return ref.RefMatrix.from_matrix(x)


def _rv(x):
    return ref.RefVector.from_vector(x)


# Each case: name -> (points to inject, build(env) -> (call, operands, verify))
# `verify()` is run after a successful call and checks the dense oracle.
def _case_mxm(e):
    expected = ref.ref_mxm(_r(e.C), _r(e.A), _r(e.B), "PLUS_TIMES", mask=_r(e.M))
    call = lambda: capi.GrB_mxm(e.C, e.M, None, "PLUS_TIMES", e.A, e.B)
    return call, [e.C, e.M, e.A, e.B], lambda: expected.matches(e.C)


def _case_mxv(e):
    expected = ref.ref_mxv(_rv(e.w), _r(e.A), _rv(e.u), "PLUS_TIMES")
    call = lambda: capi.GrB_mxv(e.w, None, None, "PLUS_TIMES", e.A, e.u)
    return call, [e.w, e.A, e.u], lambda: expected.matches(e.w)


def _case_vxm(e):
    expected = ref.ref_vxm(_rv(e.w), _rv(e.u), _r(e.A), "PLUS_TIMES")
    call = lambda: capi.GrB_vxm(e.w, None, None, "PLUS_TIMES", e.u, e.A)
    return call, [e.w, e.u, e.A], lambda: expected.matches(e.w)


def _case_mxv_push(e):
    # a frontier far below the direction-switch threshold forces push
    n = 40 * N
    rng = np.random.default_rng(9)
    A, _, _ = random_matrix_np(rng, n, n, 0.004)
    u = Vector.from_coo([0, 3], [1.0, 2.0], size=n)
    w = Vector("FP64", n)
    expected = ref.ref_mxv(_rv(w), _r(A), _rv(u), "PLUS_TIMES")
    call = lambda: capi.GrB_mxv(w, None, None, "PLUS_TIMES", A, u)
    return call, [w, A, u], lambda: expected.matches(w)


def _case_ewise_add(e):
    expected = ref.ref_ewise_add(_r(e.C), _r(e.A), _r(e.B), "PLUS")
    call = lambda: capi.GrB_eWiseAdd(e.C, None, None, "PLUS", e.A, e.B)
    return call, [e.C, e.A, e.B], lambda: expected.matches(e.C)


def _case_ewise_mult(e):
    expected = ref.ref_ewise_mult(_r(e.C), _r(e.A), _r(e.B), "TIMES")
    call = lambda: capi.GrB_eWiseMult(e.C, None, None, "TIMES", e.A, e.B)
    return call, [e.C, e.A, e.B], lambda: expected.matches(e.C)


def _case_apply(e):
    expected = ref.ref_apply(_r(e.C), _r(e.A), "AINV")
    call = lambda: capi.GrB_apply(e.C, None, None, "AINV", e.A)
    return call, [e.C, e.A], lambda: expected.matches(e.C)


def _case_select(e):
    expected = ref.ref_select(_r(e.C), _r(e.A), "TRIL")
    call = lambda: capi.GrB_select(e.C, None, None, "TRIL", e.A)
    return call, [e.C, e.A], lambda: expected.matches(e.C)


def _case_reduce_rowwise(e):
    expected = ref.ref_reduce_rowwise(_rv(e.w), _r(e.A), "PLUS")
    call = lambda: capi.GrB_reduce(e.w, None, None, "PLUS", e.A)
    return call, [e.w, e.A], lambda: expected.matches(e.w)


def _case_reduce_scalar(e):
    expected = ref.ref_reduce_scalar(_r(e.A), "PLUS")
    call = lambda: capi.GrB_reduce(e.s, None, "PLUS", e.A)
    return call, [e.s, e.A], lambda: np.isclose(e.s.value, expected)


def _case_transpose(e):
    expected = ref.ref_transpose(_r(e.C), _r(e.A))
    call = lambda: capi.GrB_transpose(e.C, None, None, e.A)
    return call, [e.C, e.A], lambda: expected.matches(e.C)


def _case_extract(e):
    out = Matrix("FP64", e.I.size, e.I.size)
    expected = ref.ref_extract(_r(out), _r(e.A), e.I, e.I)
    call = lambda: capi.GrB_extract(out, None, None, e.A, e.I, e.I)
    return call, [out, e.A], lambda: expected.matches(out)


def _case_assign(e):
    expected = ref.ref_assign(_r(e.M), _r(e.sub), e.I, e.I)
    call = lambda: capi.GrB_assign(e.M, None, None, e.sub, e.I, e.I)
    return call, [e.M, e.sub], lambda: expected.matches(e.M)


def _case_subassign(e):
    expected = ref.ref_subassign(_r(e.M), _r(e.sub), e.I, e.I)
    call = lambda: capi.GxB_subassign(e.M, None, None, e.sub, e.I, e.I)
    return call, [e.M, e.sub], lambda: expected.matches(e.M)


def _case_kronecker(e):
    small, _, _ = random_matrix_np(np.random.default_rng(3), 5, 5, 0.3)
    out = Matrix("FP64", 5 * N, 5 * N)
    expected = ref.ref_kronecker(_r(out), _r(small), _r(e.A), "TIMES")
    call = lambda: capi.GrB_kronecker(out, None, None, "TIMES", small, e.A)
    return call, [out, small, e.A], lambda: expected.matches(out)


def _case_build(e):
    rng = np.random.default_rng(5)
    i = rng.integers(0, N, 40)
    j = rng.integers(0, N, 40)
    x = rng.uniform(1, 9, 40)
    dense = np.zeros((N, N))
    np.add.at(dense, (i, j), x)  # dup="PLUS"
    call = lambda: capi.GrB_Matrix_build(e.C, i, j, x)
    verify = lambda: np.allclose(e.C.to_dense(), dense)
    return call, [e.C], verify


CASES = {
    "mxm": (["spgemm.flop", "alloc", "assemble"], _case_mxm),
    "mxv": (["mxv.push", "mxv.pull", "alloc"], _case_mxv),
    "vxm": (["mxv.push", "mxv.pull", "alloc"], _case_vxm),
    "mxv_push": (["mxv.push"], _case_mxv_push),
    "eWiseAdd": (["ewise", "alloc"], _case_ewise_add),
    "eWiseMult": (["ewise", "alloc"], _case_ewise_mult),
    "apply": (["apply", "alloc"], _case_apply),
    "select": (["select", "alloc"], _case_select),
    "reduce_rowwise": (["reduce", "alloc"], _case_reduce_rowwise),
    "reduce_scalar": (["reduce"], _case_reduce_scalar),
    "transpose": (["transpose", "alloc"], _case_transpose),
    "extract": (["extract", "alloc"], _case_extract),
    "assign": (["assign", "alloc"], _case_assign),
    "subassign": (["assign", "alloc"], _case_subassign),
    "kronecker": (["kronecker", "alloc"], _case_kronecker),
    "build": (["build"], _case_build),
}

PARAMS = [
    pytest.param(op, point, id=f"{op}-{point}")
    for op, (points, _) in CASES.items()
    for point in points
]


class TestTable1FaultInjection:
    @pytest.mark.parametrize("exc", [OutOfMemory, MemoryError], ids=["GrB", "MemoryError"])
    @pytest.mark.parametrize("op,point", PARAMS)
    def test_operation_survives_injected_fault(self, op, point, exc):
        _, build = CASES[op]
        e = Env()
        call, operands, verify = build(e)
        snaps = [(o, deep_state(o)) for o in operands]

        with faults.inject(point, exc) as plan:
            info = call()

        if plan.fires == 0:
            # point not on this op's execution path: the call must have
            # succeeded normally and the oracle must hold
            assert info == Info.SUCCESS
            assert verify()
            return

        # (a) the right error code surfaced, with a readable message
        assert info == Info.OUT_OF_MEMORY
        assert "injected fault" in capi.GrB_error() or exc is MemoryError

        # (b) every operand bit-identical and structurally valid
        for obj, snap in snaps:
            assert_same_state(obj, snap)
            assert validate.check(obj) == Info.SUCCESS

        # (c) the same call, outside the fault, matches the dense oracle
        assert call() == Info.SUCCESS
        assert capi.GrB_error() == ""
        assert verify()
        for obj in operands[1:]:  # inputs still valid after success too
            assert validate.check(obj) == Info.SUCCESS

    def test_every_point_reachable_somewhere(self):
        """Each kernel/lifecycle point must actually fire for >=1 case,
        whichever kernel tier runs (the compiled kernels sit behind the
        same fault points as the NumPy ones)."""
        for name in TIERS:
            hit = set()
            with kernel_tier(name):
                for op, (points, build) in CASES.items():
                    for point in points:
                        e = Env()
                        call, _, _ = build(e)
                        with faults.inject(point) as plan:
                            call()
                        if plan.fires:
                            hit.add(point)
            assert {
                "spgemm.flop",
                "mxv.push",
                "mxv.pull",
                "ewise",
                "apply",
                "select",
                "reduce",
                "transpose",
                "extract",
                "assign",
                "kronecker",
                "alloc",
                "build",
            } <= hit, name


class TestIOFaults:
    def test_mmio_read_fault(self, tmp_path):
        A, _, _ = random_matrix_np(np.random.default_rng(1), 10, 10, 0.3)
        path = tmp_path / "a.mtx"
        mmwrite(str(path), A)
        with faults.inject("io.read") as plan:
            with pytest.raises(OutOfMemory):
                mmread(str(path))
        assert plan.fires == 1
        B = mmread(str(path))  # retry succeeds
        assert A.isequal(B)

    def test_mmio_write_fault(self, tmp_path):
        A, _, _ = random_matrix_np(np.random.default_rng(2), 10, 10, 0.3)
        path = tmp_path / "a.mtx"
        snap = deep_state(A)
        with faults.inject("io.write", MemoryError):
            with pytest.raises(MemoryError):
                mmwrite(str(path), A)
        assert_same_state(A, snap)
        mmwrite(str(path), A)
        assert mmread(str(path)).isequal(A)

    def test_npz_roundtrip_faults(self, tmp_path):
        from repro.io import load_matrix_npz, save_matrix_npz

        A, _, _ = random_matrix_np(np.random.default_rng(3), 12, 8, 0.3)
        path = tmp_path / "a.npz"
        with faults.inject("io.write"):
            with pytest.raises(OutOfMemory):
                save_matrix_npz(str(path), A)
        save_matrix_npz(str(path), A)
        with faults.inject("io.read"):
            with pytest.raises(OutOfMemory):
                load_matrix_npz(str(path))
        assert load_matrix_npz(str(path)).isequal(A)
