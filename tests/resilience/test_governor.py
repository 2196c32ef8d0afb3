"""Execution governor: budgets, deadlines, cancellation, failed ops.

The acceptance property under test: a budget-rejected operation raises a
*typed* error (and the matching ``GxB_*`` code at the C-API boundary)
**before any output allocation**, leaving every operand bit-identical and
valid per ``graphblas.validate``.  A kernel that fails under a context
raises once — nothing replays it — with the same guarantee.
"""

import time

import numpy as np
import pytest

from repro.graphblas import (
    BudgetExceeded,
    Cancelled,
    DeadlineExceeded,
    Info,
    InvalidValue,
    Matrix,
    OutOfMemory,
    Vector,
    capi,
    faults,
    governor,
    plan as gplan,
    telemetry,
    validate,
)
from repro.graphblas import operations as ops
from repro.graphblas.backends.differential import DifferentialBackend
from tests.helpers import random_matrix_np, random_vector_np
from tests.resilience._state import assert_same_state, deep_state


@pytest.fixture
def AB():
    rng = np.random.default_rng(11)
    A, _, _ = random_matrix_np(rng, 20, 20, 0.3)
    B, _, _ = random_matrix_np(rng, 20, 20, 0.3)
    return A, B


# --------------------------------------------------------------------------
# admission control
# --------------------------------------------------------------------------

class TestBudget:
    def test_rejected_mxm_typed_error_no_output_no_corruption(self, AB):
        """The PR's acceptance criterion, at the Python level."""
        A, B = AB
        C = Matrix("FP64", 20, 20)
        snaps = [deep_state(o) for o in (C, A, B)]
        with governor.ExecutionContext(memory_budget=1, spill=False) as ctx:
            with pytest.raises(BudgetExceeded):
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["rejected"] == 1
        for obj, snap in zip((C, A, B), snaps):
            assert_same_state(obj, snap)
            assert validate.check(obj) == Info.SUCCESS
        assert C.nvals == 0  # no output was allocated

    def test_rejected_mxm_capi_code(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with capi.GxB_Context_new(memory_budget=1, spill=False):
            info = capi.GrB_mxm(C, None, None, "PLUS_TIMES", A, B)
        assert info == capi.GxB_BUDGET_EXCEEDED == Info.BUDGET_EXCEEDED
        assert "budget" in capi.GrB_error()
        assert C.nvals == 0
        assert validate.check(A) == Info.SUCCESS

    def test_within_budget_admitted(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext(memory_budget=1 << 30) as ctx:
            ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["admitted"] >= 1
        assert ctx.stats["rejected"] == 0
        assert C.nvals > 0

    def test_no_budget_means_unlimited(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext() as ctx:
            ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["admitted"] >= 1

    def test_non_tileable_over_budget_rejects_even_with_spill(self, AB):
        """Over budget has two answers, tiled or refused: an ewise_add
        cannot tile, so it is refused before any output allocation."""
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext(memory_budget=1, spill=True) as ctx:
            with pytest.raises(BudgetExceeded, match="not tileable"):
                ops.ewise_add(C, A, B, "PLUS")
        assert (ctx.stats["rejected"], ctx.stats["tiled"]) == (1, 0)
        assert C.nvals == 0

    def test_degrade_disabled_rejects(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext(memory_budget=1, spill=False):
            with pytest.raises(BudgetExceeded):
                ops.mxm(C, A, B, "PLUS_TIMES")

    def test_estimate_recorded_on_plan(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        p = gplan.plan_mxm(C, A, B, "PLUS_TIMES")
        est = governor.estimate_plan_bytes(p)
        assert est > 0
        with governor.ExecutionContext(memory_budget=1 << 30):
            p2 = gplan.plan_mxm(C, A, B, "PLUS_TIMES")
        assert p2.params["est_bytes"] == est

    def test_estimates_scale_with_operands(self):
        rng = np.random.default_rng(5)
        small, _, _ = random_matrix_np(rng, 8, 8, 0.3)
        big, _, _ = random_matrix_np(rng, 64, 64, 0.3)
        Cs = Matrix("FP64", 8, 8)
        Cb = Matrix("FP64", 64, 64)
        es = governor.estimate_plan_bytes(gplan.plan_mxm(Cs, small, small))
        eb = governor.estimate_plan_bytes(gplan.plan_mxm(Cb, big, big))
        assert eb > es

    def test_invalid_limits_rejected(self):
        with pytest.raises(InvalidValue):
            governor.ExecutionContext(memory_budget=-1)
        with pytest.raises(InvalidValue):
            governor.ExecutionContext(deadline=-1.0)


# --------------------------------------------------------------------------
# deadline & cancellation
# --------------------------------------------------------------------------

class TestDeadlineCancel:
    def test_expired_deadline_raises_typed_error(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext(deadline=0.0):
            time.sleep(0.005)
            with pytest.raises(DeadlineExceeded):
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert C.nvals == 0

    def test_deadline_capi_code(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with capi.GxB_Context_new(deadline=0.0):
            time.sleep(0.005)
            info = capi.GrB_mxm(C, None, None, "PLUS_TIMES", A, B)
        assert info == capi.GxB_DEADLINE_EXCEEDED

    def test_cancel_before_op(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext() as ctx:
            ctx.cancel("user abort")
            with pytest.raises(Cancelled, match="user abort"):
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["cancelled"] >= 1

    def test_cancel_mid_bfs_leaves_valid_objects(self):
        from repro.lagraph import Graph, bfs

        rng = np.random.default_rng(3)
        A, _, _ = random_matrix_np(rng, 64, 64, 0.08)
        g = Graph(A)
        ctx = governor.ExecutionContext()

        def hook(alg, it, state):
            if it == 2:
                ctx.cancel("enough levels")
            for obj in state.values():
                assert validate.check(obj) == Info.SUCCESS

        with ctx:
            with pytest.raises(Cancelled, match="enough levels"):
                bfs(0, g, checkpoint=hook)

    def test_cancelled_token_latches_first_reason(self):
        tok = governor.CancellationToken()
        tok.cancel("first")
        tok.cancel("second")
        assert tok.reason == "first"
        with pytest.raises(Cancelled, match="first"):
            tok.raise_if_cancelled()

    def test_poll_is_noop_when_ungoverned(self):
        governor.poll()  # must not raise


# --------------------------------------------------------------------------
# a failed op fails once (arXiv 2104.01661's error-handling pillar)
# --------------------------------------------------------------------------

N = 20
_I = np.arange(0, N, 3)


def _operands(seed=11):
    rng = np.random.default_rng(seed)
    A, _, _ = random_matrix_np(rng, N, N, 0.3)
    B, _, _ = random_matrix_np(rng, N, N, 0.3)
    S, _, _ = random_matrix_np(rng, _I.size, _I.size, 0.4)
    u, _, _ = random_vector_np(rng, N, 0.3)
    return A, B, S, u


def _vec(A, S):
    return Vector("FP64", N)


def _mat(A, S):
    return Matrix("FP64", N, N)


#: kernel fault point -> (fresh output from (A, S), the call on it)
KERNEL_CASES = {
    "spgemm.flop": (_mat, lambda C, A, B, S, u, be: ops.mxm(
        C, A, B, "PLUS_TIMES", backend=be)),
    "mxv.push": (_vec, lambda w, A, B, S, u, be: ops.mxv(
        w, A, u, "PLUS_TIMES", method="push", backend=be)),
    "mxv.pull": (_vec, lambda w, A, B, S, u, be: ops.vxm(
        w, u, A, "PLUS_TIMES", method="pull", backend=be)),
    "ewise": (_mat, lambda C, A, B, S, u, be: ops.ewise_add(
        C, A, B, "PLUS", backend=be)),
    "apply": (_mat, lambda C, A, B, S, u, be: ops.apply(
        C, A, "AINV", backend=be)),
    "select": (_mat, lambda C, A, B, S, u, be: ops.select(
        C, A, "TRIL", backend=be)),
    "reduce": (_vec, lambda w, A, B, S, u, be: ops.reduce_rowwise(
        w, A, "PLUS", backend=be)),
    "transpose": (_mat, lambda C, A, B, S, u, be: ops.transpose(
        C, A, backend=be)),
    "extract": (lambda A, S: Matrix("FP64", _I.size, _I.size),
                lambda C, A, B, S, u, be: ops.extract(
                    C, A, _I, _I, backend=be)),
    "assign": (lambda A, S: A.dup(), lambda C, A, B, S, u, be: ops.assign(
        C, S, _I, _I, backend=be)),
    "kronecker": (lambda A, S: Matrix("FP64", _I.size * N, _I.size * N),
                  lambda C, A, B, S, u, be: ops.kronecker(
                      C, S, A, "TIMES", backend=be)),
}


class TestFailedOpFailsOnce:
    """An ``OutOfMemory`` at a kernel fault point, under a context, is the
    op's answer: it raises once, the kernel is not re-run, every operand
    is untouched, and the same call outside the fault is correct."""

    @pytest.mark.parametrize("point", sorted(KERNEL_CASES))
    def test_kernel_fault_raises_once_operands_intact(self, point):
        make, call = KERNEL_CASES[point]
        A, B, S, u = _operands()
        out = make(A, S)
        operands = (out, A, B, S, u)
        snaps = [deep_state(o) for o in operands]
        with governor.ExecutionContext() as ctx:
            with faults.inject(point, OutOfMemory, probability=1.0, seed=1,
                               max_fires=None) as plan:
                with pytest.raises(OutOfMemory):
                    call(*operands, None)
        assert plan.fires == 1  # one kernel run: nothing replayed it
        assert ctx.stats["retries"] == 0
        for obj, snap in zip(operands, snaps):
            assert_same_state(obj, snap)
            assert validate.check(obj) == Info.SUCCESS
        # outside the fault the same call runs, checked against the
        # dense reference by the differential engine (divergence raises)
        diff = DifferentialBackend(strict=True)
        call(*operands, diff)
        assert diff.stats == {"verified": 1, "skipped": 0, "divergences": 0}

    def test_transient_fault_fails_once_caller_reruns(self, AB):
        A, B = AB
        expected = Matrix("FP64", 20, 20)
        ops.mxm(expected, A, B, "PLUS_TIMES")
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext() as ctx:
            with faults.inject("spgemm.flop", OutOfMemory, nth=1) as plan:
                with pytest.raises(OutOfMemory):
                    ops.mxm(C, A, B, "PLUS_TIMES")
                assert plan.fires == 1 and C.nvals == 0
                # the fault has lifted; rerunning is the caller's choice
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["retries"] == 0
        assert C.isequal(expected)

    def test_persistent_fault_fails_every_call_once(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext() as ctx:
            with faults.inject("spgemm.flop", OutOfMemory, probability=1.0,
                               seed=1, max_fires=None) as plan:
                for calls in range(1, 4):
                    with pytest.raises(OutOfMemory):
                        ops.mxm(C, A, B, "PLUS_TIMES")
                    assert plan.fires == calls  # one kernel run per call
        assert ctx.stats["retries"] == 0
        assert C.nvals == 0 and validate.check(C) == Info.SUCCESS

    def test_non_memory_error_propagates_once(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext():
            with faults.inject("spgemm.flop", ValueError, probability=1.0,
                               seed=1, max_fires=None) as plan:
                with pytest.raises(ValueError):
                    ops.mxm(C, A, B, "PLUS_TIMES")
        assert plan.fires == 1 and C.nvals == 0


# --------------------------------------------------------------------------
# context mechanics & environment
# --------------------------------------------------------------------------

class TestContext:
    def test_active_flag_tracks_scopes(self):
        # the CI governor leg wraps every test in a context, so compare
        # against the surrounding state rather than assuming False
        baseline = governor.ACTIVE
        assert baseline is (governor.current() is not None)
        with governor.ExecutionContext():
            assert governor.ACTIVE is True
            with governor.ExecutionContext():
                assert governor.ACTIVE is True
            assert governor.ACTIVE is True
        assert governor.ACTIVE is baseline

    def test_innermost_context_governs(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext(memory_budget=1, spill=False):
            with governor.ExecutionContext() as inner:  # unlimited
                ops.mxm(C, A, B, "PLUS_TIMES")
            assert inner.stats["admitted"] >= 1
        assert C.nvals > 0

    def test_single_use(self):
        ctx = governor.ExecutionContext()
        with ctx:
            pass
        with pytest.raises(InvalidValue):
            ctx.__enter__()

    def test_env_limits(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_GOVERNOR_BUDGET", "64m")
        monkeypatch.setenv("GRAPHBLAS_GOVERNOR_DEADLINE", "60")
        assert governor.env_limits() == (64 << 20, 60.0)
        monkeypatch.delenv("GRAPHBLAS_GOVERNOR_BUDGET")
        monkeypatch.delenv("GRAPHBLAS_GOVERNOR_DEADLINE")
        assert governor.env_limits() == (None, None)

    def test_governor_decisions_in_snapshot(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with telemetry.collect() as col:
            with governor.ExecutionContext(memory_budget=1 << 30):
                ops.mxm(C, A, B, "PLUS_TIMES")
            snap = col.snapshot()
        assert snap["governor"]["admit"] >= 1
