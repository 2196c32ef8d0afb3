"""Execution governor: budgets, deadlines, cancellation, retry, degrade.

The acceptance property under test: a budget-rejected operation raises a
*typed* error (and the matching ``GxB_*`` code at the C-API boundary)
**before any output allocation**, leaving every operand bit-identical and
valid per ``graphblas.validate``.
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
from tests.helpers import random_matrix_np
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
        with governor.ExecutionContext(memory_budget=1, degrade=False) as ctx:
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
        with capi.GxB_Context_new(memory_budget=1, degrade=False):
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

    def test_degrades_to_reference_backend(self, AB):
        from repro.graphblas.backends import backend as backend_scope

        A, B = AB
        expected = Matrix("FP64", 20, 20)
        with backend_scope("reference"):
            ops.mxm(expected, A, B, "PLUS_TIMES")
        C = Matrix("FP64", 20, 20)
        with telemetry.collect() as col:
            with governor.ExecutionContext(
                memory_budget=1, degrade_backends=("reference",),
                spill=False,  # force the degrade route, not tiled spill
            ) as ctx:
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["degraded"] >= 1
        assert C.isequal(expected)
        snap = col.snapshot()
        assert snap["governor"]["degrade"] >= 1

    def test_degrade_disabled_rejects(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext(memory_budget=1, degrade=False):
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
# retry
# --------------------------------------------------------------------------

class TestRetry:
    """Dispatch-level retry of a kernel's transient ``OutOfMemory``, on the
    default backend and on the compiled one (whose kernels trip the same
    ``spgemm.flop`` point)."""

    BACKENDS = ("optimized", "compiled")

    def test_transient_fault_retried_at_dispatch(self, AB):
        A, B = AB
        expected = Matrix("FP64", 20, 20)
        ops.mxm(expected, A, B, "PLUS_TIMES")
        for name in self.BACKENDS:
            C = Matrix("FP64", 20, 20)
            policy = governor.RetryPolicy(attempts=3, base_delay=0.0,
                                          jitter=0.0)
            with governor.ExecutionContext(retry=policy) as ctx:
                with faults.inject("spgemm.flop", OutOfMemory, nth=1):
                    # fails once, retried inside
                    ops.mxm(C, A, B, "PLUS_TIMES", backend=name)
            assert ctx.stats["retries"] == 1, name
            assert C.isequal(expected), name

    def test_persistent_fault_exhausts_attempts(self, AB):
        A, B = AB
        for name in self.BACKENDS:
            C = Matrix("FP64", 20, 20)
            policy = governor.RetryPolicy(attempts=3, base_delay=0.0,
                                          jitter=0.0)
            with governor.ExecutionContext(retry=policy) as ctx:
                with faults.inject(
                    "spgemm.flop", OutOfMemory, probability=1.0, seed=1,
                    max_fires=None,
                ):
                    with pytest.raises(OutOfMemory):
                        ops.mxm(C, A, B, "PLUS_TIMES", backend=name)
            assert ctx.stats["retries"] == 2, name  # 3 attempts = 2 retries

    def test_nontransient_error_not_retried(self, AB):
        A, B = AB
        for name in self.BACKENDS:
            C = Matrix("FP64", 20, 20)
            policy = governor.RetryPolicy(attempts=5, base_delay=0.0,
                                          jitter=0.0)
            with governor.ExecutionContext(retry=policy) as ctx:
                with faults.inject("spgemm.flop", ValueError, nth=1):
                    with pytest.raises(ValueError):
                        ops.mxm(C, A, B, "PLUS_TIMES", backend=name)
            assert ctx.stats["retries"] == 0, name

    def test_with_retry_plain_callable(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OutOfMemory("transient")
            return "ok"

        policy = governor.RetryPolicy(attempts=4, base_delay=0.0, jitter=0.0)
        assert governor.with_retry(flaky, policy=policy) == "ok"
        assert len(calls) == 3

    def test_backoff_is_bounded_and_seeded(self):
        p1 = governor.RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=0.3, jitter=0.5, seed=9
        )
        p2 = governor.RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=0.3, jitter=0.5, seed=9
        )
        d1 = [p1.delay(k) for k in range(1, 6)]
        d2 = [p2.delay(k) for k in range(1, 6)]
        assert d1 == d2  # same seed, same jitter stream
        assert all(d <= 0.3 * 1.5 for d in d1)


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
        with governor.ExecutionContext(memory_budget=1, degrade=False):
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
