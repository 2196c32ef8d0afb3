"""The performance engine under governor limits.

Two properties: (1) the engine's parallel row-blocking asks the governor
how many workers the budget can fund, and is clamped (never rejected) to
a serial run when blocks don't fit; (2) an over-footprint multiply is
still rejected *before* any engine kernel runs — engine-on changes
nothing about the transactional admission guarantee.
"""

import numpy as np
import pytest

from repro.graphblas import (
    BudgetExceeded,
    Matrix,
    Vector,
    engine,
    governor,
    validate,
)
from repro.graphblas import operations as ops
from repro.graphblas.errors import Info
from tests.helpers import random_matrix_np
from tests.resilience._state import assert_same_state, deep_state


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine.reset()
    engine.set_engine(True)
    yield
    engine.reset()


@pytest.fixture
def AB():
    rng = np.random.default_rng(23)
    A, _, _ = random_matrix_np(rng, 30, 30, 0.3)
    B, _, _ = random_matrix_np(rng, 30, 30, 0.3)
    return A, B


class TestAdmitWorkers:
    def test_no_context_grants_request(self):
        assert governor.admit_workers(4, 1 << 20) == 4

    def test_budget_clamps_worker_count(self):
        with governor.ExecutionContext(memory_budget=2 << 20):
            # 1 MiB per block against a 2 MiB budget: at most 2 workers
            assert governor.admit_workers(8, 1 << 20) == 2

    def test_clamp_floor_is_serial_not_rejection(self):
        with governor.ExecutionContext(memory_budget=16):
            assert governor.admit_workers(8, 1 << 20) == 1

    def test_unlimited_budget_grants_request(self):
        with governor.ExecutionContext():
            assert governor.admit_workers(6, 1 << 30) == 6

    def test_requests_below_one_are_normalized(self):
        assert governor.admit_workers(0, 1 << 20) == 1


class TestEngineUnderBudget:
    def test_over_footprint_mxm_rejected_operands_intact(self, AB):
        """Engine on, parallel on: admission still fires before any kernel
        (specialized or not) touches the operands."""
        A, B = AB
        C = Matrix("FP64", 30, 30)
        snaps = [deep_state(o) for o in (A, B, C)]
        with governor.ExecutionContext(memory_budget=1, spill=False) as ctx:
            with pytest.raises(BudgetExceeded):
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["rejected"] == 1
        for obj, snap in zip((A, B, C), snaps):
            assert_same_state(obj, snap)
            assert validate.check(obj) == Info.SUCCESS

    def test_parallel_mxm_clamped_matches_serial(self, AB, monkeypatch):
        A, B = AB
        monkeypatch.setattr(engine, "MIN_PARALLEL_FLOPS", 1)
        engine.set_engine(workers=8)
        C_ser = Matrix("FP64", 30, 30)
        engine.set_engine(parallel=False)
        ops.mxm(C_ser, A, B, "PLUS_TIMES", method="gustavson")
        engine.set_engine(parallel=True)
        C_par = Matrix("FP64", 30, 30)
        # a budget big enough to admit the op but only ~2 parallel blocks
        with governor.ExecutionContext(memory_budget=8 << 20) as ctx:
            ops.mxm(C_par, A, B, "PLUS_TIMES", method="gustavson")
        assert ctx.stats["rejected"] == 0
        ri, ci, vi = C_ser.extract_tuples()
        rj, cj, vj = C_par.extract_tuples()
        assert np.array_equal(ri, rj)
        assert np.array_equal(ci, cj)
        assert np.array_equal(vi, vj)

    def test_engine_off_rejection_unchanged(self, AB):
        A, B = AB
        engine.set_engine(False)
        C = Matrix("FP64", 30, 30)
        with governor.ExecutionContext(memory_budget=1, spill=False):
            with pytest.raises(BudgetExceeded):
                ops.mxm(C, A, B, "PLUS_TIMES")

    def test_pull_mxv_with_twin_rejected_cleanly(self, AB):
        """Rejection happens at plan admission — before the orientation
        cache would build a twin — so even the twin state is unchanged."""
        A, _ = AB
        A.wait()
        u = Vector("FP64", 30)
        for k in range(0, 30, 3):
            u.set_element(k, 1.0)
        u.wait()
        snap = deep_state(A)
        w = Vector("FP64", 30)
        with governor.ExecutionContext(memory_budget=1, spill=False):
            with pytest.raises(BudgetExceeded):
                ops.mxv(w, A, u, "PLUS_TIMES", method="pull")
        assert_same_state(A, snap)
