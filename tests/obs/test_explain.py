"""obs.explain: per-plan reports, including the over-budget tiled case."""

import numpy as np
import pytest

from repro import obs
from repro.graphblas import FP64, Matrix, Vector, capi, operations as ops
from repro.graphblas import telemetry
from tests.helpers import kernel_tier, random_matrix_np


def small_mats():
    A = Matrix.from_coo([0, 1, 2, 0], [1, 2, 0, 2], [1.0, 2.0, 3.0, 4.0],
                        nrows=3, ncols=3, dtype=FP64)
    B = Matrix.from_coo([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0],
                        nrows=3, ncols=3, dtype=FP64)
    return A, B


class TestExplainBasics:
    def test_one_plan_per_dispatch(self):
        A, B = small_mats()

        def run():
            C = Matrix(FP64, 3, 3)
            ops.mxm(C, A, B, "plus_times")
            return C

        rep = obs.explain(run)
        assert len(rep.records) == 1
        r = rep.records[0]
        assert r["op"] == "mxm"
        assert r["route"] == "direct"
        assert r["backend"]
        assert r["seconds"] > 0
        assert r["actual_bytes"] > 0
        assert rep.result is not None
        assert rep.result.nvals == 4

    def test_report_renders_text_and_dict(self):
        A, B = small_mats()
        rep = obs.explain(
            lambda: ops.mxm(Matrix(FP64, 3, 3), A, B, "plus_times")
        )
        text = str(rep)
        assert "EXPLAIN: executed plans" in text
        assert "mxm" in text
        d = rep.as_dict()
        assert d["plans"][0]["op"] == "mxm"
        assert "ops" in d and "spans" in d

    def test_no_plans(self):
        rep = obs.explain(lambda: 42)
        assert rep.records == []
        assert rep.result == 42
        assert "no plans executed" in str(rep)

    def test_args_passthrough(self):
        rep = obs.explain(lambda a, b=0: a + b, 1, b=2)
        assert rep.result == 3

    def test_mxv_direction_shows_as_method(self):
        A, _ = small_mats()
        v = Vector.from_coo([0, 1], [1.0, 2.0], size=3, dtype=FP64)

        def run():
            w = Vector(FP64, 3)
            ops.mxv(w, A, v, "plus_times")

        rep = obs.explain(run)
        (r,) = rep.records
        assert r["op"] == "mxv"
        assert r.get("direction") in ("push", "pull", None) or r.get("method")

    def test_works_without_obs_enabled(self):
        assert not obs.enabled()
        A, B = small_mats()
        rep = obs.explain(
            lambda: ops.mxm(Matrix(FP64, 3, 3), A, B, "plus_times")
        )
        assert len(rep.records) == 1
        # and plan events stop once the capture exits
        assert not telemetry.PLAN_EVENTS

    def test_nested_in_outer_collector_keeps_outer_events(self):
        A, B = small_mats()
        with telemetry.collect() as col:
            ops.mxm(Matrix(FP64, 3, 3), A, B, "plus_times")
            before = len(col.events)
            rep = obs.explain(
                lambda: ops.mxm(Matrix(FP64, 3, 3), A, B, "plus_times")
            )
            # the outer collector saw the explained run's events too
            assert len(col.events) > before
        assert len(rep.records) == 1


class TestExplainOverBudget:
    """The acceptance case: an over-budget mxm must show the governor's
    tiled re-plan, spill counts, and est-vs-actual bytes in one report."""

    def test_tiled_replan_with_spills(self, tmp_path):
        rng = np.random.default_rng(7)
        n, nnz = 200, 4000
        r = rng.integers(0, n, nnz)
        c = rng.integers(0, n, nnz)
        v = rng.random(nnz)
        A = Matrix.from_coo(r, c, v, nrows=n, ncols=n, dtype=FP64, dup="first")
        B = Matrix.from_coo(c, r, v, nrows=n, ncols=n, dtype=FP64, dup="first")

        def run():
            C = Matrix(FP64, n, n)
            with capi.GxB_Context_new(
                memory_budget=64 * 1024, spill=True,
                spill_dir=str(tmp_path), spill_budget=32 * 1024,
            ):
                ops.mxm(C, A, B, "plus_times")
            return C

        rep = obs.explain(run)
        (r0,) = [r for r in rep.records if r["op"] == "mxm"]
        assert r0["route"] == "tiled"
        assert r0["admission"] == "tiled"
        assert r0["est_bytes"] > 0
        assert r0["actual_bytes"] > 0
        assert r0["tiles"] > 0
        # the tiny resident budget forces real spill traffic
        assert r0["spills"] > 0
        assert r0["spilled_bytes"] > 0
        # and the one-call report carries it all as a single row
        text = str(rep)
        assert "tiled" in text
        assert rep.result.nvals > 0

    @pytest.mark.parametrize("kernel", ["compiled", "numpy"])
    def test_tiled_plan_reports_its_kernel_tier(self, kernel, tmp_path):
        """A tiled plan records the tier its chunks ran on, like an
        in-memory one: ``kernel``, and ``kernel_cache`` when compiled."""
        rng = np.random.default_rng(8)
        A, _, _ = random_matrix_np(rng, 60, 60, 0.2)

        def run():
            with capi.GxB_Context_new(memory_budget=1, spill=True,
                                      spill_dir=str(tmp_path)):
                ops.mxm(Matrix(FP64, 60, 60), A, A, "plus_times")

        with kernel_tier(kernel):
            rep = obs.explain(run)
        (r0,) = [r for r in rep.records if r["op"] == "mxm"]
        assert r0["route"] == "tiled"
        assert r0["kernel"] == kernel
        assert ("kernel_cache" in r0) is (kernel == "compiled")
