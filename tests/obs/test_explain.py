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
        """The record names the direction that ran and the density and
        threshold behind it; the table prints it in the method column."""
        rng = np.random.default_rng(3)
        A, _, _ = random_matrix_np(rng, 100, 100, 0.05)
        for nvals, direction in ((1, "push"), (40, "pull")):
            v = Vector.from_coo(np.arange(nvals), np.ones(nvals), size=100,
                                dtype=FP64)
            rep = obs.explain(lambda: ops.mxv(Vector(FP64, 100), A, v))
            (r,) = rep.records
            assert r["op"] == "mxv"
            assert r["method"] == direction
            assert r["density"] == pytest.approx(nvals / 100)
            assert r["threshold"] == pytest.approx(0.03)
            row = rep.text().splitlines()[3].split()
            assert row[1] == "mxv" and row[4] == direction

    @pytest.mark.parametrize("masked, method", [(False, "gustavson"),
                                                (True, "dot")])
    def test_mxm_shows_the_method_that_ran(self, masked, method):
        A, B = small_mats()
        mask = A if masked else None
        rep = obs.explain(lambda: ops.mxm(Matrix(FP64, 3, 3), A, B,
                                          "plus_times", mask=mask))
        (r,) = rep.records
        assert r["method"] == method
        row = rep.text().splitlines()[3].split()
        assert row[1] == "mxm" and row[4] == method
        assert "auto" not in rep.text()

    def test_max_events_bounds_the_capture_when_nested(self):
        """``max_events`` bounds what one explain call keeps, whether or
        not an outer collector is attached; the rest count as dropped."""
        A, B = small_mats()

        def three():
            for _ in range(3):
                ops.mxm(Matrix(FP64, 3, 3), A, B, "plus_times")

        three()  # warm the kernel cache: one op record per call
        alone = obs.explain(three, max_events=2)
        with telemetry.collect() as col:
            nested = obs.explain(three, max_events=2)
        assert len(nested.records) == len(alone.records) == 2
        assert nested.dropped == alone.dropped == 1
        # the outer collector itself keeps every event
        assert len([e for e in col.events if e["type"] == "op"]) == 3
        assert "1 events dropped" in str(nested)

    def test_works_without_obs_enabled(self):
        assert not obs.enabled()
        A, B = small_mats()
        rep = obs.explain(
            lambda: ops.mxm(Matrix(FP64, 3, 3), A, B, "plus_times")
        )
        assert len(rep.records) == 1
        # and telemetry is off again once the capture exits
        assert not telemetry.ENABLED

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

    def test_nested_explain_keeps_outer_burble(self):
        import io

        A, B = small_mats()
        buf = io.StringIO()

        def lines():
            ops.mxm(Matrix(FP64, 3, 3), A, B, "plus_times")
            out = buf.getvalue().splitlines()
            buf.seek(0)
            buf.truncate()
            return out

        with telemetry.collect(burble=True, stream=buf) as col:
            first = lines()
            obs.explain(
                lambda: ops.mxm(Matrix(FP64, 3, 3), A, B, "plus_times"))
            after = lines()
            assert col.burble and col.stream is buf
        assert any("[mxm]" in ln for ln in first)
        assert any("[mxm]" in ln for ln in after)


def _untimed(record):
    return {k: v for k, v in record.items()
            if k not in ("seconds", "wall_time")}


class TestSlowOpIsExplainRecord:
    """A plan's slow-op record and its EXPLAIN record are one dict, up to
    the timing stamps."""

    @pytest.mark.parametrize("case", ["mxm", "mxv", "tiled_mxm"])
    def test_same_record(self, case, tmp_path):
        rng = np.random.default_rng(5)
        A, _, _ = random_matrix_np(rng, 60, 60, 0.2)
        v = Vector.from_coo([3], [2.0], size=60, dtype=FP64)  # push

        def run():
            if case == "mxv":
                ops.mxv(Vector(FP64, 60), A, v)
            elif case == "mxm":
                ops.mxm(Matrix(FP64, 60, 60), A, A, "plus_times")
            else:
                with capi.GxB_Context_new(memory_budget=1, spill=True,
                                          spill_dir=str(tmp_path),
                                          spill_budget=4096):
                    ops.mxm(Matrix(FP64, 60, 60), A, A, "plus_times")

        run()  # warm the kernel cache
        obs.enable(slow_ms=0.0)
        obs.clear_slow_ops()
        rep = obs.explain(run)
        (slow,) = obs.slow_ops()
        (r,) = rep.records
        assert _untimed(slow) == _untimed(r)
        assert r["method"] in ("gustavson", "push")
        if case == "tiled_mxm":
            assert r["route"] == "tiled" and r["tile_dim"] > 0
            assert r["spills"] > 0


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
