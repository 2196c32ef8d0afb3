"""obs.enable end-to-end: telemetry fan-out, metric names, capi, slow ops."""

import json

import pytest

from repro import obs
from repro.graphblas import FP64, Matrix, Vector, capi, operations as ops
from repro.graphblas import telemetry


def do_work():
    A = Matrix.from_coo([0, 1, 2, 0], [1, 2, 0, 2], [1.0, 2.0, 3.0, 4.0],
                        nrows=3, ncols=3, dtype=FP64)
    B = Matrix.from_coo([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0],
                        nrows=3, ncols=3, dtype=FP64)
    C = Matrix(FP64, 3, 3)
    ops.mxm(C, A, B, "plus_times")
    v = Vector.from_coo([0, 1], [1.0, 2.0], size=3, dtype=FP64)
    w = Vector(FP64, 3)
    ops.mxv(w, A, v, "plus_times")
    return C


class TestEnableDisable:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert not telemetry.ENABLED

    def test_enable_sets_flags_and_collects(self):
        obs.enable()
        assert obs.enabled()
        assert telemetry.ENABLED  # sink alone keeps the fast path on
        do_work()
        snap = obs.snapshot()
        ops_hist = {s["labels"]["op"] for s in snap["histograms"]["graphblas_op_seconds"]}
        assert {"mxm", "mxv"} <= ops_hist
        routes = snap["counters"]["graphblas_plan_route_total"]
        assert sum(s["value"] for s in routes) == 2
        dispatch = snap["counters"]["graphblas_backend_dispatch_total"]
        assert all(s["labels"]["backend"] for s in dispatch)

    def test_enable_is_idempotent(self):
        r1 = obs.enable()
        r2 = obs.enable()
        assert r1 is r2
        do_work()
        snap = obs.snapshot()
        assert sum(
            s["value"] for s in snap["counters"]["graphblas_plan_route_total"]
        ) == 2

    def test_disable_stops_collection_keeps_totals(self):
        obs.enable()
        do_work()
        before = obs.snapshot()
        obs.disable()
        assert not obs.enabled()
        assert not telemetry.ENABLED
        do_work()
        after = obs.snapshot()
        # nothing new landed, nothing lost (gauges excluded: callback
        # gauges read live engine state and keep moving by design)
        assert after["counters"] == before["counters"]
        assert after["histograms"] == before["histograms"]

    def test_works_from_threads_without_collectors(self):
        import threading

        obs.enable()
        ts = [threading.Thread(target=do_work) for _ in range(4)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        snap = obs.snapshot()
        total = sum(
            s["value"] for s in snap["counters"]["graphblas_plan_route_total"]
        )
        assert total == 8  # 4 threads x (mxm + mxv)

    def test_engine_gauges_present(self):
        obs.enable()
        do_work()
        snap = obs.snapshot()
        kc = snap["gauges"]["graphblas_compiled_kernel_cache"]
        stats = {s["labels"]["stat"] for s in kc}
        assert {"hits", "misses", "size", "capacity"} <= stats


class TestCollectorStillWorks:
    def test_collector_and_sink_both_fed(self):
        obs.enable()
        with telemetry.collect() as col:
            do_work()
            snap = col.snapshot()
        assert snap["ops"]["mxm"]["calls"] == 1
        reg_snap = obs.snapshot()
        assert "graphblas_op_seconds" in reg_snap["histograms"]

    def test_collector_only_stream_unchanged_without_obs(self):
        # plan.done must not leak into collector-only telemetry
        with telemetry.collect() as col:
            do_work()
            kinds = set(col.snapshot()["decisions"])
        assert "plan.done" not in kinds


class TestDroppedEvents:
    def test_dropped_counter_reaches_registry(self):
        obs.enable()
        with telemetry.collect(max_events=2):
            do_work()  # overflows the 2-event ring buffer
        snap = obs.snapshot()
        dropped = snap["counters"].get("graphblas_telemetry_dropped_total")
        assert dropped is not None
        assert sum(s["value"] for s in dropped) > 0
        assert all("type" in s["labels"] for s in dropped)


class TestSlowOps:
    def test_slow_ops_recorded_with_explain_fields(self):
        obs.enable(slow_ms=0.0)  # admit every plan
        do_work()
        records = obs.slow_ops()
        assert records
        r = records[0]
        assert {"op", "backend", "route", "seconds"} <= set(r)
        # slowest-first ordering
        secs = [rec["seconds"] for rec in records]
        assert secs == sorted(secs, reverse=True)

    def test_threshold_filters(self):
        obs.enable(slow_ms=1e6)  # nothing is that slow
        do_work()
        assert obs.slow_ops() == []

    def test_threshold_roundtrip(self):
        obs.set_slow_op_threshold(250.0)
        assert obs.slow_op_threshold() == pytest.approx(250.0)


class TestCapi:
    def test_obs_set_get(self):
        assert capi.GxB_Obs_get()["enabled"] is False
        assert capi.GxB_Obs_set(True) == capi.GrB_SUCCESS
        assert capi.GxB_Obs_get()["enabled"] is True
        assert capi.GxB_Obs_set(False) == capi.GrB_SUCCESS
        assert capi.GxB_Obs_get()["enabled"] is False

    def test_metrics_get_formats(self):
        capi.GxB_Obs_set(True)
        do_work()
        snap = capi.GxB_Metrics_get("snapshot")
        assert "graphblas_plan_route_total" in snap["counters"]
        parsed = json.loads(capi.GxB_Metrics_get("json"))
        assert parsed["counters"].keys() == snap["counters"].keys()
        text = capi.GxB_Metrics_get("prometheus")
        assert obs.check_prometheus_text(text) == []
        with pytest.raises(Exception):
            capi.GxB_Metrics_get("xml")


class TestPrometheusRoundTrip:
    def test_text_totals_match_snapshot(self):
        obs.enable()
        do_work()
        text = obs.prometheus_text()
        assert obs.check_prometheus_text(text) == []
        snap = obs.snapshot()
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                body, value = line.rsplit(" ", 1)
                samples[body] = float(value) if value != "+Inf" else float("inf")
        for name, series in snap["counters"].items():
            for s in series:
                labels = ",".join(
                    f'{k}="{v}"' for k, v in sorted(s["labels"].items())
                )
                key = f"{name}{{{labels}}}" if labels else name
                assert samples[key] == s["value"]
