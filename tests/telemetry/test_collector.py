"""Collector unit tests: counters, events, burble, lifecycle, thread-locality."""

import io
import threading

import pytest

from repro.graphblas import Matrix, telemetry
from repro.graphblas import operations as ops
from repro.graphblas.telemetry import Collector, OpStats


class TestOpStats:
    def test_initial_zero(self):
        st = OpStats()
        assert st.as_dict() == {
            "calls": 0,
            "seconds": 0.0,
            "out_nvals": 0,
            "flops": 0,
            "bytes_moved": 0,
        }

    def test_as_dict_round_trips_fields(self):
        st = OpStats()
        st.calls = 3
        st.flops = 17
        assert st.as_dict()["calls"] == 3
        assert st.as_dict()["flops"] == 17


class TestRecording:
    def test_record_op_accumulates(self):
        col = Collector()
        col.record_op("mxv", 0.5, 10)
        col.record_op("mxv", 0.25, 5)
        st = col.ops["mxv"]
        assert st.calls == 2
        assert st.seconds == pytest.approx(0.75)
        assert st.out_nvals == 15

    def test_record_op_without_nvals(self):
        col = Collector()
        col.record_op("reduce", 0.1)
        assert col.ops["reduce"].out_nvals == 0
        assert col.events[-1]["args"] == {}

    def test_tally_adds_fields(self):
        col = Collector()
        col.tally("mxm", flops=100)
        col.tally("mxm", flops=50, bytes_moved=8)
        st = col.ops["mxm"]
        assert st.flops == 150
        assert st.bytes_moved == 8
        assert st.calls == 0  # tally does not count a call

    def test_tally_unknown_field_raises(self):
        col = Collector()
        with pytest.raises(AttributeError):
            col.tally("mxm", not_a_metric=1)

    def test_decision_event(self):
        col = Collector()
        col.decision("mxv.direction", direction="push", density=0.01)
        ev = col.events[-1]
        assert ev["type"] == "decision"
        assert ev["name"] == "mxv.direction"
        assert ev["args"]["direction"] == "push"

    def test_instant_event(self):
        col = Collector()
        col.instant("bfs.level", level=3, frontier_nvals=12)
        ev = col.events[-1]
        assert ev["type"] == "instant"
        assert ev["args"] == {"level": 3, "frontier_nvals": 12}

    def test_span_records_duration(self):
        col = Collector()
        col.begin_span("bfs", source=0)
        col.end_span()
        ev = col.events[-1]
        assert ev["type"] == "span"
        assert ev["name"] == "bfs"
        assert ev["dur"] >= 0
        assert ev["args"] == {"source": 0}

    def test_end_span_without_begin_is_noop(self):
        col = Collector()
        col.end_span()
        assert col.events == []

    def test_nested_spans_unwind_in_order(self):
        col = Collector()
        col.begin_span("outer")
        col.begin_span("inner")
        col.end_span()
        col.end_span()
        names = [ev["name"] for ev in col.events if ev["type"] == "span"]
        assert names == ["inner", "outer"]  # inner ends first


class TestEventCap:
    def test_max_events_bounds_memory(self):
        col = Collector(max_events=5)
        for i in range(10):
            col.instant("tick", i=i)
        assert len(col.events) == 5
        assert col.dropped == 5
        snap = col.snapshot()
        assert snap["events_dropped"] == 5
        assert snap["events_dropped_by_type"] == {"instant": 5}

    def test_reset_clears_everything(self):
        col = Collector(max_events=2)
        col.record_op("mxv", 0.1, 1)
        col.instant("x")
        col.instant("y")  # dropped
        col.begin_span("pending")
        col.reset()
        assert col.ops == {}
        assert col.events == []
        assert col.dropped == 0
        col.end_span()  # the pending span was discarded
        assert col.events == []


class TestSnapshot:
    def test_snapshot_shape(self):
        col = Collector()
        col.record_op("mxv", 0.1, 4)
        col.decision("spgemm.method", method="dot")
        col.begin_span("bfs")
        col.end_span()
        snap = col.snapshot()
        assert set(snap) == {
            "ops",
            "decisions",
            "spans",
            "events_total",
            "events_dropped",
            "events_dropped_by_type",
            "elapsed_seconds",
            "tid",
        }
        assert snap["ops"]["mxv"]["calls"] == 1
        assert snap["decisions"] == {"spgemm.method": 1}
        assert snap["spans"]["bfs"]["count"] == 1
        assert snap["events_total"] == 3

    def test_snapshot_include_events(self):
        col = Collector()
        col.instant("tick")
        snap = col.snapshot(include_events=True)
        assert len(snap["events"]) == 1
        snap2 = col.snapshot()
        assert "events" not in snap2

    def test_snapshot_is_json_serializable(self):
        import json

        col = Collector()
        col.record_op("mxm", 0.2, 9)
        col.decision("format", format="hypercsr")
        json.dumps(col.snapshot(include_events=True))


class TestBurble:
    def test_burble_writes_to_stream(self):
        buf = io.StringIO()
        col = Collector(burble=True, stream=buf)
        col.record_op("mxv", 0.001, 7)
        out = buf.getvalue()
        assert out.startswith("burble: ")
        assert "[mxv]" in out
        assert "nvals 7" in out

    def test_burble_decision_format(self):
        buf = io.StringIO()
        col = Collector(burble=True, stream=buf)
        col.decision("mxv.direction", direction="pull", density=0.25)
        line = buf.getvalue()
        assert "[mxv.direction]" in line
        assert "direction=pull" in line
        assert "density=0.25" in line

    def test_burble_span_lines(self):
        buf = io.StringIO()
        col = Collector(burble=True, stream=buf)
        col.begin_span("bfs", source=3)
        col.end_span()
        text = buf.getvalue()
        assert "[bfs] begin source=3" in text
        assert "[bfs] end (" in text

    def test_burble_off_by_default(self):
        buf = io.StringIO()
        col = Collector(stream=buf)
        col.record_op("mxv", 0.001, 1)
        assert buf.getvalue() == ""


class TestLifecycle:
    def test_enable_disable_flag(self):
        assert not telemetry.ENABLED
        col = telemetry.enable()
        assert telemetry.ENABLED
        assert telemetry.active() is col
        got = telemetry.disable()
        assert got is col
        assert not telemetry.ENABLED
        assert telemetry.active() is None

    def test_enable_is_idempotent(self):
        a = telemetry.enable()
        b = telemetry.enable(burble=True)
        assert a is b
        assert a.burble  # settings updated in place
        telemetry.disable()
        assert not telemetry.ENABLED  # one disable balances both enables

    def test_nested_collect_restores_outer_settings(self):
        outer_buf, inner_buf = io.StringIO(), io.StringIO()
        with telemetry.collect(burble=True, stream=outer_buf) as outer:
            with telemetry.collect(stream=inner_buf) as inner:
                assert telemetry.active() is inner is not outer
                assert not inner.burble and inner.stream is inner_buf
                telemetry.record_op("mxm", 0.001, 1)  # burbled by nobody
            assert telemetry.active() is outer
            assert outer.burble and outer.stream is outer_buf
            telemetry.record_op("mxv", 0.001, 1)
        assert "[mxv]" in outer_buf.getvalue()
        assert "[mxm]" not in outer_buf.getvalue()
        assert inner_buf.getvalue() == ""

    def test_disable_without_enable_returns_none(self):
        assert telemetry.disable() is None

    def test_collect_context_detaches(self):
        with telemetry.collect() as col:
            assert telemetry.ENABLED
            assert telemetry.active() is col
        assert not telemetry.ENABLED
        assert telemetry.active() is None

    def test_collect_readable_after_exit(self):
        with telemetry.collect() as col:
            telemetry.record_op("mxv", 0.1, 2)
        snap = col.snapshot()
        assert snap["ops"]["mxv"]["calls"] == 1

    def test_nested_collect_feeds_outer(self):
        with telemetry.collect() as outer:
            telemetry.record_op("mxv", 0.001, 1)
            with telemetry.collect() as inner:
                telemetry.record_op("mxm", 0.002, 3)
                telemetry.tally("mxm", flops=7)
            assert telemetry.ENABLED  # outer still attached
        assert not telemetry.ENABLED
        assert [e["name"] for e in inner.events] == ["mxm"]
        assert [e["name"] for e in outer.events] == ["mxv", "mxm"]
        assert inner.t0 == outer.t0  # one clock for both logs
        for col in (inner, outer):
            st = col.snapshot()["ops"]["mxm"]
            assert (st["calls"], st["out_nvals"], st["flops"]) == (1, 3, 7)
        assert "mxv" not in inner.ops

    def test_nested_collect_keeps_its_own_bound(self):
        """A nested block keeps at most its own ``max_events`` and counts
        the rest in its own ``dropped``; the outer log gets every event
        up to the outer bound."""
        A = Matrix.from_coo([0, 1], [1, 0], [1.0, 2.0], nrows=2, ncols=2)

        def three():
            for _ in range(3):
                ops.mxm(Matrix("FP64", 2, 2), A, A, "PLUS_TIMES")

        three()  # warm the kernel cache: one op record per call
        with telemetry.collect() as outer:
            with telemetry.collect(max_events=2) as inner:
                three()
        with telemetry.collect(max_events=4) as small_outer:
            with telemetry.collect(max_events=2) as inner2:
                three()
                three()
        assert (len(inner.events), inner.dropped) == (2, 1)
        assert inner.snapshot()["events_dropped_by_type"] == {"op": 1}
        assert (len(outer.events), outer.dropped) == (3, 0)
        assert (len(inner2.events), inner2.dropped) == (2, 4)
        assert (len(small_outer.events), small_outer.dropped) == (4, 2)
        assert outer.ops["mxm"].calls == inner.ops["mxm"].calls == 3

    def test_module_recorders_are_noops_when_off(self):
        telemetry.record_op("mxv", 0.1, 1)
        telemetry.tally("mxv", flops=5)
        telemetry.decision("anything", x=1)
        telemetry.instant("tick")
        telemetry.reset()
        assert telemetry.snapshot() == {}

    def test_module_span_noop_when_off(self):
        with telemetry.span("bfs", source=0):
            pass  # must not raise, must not attach anything
        assert telemetry.active() is None

    def test_module_span_records_when_on(self):
        with telemetry.collect() as col:
            with telemetry.span("bfs", source=1):
                telemetry.instant("bfs.level", level=0)
        snap = col.snapshot()
        assert snap["spans"]["bfs"]["count"] == 1

    def test_module_reset(self):
        with telemetry.collect() as col:
            telemetry.record_op("mxv", 0.1, 1)
            telemetry.reset()
            assert col.ops == {}


class TestThreadLocality:
    def test_other_thread_does_not_see_collector(self):
        seen = {}

        def probe():
            seen["active"] = telemetry.active()
            seen["enabled"] = telemetry.ENABLED

        with telemetry.collect():
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen["active"] is None  # collector is thread-local
        assert seen["enabled"] is True  # fast-path flag is process-wide

    def test_two_threads_collect_independently(self):
        results = {}

        def work(key):
            with telemetry.collect() as col:
                telemetry.record_op(key, 0.01, 1)
                results[key] = col.snapshot()

        threads = [threading.Thread(target=work, args=(k,)) for k in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert list(results["a"]["ops"]) == ["a"]
        assert list(results["b"]["ops"]) == ["b"]
        assert not telemetry.ENABLED
