"""Algorithm spans, Chrome trace export, and the ISSUE-2 acceptance run."""

import json

import numpy as np
import pytest

from repro.generators import rmat_graph
from repro.graphblas import telemetry
from repro.graphblas.telemetry import chrome_trace_events
from repro.lagraph import (
    bfs_level,
    betweenness_centrality,
    connected_components,
    pagerank,
    sssp,
    triangle_count,
)


@pytest.fixture(scope="module")
def small_graph():
    return rmat_graph(7, 6, seed=11, kind="undirected")


class TestAlgorithmSpans:
    def test_bfs_span_and_levels(self, small_graph):
        with telemetry.collect() as col:
            bfs_level(0, small_graph)
        snap = col.snapshot()
        assert snap["spans"]["bfs"]["count"] == 1
        levels = [e for e in col.events if e["name"] == "bfs.level"]
        assert len(levels) >= 2
        assert levels[0]["args"]["level"] == 0
        assert levels[0]["args"]["frontier_nvals"] == 1
        # frontier sizes are positive and densities consistent
        for ev in levels:
            assert ev["args"]["frontier_nvals"] > 0
            assert ev["args"]["frontier_density"] == pytest.approx(
                ev["args"]["frontier_nvals"] / small_graph.n
            )

    def test_sssp_bellman_ford_span(self, small_graph):
        with telemetry.collect() as col:
            sssp(0, small_graph, method="bellman-ford")
        snap = col.snapshot()
        assert snap["spans"]["sssp.bellman_ford"]["count"] == 1
        iters = [e for e in col.events if e["name"] == "sssp.iteration"]
        assert iters and iters[0]["args"]["iteration"] == 0

    def test_sssp_delta_stepping_span(self, small_graph):
        with telemetry.collect() as col:
            sssp(0, small_graph, method="delta")
        snap = col.snapshot()
        assert snap["spans"]["sssp.delta_stepping"]["count"] == 1
        buckets = [e for e in col.events if e["name"] == "sssp.bucket"]
        assert buckets
        assert buckets[0]["args"]["bucket"] == 0
        assert buckets[0]["args"]["candidates"] > 0

    def test_triangles_span_records_method(self, small_graph):
        with telemetry.collect() as col:
            triangle_count(small_graph, method="sandia_ll")
        spans = [e for e in col.events if e["type"] == "span"]
        tri = [e for e in spans if e["name"] == "triangles"][0]
        assert tri["args"]["method"] == "sandia_ll"

    def test_components_span_and_rounds(self, small_graph):
        with telemetry.collect() as col:
            connected_components(small_graph)
        snap = col.snapshot()
        assert snap["spans"]["components.fastsv"]["count"] == 1
        rounds = [e for e in col.events if e["name"] == "components.round"]
        assert rounds
        assert rounds[-1]["args"]["changed"] is False  # converged

    def test_pagerank_span_and_residuals(self, small_graph):
        with telemetry.collect() as col:
            _, iters = pagerank(small_graph, max_iters=50)
        snap = col.snapshot()
        assert snap["spans"]["pagerank"]["count"] == 1
        recs = [e for e in col.events if e["name"] == "pagerank.iteration"]
        assert len(recs) == iters
        residuals = [e["args"]["residual"] for e in recs]
        assert residuals[-1] < residuals[0]  # converging

    def test_betweenness_spans(self, small_graph):
        with telemetry.collect() as col:
            betweenness_centrality(small_graph, sources=[0, 1, 2])
        snap = col.snapshot()
        assert snap["spans"]["betweenness.forward"]["count"] == 1
        assert snap["spans"]["betweenness.backward"]["count"] == 1
        levels = [e for e in col.events if e["name"] == "betweenness.level"]
        assert levels


class TestChromeTrace:
    def test_event_conversion(self):
        events = [
            {"type": "op", "name": "mxv", "ts": 1.0, "dur": 5.0, "args": {"out_nvals": 3}},
            {"type": "decision", "name": "mxv.direction", "ts": 2.0, "args": {"direction": "push"}},
            {"type": "span", "name": "bfs", "ts": 0.0, "dur": 10.0, "args": {}},
            {"type": "instant", "name": "bfs.level", "ts": 3.0, "args": {"level": 1}},
        ]
        out = chrome_trace_events(events, tid=7)
        assert out[0]["ph"] == "M"  # process_name metadata
        by_name = {e["name"]: e for e in out[1:]}
        assert by_name["mxv"]["ph"] == "X"
        assert by_name["mxv"]["dur"] == 5.0
        assert by_name["mxv"]["args"] == {"out_nvals": 3}
        assert by_name["bfs"]["ph"] == "X"
        assert by_name["mxv.direction"]["ph"] == "i"
        assert by_name["mxv.direction"]["s"] == "t"
        assert by_name["bfs.level"]["ph"] == "i"
        assert all(e["tid"] == 7 for e in out)

    def test_collector_chrome_trace_shape(self, small_graph):
        with telemetry.collect() as col:
            bfs_level(0, small_graph)
        trace = col.chrome_trace()
        assert set(trace) >= {"traceEvents", "displayTimeUnit"}
        assert trace["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert "X" in phases and "i" in phases

    def test_write_chrome_trace_is_loadable_json(self, small_graph, tmp_path):
        path = tmp_path / "trace.json"
        with telemetry.collect() as col:
            bfs_level(0, small_graph)
            col.write_chrome_trace(path)
        with open(path, "r", encoding="utf-8") as f:
            trace = json.load(f)
        events = trace["traceEvents"]
        assert len(events) > 1
        # chrome://tracing requirements: every event has name/ph/pid/tid/ts
        for ev in events:
            assert {"name", "ph", "pid", "tid", "ts"} <= set(ev)
            assert isinstance(ev["ts"], (int, float))
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_export_trace_script_converts_snapshot(self, small_graph, tmp_path):
        import subprocess
        import sys

        snap_path = tmp_path / "snap.json"
        out_path = tmp_path / "trace.json"
        with telemetry.collect() as col:
            bfs_level(0, small_graph)
            with open(snap_path, "w") as f:
                json.dump(col.snapshot(include_events=True), f)
        proc = subprocess.run(
            [sys.executable, "scripts/export_trace.py", str(snap_path), "-o", str(out_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        with open(out_path) as f:
            trace = json.load(f)
        assert trace["traceEvents"]

    def test_export_trace_script_rejects_eventless_snapshot(self, tmp_path):
        import subprocess
        import sys

        snap_path = tmp_path / "snap.json"
        with open(snap_path, "w") as f:
            json.dump({"ops": {}}, f)
        proc = subprocess.run(
            [sys.executable, "scripts/export_trace.py", str(snap_path), "-o", "/dev/null"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "events" in proc.stderr


class TestAcceptanceRMAT16:
    """The ISSUE-2 acceptance scenario: BFS on an RMAT-16 graph."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        import io as _io

        graph = rmat_graph(16, 8, seed=42, kind="directed")
        burble = _io.StringIO()
        trace_path = tmp_path_factory.mktemp("trace") / "bfs.json"
        with telemetry.collect(burble=True, stream=burble) as col:
            levels = bfs_level(0, graph)
            snap = col.snapshot()
            col.write_chrome_trace(trace_path)
        return graph, levels, snap, burble.getvalue(), trace_path, col

    def test_burble_shows_per_level_direction_and_sparsity(self, run):
        _, _, _, burble, _, _ = run
        assert "[bfs] begin" in burble
        direction_lines = [
            ln for ln in burble.splitlines() if "[mxv]" in ln
        ]
        assert len(direction_lines) >= 2
        for ln in direction_lines:
            assert "method=push" in ln or "method=pull" in ln
            assert "density=" in ln
            assert "threshold=" in ln
        # an RMAT-16 BFS from a high-degree-ish source switches direction
        dirs = {"push" if "method=push" in ln else "pull"
                for ln in direction_lines}
        assert dirs == {"push", "pull"}

    def test_snapshot_has_nonzero_mxv_counters_and_flops(self, run):
        _, levels, snap, _, _, col = run
        mxv = snap["ops"]["mxv"]
        assert mxv["calls"] >= 2
        assert mxv["seconds"] > 0
        assert mxv["flops"] > 0
        # every mxv call's record names the direction it ran
        directed = [e for e in col.events if e["type"] == "op"
                    and e["name"] == "mxv"
                    and e["args"]["method"] in ("push", "pull")]
        assert len(directed) == mxv["calls"]
        assert levels.nvals > 0

    def test_per_level_records_match_bfs_depth(self, run):
        graph, levels, snap, _, _, col = run
        _, vals = levels.extract_tuples()
        depth = int(vals.max())
        level_events = [e for e in col.events if e["name"] == "bfs.level"]
        assert len(level_events) == depth + 1
        assert [e["args"]["level"] for e in level_events] == list(range(depth + 1))

    def test_chrome_trace_loads(self, run):
        _, _, _, _, trace_path, _ = run
        with open(trace_path, "r", encoding="utf-8") as f:
            trace = json.load(f)
        events = trace["traceEvents"]
        assert any(e.get("cat") == "span" and e["name"] == "bfs" for e in events)
        mxv = [e for e in events if e["name"] == "mxv" and e["ph"] == "X"]
        assert mxv
        assert {e["args"]["method"] for e in mxv} == {"push", "pull"}
