"""GraphServer end-to-end: the full query surface, lifecycle, tenancy,
deadlines, cancellation, health, configuration, and serve metrics."""

import time

import pytest

from repro import obs
from repro.graphblas import capi
from repro.graphblas.errors import Cancelled, DeadlineExceeded, InvalidValue
from repro.lagraph import Graph, bfs, connected_components, pagerank, sssp, \
    triangle_count
from repro.serve import (
    ALGORITHMS,
    GraphServer,
    Overloaded,
    ServeConfig,
    ServerClosed,
    TenantPolicy,
    register_algorithm,
)
from repro.serve.config import serve_config
from repro.stream import GraphStream


def counter_total(name: str) -> float:
    merged = obs.registry().merged()
    return sum(v for (n, _), v in merged["counters"].items() if n == name)


@pytest.fixture
def server(edges):
    n, src, dst = edges
    with GraphServer(workers=2, deadline_s=None) as srv:
        srv.add_graph("g", n=n)
        srv.ingest("g", src, dst)
        srv.publish("g")
        yield srv


class TestQuerySurface:
    def test_every_algorithm_matches_a_direct_call(self, server):
        snap = server.snapshot("g")
        assert server.query("bfs", graph="g", source=0).isequal(
            bfs(0, snap)[0]
        )
        assert server.query("sssp", graph="g", source=0).isequal(
            sssp(0, snap)
        )
        assert server.query("pagerank", graph="g").isequal(
            pagerank(snap)[0]
        )
        assert server.query("triangles", graph="g") == triangle_count(snap)
        assert server.query("components", graph="g").isequal(
            connected_components(snap)
        )

    def test_async_tickets_resolve(self, server):
        tickets = [server.submit("bfs", graph="g", source=i)
                   for i in range(6)]
        for t in tickets:
            assert t.result(timeout=30) is not None
            assert t.outcome == "ok"
            assert t.backend == "optimized"
            assert t.tier == "full"
            assert t.exec_s is not None and t.queue_wait_s is not None

    def test_unknown_algorithm_rejected_at_submit(self, server):
        with pytest.raises(InvalidValue, match="unknown algorithm"):
            server.submit("nope", graph="g")

    def test_unknown_graph_rejected_at_submit(self, server):
        with pytest.raises(InvalidValue, match="unknown graph"):
            server.submit("bfs", graph="nope", source=0)

    def test_registered_algorithm_is_served(self, server):
        register_algorithm("nvals", lambda g: int(g.A.nvals))
        try:
            assert server.query("nvals", graph="g") == \
                int(server.snapshot("g").A.nvals)
            with pytest.raises(InvalidValue, match="already registered"):
                register_algorithm("nvals", lambda g: 0)
        finally:
            ALGORITHMS.pop("nvals", None)


class TestGraphManagement:
    def test_publish_returns_monotone_epochs(self, edges):
        n, src, dst = edges
        with GraphServer(workers=1, deadline_s=None) as srv:
            srv.add_graph("g", n=n)
            srv.ingest("g", src[:100], dst[:100])
            e1 = srv.publish("g")
            srv.ingest("g", src[100:], dst[100:])
            e2 = srv.publish("g")
            assert e2 > e1
            assert srv.snapshot("g").published_epoch == e2

    def test_static_graph_served_without_ingest(self, edges):
        n, src, dst = edges
        g = Graph.from_edges(src, dst, n=n)
        with GraphServer(workers=1, deadline_s=None) as srv:
            srv.add_graph("static", graph=g)
            assert srv.query("triangles", graph="static") == triangle_count(g)
            with pytest.raises(InvalidValue, match="static"):
                srv.ingest("static", src, dst)
            # publishing a static graph is a no-op returning its epoch
            assert srv.publish("static") == srv.snapshot(
                "static"
            ).published_epoch

    def test_add_graph_arg_validation(self):
        with GraphServer(workers=1, start=False) as srv:
            with pytest.raises(InvalidValue, match="exactly one"):
                srv.add_graph("g")
            with pytest.raises(InvalidValue, match="exactly one"):
                srv.add_graph("g", n=4, stream=GraphStream(4))
            srv.add_graph("g", n=4)
            with pytest.raises(InvalidValue, match="already served"):
                srv.add_graph("g", n=4)

    def test_query_before_publish_rejected(self, edges):
        n, src, dst = edges
        with GraphServer(workers=1, deadline_s=None) as srv:
            srv.add_graph("g", n=n)
            srv.ingest("g", src, dst)
            with pytest.raises(InvalidValue, match="no published snapshot"):
                srv.submit("bfs", graph="g", source=0)


class TestDeadlinesAndCancellation:
    @pytest.fixture(autouse=True)
    def sleeper(self):
        register_algorithm("sleep", lambda g, secs=0.2: time.sleep(secs))
        yield
        ALGORITHMS.pop("sleep", None)

    def test_deadline_passed_in_queue(self, edges):
        n, src, dst = edges
        with GraphServer(workers=1, deadline_s=None) as srv:
            srv.add_graph("g", n=n)
            srv.ingest("g", src, dst)
            srv.publish("g")
            srv.register_tenant("rush", deadline_s=0.05)
            blocker = srv.submit("sleep", graph="g", secs=0.3)
            late = srv.submit("bfs", graph="g", source=0, tenant="rush")
            with pytest.raises(DeadlineExceeded):
                late.result(timeout=10)
            assert late.outcome == "deadline"
            blocker.result(timeout=10)

    def test_cancel_while_queued(self, edges):
        n, src, dst = edges
        with GraphServer(workers=1, deadline_s=None) as srv:
            srv.add_graph("g", n=n)
            srv.ingest("g", src, dst)
            srv.publish("g")
            blocker = srv.submit("sleep", graph="g", secs=0.3)
            victim = srv.submit("bfs", graph="g", source=0)
            victim.cancel("changed my mind")
            with pytest.raises(Cancelled, match="changed my mind"):
                victim.result(timeout=10)
            assert victim.outcome == "cancelled"
            blocker.result(timeout=10)


class TestLifecycle:
    def test_drain_finishes_queued_work(self, server):
        tickets = [server.submit("bfs", graph="g", source=i)
                   for i in range(4)]
        assert server.drain(timeout=30)
        assert all(t.outcome == "ok" for t in tickets)
        with pytest.raises(ServerClosed):
            server.submit("bfs", graph="g", source=0)

    def test_close_then_submit_raises(self, edges):
        n, src, dst = edges
        srv = GraphServer(workers=1, deadline_s=None)
        srv.add_graph("g", n=n)
        srv.ingest("g", src, dst)
        srv.publish("g")
        srv.close()
        with pytest.raises(ServerClosed):
            srv.submit("bfs", graph="g", source=0)
        srv.close()  # idempotent

    def test_ready_requires_a_published_graph(self, edges):
        n, src, dst = edges
        with GraphServer(workers=1, deadline_s=None) as srv:
            assert not srv.ready()
            srv.add_graph("g", n=n)
            srv.ingest("g", src, dst)
            assert not srv.ready()
            srv.publish("g")
            assert srv.ready()

    def test_health_report_shape(self, server):
        server.query("bfs", graph="g", source=0)
        h = server.health()
        assert h["status"] == "running"
        assert h["ready"] is True
        assert h["workers"] == 2
        assert h["requests"].get("ok", 0) >= 1
        assert h["graphs"]["g"]["published_epoch"] is not None


class TestTenancy:
    def test_policies_inherit_server_defaults(self, server):
        server.register_tenant("vip", TenantPolicy(memory_budget=1 << 30))
        assert server.policy_for("vip").memory_budget == 1 << 30
        assert server.policy_for("unknown") == TenantPolicy()

    def test_hard_tenant_cap_sheds(self, edges):
        n, src, dst = edges
        srv = GraphServer(workers=1, deadline_s=None, start=False)
        srv.add_graph("g", n=n)
        srv.ingest("g", src, dst)
        srv.publish("g")
        srv.start()
        register_algorithm("block", lambda g: time.sleep(0.2))
        try:
            srv.register_tenant("capped", max_queue=1)
            shed = None
            for _ in range(6):  # cap is on *queued* work; one may be running
                try:
                    srv.submit("block", graph="g", tenant="capped")
                except Overloaded as exc:
                    shed = exc
                    break
            assert shed is not None
            assert shed.reason == "tenant_limit"
        finally:
            ALGORITHMS.pop("block", None)
            srv.close()


class TestConfiguration:
    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_SERVE_WORKERS", "7")
        monkeypatch.setenv("GRAPHBLAS_SERVE_QUEUE_DEPTH", "33")
        monkeypatch.setenv("GRAPHBLAS_SERVE_DEADLINE_S", "0")
        monkeypatch.setenv("GRAPHBLAS_SERVE_BUDGET", "64m")
        cfg = serve_config()
        assert cfg.workers == 7
        assert cfg.queue_depth == 33
        assert cfg.deadline_s is None  # 0 disables
        assert cfg.memory_budget == 64 * 1024 * 1024

    def test_malformed_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_SERVE_WORKERS", "banana")
        assert serve_config().workers == ServeConfig().workers

    def test_gxb_serve_set_get_roundtrip(self):
        assert capi.GxB_Serve_set(
            workers=2, queue_depth=9, backend="reference"
        ) == capi.GrB_SUCCESS
        cfg = capi.GxB_Serve_get()
        assert cfg["workers"] == 2
        assert cfg["queue_depth"] == 9
        assert cfg["backend"] == "reference"
        srv = GraphServer(start=False)
        assert srv.config.workers == 2
        assert srv.config.backend == "reference"

    def test_gxb_serve_set_rejects_bad_values(self):
        assert capi.GxB_Serve_set(queue_depth=0) == capi.Info.INVALID_VALUE
        assert capi.GxB_Serve_set(bogus=1) == capi.Info.INVALID_VALUE
        # a failed set never leaves a partial override behind
        assert capi.GxB_Serve_get()["queue_depth"] == \
            ServeConfig().queue_depth

    def test_constructor_overrides_win(self):
        srv = GraphServer(workers=3, queue_depth=5, start=False)
        assert srv.config.workers == 3
        assert srv.config.queue_depth == 5


class TestServeMetrics:
    def test_request_counters_and_histograms_land(self, server):
        before = counter_total("serve_requests_total")
        server.query("bfs", graph="g", source=0)
        server.query("triangles", graph="g")
        assert counter_total("serve_requests_total") == before + 2
        merged = obs.registry().merged()
        hist = [k for k in merged["histograms"]
                if k[0] == "serve_request_seconds"]
        assert hist, "latency histogram missing"

    def test_queue_gauges_registered(self, server):
        # callback gauges are evaluated at scrape time via the merged view
        merged = obs.registry().merged()
        gauges = merged["gauges"]
        mine = {k for k in gauges
                if ("server", server.name) in k[1]}
        names = {k[0] for k in mine}
        assert "serve_queue_depth" in names
        assert "serve_inflight" in names

    def test_callback_gauges_released_on_close(self, edges):
        srv = GraphServer(workers=1, deadline_s=None, name="ephemeral")
        depth_key = ("serve_queue_depth", (("server", "ephemeral"),))
        assert depth_key in obs.registry().merged()["gauges"]
        srv.close()
        assert depth_key not in obs.registry().merged()["gauges"]
