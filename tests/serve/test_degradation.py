"""Failure handling under load: load that degrades nothing, and a fault
that ends exactly its own query after one run and leaves nothing behind:
the next query on the same snapshot is answered exactly."""

import threading
import time

import pytest

from repro.graphblas import Matrix, backends, engine, faults
from repro.graphblas import operations as ops
from repro.graphblas.errors import BudgetExceeded, OutOfMemory
from repro.lagraph import bfs
from repro.serve import (
    ALGORITHMS,
    GraphServer,
    QueryFailed,
    register_algorithm,
)


class TestLoadChangesNothing:
    """Queue load is handled by shedding alone: an admitted query runs on
    the server's backend with the process's engine configuration."""

    def test_full_queue_flips_no_process_global(self, edges):
        n, src, dst = edges
        gate = threading.Event()
        seen = {}

        def probe(g):
            seen["engine"] = engine.get_config()
            seen["backend"] = backends.current_backend_name()
            seen["load"] = srv._queue.depth / srv.config.queue_depth
            return bfs(0, g)[0]

        register_algorithm("gate", lambda g: gate.wait(10))
        register_algorithm("probe", probe)
        srv = GraphServer(workers=1, deadline_s=None, queue_depth=10)
        try:
            srv.add_graph("g", n=n)
            srv.ingest("g", src, dst)
            srv.publish("g")
            before = engine.get_config()
            blocker = srv.submit("gate", graph="g")
            for _ in range(100):  # let the worker pick the blocker up
                if blocker.t_start is not None:
                    break
                time.sleep(0.01)
            # FIFO within a tenant: the probe runs right after the blocker,
            # while nine gated requests still stuff the queue (load 0.9)
            ticket = srv.submit("probe", graph="g")
            queued = [srv.submit("gate", graph="g") for _ in range(9)]
            gate.set()
            assert ticket.result(30).isequal(bfs(0, srv.snapshot("g"))[0])
            assert seen["load"] >= 0.85
            assert seen["engine"] == before == engine.get_config()
            assert seen["backend"] == srv.config.backend
            assert ticket.tier == "full"
            assert ticket.backend == srv.config.backend
            for t in [blocker, *queued]:
                t.result(30)
        finally:
            gate.set()
            srv.close()
            ALGORITHMS.pop("gate", None)
            ALGORITHMS.pop("probe", None)


class TestOneRunPerQuery:
    """A query runs once: a fault fails that ticket and nothing else."""

    @pytest.fixture
    def served(self, edges):
        n, src, dst = edges
        servers = []

        def make(**config):
            srv = GraphServer(workers=1, deadline_s=None, **config)
            srv.add_graph("g", n=n)
            srv.ingest("g", src, dst)
            srv.publish("g")
            servers.append(srv)
            return srv

        yield make
        for srv in servers:
            srv.close()

    @pytest.mark.parametrize("point", ["serve.exec", "mxv.push"])
    def test_fault_fails_its_ticket_after_one_run(self, served, point):
        srv = served()
        snap = srv.snapshot("g")
        before = snap.A.dup()
        expected = bfs(0, snap)[0]
        with faults.inject(point, OutOfMemory, probability=1.0,
                           max_fires=None):
            t = srv.submit("bfs", graph="g", source=0)
            with pytest.raises(QueryFailed) as err:
                t.result(30)
            assert faults.call_count(point) == 1  # one run, not replayed
        assert isinstance(err.value.__cause__, OutOfMemory)
        assert t.outcome == "failed" and t.backend is None
        assert t.retries == 0
        # the pinned snapshot is untouched; the next query on it is exact
        assert srv.snapshot("g") is snap and snap.A.isequal(before)
        nxt = srv.submit("bfs", graph="g", source=0)
        assert nxt.result(30).isequal(expected)
        assert srv.stats()["outcomes"] == {"failed": 1, "ok": 1}

    def test_budget_refusals_are_the_callers_not_the_backends(self, served):
        """An over-budget op is refused once per query, with no re-run,
        so one tenant's refusals leave the server healthy for everyone
        else."""
        entered = []

        def one_ewise_add(g):
            entered.append(1)
            C = Matrix(g.A.dtype, g.A.nrows, g.A.ncols)
            ops.ewise_add(C, g.A, g.A, "PLUS")
            return C

        register_algorithm("one_ewise_add", one_ewise_add)
        try:
            srv = served()
            srv.register_tenant("tight", memory_budget=1024)
            for _ in range(6):
                entered.clear()
                t = srv.submit("one_ewise_add", graph="g", tenant="tight")
                with pytest.raises(BudgetExceeded):
                    t.result(30)
                assert t.outcome == "budget"
                assert len(entered) == 1
            assert srv.stats()["outcomes"] == {"budget": 6}
            expected = bfs(0, srv.snapshot("g"))[0]
            t = srv.submit("bfs", graph="g", source=0)
            assert t.result(30).isequal(expected)
            assert t.tier == "full"
            assert srv.health()["status"] == "running"
        finally:
            ALGORITHMS.pop("one_ewise_add", None)

    def test_next_query_is_served_once_the_fault_lifts(self, served):
        """Nothing outlives a failed query: with the fault gone, the very
        next query runs on the server's backend and is exact."""
        srv = served()
        expected = bfs(0, srv.snapshot("g"))[0]
        with faults.inject("mxv.push", OutOfMemory, probability=1.0,
                           max_fires=None):
            for _ in range(4):
                t = srv.submit("bfs", graph="g", source=0)
                with pytest.raises(QueryFailed):
                    t.result(30)
        t = srv.submit("bfs", graph="g", source=0)
        assert t.result(30).isequal(expected)
        assert t.backend == srv.config.backend and t.tier == "full"
        assert srv.health()["status"] == "running"
        assert srv.stats()["outcomes"] == {"failed": 4, "ok": 1}
