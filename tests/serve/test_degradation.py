"""Failure handling under load: load that degrades nothing, one retry
owner per failure, and a persistent kernel fault that ends the query
after its attempts and leaves nothing behind once it lifts."""

import threading
import time

import pytest

from repro import obs
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


def counter_total(name: str, **labels) -> float:
    want = tuple(sorted((k, str(v)) for k, v in labels.items()))
    merged = obs.registry().merged()
    return sum(
        v for (n, ls), v in merged["counters"].items()
        if n == name and all(pair in ls for pair in want)
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


class TestServeRetries:
    def test_fault_injected_failures_are_retried(self, edges):
        n, src, dst = edges
        with GraphServer(workers=1, deadline_s=None,
                         base_delay_s=0.0, max_delay_s=0.0) as srv:
            srv.add_graph("g", n=n)
            srv.ingest("g", src, dst)
            srv.publish("g")
            expected = bfs(0, srv.snapshot("g"))[0]
            before = counter_total("serve_retries_total")
            with faults.inject("serve.exec", nth=1, max_fires=2):
                t = srv.submit("bfs", graph="g", source=0)
                assert t.result(30).isequal(expected)
            assert t.retries >= 1
            assert t.outcome == "ok"
            assert counter_total("serve_retries_total") > before

    def test_budget_refusals_are_the_callers_not_the_backends(self, edges):
        """An over-budget op is refused once per query, with no re-run,
        so one tenant's refusals leave the server healthy for everyone
        else."""
        n, src, dst = edges
        entered = []

        def one_ewise_add(g):
            entered.append(1)
            C = Matrix(g.A.dtype, g.A.nrows, g.A.ncols)
            ops.ewise_add(C, g.A, g.A, "PLUS")
            return C

        register_algorithm("one_ewise_add", one_ewise_add)
        try:
            with GraphServer(workers=1, deadline_s=None,
                             base_delay_s=0.0, max_delay_s=0.0) as srv:
                srv.add_graph("g", n=n)
                srv.ingest("g", src, dst)
                srv.publish("g")
                srv.register_tenant("tight", memory_budget=1024)
                for _ in range(6):
                    entered.clear()
                    t = srv.submit("one_ewise_add", graph="g", tenant="tight")
                    with pytest.raises(BudgetExceeded):
                        t.result(30)
                    assert t.outcome == "budget"
                    assert len(entered) == 1
                    assert t.retries == 0
                assert srv.stats()["outcomes"] == {"budget": 6}
                expected = bfs(0, srv.snapshot("g"))[0]
                t = srv.submit("bfs", graph="g", source=0)
                assert t.result(30).isequal(expected)
                assert t.tier == "full"
                assert srv.health()["status"] == "running"
        finally:
            ALGORITHMS.pop("one_ewise_add", None)

    @pytest.fixture
    def served(self, edges):
        n, src, dst = edges
        servers = []

        def make(**config):
            srv = GraphServer(workers=1, deadline_s=None, base_delay_s=0.0,
                              max_delay_s=0.0, **config)
            srv.add_graph("g", n=n)
            srv.ingest("g", src, dst)
            srv.publish("g")
            servers.append(srv)
            return srv

        yield make
        for srv in servers:
            srv.close()

    def test_persistent_kernel_fault_costs_attempts_not_the_product(
            self, served):
        srv = served()
        attempts = srv.config.attempts
        before = counter_total("serve_retries_total")
        with faults.inject("mxv.push", OutOfMemory, probability=1.0,
                           max_fires=None):
            t = srv.submit("bfs", graph="g", source=0)
            with pytest.raises(QueryFailed):
                t.result(30)
            # dispatch owned the failure and exhausted on it; the serve
            # loop did not run the query (and the kernel) again
            assert faults.call_count("mxv.push") == attempts
        assert t.outcome == "failed" and t.backend is None
        assert t.retries == attempts - 1  # every re-run is on the ticket
        assert counter_total("serve_retries_total") == before + attempts - 1

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

    def test_transient_kernel_fault_reruns_one_op_not_the_query(self, served):
        entered = []

        def counted(g):
            entered.append(1)
            return bfs(0, g)[0]

        register_algorithm("counted", counted)
        try:
            srv = served()
            expected = bfs(0, srv.snapshot("g"))[0]
            with faults.inject("mxv.push", OutOfMemory, nth=1):
                t = srv.submit("counted", graph="g")
                assert t.result(30).isequal(expected)
            assert t.retries == 1 and len(entered) == 1
            assert t.tier == "full"
        finally:
            ALGORITHMS.pop("counted", None)
