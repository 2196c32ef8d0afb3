"""The resilient multi-tenant graph server.

:class:`GraphServer` is the library-behind-an-API usage model the LAGraph
papers describe: a long-lived, in-process serving subsystem that owns
read-mostly graph snapshots and executes concurrent algorithm queries
(bfs / sssp / pagerank / triangles / components) from many tenants over
a worker thread pool.  The robustness spine:

* **Snapshot publication** — writers ingest through
  :class:`~repro.stream.GraphStream`; :meth:`GraphServer.publish` settles
  the stream and swaps in an immutable copy at the settled epoch
  (:meth:`~repro.stream.GraphStream.snapshot`).  Queries pin the
  published snapshot at submit, so a reader never observes an in-flight
  mutation and parity against direct calls on the same snapshot is exact.
* **Admission control** — a bounded queue with per-tenant fair share
  (:class:`~repro.serve.admission.AdmissionQueue`).  Beyond the depth or
  deadline watermark, requests are shed with
  :class:`~repro.serve.errors.Overloaded` instead of queueing into
  latency collapse.
* **Per-request governance** — every query runs inside its own
  :class:`~repro.graphblas.governor.ExecutionContext` carrying the
  tenant's memory budget, the request deadline (queue wait included),
  and a cancellation token.
* **Retries, one owner per failure** — the serve loop re-attempts only
  what no inner layer can: an ``OutOfMemory`` outside any op
  (``serve.exec``).  A kernel's transient ``OutOfMemory`` is re-run at
  dispatch (one op, not the query) and tile I/O by the spill pool; what
  exhausts an inner loop arrives marked and ends the query ``failed``
  (:mod:`repro.graphblas.retry`).  A governor refusal
  (``BudgetExceeded``, ``DeadlineExceeded``, ``Cancelled``) is the
  caller's answer: it ends the query with no retry.

Every query runs on one backend, ``config.backend``.  There is no
failover chain: the other engines are either the same kernels or the
dense reference, hundreds of times slower on a served graph, so a
persistent kernel fault ends the query after ``attempts`` runs instead.
Queue load never changes how an admitted query runs either; overload is
shed at admission.

Health/readiness probes, cooperative drain/shutdown, and serve-level
metrics (``serve_requests_total{tenant,algo,outcome}``, queue-depth
gauges, latency histograms) ride along; see ``docs/API.md``
("Serving").
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, replace

from .. import obs
from ..graphblas import backends, faults, governor, telemetry
from ..graphblas.errors import (
    ApiError,
    Cancelled,
    DeadlineExceeded,
    GovernorError,
    InvalidValue,
    OutOfMemory,
)
from ..graphblas.retry import RetryPolicy
from ..lagraph import (
    Graph,
    GraphKind,
    bfs,
    connected_components,
    pagerank,
    sssp,
    triangle_count,
)
from ..stream import GraphStream
from .admission import AdmissionQueue
from .config import ServeConfig, serve_config
from .errors import Overloaded, QueryFailed, ServerClosed

__all__ = [
    "GraphServer",
    "TenantPolicy",
    "QueryTicket",
    "ALGORITHMS",
    "register_algorithm",
]

#: Fault-injection point fired once per query attempt (chaos harness).
_SERVE_POINT = "serve.exec"


# --------------------------------------------------------------------------
# the query surface
# --------------------------------------------------------------------------

def _run_bfs(graph: Graph, *, source):
    levels, _ = bfs(int(source), graph, level=True, parent=False)
    return levels


def _run_sssp(graph: Graph, *, source, method: str = "delta"):
    return sssp(int(source), graph, method=method)


def _run_pagerank(graph: Graph, *, damping: float = 0.85, tol: float = 1e-8,
                  max_iters: int = 100):
    ranks, _ = pagerank(graph, damping=damping, tol=tol, max_iters=max_iters)
    return ranks


def _run_triangles(graph: Graph):
    return triangle_count(graph)


def _run_components(graph: Graph):
    return connected_components(graph)


ALGORITHMS: dict = {
    "bfs": _run_bfs,
    "sssp": _run_sssp,
    "pagerank": _run_pagerank,
    "triangles": _run_triangles,
    "components": _run_components,
}


def register_algorithm(name: str, fn, *, replace: bool = False) -> None:
    """Extend the served algorithm surface: ``fn(graph, **params)``."""
    if name in ALGORITHMS and not replace:
        raise InvalidValue(f"algorithm {name!r} already registered")
    ALGORITHMS[name] = fn


# --------------------------------------------------------------------------
# tenancy
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant resource envelope inherited by every request.

    ``None`` fields inherit the server config's defaults at submit time.
    """

    #: per-request governor memory budget in bytes (None = server default).
    memory_budget: int | None = None
    #: per-request deadline in seconds, queue wait included.
    deadline_s: float | None = None
    #: serve-level retry attempts for retryable failures.
    attempts: int | None = None
    #: hard per-tenant queue cap (None = fair share only).
    max_queue: int | None = None


# --------------------------------------------------------------------------
# request tickets
# --------------------------------------------------------------------------

class QueryTicket:
    """A submitted query's future: result, outcome, and execution record."""

    __slots__ = (
        "seq", "tenant", "algo", "params", "snapshot", "policy",
        "deadline_at", "token", "tier", "backend", "retries",
        "outcome", "error", "value", "t_submit", "t_start", "t_done",
        "_event",
    )

    #: always 0: a query runs on one backend.  Kept so ticket consumers
    #: that total it keep working.
    failovers = 0

    def __init__(self, seq, tenant, algo, params, snapshot, policy,
                 deadline_at):
        self.seq = seq
        self.tenant = tenant
        self.algo = algo
        self.params = params
        self.snapshot = snapshot
        self.policy = policy
        self.deadline_at = deadline_at
        self.token = governor.CancellationToken()
        self.tier = None
        self.backend = None
        self.retries = 0
        self.outcome = None
        self.error = None
        self.value = None
        self.t_submit = time.monotonic()
        self.t_start = None
        self.t_done = None
        self._event = threading.Event()

    # -- client side -------------------------------------------------------

    def cancel(self, reason: str = "cancelled by client") -> None:
        """Cooperatively cancel: queued requests never run, in-flight ones
        stop at the next governor poll point."""
        self.token.cancel(reason)

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._event.wait(timeout)

    def result(self, timeout: float | None = None):
        """The query result; raises the terminal error for failed queries.

        Governor refusals (``BudgetExceeded``, ``DeadlineExceeded``,
        ``Cancelled``) and API errors propagate unwrapped; terminal
        execution failures are wrapped in
        :class:`~repro.serve.errors.QueryFailed` with the underlying
        error as ``__cause__``.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query #{self.seq} ({self.algo}) still pending"
            )
        if self.outcome == "ok":
            return self.value
        if isinstance(self.error, (GovernorError, ApiError)):
            raise self.error
        raise QueryFailed(
            f"{self.algo} for tenant {self.tenant!r} failed terminally "
            f"({type(self.error).__name__}: {self.error})",
            outcome=self.outcome or "failed",
        ) from self.error

    # -- record ------------------------------------------------------------

    @property
    def queue_wait_s(self) -> float | None:
        if self.t_start is None:
            return None
        return self.t_start - self.t_submit

    @property
    def exec_s(self) -> float | None:
        if self.t_done is None or self.t_start is None:
            return None
        return self.t_done - self.t_start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self.outcome or ("queued" if self.t_start is None else "running")
        return f"<QueryTicket #{self.seq} {self.algo} {self.tenant!r} {state}>"


# --------------------------------------------------------------------------
# served graphs
# --------------------------------------------------------------------------

class _ServedGraph:
    """One named graph: its write stream and the published snapshot."""

    __slots__ = ("name", "stream", "published", "lock", "publishes")

    def __init__(self, name: str, stream: GraphStream | None):
        self.name = name
        self.stream = stream
        self.published: Graph | None = None
        self.lock = threading.Lock()
        self.publishes = 0


_server_seq = itertools.count(1)


# --------------------------------------------------------------------------
# the server
# --------------------------------------------------------------------------

class GraphServer:
    """Long-lived multi-tenant graph-serving subsystem (see module doc).

    ::

        with GraphServer(workers=4) as srv:
            srv.add_graph("social", n=1 << 12)
            srv.ingest("social", src, dst)
            srv.publish("social")
            ranks = srv.query("pagerank", graph="social", tenant="alice")

    Configuration resolves overrides > ``GxB_Serve_set`` process defaults
    > ``GRAPHBLAS_SERVE_*`` environment > built-in defaults.
    """

    def __init__(self, config: ServeConfig | None = None, *,
                 name: str | None = None, start: bool = True, **overrides):
        base = config if config is not None else serve_config()
        self.config = replace(base, **overrides) if overrides else base
        self.name = name or f"srv{next(_server_seq)}"
        self._graphs: dict[str, _ServedGraph] = {}
        self._graphs_lock = threading.Lock()
        self._tenants: dict[str, TenantPolicy] = {"default": TenantPolicy()}
        self._queue = AdmissionQueue(self.config.queue_depth)
        self._seq = itertools.count(1)
        self._state = "created"
        self._state_lock = threading.Lock()
        self._stop = threading.Event()
        self._inflight: set[QueryTicket] = set()
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)
        self._ema_exec_s = 0.005  # seeds the deadline-watermark estimate
        self._counts: dict[str, int] = {}
        self._counts_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._declare_metrics()
        if start:
            self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "GraphServer":
        with self._state_lock:
            if self._state == "running":
                return self
            if self._state == "closed":
                raise ServerClosed(f"server {self.name!r} is closed")
            self._state = "running"
        for i in range(self.config.workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"serve-{self.name}-w{i}",
                daemon=True,
            )
            t.start()
            self._workers.append(t)
        return self

    def drain(self, timeout: float | None = 5.0) -> bool:
        """Stop intake, let queued + in-flight work finish, then cancel.

        Returns True if everything completed within ``timeout``; on
        timeout the remaining queue is failed as cancelled and in-flight
        requests are cooperatively cancelled (they stop at their next
        governor poll point).
        """
        with self._state_lock:
            if self._state in ("draining", "closed"):
                return self._queue.depth == 0 and not self._inflight
            self._state = "draining"
        if telemetry.ENABLED:
            telemetry.decision("serve.drain", server=self.name,
                               queued=self._queue.depth,
                               inflight=len(self._inflight))
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._queue.depth or self._inflight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._idle.wait(remaining if remaining is not None else 0.1)
        clean = self._queue.depth == 0 and not self._inflight
        if not clean:
            for req in self._queue.drain():
                req.token.cancel("server draining")
                self._finish(req, "cancelled",
                             Cancelled("server draining"))
            with self._inflight_lock:
                inflight = list(self._inflight)
            for req in inflight:
                req.token.cancel("server draining")
        return clean

    def close(self, timeout: float | None = 5.0) -> None:
        """Drain, stop the workers, and release the server's gauges."""
        self.drain(timeout)
        self._stop.set()
        self._queue.close()
        for t in self._workers:
            t.join(timeout=2.0)
        self._workers = []
        with self._state_lock:
            self._state = "closed"
        self._release_metrics()

    def __enter__(self) -> "GraphServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- graphs ------------------------------------------------------------

    def add_graph(self, name: str, n: int | None = None, *,
                  kind: GraphKind | str = GraphKind.UNDIRECTED,
                  graph: Graph | None = None,
                  stream: GraphStream | None = None,
                  window: str = "tumbling", width: float = 1.0,
                  dtype="FP64") -> None:
        """Register a served graph.

        Exactly one of ``n`` (a fresh ingest stream), ``stream`` (attach
        an existing :class:`~repro.stream.GraphStream`), or ``graph``
        (publish a static graph immediately; no ingest) must be given.
        """
        given = sum(x is not None for x in (n, stream, graph))
        if given != 1:
            raise InvalidValue("pass exactly one of n=, stream=, or graph=")
        with self._graphs_lock:
            if name in self._graphs:
                raise InvalidValue(f"graph {name!r} already served")
            if graph is not None:
                sg = _ServedGraph(name, None)
                snap = Graph(graph.A.dup(), graph.kind)
                snap.published_epoch = int(graph.A._epoch)
                sg.published = snap
                sg.publishes = 1
            else:
                st = stream if stream is not None else GraphStream(
                    int(n), kind=kind, window=window, width=width, dtype=dtype,
                )
                sg = _ServedGraph(name, st)
            self._graphs[name] = sg
        obs.gauge_set("serve_published_epoch",
                      float(sg.published.published_epoch) if sg.published else -1.0,
                      server=self.name, graph=name)

    def graphs(self) -> tuple[str, ...]:
        return tuple(self._graphs)

    def _served(self, name: str) -> _ServedGraph:
        sg = self._graphs.get(name)
        if sg is None:
            raise InvalidValue(
                f"unknown graph {name!r}; served: {', '.join(self._graphs) or 'none'}"
            )
        return sg

    def ingest(self, name: str, src, dst, ts=None, weights=None) -> None:
        """Feed timestamped edges into ``name``'s write stream.

        ``ts=None`` stamps the batch at the stream's current timestamp
        (stays within the open window).  Published snapshots are not
        affected until :meth:`publish`.
        """
        sg = self._served(name)
        if sg.stream is None:
            raise InvalidValue(f"graph {name!r} is static (no ingest stream)")
        with sg.lock:
            if ts is None:
                import numpy as np
                last = sg.stream.last_timestamp
                ts = np.full(np.asarray(src).size if hasattr(src, "__len__")
                             else 1, last, dtype=np.float64)
            sg.stream.ingest(src, dst, ts, weights)

    def publish(self, name: str) -> int:
        """Settle ``name``'s stream and atomically swap in an immutable
        snapshot of the accumulated graph; returns the published epoch.

        Queries submitted before the swap keep the snapshot they pinned;
        queries submitted after see the new epoch.  Copy-on-write at the
        epoch boundary: the published matrix is never mutated again.
        """
        sg = self._served(name)
        if sg.stream is None:
            return int(sg.published.published_epoch)
        with sg.lock:
            sg.stream.flush()
            snap = sg.stream.snapshot()
            sg.published = snap  # atomic reference swap
            sg.publishes += 1
        epoch = int(snap.published_epoch)
        if telemetry.ENABLED:
            telemetry.decision("serve.publish", server=self.name, graph=name,
                               epoch=epoch, nvals=int(snap.A.nvals))
        obs.counter_inc("serve_publish_total", server=self.name, graph=name)
        obs.gauge_set("serve_published_epoch", float(epoch),
                      server=self.name, graph=name)
        return epoch

    def snapshot(self, name: str) -> Graph:
        """The currently published snapshot (immutable)."""
        sg = self._served(name)
        snap = sg.published
        if snap is None:
            raise InvalidValue(f"graph {name!r} has no published snapshot yet")
        return snap

    # -- tenants -----------------------------------------------------------

    def register_tenant(self, tenant: str,
                        policy: TenantPolicy | None = None,
                        **kwargs) -> TenantPolicy:
        """Attach a :class:`TenantPolicy` (or keyword fields) to ``tenant``."""
        if policy is None:
            policy = TenantPolicy(**kwargs)
        elif kwargs:
            policy = replace(policy, **kwargs)
        self._tenants[tenant] = policy
        return policy

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self._tenants.get(tenant) or self._tenants["default"]

    # -- admission ---------------------------------------------------------

    def submit(self, algo: str, *, graph: str, tenant: str = "default",
               **params) -> QueryTicket:
        """Admit a query; returns a :class:`QueryTicket` or raises
        :class:`Overloaded` / :class:`ServerClosed` immediately."""
        if self._state != "running":
            raise ServerClosed(
                f"server {self.name!r} is {self._state}; not accepting work"
            )
        fn = ALGORITHMS.get(algo)
        if fn is None:
            raise InvalidValue(
                f"unknown algorithm {algo!r}; "
                f"served: {', '.join(sorted(ALGORITHMS))}"
            )
        snap = self.snapshot(graph)  # pins the published epoch
        policy = self.policy_for(tenant)
        deadline_s = policy.deadline_s if policy.deadline_s is not None \
            else self.config.deadline_s
        now = time.monotonic()
        deadline_at = None if not deadline_s else now + float(deadline_s)
        req = QueryTicket(next(self._seq), tenant, algo, params, snap,
                          policy, deadline_at)
        # deadline watermark: shed work that cannot survive the queue wait
        depth = self._queue.depth
        if deadline_at is not None and depth >= self.config.workers:
            est_wait = (depth / self.config.workers) * self._ema_exec_s
            if now + est_wait >= deadline_at:
                self._shed(req, Overloaded(
                    f"estimated queue wait {est_wait:.3f}s exceeds the "
                    f"request deadline of {deadline_s}s",
                    reason="deadline_watermark", tenant=tenant,
                ))
        try:
            self._queue.put(req, tenant, max_queue=policy.max_queue)
        except Overloaded as exc:
            self._shed(req, exc)
        obs.gauge_set("serve_queue_depth", float(self._queue.depth),
                      server=self.name)
        return req

    def query(self, algo: str, *, graph: str, tenant: str = "default",
              timeout: float | None = None, **params):
        """Synchronous :meth:`submit` + :meth:`QueryTicket.result`."""
        return self.submit(
            algo, graph=graph, tenant=tenant, **params
        ).result(timeout)

    def _shed(self, req: QueryTicket, exc: Overloaded):
        req.outcome = "shed"
        req.error = exc
        req._event.set()
        with self._counts_lock:
            self._counts["shed"] = self._counts.get("shed", 0) + 1
        obs.counter_inc("serve_requests_total", tenant=req.tenant,
                        algo=req.algo, outcome="shed")
        obs.counter_inc("serve_shed_total", tenant=req.tenant,
                        reason=exc.reason)
        if telemetry.ENABLED:
            telemetry.decision("serve.shed", server=self.name,
                               tenant=req.tenant, algo=req.algo,
                               reason=exc.reason, depth=self._queue.depth)
        raise exc

    # -- execution ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            req = self._queue.get(timeout=0.05)
            if req is None:
                if self._stop.is_set():
                    return
                continue
            with self._inflight_lock:
                self._inflight.add(req)
            try:
                self._serve_one(req)
            finally:
                with self._idle:
                    self._inflight.discard(req)
                    self._idle.notify_all()
                obs.gauge_set("serve_queue_depth", float(self._queue.depth),
                              server=self.name)

    def _serve_one(self, req: QueryTicket) -> None:
        req.t_start = time.monotonic()
        try:
            if req.token.cancelled:
                self._finish(req, "cancelled",
                             Cancelled(req.token.reason or "cancelled"))
                return
            if req.deadline_at is not None and req.t_start >= req.deadline_at:
                self._finish(req, "deadline", DeadlineExceeded(
                    "deadline passed while queued"
                ))
                return
            req.tier = "full"
            value = self._run(req)
            req.backend = self.config.backend
            self._finish(req, "ok", result=value)
        except GovernorError as exc:  # the caller's limit, not a fault
            outcome = ("deadline" if isinstance(exc, DeadlineExceeded)
                       else "cancelled" if isinstance(exc, Cancelled)
                       else "budget")
            self._finish(req, outcome, exc)
        except ApiError as exc:
            self._finish(req, "invalid", exc)
        except BaseException as exc:  # kernel failure; the worker survives
            self._finish(req, "failed", exc)

    def _run(self, req: QueryTicket):
        """The serve-level retry loop around governed attempts (what it
        owns, and what arrives marked: see the module doc)."""
        attempts = req.policy.attempts if req.policy.attempts is not None \
            else self.config.attempts
        # one seeded schedule per request; each owner names its own classes
        retry = RetryPolicy(
            attempts, base_delay=self.config.base_delay_s,
            max_delay=self.config.max_delay_s, jitter=1.0,
            seed=(self.config.seed * 0x9E3779B9 + req.seq * 0x85EBCA6B)
            & 0xFFFFFFFF,
            transient=(OutOfMemory,),
        )

        def on_retry(failures, delay, exc):
            req.token.raise_if_cancelled()
            req.retries += 1
            if telemetry.ENABLED:
                telemetry.decision(
                    "serve.retry", server=self.name, algo=req.algo,
                    backend=self.config.backend, attempt=failures,
                    delay_s=round(delay, 6), error=type(exc).__name__,
                )

        return retry.call(
            lambda: self._attempt(req, retry.retrying(OutOfMemory)),
            on_retry=on_retry,
        )

    def _attempt(self, req: QueryTicket, kernel_retry):
        remaining = None
        if req.deadline_at is not None:
            remaining = req.deadline_at - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceeded(
                    f"deadline passed after {req.retries} retries"
                )
        policy = req.policy
        budget = policy.memory_budget if policy.memory_budget is not None \
            else self.config.memory_budget
        ctx = governor.ExecutionContext(
            memory_budget=budget, deadline=remaining, cancel=req.token,
            retry=kernel_retry,
        )
        try:
            with backends.backend(self.config.backend), ctx:
                if faults.ENABLED:
                    faults.trip(_SERVE_POINT)
                return ALGORITHMS[req.algo](req.snapshot, **req.params)
        finally:
            # op re-runs inside the attempt are this query's retries too
            req.retries += ctx.stats["retries"]

    # -- completion --------------------------------------------------------

    def _finish(self, req: QueryTicket, outcome: str,
                error: BaseException | None = None, result=None) -> None:
        if req.outcome is not None:  # already finished (drain race)
            return
        req.t_done = time.monotonic()
        req.outcome = outcome
        req.error = error
        req.value = result
        exec_s = req.exec_s
        if exec_s is not None and outcome == "ok":
            # EMA feeds the deadline-watermark wait estimate at admission
            self._ema_exec_s += 0.2 * (exec_s - self._ema_exec_s)
        with self._counts_lock:
            self._counts[outcome] = self._counts.get(outcome, 0) + 1
        obs.counter_inc("serve_requests_total", tenant=req.tenant,
                        algo=req.algo, outcome=outcome)
        if exec_s is not None:
            obs.observe("serve_request_seconds", exec_s, algo=req.algo)
        if req.queue_wait_s is not None:
            obs.observe("serve_queue_wait_seconds", req.queue_wait_s)
        if req.retries:
            obs.counter_inc("serve_retries_total", req.retries, algo=req.algo)
        if telemetry.ENABLED:
            telemetry.decision(
                "serve.request", server=self.name, tenant=req.tenant,
                algo=req.algo, outcome=outcome, tier=req.tier,
                backend=req.backend, retries=req.retries,
                seconds=round(exec_s, 6) if exec_s is not None else None,
            )
        req._event.set()

    # -- observability -----------------------------------------------------

    def _declare_metrics(self) -> None:
        reg = obs.registry()
        reg.declare("serve_requests_total", "counter",
                    "Served queries by tenant, algorithm, and outcome")
        reg.declare("serve_shed_total", "counter",
                    "Requests shed at admission, by tenant and reason")
        reg.declare("serve_retries_total", "counter",
                    "Re-runs of a query attempt or of one op inside it, "
                    "by algorithm")
        reg.declare("serve_publish_total", "counter",
                    "Snapshot publications, by graph")
        reg.declare("serve_queue_depth", "gauge",
                    "Admitted requests waiting for a worker")
        reg.declare("serve_inflight", "gauge",
                    "Requests currently executing")
        reg.declare("serve_published_epoch", "gauge",
                    "Published snapshot epoch, by graph")
        reg.declare("serve_request_seconds", "histogram",
                    "Query execution latency, by algorithm")
        reg.declare("serve_queue_wait_seconds", "histogram",
                    "Admission-to-execution queue wait")
        obs.register_gauge("serve_queue_depth",
                           lambda: float(self._queue.depth),
                           server=self.name)
        obs.register_gauge("serve_inflight",
                           lambda: float(len(self._inflight)),
                           server=self.name)

    def _release_metrics(self) -> None:
        obs.unregister_gauge("serve_queue_depth", server=self.name)
        obs.unregister_gauge("serve_inflight", server=self.name)

    # -- health ------------------------------------------------------------

    def ready(self) -> bool:
        """Readiness probe: accepting work and able to serve it."""
        return (
            self._state == "running"
            and any(t.is_alive() for t in self._workers)
            and any(sg.published is not None for sg in self._graphs.values())
        )

    def health(self) -> dict:
        """Liveness/health probe: one structured dict for the supervisor."""
        with self._counts_lock:
            counts = dict(self._counts)
        return {
            "server": self.name,
            "status": self._state,
            "ready": self.ready(),
            "workers": sum(t.is_alive() for t in self._workers),
            "queue_depth": self._queue.depth,
            "inflight": len(self._inflight),
            "graphs": {
                name: {
                    "published_epoch": (
                        int(sg.published.published_epoch)
                        if sg.published is not None else None
                    ),
                    "publishes": sg.publishes,
                }
                for name, sg in self._graphs.items()
            },
            "requests": counts,
            "shed_total": self._queue.shed_total,
        }

    def stats(self) -> dict:
        """Cumulative outcome counts plus queue counters."""
        with self._counts_lock:
            counts = dict(self._counts)
        return {
            "outcomes": counts,
            "admitted": self._queue.admitted_total,
            "shed": self._queue.shed_total,
            "ema_exec_s": self._ema_exec_s,
        }
