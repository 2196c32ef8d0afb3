"""Streaming graph ingestion over the delta layer (ROADMAP: streaming graphs).

A :class:`GraphStream` accepts timestamped edge batches and maintains a
:class:`~repro.lagraph.Graph` whose adjacency is advanced one *window* at a
time.  Each closed window is applied through the matrix update log
(``update_batch`` + ``wait``), so it settles into the delta-window chain
(:class:`~repro.graphblas.updatelog.DeltaBatch`) that incremental
maintainers (:mod:`repro.stream.incremental`) and the ``Graph`` property
cache consume — the hypersparse update blocks of arXiv 2509.18984 built on
the paper's pending-tuple machinery.

Window types
------------
* ``tumbling`` — time is partitioned into ``[t0 + k*width, t0 + (k+1)*width)``
  slices; the graph *accumulates* every edge ever ingested, windows are the
  batching boundaries.
* ``sliding`` — the graph holds only edges with timestamps in
  ``[t_close - width, t_close)``; closing a window inserts the newly arrived
  edges and *removes* the expired ones, so deltas exercise deletions.

Governor admission
------------------
Window assembly under an active :class:`~repro.graphblas.governor.
ExecutionContext` with a memory budget is *chunked*, not rejected: the
update log for an over-budget window is applied in budget-sized slices,
each settled by its own ``wait()``.  The delta chain stays contiguous, so
maintainers see one logical window as several batches, transparently.
"""

from __future__ import annotations

import time as _time

import numpy as np

from ..graphblas import Matrix, governor, telemetry
from ..graphblas.errors import InvalidValue
from ..lagraph import Graph, GraphKind
from .incremental import DynamicPageRank, IncrementalComponents, IncrementalTriangles

__all__ = [
    "GraphStream",
    "Window",
    "DynamicPageRank",
    "IncrementalComponents",
    "IncrementalTriangles",
]

_INDEX = np.int64

#: Estimated bytes of update-log working set per logged edge (Python ints in
#: list slots plus the assembly's int64 triplet) — deliberately generous so
#: chunk admission errs on the small side.
_LOG_BYTES_PER_EDGE = 200

#: Fraction of the governor's memory budget one assembly chunk may claim.
_CHUNK_BUDGET_FRACTION = 0.25


class Window:
    """One closed stream window and what its assembly produced."""

    __slots__ = (
        "index",
        "t_start",
        "t_end",
        "n_events",
        "n_expired",
        "chunks",
        "seconds",
        "deltas",
        "epoch_from",
        "epoch_to",
    )

    def __init__(self, index, t_start, t_end, n_events, n_expired, chunks,
                 seconds, deltas, epoch_from, epoch_to):
        self.index = index
        self.t_start = t_start
        self.t_end = t_end
        self.n_events = n_events
        self.n_expired = n_expired
        self.chunks = chunks
        self.seconds = seconds
        self.deltas = deltas
        self.epoch_from = epoch_from
        self.epoch_to = epoch_to

    @property
    def edges_per_s(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return (self.n_events + self.n_expired) / self.seconds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Window(#{self.index}, [{self.t_start:g},{self.t_end:g}), "
            f"events={self.n_events}, expired={self.n_expired}, "
            f"chunks={self.chunks})"
        )


class GraphStream:
    """Timestamped edge-batch ingestion with windowed assembly.

    Parameters
    ----------
    n:
        Vertex-set size (fixed for the stream's lifetime).
    kind:
        ``GraphKind`` — UNDIRECTED streams mirror each edge (u, v) to
        (v, u), matching ``Graph.from_edges``.
    window:
        ``"tumbling"`` or ``"sliding"``.
    width:
        Window width in timestamp units.
    t0:
        Stream epoch: the first window covers ``[t0, t0 + width)``.
    dtype:
        Adjacency domain; incoming weights default to 1.

    Timestamps must be non-decreasing across ``ingest`` calls (out-of-order
    arrivals raise ``InvalidValue``); coordinate collisions within a window
    resolve last-wins, the ``setElement`` contract.
    """

    def __init__(
        self,
        n: int,
        *,
        kind: GraphKind | str = GraphKind.UNDIRECTED,
        window: str = "tumbling",
        width: float = 1.0,
        t0: float = 0.0,
        dtype="FP64",
    ):
        if window not in ("tumbling", "sliding"):
            raise InvalidValue(f"unknown window type {window!r}")
        if not width > 0:
            raise InvalidValue("window width must be positive")
        self.graph = Graph(Matrix(dtype, n, n), kind)
        self.window_kind = window
        self.width = float(width)
        self.t0 = float(t0)
        self._win_end = self.t0 + self.width
        self._win_index = 0
        self._last_ts = -np.inf
        # buffered events for the open window
        self._buf_src: list[np.ndarray] = []
        self._buf_dst: list[np.ndarray] = []
        self._buf_ts: list[np.ndarray] = []
        self._buf_w: list[np.ndarray] = []
        # live edges with their timestamps (sliding expiry set)
        self._live_src = np.empty(0, dtype=_INDEX)
        self._live_dst = np.empty(0, dtype=_INDEX)
        self._live_ts = np.empty(0, dtype=np.float64)
        self.edges_total = 0
        self.windows_total = 0

    # -- ingestion ---------------------------------------------------------

    def ingest(self, src, dst, ts, weights=None) -> list[Window]:
        """Buffer a batch of timestamped edges; returns every window the
        batch's timestamps closed (possibly none, possibly several)."""
        src = np.asarray(src, dtype=_INDEX).ravel()
        dst = np.asarray(dst, dtype=_INDEX).ravel()
        ts = np.asarray(ts, dtype=np.float64).ravel()
        if not (src.size == dst.size == ts.size):
            raise InvalidValue("src/dst/ts arrays must have identical length")
        if src.size == 0:
            return []
        if weights is None:
            w = np.ones(src.size)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.ndim == 0:
                w = np.broadcast_to(w, src.shape).copy()
            elif w.size != src.size:
                raise InvalidValue("weights must be scalar or match length")
        if ts[0] < self._last_ts or np.any(ts[1:] < ts[:-1]):
            raise InvalidValue("timestamps must be non-decreasing")
        self._last_ts = float(ts[-1])

        closed: list[Window] = []
        start = 0
        while start < ts.size:
            # events belonging to the currently open window
            cut = int(np.searchsorted(ts[start:], self._win_end, side="left"))
            if cut:
                sl = slice(start, start + cut)
                self._buf_src.append(src[sl])
                self._buf_dst.append(dst[sl])
                self._buf_ts.append(ts[sl])
                self._buf_w.append(w[sl])
                start += cut
            if start < ts.size:
                if not self._buf_src and self.window_kind == "tumbling":
                    # nothing buffered: fast-forward over empty spans
                    # without emitting empty windows
                    nxt = float(ts[start])
                    self._win_end = self.t0 + self.width * (
                        1 + int((nxt - self.t0) // self.width)
                    )
                else:
                    # a timestamp at/past the boundary closes the window
                    closed.append(self._close_window())
        return closed

    def flush(self) -> Window | None:
        """Close the currently open window even though its span has not
        elapsed (end-of-stream)."""
        if not self._buf_src and self.window_kind == "tumbling":
            return None
        return self._close_window()

    @property
    def last_timestamp(self) -> float:
        """Timestamp of the newest ingested event (``t0`` before any)."""
        return self._last_ts if self._last_ts != -np.inf else self.t0

    # -- publication -------------------------------------------------------

    def snapshot(self) -> Graph:
        """An immutable copy-on-write snapshot of the accumulated graph.

        The returned :class:`Graph` wraps a duplicate of the stream's
        adjacency (``Matrix.dup`` settles pending work first), so later
        ingestion never mutates it — this is the serving layer's
        publication primitive.  ``published_epoch`` on the snapshot
        records the source matrix's epoch at the copy, giving readers a
        total order over publications.

        Call :meth:`flush` first to fold the open window's buffered
        events into the graph; ``snapshot`` copies only applied windows.
        """
        snap = Graph(self.graph.A.dup(), self.graph.kind)
        snap.published_epoch = int(self.graph.A._epoch)
        return snap

    # -- window assembly ---------------------------------------------------

    def _close_window(self) -> Window:
        t_end = self._win_end
        t_start = t_end - self.width
        if self._buf_src:
            s = np.concatenate(self._buf_src)
            d = np.concatenate(self._buf_dst)
            tss = np.concatenate(self._buf_ts)
            w = np.concatenate(self._buf_w)
        else:
            s = d = np.empty(0, dtype=_INDEX)
            tss = np.empty(0, dtype=np.float64)
            w = np.empty(0, dtype=np.float64)
        self._buf_src, self._buf_dst = [], []
        self._buf_ts, self._buf_w = [], []

        # sliding: edges whose timestamp slid out of [t_end - width, t_end)
        if self.window_kind == "sliding":
            expired = self._live_ts < t_start
            exp_s, exp_d = self._live_src[expired], self._live_dst[expired]
            keep = ~expired
            self._live_src = np.concatenate([self._live_src[keep], s])
            self._live_dst = np.concatenate([self._live_dst[keep], d])
            self._live_ts = np.concatenate([self._live_ts[keep], tss])
            if exp_s.size:
                # a coordinate expires only when no in-horizon event still
                # supports it (a later arrival re-asserted the same edge);
                # undirected events support either orientation
                nn = np.int64(self.graph.n)
                if self.graph.kind is GraphKind.UNDIRECTED:
                    live_keys = (
                        np.minimum(self._live_src, self._live_dst) * nn
                        + np.maximum(self._live_src, self._live_dst)
                    )
                    exp_keys = (
                        np.minimum(exp_s, exp_d) * nn
                        + np.maximum(exp_s, exp_d)
                    )
                else:
                    live_keys = self._live_src * nn + self._live_dst
                    exp_keys = exp_s * nn + exp_d
                drop = ~np.isin(exp_keys, live_keys)
                exp_s, exp_d = exp_s[drop], exp_d[drop]
        else:
            exp_s = exp_d = np.empty(0, dtype=_INDEX)

        if self.graph.kind is GraphKind.UNDIRECTED:
            s, d, w = _mirror(s, d, w)
            exp_s, exp_d, _ = _mirror(exp_s, exp_d, None)

        A = self.graph.A
        epoch_from = A._epoch
        t0 = _time.perf_counter()
        chunks = 0
        with telemetry.span(
            "stream.window",
            index=self._win_index,
            t_end=t_end,
            events=int(s.size),
            expired=int(exp_s.size),
        ):
            chunk = self._admitted_chunk(s.size + exp_s.size)
            for lo in range(0, s.size, chunk):
                A.update_batch(s[lo:lo + chunk], d[lo:lo + chunk], w[lo:lo + chunk])
                A.wait()
                chunks += 1
                governor.poll()
            for lo in range(0, exp_s.size, chunk):
                A.update_batch(
                    exp_s[lo:lo + chunk], exp_d[lo:lo + chunk], deleted=True
                )
                A.wait()
                chunks += 1
                governor.poll()
        seconds = _time.perf_counter() - t0
        deltas = A.deltas_since(epoch_from)

        win = Window(
            self._win_index, t_start, t_end, int(s.size), int(exp_s.size),
            chunks, seconds, deltas, epoch_from, A._epoch,
        )
        self._win_index += 1
        self._win_end += self.width
        self.edges_total += int(s.size)
        self.windows_total += 1
        self._record_metrics(win)
        return win

    def _admitted_chunk(self, n_events: int) -> int:
        """Events per assembly chunk the governor's budget admits.

        Over-budget windows are split, not rejected: each chunk's update
        log stays within a fraction of the context budget.
        """
        if n_events == 0:
            return 1
        ctx = governor.current()
        if ctx is None or ctx.memory_budget is None:
            return n_events
        admitted = int(
            ctx.memory_budget * _CHUNK_BUDGET_FRACTION / _LOG_BYTES_PER_EDGE
        )
        admitted = max(1024, admitted)
        if admitted < n_events and telemetry.ENABLED:
            telemetry.decision(
                "stream.chunked",
                events=n_events,
                chunk=admitted,
                budget=ctx.memory_budget,
            )
        return admitted

    def _record_metrics(self, win: Window) -> None:
        try:
            from .. import obs
        except ImportError:  # pragma: no cover - obs is part of the package
            return
        n_edges = win.n_events + win.n_expired
        obs.counter_inc("stream_edges_total", n_edges)
        obs.counter_inc("stream_windows_total", kind=self.window_kind)
        obs.observe("stream_window_assembly_seconds", win.seconds)
        if win.seconds > 0:
            obs.gauge_set("stream_edges_per_second", n_edges / win.seconds)


def _mirror(s: np.ndarray, d: np.ndarray, w: np.ndarray | None):
    """Both directions of each edge, self-loops not doubled."""
    keep = s != d
    ss = np.concatenate([s, d[keep]])
    dd = np.concatenate([d, s[keep]])
    ww = None if w is None else np.concatenate([w, w[keep]])
    return ss, dd, ww
