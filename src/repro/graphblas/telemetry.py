"""Kernel telemetry: burble diagnostics, per-op metrics, and trace export.

The paper's SuiteSparse and GraphBLAST sections rest on *quantitative*
engineering claims — O(e) hypersparse formats, zombie/pending-tuple
assembly cost, SpGEMM method selection, push/pull direction switching,
terminal-monoid early exit — yet an engine normally executes all of those
decisions invisibly.  This module, modeled on SuiteSparse's ``GxB_BURBLE``
and ``GxB_Global`` diagnostics, makes every one of them observable:

* **counters/timers** — each Table-I operation records calls, wall time,
  output nvals, flop estimates (mxm/mxv), and bytes moved (import/export
  and file I/O) into a per-thread :class:`Collector`;
* **decision events** — the engine reports *why* it chose what it chose:
  SpGEMM method (Gustavson/dot/heap), push vs pull with the frontier
  density behind the switch, early-exit dot-product terminations, format
  (CSR/CSC/hypersparse) selections, zombie/pending-tuple assemblies
  with counts, and kernel-backend routing (``backend.dispatch`` per
  dispatched op plan, plus the ``differential`` engine's
  verify/skip/divergence events);
* **spans** — LAGraph algorithms wrap themselves in named spans and emit
  per-iteration records (e.g. BFS frontier size per level);
* **sinks** — a human-readable burble stream, a structured
  :func:`snapshot` dict, and Chrome ``trace_event`` JSON
  (:meth:`Collector.chrome_trace`, exported by ``scripts/export_trace.py``
  and viewable in ``chrome://tracing`` / ``ui.perfetto.dev``).

Zero cost when disabled
-----------------------
Instrumented sites reuse the module-attribute fast path proven by
:mod:`repro.graphblas.faults` (~40 ns when disabled)::

    if telemetry.ENABLED:
        telemetry.decision("mxv.direction", direction="push", density=d)

With no collector attached the guard is one module-attribute read per
*operation* (never per element); ``benchmarks/bench_telemetry_overhead.py``
verifies the disabled Table-I workload sits within noise of the
uninstrumented baseline.

Typical use::

    from repro.graphblas import telemetry

    with telemetry.collect(burble=True) as col:
        bfs_level(0, graph)              # burble streams decisions live
    snap = col.snapshot()                # {"ops": {"mxv": {...}}, ...}
    col.write_chrome_trace("trace.json") # open in chrome://tracing

Telemetry is **thread-local**: each thread attaches its own collector and
records only its own work; ``ENABLED`` is a process-wide fast-path flag
that is true while *any* thread is collecting.

Observability fan-out
---------------------
:mod:`repro.obs` installs a process-wide :class:`~repro.obs.sink.
MetricsSink` via :func:`set_sink`; while one is installed, every record
flowing through the module-level functions is *also* folded into the
durable metrics registry (from every thread, collector or not), and
``ENABLED`` stays true so instrumented sites keep reporting.  The sink
sees the same stream a collector would — op timers, decisions, spans,
instants, and ring-buffer drops.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time

__all__ = [
    "ENABLED",
    "PLAN_EVENTS",
    "Collector",
    "OpStats",
    "enable",
    "disable",
    "collect",
    "active",
    "snapshot",
    "reset",
    "record_op",
    "tally",
    "decision",
    "instant",
    "span",
    "span_at",
    "instrumented",
    "chrome_trace_events",
    "chrome_trace_merged",
    "set_sink",
    "get_sink",
    "plan_capture",
]

# Process-wide kill switch: True while any thread has a collector attached
# OR a process-wide observability sink is installed.  Sites guard every
# telemetry call with ``if telemetry.ENABLED`` so the disabled path costs
# a single module-attribute read.
ENABLED = False

# True while per-plan ``plan.done`` dispatch events should be emitted:
# the backend dispatcher times each kernel and reports route/bytes only
# when observability or an EXPLAIN capture wants them, keeping plain
# collector-only telemetry streams unchanged.
PLAN_EVENTS = False

# The installed observability sink (repro.obs.sink.MetricsSink), or None.
_SINK = None
_capture_count = 0

# Keep event streams bounded: a runaway loop must not exhaust memory.
# Overflow is counted (Collector.dropped) and reported in the snapshot.
MAX_EVENTS = 200_000

_lock = threading.Lock()
_active_count = 0
_tls = threading.local()


def _collector() -> "Collector | None":
    return getattr(_tls, "collector", None)


class OpStats:
    """Accumulated metrics for one operation name.

    ``calls``/``seconds``/``out_nvals`` are filled by the per-operation
    timer; ``flops`` (mxm/mxv partial-product estimates) and
    ``bytes_moved`` (import/export and file I/O) are tallied by the
    kernels that know them.
    """

    __slots__ = ("calls", "seconds", "out_nvals", "flops", "bytes_moved")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.out_nvals = 0
        self.flops = 0
        self.bytes_moved = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "out_nvals": self.out_nvals,
            "flops": self.flops,
            "bytes_moved": self.bytes_moved,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpStats({self.as_dict()})"


class Collector:
    """Per-thread telemetry sink: counters, event log, burble stream.

    Create through :func:`enable` or :func:`collect`; the module-level
    recording functions route to the calling thread's collector.
    """

    def __init__(self, burble: bool = False, stream=None, max_events: int = MAX_EVENTS):
        self.burble = bool(burble)
        self.stream = stream  # None = sys.stdout, resolved at write time
        self.max_events = int(max_events)
        self.t0 = time.perf_counter()
        self.ops: dict[str, OpStats] = {}
        self.events: list[dict] = []
        self.dropped = 0
        self.dropped_by_type: dict[str, int] = {}
        self._span_stack: list[dict] = []
        self._tid = threading.get_ident()

    # -- low-level event plumbing -----------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self.t0) * 1e6

    def _push(self, ev: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            kind = ev.get("type", "unknown")
            self.dropped_by_type[kind] = self.dropped_by_type.get(kind, 0) + 1
            if self.dropped == 1:
                # silent truncation reads as "nothing happened" — say it once
                self._burble(
                    f"event buffer full at {self.max_events}; further events "
                    "are dropped (counted in snapshot()['events_dropped'])"
                )
            if _SINK is not None:
                _SINK.dropped(kind)
            return
        self.events.append(ev)

    def _burble(self, line: str) -> None:
        if not self.burble:
            return
        import sys

        stream = self.stream if self.stream is not None else sys.stdout
        stream.write(f"burble: {line}\n")

    # -- recording ----------------------------------------------------------

    def record_op(self, name: str, seconds: float, out_nvals: int | None = None, ts_us: float | None = None) -> None:
        """One completed Table-I operation: wall time plus output size."""
        st = self.ops.get(name)
        if st is None:
            st = self.ops[name] = OpStats()
        st.calls += 1
        st.seconds += seconds
        if out_nvals is not None:
            st.out_nvals += int(out_nvals)
        dur_us = seconds * 1e6
        if ts_us is None:
            ts_us = self._now_us() - dur_us
        self._push(
            {
                "type": "op",
                "name": name,
                "ts": ts_us,
                "dur": dur_us,
                "args": {} if out_nvals is None else {"out_nvals": int(out_nvals)},
            }
        )
        nv = "" if out_nvals is None else f" nvals {int(out_nvals)}"
        self._burble(f"{seconds * 1e3:8.3f} ms  [{name}]{nv}")

    def tally(self, name: str, **fields) -> None:
        """Add numeric metrics (flops, bytes_moved, calls, ...) to an op."""
        st = self.ops.get(name)
        if st is None:
            st = self.ops[name] = OpStats()
        for key, value in fields.items():
            setattr(st, key, getattr(st, key) + int(value))

    def decision(self, kind: str, **detail) -> None:
        """Record one engine choice and the numbers that drove it."""
        self._push(
            {
                "type": "decision",
                "name": kind,
                "ts": self._now_us(),
                "args": detail,
            }
        )
        pretty = " ".join(f"{k}={_fmt(v)}" for k, v in detail.items())
        self._burble(f"[{kind}] {pretty}")

    def instant(self, name: str, **attrs) -> None:
        """A point-in-time record inside a span (e.g. one BFS level)."""
        self._push(
            {"type": "instant", "name": name, "ts": self._now_us(), "args": attrs}
        )
        pretty = " ".join(f"{k}={_fmt(v)}" for k, v in attrs.items())
        self._burble(f"  . {name}: {pretty}")

    def begin_span(self, name: str, **attrs) -> None:
        self._span_stack.append({"name": name, "ts": self._now_us(), "args": attrs})
        pretty = " ".join(f"{k}={_fmt(v)}" for k, v in attrs.items())
        self._burble(f"[{name}] begin {pretty}".rstrip())

    def span_at(self, name: str, start_s: float, end_s: float, **attrs) -> None:
        """Record a completed span from absolute ``perf_counter`` stamps.

        Unlike :meth:`begin_span`/:meth:`end_span` (which are wall-now
        based and strictly nested), this represents work that overlapped
        other work — e.g. the engine's parallel row blocks, measured on
        worker threads and reported here by the coordinating thread.
        """
        dur = (end_s - start_s) * 1e6
        self._push(
            {
                "type": "span",
                "name": name,
                "ts": (start_s - self.t0) * 1e6,
                "dur": dur,
                "args": attrs,
            }
        )
        pretty = " ".join(f"{k}={_fmt(v)}" for k, v in attrs.items())
        self._burble(f"[{name}] {dur / 1e3:.3f} ms {pretty}".rstrip())

    def end_span(self) -> None:
        if not self._span_stack:
            return
        rec = self._span_stack.pop()
        dur = self._now_us() - rec["ts"]
        self._push(
            {
                "type": "span",
                "name": rec["name"],
                "ts": rec["ts"],
                "dur": dur,
                "args": rec["args"],
            }
        )
        self._burble(f"[{rec['name']}] end ({dur / 1e3:.3f} ms)")

    # -- sinks ---------------------------------------------------------------

    def snapshot(self, include_events: bool = False) -> dict:
        """Structured, JSON-serializable view of everything collected."""
        decisions: dict[str, int] = {}
        spans: dict[str, dict] = {}
        for ev in self.events:
            if ev["type"] == "decision":
                decisions[ev["name"]] = decisions.get(ev["name"], 0) + 1
            elif ev["type"] == "span":
                agg = spans.setdefault(ev["name"], {"count": 0, "seconds": 0.0})
                agg["count"] += 1
                agg["seconds"] += ev["dur"] / 1e6
        out = {
            "ops": {name: st.as_dict() for name, st in sorted(self.ops.items())},
            "decisions": decisions,
            "spans": spans,
            "events_total": len(self.events),
            "events_dropped": self.dropped,
            "events_dropped_by_type": dict(self.dropped_by_type),
            "elapsed_seconds": time.perf_counter() - self.t0,
            "tid": self._tid,
        }
        gov = {
            name.split(".", 1)[1]: count
            for name, count in decisions.items()
            if name.startswith("governor.")
        }
        if gov:
            # disk traffic of the spill pools, tallied next to the
            # decision counts they explain
            for direction in ("spill", "reload"):
                st = self.ops.get(f"governor.{direction}")
                if st is not None:
                    gov[f"{direction}_bytes"] = st.bytes_moved
            out["governor"] = gov
        if include_events:
            out["events"] = list(self.events)
            # absolute perf_counter origin, so traces from several
            # threads' collectors can be aligned on one timeline
            out["t0_perf"] = self.t0
        return out

    def chrome_trace(self) -> dict:
        """The collected events in Chrome ``trace_event`` JSON format.

        Load the written file in ``chrome://tracing`` or
        ``ui.perfetto.dev``: ops and spans render as duration bars,
        decisions and per-iteration records as instant markers.
        """
        return {
            "traceEvents": chrome_trace_events(self.events, tid=self._tid),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.graphblas.telemetry"},
        }

    def write_chrome_trace(self, path) -> None:
        """Serialize :meth:`chrome_trace` to ``path``."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.chrome_trace(), f)

    def reset(self) -> None:
        """Clear counters and events; keep the collector attached."""
        self.ops.clear()
        self.events.clear()
        self.dropped = 0
        self.dropped_by_type.clear()
        self._span_stack.clear()
        self.t0 = time.perf_counter()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Collector(ops={len(self.ops)}, events={len(self.events)}, "
            f"burble={self.burble})"
        )


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def chrome_trace_events(events: list[dict], tid: int = 0) -> list[dict]:
    """Convert raw telemetry events to Chrome ``trace_event`` records.

    ``op`` and ``span`` events become complete (``"ph": "X"``) duration
    events; ``decision`` and ``instant`` events become thread-scoped
    instant (``"ph": "i"``) events.
    """
    out = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "ts": 0,
            "args": {"name": "repro GraphBLAS engine"},
        }
    ]
    for ev in events:
        base = {"name": ev["name"], "pid": 0, "tid": tid, "ts": ev["ts"]}
        if ev["type"] in ("op", "span"):
            base["ph"] = "X"
            base["dur"] = ev.get("dur", 0.0)
            base["cat"] = ev["type"]
        else:
            base["ph"] = "i"
            base["s"] = "t"
            base["cat"] = ev["type"]
        if ev.get("args"):
            base["args"] = ev["args"]
        out.append(base)
    return out


def chrome_trace_merged(sources) -> dict:
    """Merge telemetry from several threads into one Chrome trace.

    ``sources`` is an iterable of per-thread captures: live
    :class:`Collector` objects, event-bearing snapshots
    (``snapshot(include_events=True)``), or ``(tid, events)`` pairs.
    Each source keeps its own ``tid`` (``chrome://tracing`` renders one
    row per thread, with ``thread_name`` metadata) instead of flattening
    every thread onto one track, and sources carrying their
    ``perf_counter`` origin (``Collector.t0`` / snapshot ``t0_perf``)
    are shifted onto a single shared timeline.
    """
    resolved: list[tuple[int, float | None, list[dict]]] = []
    for i, src in enumerate(sources):
        if isinstance(src, Collector):
            resolved.append((src._tid, src.t0, list(src.events)))
        elif isinstance(src, dict):
            resolved.append(
                (int(src.get("tid", i)), src.get("t0_perf"),
                 list(src.get("events", [])))
            )
        else:
            tid, events = src
            resolved.append((int(tid), None, list(events)))

    origins = [t0 for _, t0, _ in resolved if t0 is not None]
    base_t0 = min(origins) if origins else None
    merged: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "ts": 0,
            "args": {"name": "repro GraphBLAS engine"},
        }
    ]
    for tid, t0, events in resolved:
        shift_us = (t0 - base_t0) * 1e6 if (t0 is not None and base_t0 is not None) else 0.0
        merged.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "ts": 0,
                "args": {"name": f"thread-{tid}"},
            }
        )
        for ev in chrome_trace_events(events, tid=tid)[1:]:
            if shift_us:
                ev = dict(ev, ts=ev["ts"] + shift_us)
            merged.append(ev)
    return {
        "traceEvents": merged,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.graphblas.telemetry"},
    }


# -- module-level control ------------------------------------------------------

def _recompute_flags() -> None:
    """Refresh the fast-path flags; callers hold ``_lock``."""
    global ENABLED, PLAN_EVENTS
    ENABLED = _active_count > 0 or _SINK is not None
    PLAN_EVENTS = _SINK is not None or _capture_count > 0


def set_sink(sink) -> None:
    """Install (or with ``None`` remove) the process-wide metrics sink.

    Called by :func:`repro.obs.enable` / :func:`repro.obs.disable`.
    While a sink is installed every thread's telemetry records are folded
    into it, whether or not the thread has a collector attached.
    """
    global _SINK
    with _lock:
        _SINK = sink
        _recompute_flags()


def get_sink():
    """The installed observability sink, or None."""
    return _SINK


@contextlib.contextmanager
def plan_capture():
    """Force per-plan ``plan.done`` dispatch events for the duration.

    Used by :func:`repro.obs.explain` so a capture works even when the
    process-wide observability sink is not installed.
    """
    global _capture_count
    with _lock:
        _capture_count += 1
        _recompute_flags()
    try:
        yield
    finally:
        with _lock:
            _capture_count -= 1
            _recompute_flags()

def enable(burble: bool = False, stream=None, max_events: int = MAX_EVENTS) -> Collector:
    """Attach a collector to the current thread (idempotent) and return it.

    If the thread already has a collector, its ``burble``/``stream``
    settings are updated and the same collector is returned.
    """
    global ENABLED, _active_count
    col = _collector()
    if col is not None:
        col.burble = bool(burble)
        if stream is not None:
            col.stream = stream
        return col
    col = Collector(burble=burble, stream=stream, max_events=max_events)
    _tls.collector = col
    with _lock:
        _active_count += 1
        _recompute_flags()
    return col


def disable() -> Collector | None:
    """Detach (and return) the current thread's collector, if any."""
    global ENABLED, _active_count
    col = _collector()
    if col is None:
        return None
    _tls.collector = None
    with _lock:
        _active_count -= 1
        _recompute_flags()
    return col


@contextlib.contextmanager
def collect(burble: bool = False, stream=None, max_events: int = MAX_EVENTS):
    """Attach a collector for the duration of the ``with`` block.

    Yields the :class:`Collector`; on exit the collector is detached but
    still readable (``snapshot()``, ``chrome_trace()``).  Nested use
    reuses the outer collector and leaves it attached.
    """
    outer = _collector()
    col = enable(burble=burble, stream=stream, max_events=max_events)
    try:
        yield col
    finally:
        if outer is None:
            disable()


def active() -> Collector | None:
    """The current thread's collector (None when telemetry is off)."""
    return _collector()


def snapshot(include_events: bool = False) -> dict:
    """Snapshot of the current thread's collector ({} when disabled)."""
    col = _collector()
    return {} if col is None else col.snapshot(include_events=include_events)


def reset() -> None:
    """Reset the current thread's collector, if any."""
    col = _collector()
    if col is not None:
        col.reset()


# -- module-level recording ----------------------------------------------------
# No-ops when the thread has no collector AND no observability sink is
# installed; otherwise each record goes to whichever consumers exist.

def record_op(name: str, seconds: float, out_nvals: int | None = None) -> None:
    """Record one completed operation (guard with ``telemetry.ENABLED``)."""
    col = _collector()
    if col is not None:
        col.record_op(name, seconds, out_nvals)
    if _SINK is not None:
        _SINK.record_op(name, seconds, out_nvals)


def tally(name: str, **fields) -> None:
    """Add metric increments (flops=, bytes_moved=, calls=) to an op."""
    col = _collector()
    if col is not None:
        col.tally(name, **fields)
    if _SINK is not None:
        _SINK.tally(name, fields)


def decision(kind: str, **detail) -> None:
    """Record an engine decision event with its driving numbers."""
    col = _collector()
    if col is not None:
        col.decision(kind, **detail)
    if _SINK is not None:
        _SINK.decision(kind, detail)


def instant(name: str, **attrs) -> None:
    """Record a per-iteration instant record (e.g. a BFS level)."""
    col = _collector()
    if col is not None:
        col.instant(name, **attrs)
    if _SINK is not None:
        _SINK.instant(name, attrs)


def span_at(name: str, start_s: float, end_s: float, **attrs) -> None:
    """Record a completed, possibly-overlapping span from absolute stamps."""
    col = _collector()
    if col is not None:
        col.span_at(name, start_s, end_s, **attrs)
    if _SINK is not None:
        _SINK.span(name, max(end_s - start_s, 0.0))


@contextlib.contextmanager
def span(name: str, **attrs):
    """Wrap an algorithm phase in a named span (no-op when disabled)."""
    if not ENABLED:
        yield
        return
    col = _collector()
    sink = _SINK
    if col is None and sink is None:
        yield
        return
    t0 = time.perf_counter()
    if col is not None:
        col.begin_span(name, **attrs)
    try:
        yield
    finally:
        if col is not None:
            col.end_span()
        if sink is not None:
            sink.span(name, time.perf_counter() - t0)


def _out_nvals(obj) -> int | None:
    """Cheap output-size probe (duck-typed to avoid circular imports)."""
    try:
        store = getattr(obj, "_store", None)
        if store is not None:
            return int(store.nvals)
        idx = getattr(obj, "indices", None)
        if idx is not None:
            return int(idx.size)
    except (AttributeError, TypeError):
        return None
    return None


def instrumented(op_name: str):
    """Decorator: time a Table-I operation and record its output nvals.

    The disabled path is one module-attribute read plus the wrapper call —
    per operation, never per element.
    """

    def deco(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ENABLED:
                return fn(*args, **kwargs)
            col = _collector()
            sink = _SINK
            if col is None and sink is None:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
            nvals = _out_nvals(out)
            if col is not None:
                col.record_op(op_name, seconds, nvals)
            if sink is not None:
                sink.record_op(op_name, seconds, nvals)
            return out

        return wrapper

    return deco
