"""Production observability: process-wide metrics, exposition, EXPLAIN.

:mod:`repro.graphblas.telemetry` answers "what did *this* run on *this*
thread just do"; this package answers the fleet questions a long-lived
service is operated by — cumulative counters, latency/size percentiles
aggregated across every thread since process start, scrape endpoints,
and per-plan profiles:

* :func:`enable` installs a :class:`~repro.obs.sink.MetricsSink` into
  the telemetry fan-out; from then on every instrumented site in the
  engine (the dispatcher's one ``op`` record per executed plan, with
  the SpGEMM method or push/pull direction it ran; kernel compiles,
  governor events, spill traffic) feeds the process-wide :class:`~repro.obs.registry.MetricsRegistry` from all
  threads, with or without per-thread collectors.
* :func:`prometheus_text` / :func:`json_snapshot` / :func:`start_emitter`
  expose the registry (Prometheus scrape format, structured JSON, and a
  periodic JSON log line).
* :func:`explain` profiles one callable into a per-OpPlan report —
  route, backend, method, estimated vs actual bytes, kernel-cache and
  spill activity — and :func:`slow_ops` returns the N slowest plans
  seen since enable.  Both hold the dispatcher's op record itself, so
  a plan's EXPLAIN record and its slow-op record are the same dict
  (up to timing stamps).

The tunables are the ``obs`` rows of
:mod:`repro.graphblas.options` — ``enabled`` (``GRAPHBLAS_OBS=on``
auto-enables at import; :func:`enable` always works regardless),
``slow_ms`` / ``slow_capacity`` (the slow-op log) and ``emit_s`` (when
> 0, :func:`enable` also starts the periodic emitter).

Typical service setup::

    from repro import obs

    obs.enable()                       # lock-cheap sharded counters
    ... serve traffic ...
    text = obs.prometheus_text()       # scrape endpoint body
    worst = obs.slow_ops()             # the 32 slowest plans, explained

Zero overhead while disabled: instrumented sites see the same single
module-attribute guard as plain telemetry
(``benchmarks/bench_obs_overhead.py`` holds this to noise).
"""

from __future__ import annotations

import threading

from ..graphblas import options as _options
from ..graphblas import telemetry as _telemetry
from . import exposition as _exposition
from .explain import ExplainReport, explain
from .registry import MetricsRegistry
from .sink import MetricsSink, SlowOpLog

__all__ = [
    "enable",
    "disable",
    "enabled",
    "registry",
    "counter_inc",
    "gauge_set",
    "observe",
    "register_gauge",
    "unregister_gauge",
    "snapshot",
    "json_snapshot",
    "prometheus_text",
    "check_prometheus_text",
    "start_emitter",
    "stop_emitter",
    "explain",
    "ExplainReport",
    "slow_ops",
    "clear_slow_ops",
    "set_slow_op_threshold",
    "slow_op_threshold",
    "reset",
    "MetricsRegistry",
    "MetricsSink",
    "SlowOpLog",
]

_lock = threading.Lock()
_registry = MetricsRegistry()
_slow_log = SlowOpLog()
_sink: MetricsSink | None = None
_emitter: _exposition.Emitter | None = None

check_prometheus_text = _exposition.check_prometheus_text


def _apply_options() -> dict:
    """Retune the slow-op log from the ``obs`` option rows."""
    cfg = _options.get("obs")
    _slow_log.threshold_s = cfg["slow_ms"] / 1e3
    _slow_log.resize(cfg["slow_capacity"])
    return cfg


def registry() -> MetricsRegistry:
    """The process-wide metrics registry (live even while disabled —
    direct :func:`counter_inc`/:func:`observe` calls always land)."""
    return _registry


# -- recording passthroughs (for application-level metrics) ------------------

def counter_inc(name: str, value: float = 1, **labels) -> None:
    """Add to a counter in the process registry."""
    _registry.counter_inc(name, value, labels or None)


def gauge_set(name: str, value: float, **labels) -> None:
    """Set a gauge in the process registry."""
    _registry.gauge_set(name, value, labels or None)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation in the process registry."""
    _registry.observe(name, value, labels or None)


def register_gauge(name: str, fn, **labels) -> None:
    """Register a callback gauge in the process registry: ``fn()`` is
    evaluated at read time (scrape/snapshot)."""
    _registry.register_gauge(name, fn, labels or None)


def unregister_gauge(name: str, **labels) -> None:
    """Drop a callback gauge (and any direct sample under the same key)."""
    _registry.unregister_gauge(name, labels or None)


# -- enable/disable -----------------------------------------------------------

def _engine_gauges() -> list[tuple[str, object, dict]]:
    """Collect-on-read gauges over engine-internal stats."""
    from ..graphblas import compiled, engine, plan

    gauges: list[tuple[str, object, dict]] = []
    for stat in ("hits", "misses", "evictions", "size", "capacity",
                 "declined", "compile_seconds"):
        gauges.append((
            "graphblas_compiled_kernel_cache",
            lambda s=stat: compiled.cache_stats()[s],
            {"stat": stat},
        ))
    for kind in ("configured", "started", "live_threads"):
        gauges.append((
            "graphblas_engine_pool_workers",
            lambda k=kind: engine.pool_stats()[k],
            {"kind": kind},
        ))
    for stat in ("hits", "misses", "size"):
        gauges.append((
            "graphblas_plan_resolver_cache",
            lambda s=stat: plan.resolver_cache_stats()[s],
            {"stat": stat},
        ))
    from ..graphblas import updatelog

    gauges.append(("graphblas_pending_tuples", updatelog.pending_depth, {}))
    gauges.append(("graphblas_zombies", updatelog.zombie_depth, {}))
    return gauges


def enable(**overrides) -> MetricsRegistry:
    """Turn on process-wide metrics collection (idempotent).

    Installs the telemetry fan-out sink, registers the engine's
    collect-on-read gauges (compiled kernels, thread pool, resolver cache),
    and applies the ``obs`` options — ``slow_ms=`` / ``slow_capacity=``
    given here override them first.  Returns the registry.
    """
    global _sink
    _options.set("obs", enabled=True, **overrides)
    cfg = _apply_options()
    with _lock:
        if _sink is None:
            _sink = MetricsSink(_registry, _slow_log)
            _registry.declare("graphblas_compiled_kernel_cache", "gauge",
                              "Compiled-tier JIT kernel LRU stats, by "
                              "stat label")
            _registry.declare("graphblas_engine_pool_workers", "gauge",
                              "Shared engine thread pool occupancy")
            _registry.declare("graphblas_plan_resolver_cache", "gauge",
                              "Plan resolver memo-table stats")
            _registry.declare("graphblas_pending_tuples", "gauge",
                              "Unassembled update-log insertions across "
                              "live matrices/vectors")
            _registry.declare("graphblas_zombies", "gauge",
                              "Unassembled update-log deletions across "
                              "live matrices/vectors")
            for name, fn, labels in _engine_gauges():
                _registry.register_gauge(name, fn, labels)
            from ..graphblas import updatelog

            updatelog.enable_depth_tracking(True)
            _telemetry.set_sink(_sink)
    if cfg["emit_s"] > 0 and _emitter is None:
        start_emitter(cfg["emit_s"])
    return _registry


def disable() -> None:
    """Stop feeding the registry (its accumulated totals remain readable)."""
    global _sink
    _options.set("obs", enabled=False)
    stop_emitter()
    with _lock:
        if _sink is not None:
            _telemetry.set_sink(None)
            _sink = None
            from ..graphblas import updatelog

            updatelog.enable_depth_tracking(False)


def enabled() -> bool:
    """Whether the metrics sink is currently installed."""
    return _sink is not None


# -- exposition ---------------------------------------------------------------

def snapshot() -> dict:
    """Structured registry snapshot (counters/gauges/histograms, with
    p50/p90/p99 per histogram series)."""
    return _registry.snapshot()


def json_snapshot(*, indent: int | None = None) -> str:
    """The snapshot serialized as JSON."""
    return _exposition.json_snapshot(_registry, indent=indent)


def prometheus_text() -> str:
    """The registry in Prometheus text exposition format (scrape body)."""
    return _exposition.prometheus_text(_registry)


def start_emitter(interval_s: float = 30.0, stream=None) -> _exposition.Emitter:
    """Start (or return) the periodic structured-log metrics emitter."""
    global _emitter
    with _lock:
        if _emitter is None:
            _emitter = _exposition.Emitter(_registry, interval_s, stream)
            _emitter.start()
        return _emitter


def stop_emitter(*, final_emit: bool = False) -> None:
    """Stop the periodic emitter, optionally flushing one last line."""
    global _emitter
    with _lock:
        em, _emitter = _emitter, None
    if em is not None:
        em.stop(final_emit=final_emit)


# -- slow-op log --------------------------------------------------------------

def slow_ops() -> list[dict]:
    """The retained slowest plan records (slowest first): each the op
    record EXPLAIN reports (route, backend, method, est/actual bytes,
    spills, ...) plus its ``wall_time``."""
    return _slow_log.records()


def clear_slow_ops() -> None:
    _slow_log.clear()


def set_slow_op_threshold(slow_ms: float) -> None:
    """Plans at or above this duration enter the slow-op log."""
    _options.set("obs", slow_ms=slow_ms)
    _apply_options()


def slow_op_threshold() -> float:
    """The current slow-op threshold in milliseconds."""
    return _slow_log.threshold_s * 1e3


def reset() -> None:
    """Disable, drop all metrics, slow-op records and ``obs`` option
    overrides (tests only)."""
    disable()
    _registry.reset()
    _slow_log.clear()
    _options.reset("obs")
    _apply_options()


if _apply_options()["enabled"]:
    enable()
