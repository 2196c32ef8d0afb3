"""Telemetry-stream -> metrics-registry translation, plus the slow-op log.

:mod:`repro.graphblas.telemetry` already has every interesting site
instrumented — one ``op`` record per executed Table-I plan (from the
backend dispatcher) carrying what the plan chose (SpGEMM method or
push/pull direction, kernel tier and cache outcome, admission verdict),
engine decisions (kernel compiles, early exits, twin reuse), governor
events (reject/cancel/spill/reload) — but it only delivers those records
to a per-thread collector.

:class:`MetricsSink` is the second consumer: installed into the telemetry
module by :func:`repro.obs.enable`, it receives the same stream (from
*every* thread, with or without a collector attached) and folds it into
the process-wide :class:`~repro.obs.registry.MetricsRegistry` under
stable, Prometheus-ready metric names.  Label sets are deliberately
low-cardinality — op names, backend names, event kinds — never indices,
tile keys, or paths.

The sink also owns the **slow-op log**: a bounded min-heap of the N
slowest plan records (the dispatcher's ``op`` records), each the same
dict :func:`repro.obs.explain` reports for its plan — route, backend,
kernel tier, method, estimated vs actual bytes, admission, spill
traffic — so "what were my worst ops since startup" is one call, no
trace replay needed.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from functools import lru_cache

from .registry import MetricsRegistry

__all__ = ["MetricsSink", "SlowOpLog", "DEFAULT_SLOW_CAPACITY"]

DEFAULT_SLOW_CAPACITY = 32


# Pre-canonical label tuples for the hottest event shapes: the registry
# accepts them verbatim (no per-record dict build + sort), and the sets
# are low-cardinality by construction so the caches stay tiny.

@lru_cache(maxsize=4096)
def _labels1(key: str, value) -> tuple:
    return ((key, str(value)),)


@lru_cache(maxsize=4096)
def _labels2(k1: str, v1, k2: str, v2) -> tuple:
    # callers pass keys already in sorted order
    return ((k1, str(v1)), (k2, str(v2)))


@lru_cache(maxsize=4096)
def _labels3(k1: str, v1, k2: str, v2, k3: str, v3) -> tuple:
    # callers pass keys already in sorted order
    return ((k1, str(v1)), (k2, str(v2)), (k3, str(v3)))


class SlowOpLog:
    """Keep the ``capacity`` slowest plan records at or over a threshold.

    A min-heap ordered by duration: once full, a new record must beat the
    current fastest member to enter.  ``threshold_s`` filters noise at
    the source; 0.0 admits everything (capacity still bounds memory).
    """

    def __init__(self, threshold_s: float = 0.1,
                 capacity: int = DEFAULT_SLOW_CAPACITY):
        self.threshold_s = float(threshold_s)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = itertools.count()

    def offer(self, seconds: float, record: dict) -> bool:
        """Consider one plan record; returns True if it was retained."""
        if seconds < self.threshold_s or self.capacity <= 0:
            return False
        entry = (float(seconds), next(self._seq), record)
        with self._lock:
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, entry)
                return True
            if entry[0] > self._heap[0][0]:
                heapq.heapreplace(self._heap, entry)
                return True
        return False

    def records(self) -> list[dict]:
        """The retained records, slowest first."""
        with self._lock:
            ordered = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        return [dict(rec) for _, _, rec in ordered]

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()

    def resize(self, capacity: int) -> None:
        """Set the capacity, dropping the fastest records beyond it."""
        with self._lock:
            self.capacity = int(capacity)
            while len(self._heap) > max(self.capacity, 0):
                heapq.heappop(self._heap)

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)


class MetricsSink:
    """Fold telemetry records into a :class:`MetricsRegistry`.

    The method names mirror the telemetry module's recording surface
    (``record_op`` / ``tally`` / ``decision`` / ``instant`` / ``span`` /
    ``dropped``); :mod:`repro.graphblas.telemetry` forwards each record
    here when a sink is installed.
    """

    def __init__(self, registry: MetricsRegistry,
                 slow_log: SlowOpLog | None = None):
        self.registry = registry
        self.slow_log = slow_log if slow_log is not None else SlowOpLog()
        self._declare()

    def _declare(self) -> None:
        d = self.registry.declare
        d("graphblas_op_seconds", "histogram",
          "Kernel wall time of executed operations by op name")
        d("graphblas_op_out_entries_total", "counter",
          "Stored entries written to operation outputs")
        d("graphblas_plan_bytes", "histogram",
          "Estimated and actual result bytes per executed OpPlan")
        d("graphblas_plan_route_total", "counter",
          "Executed OpPlans by backend, op and dispatch route (direct/tiled)")
        d("graphblas_governor_events_total", "counter",
          "Execution-governor verdicts and actions by event kind")
        d("graphblas_spill_bytes_total", "counter",
          "Bytes moved by the tiled spill pools, by direction")
        d("graphblas_engine_events_total", "counter",
          "Performance-engine events (kernel compiles, twin reuse, ...)")
        d("graphblas_compile_seconds", "histogram",
          "Wall time of compiled-tier kernel JIT builds, by toolchain")
        d("graphblas_compiled_kernel_events_total", "counter",
          "Compiled-kernel cache activity (compile/hit) by toolchain")
        d("graphblas_early_exit_total", "counter",
          "Dot products stopped at a terminal-monoid annihilator, by op")
        d("graphblas_spgemm_method_total", "counter",
          "SpGEMM method selections")
        d("graphblas_mxv_direction_total", "counter",
          "Push/pull direction selections for mxv/vxm")
        d("graphblas_differential_divergence_total", "counter",
          "Differential-backend divergences detected (should stay 0)")
        d("graphblas_decisions_total", "counter",
          "Engine decision events not covered by a dedicated metric")
        d("graphblas_iteration_events_total", "counter",
          "Per-iteration instants recorded inside algorithm spans")
        d("graphblas_span_seconds", "histogram",
          "Algorithm span wall time by span name")
        d("graphblas_flops_total", "counter",
          "Semiring multiply-add operations tallied by the kernels")
        d("graphblas_bytes_moved_total", "counter",
          "Bytes moved by import/export and file I/O, by op")
        d("graphblas_calls_total", "counter",
          "Auxiliary call tallies (resolve cache, I/O) by op")
        d("graphblas_telemetry_dropped_total", "counter",
          "Telemetry events dropped at collector ring-buffer capacity")
        d("graphblas_slow_ops_total", "counter",
          "Plans admitted to the slow-op log")

    # -- the telemetry recording surface ----------------------------------

    def record_op(self, name: str, seconds: float,
                  out_nvals: int | None, fields: dict) -> None:
        op = _labels1("op", name)
        self.registry.observe("graphblas_op_seconds", seconds, op)
        if out_nvals:
            self.registry.counter_inc(
                "graphblas_op_out_entries_total", int(out_nvals), op
            )
        route = fields.get("route")
        if route is None:
            return  # a bare timer (wait), not an executed plan
        self.registry.counter_inc(
            "graphblas_plan_route_total", 1,
            _labels3("backend", fields["backend"], "op", name, "route", route),
        )
        est = fields.get("est_bytes")
        if est:
            self.registry.observe(
                "graphblas_plan_bytes", int(est),
                _labels2("kind", "estimated", "op", name),
            )
        actual = fields.get("actual_bytes")
        if actual:
            self.registry.observe(
                "graphblas_plan_bytes", int(actual),
                _labels2("kind", "actual", "op", name),
            )
        method = fields.get("method")
        if method is not None:
            if name == "mxm":
                self.registry.counter_inc("graphblas_spgemm_method_total", 1,
                                          _labels1("method", method))
            else:
                self.registry.counter_inc("graphblas_mxv_direction_total", 1,
                                          _labels1("direction", method))
        if fields.get("kernel_cache") == "hit":
            self.registry.counter_inc(
                "graphblas_compiled_kernel_events_total", 1,
                _labels2("event", "hit", "toolchain", fields["toolchain"]))
        if fields.get("admission") == "admitted":
            self.registry.counter_inc("graphblas_governor_events_total", 1,
                                      _labels1("event", "admit"))
        if seconds >= self.slow_log.threshold_s:
            record = {"op": name, "seconds": seconds, **fields,
                      "wall_time": time.time()}
            if out_nvals is not None:
                record["out_nvals"] = int(out_nvals)
            if self.slow_log.offer(seconds, record):
                self.registry.counter_inc("graphblas_slow_ops_total", 1, op)

    def tally(self, name: str, fields: dict) -> None:
        if name.startswith("governor."):
            return  # spill/reload traffic is counted from its decisions
        for field, value in fields.items():
            if field == "flops":
                self.registry.counter_inc(
                    "graphblas_flops_total", int(value), _labels1("op", name)
                )
            elif field == "bytes_moved":
                self.registry.counter_inc(
                    "graphblas_bytes_moved_total", int(value), _labels1("op", name)
                )
            elif field == "calls":
                self.registry.counter_inc(
                    "graphblas_calls_total", int(value), _labels1("op", name)
                )

    def decision(self, kind: str, detail: dict) -> None:
        inc = self.registry.counter_inc
        if kind.startswith("governor."):
            event = kind.split(".", 1)[1]
            inc("graphblas_governor_events_total", 1, _labels1("event", event))
            if event in ("spill", "reload") and detail.get("bytes"):
                inc("graphblas_spill_bytes_total", int(detail["bytes"]),
                    _labels1("direction", event))
            return
        if kind.startswith("engine."):
            sub = kind.split(".", 1)[1]
            if "event" in detail:
                labels = _labels2("event", detail["event"], "kind", sub)
            else:
                labels = _labels1("kind", sub)
            inc("graphblas_engine_events_total", 1, labels)
            return
        if kind == "compiled.kernel":
            event = str(detail.get("event", "compile"))
            toolchain = detail.get("toolchain")
            inc("graphblas_compiled_kernel_events_total", 1,
                _labels2("event", event, "toolchain", toolchain))
            if event == "compile" and detail.get("seconds") is not None:
                self.registry.observe(
                    "graphblas_compile_seconds", float(detail["seconds"]),
                    _labels1("toolchain", toolchain))
            return
        if kind in ("mxm.early_exit", "mxv.early_exit"):
            terminated = int(detail.get("terminated", 0))
            if terminated:
                inc("graphblas_early_exit_total", terminated,
                    _labels1("op", kind.split(".", 1)[0]))
            return
        if kind == "differential.divergence":
            inc("graphblas_differential_divergence_total", 1,
                _labels1("op", detail.get("op")))
            return
        inc("graphblas_decisions_total", 1, _labels1("kind", kind))

    def instant(self, name: str, attrs: dict) -> None:
        self.registry.counter_inc(
            "graphblas_iteration_events_total", 1, _labels1("name", name)
        )

    def span(self, name: str, seconds: float) -> None:
        self.registry.observe("graphblas_span_seconds", seconds, _labels1("span", name))

    def dropped(self, event_type: str, count: int = 1) -> None:
        self.registry.counter_inc(
            "graphblas_telemetry_dropped_total", count, _labels1("type", event_type)
        )
