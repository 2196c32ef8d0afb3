"""EXPLAIN/profile: per-OpPlan execution reports for any op or algorithm.

``obs.explain(fn)`` runs ``fn`` under a telemetry collector and reports
one record per executed :class:`~repro.graphblas.plan.OpPlan`: the
dispatcher's ``op`` record itself (the same one the collector, burble,
trace, metrics sink and slow-op log read), which says

* the **dispatch route** — which backend served it, or the governor's
  ``tiled`` spill re-plan of an over-budget plan;
* the **admission verdict** with estimated vs actual result bytes, so
  the governor's footprint model is auditable against reality;
* **engine activity** — the kernel tier that ran (``compiled`` or
  ``numpy``), the SpGEMM method or push/pull direction that ran, and
  the plan's own compiled-kernel cache outcome (the ``cmp`` column:
  ``hit`` or ``built``, with the toolchain);
* **spill traffic** — tile size, tiles, spills, reloads, and bytes
  through the plan's :class:`~repro.graphblas.tiled.SpillPool`;
* **wall time**, kernel-only (the dispatcher's measurement).

A record made inside a ``stream.window`` span also gets that window's
index.  The report renders as an aligned text table (``str(report)``)
and a machine-readable dict (``report.as_dict()``); algorithm spans and
per-name op totals ride along as secondary tables.
"""

from __future__ import annotations

from ..graphblas import telemetry

__all__ = ["explain", "ExplainReport"]


def _build_records(events: list[dict]) -> tuple[list[dict], dict, dict]:
    plans: list[dict] = []
    ops: dict[str, dict] = {}
    spans: dict[str, dict] = {}
    # plans that start inside a stream.window span's time range belong
    # to that window (span events are appended at span exit but carry
    # their begin timestamp and duration)
    plan_ts: list[float] = []
    for ev in events:
        etype = ev["type"]
        name = ev["name"]
        args = ev.get("args", {})
        if etype == "op":
            seconds = ev.get("dur", 0.0) / 1e6
            agg = ops.setdefault(name, {"calls": 0, "seconds": 0.0})
            agg["calls"] += 1
            agg["seconds"] += seconds
            if "route" in args:  # an executed plan, not a bare wait timer
                plans.append({"op": name, "seconds": seconds, **args})
                plan_ts.append(ev.get("ts", 0.0))
        elif etype == "span":
            agg = spans.setdefault(name, {"count": 0, "seconds": 0.0})
            agg["count"] += 1
            agg["seconds"] += ev.get("dur", 0.0) / 1e6
            if name == "stream.window" and "index" in args:
                lo = ev.get("ts", 0.0)
                hi = lo + ev.get("dur", 0.0)
                for r, t in zip(plans, plan_ts):
                    if lo <= t <= hi:
                        r.setdefault("window", args["index"])
    return plans, ops, spans


def _fmt_bytes(n) -> str:
    if n is None:
        return "-"
    n = int(n)
    for unit, scale in (("GiB", 1 << 30), ("MiB", 1 << 20), ("KiB", 1 << 10)):
        if n >= scale:
            return f"{n / scale:.1f}{unit}"
    return f"{n}B"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


class ExplainReport:
    """The outcome of one :func:`explain` capture.

    ``records`` holds one dict per executed plan (dispatch order);
    ``ops`` and ``spans`` total the op records and algorithm spans by
    name; ``dropped`` counts the events of the call past ``max_events``,
    which the report does not see; ``result`` is whatever the profiled
    callable returned.  ``str(report)`` renders the aligned tables.
    """

    def __init__(self, records, ops, spans, result, dropped=0):
        self.records = records
        self.ops = ops
        self.spans = spans
        self.result = result
        self.dropped = dropped

    def as_dict(self) -> dict:
        return {
            "plans": [dict(r) for r in self.records],
            "ops": {k: dict(v) for k, v in self.ops.items()},
            "spans": {k: dict(v) for k, v in self.spans.items()},
            "dropped": self.dropped,
        }

    def text(self) -> str:
        parts = []
        if self.records:
            headers = ["#", "op", "route", "backend", "method", "ms",
                       "est", "actual", "admission", "kernel", "cmp",
                       "spills", "reloads"]
            windowed = any("window" in r for r in self.records)
            if windowed:
                headers.append("win")
            rows = []
            for i, r in enumerate(self.records):
                cmp_cell = "-"
                if "kernel_cache" in r:
                    cmp_cell = f"{r['kernel_cache']}/{r['toolchain']}"
                rows.append([
                    str(i),
                    str(r.get("op", "?")),
                    str(r.get("route", "direct")),
                    str(r.get("backend", "-")),
                    str(r.get("method", "-")),
                    f"{r.get('seconds', 0.0) * 1e3:.3f}",
                    _fmt_bytes(r.get("est_bytes")),
                    _fmt_bytes(r.get("actual_bytes")),
                    str(r.get("admission", "-")),
                    str(r.get("kernel", "-")),
                    cmp_cell,
                    str(r.get("spills", 0) or "-"),
                    str(r.get("reloads", 0) or "-"),
                ])
                if windowed:
                    w = r.get("window")
                    rows[-1].append("-" if w is None else str(w))
            parts.append("EXPLAIN: executed plans\n" + _table(headers, rows))
        else:
            parts.append("EXPLAIN: no plans executed")
        if self.dropped:
            parts.append(f"{self.dropped} events dropped past max_events")
        if self.spans:
            rows = [
                [name, str(v["count"]), f"{v['seconds'] * 1e3:.3f}"]
                for name, v in sorted(self.spans.items())
            ]
            parts.append("spans\n" + _table(["span", "count", "ms"], rows))
        if self.ops:
            rows = [
                [name, str(v["calls"]), f"{v['seconds'] * 1e3:.3f}"]
                for name, v in sorted(self.ops.items())
            ]
            parts.append("operations\n" + _table(["op", "calls", "ms"], rows))
        return "\n\n".join(parts)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExplainReport(plans={len(self.records)}, ops={len(self.ops)})"


def explain(fn, *args, max_events: int | None = None, **kwargs) -> ExplainReport:
    """Profile ``fn(*args, **kwargs)`` and report every executed OpPlan.

    Works standalone — observability need not be enabled; the capture
    is a plain telemetry collector (a nested one inside an outer
    telemetry ``collect``, which still receives every event).  The
    report holds at most ``max_events`` events of this call, the first,
    and counts the rest in ``report.dropped``.

    ::

        report = obs.explain(lambda: ops.mxm(C, A, B, "PLUS_TIMES"))
        print(report)             # aligned per-plan table
        report.records[0]["route"]   # "tiled" when the governor re-planned
    """
    kw = {} if max_events is None else {"max_events": max_events}
    with telemetry.collect(**kw) as col:
        result = fn(*args, **kwargs)
    plans, ops, spans = _build_records(col.events)
    return ExplainReport(plans, ops, spans, result, col.dropped)
