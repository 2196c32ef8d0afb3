#!/usr/bin/env python3
"""Export kernel telemetry as Chrome ``trace_event`` JSON.

Two modes:

* ``export_trace.py snapshot.json [-o trace.json]`` — convert saved
  telemetry into a trace file.  The input may be a single snapshot that
  was saved with events included (``snapshot(include_events=True)``, or a
  ``<bench>.telemetry.json`` written by ``pytest benchmarks
  --telemetry``), a JSON **list** of such snapshots (one per thread), or
  a ``{"threads": [...]}`` wrapper.  Multi-thread inputs are merged onto
  one timeline with one track per thread (each snapshot carries its
  ``tid`` and ``perf_counter`` origin), instead of flattening every
  thread's events onto a single overlapping row.
* ``export_trace.py --demo [-o trace.json] [--scale N] [--threads T]`` —
  run BFS + PageRank on an RMAT graph and write the captured trace; with
  ``--threads`` > 1 the algorithms run concurrently, one collector per
  worker thread, exercising the merge path.

The output loads in ``chrome://tracing`` (or https://ui.perfetto.dev):
Table-I operations (one slice per executed plan, named after its op —
``mxv``, ``ewise_add``, ``reduce_scalar``, ... — with the serving
``backend``, ``route``, kernel tier and, for mxm/mxv/vxm, the SpGEMM
method or push/pull direction that ran as args) and algorithm spans
appear as duration slices, engine decisions (early exits, kernel
compiles, assembly) as instant events.

Run:  python scripts/export_trace.py --demo -o /tmp/trace.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.graphblas import telemetry


def _sources(data) -> list[dict] | None:
    """Normalize input JSON to a list of event-bearing snapshot dicts."""
    if isinstance(data, list):
        snaps = data
    elif isinstance(data, dict) and isinstance(data.get("threads"), list):
        snaps = data["threads"]
    else:
        # a bare snapshot or the benchmark {"bench", "telemetry"} wrapper
        snaps = [data.get("telemetry", data) if isinstance(data, dict) else data]
    out = []
    for snap in snaps:
        if not isinstance(snap, dict) or snap.get("events") is None:
            return None
        out.append(snap)
    return out


def convert(snapshot_path: str, out_path: str) -> int:
    """Snapshot JSON (with ``events``) -> Chrome trace JSON."""
    with open(snapshot_path, "r", encoding="utf-8") as f:
        data = json.load(f)
    sources = _sources(data)
    if sources is None:
        print(
            f"error: {snapshot_path} holds no 'events' list — save the "
            "snapshot with include_events=True to make it traceable",
            file=sys.stderr,
        )
        return 2
    trace = telemetry.chrome_trace_merged(sources)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(trace, f)
    total = sum(len(s["events"]) for s in sources)
    print(f"wrote {total} events from {len(sources)} thread(s) to {out_path}")
    return 0


def demo(out_path: str, scale: int, threads: int) -> int:
    """BFS + PageRank on RMAT; write the (optionally multi-thread) trace."""
    from repro.generators import rmat_graph
    from repro.lagraph import bfs_level, pagerank

    print(f"# generating RMAT scale {scale} (n={1 << scale}) ...")
    graph = rmat_graph(scale, 8, seed=42, kind="directed")
    print(f"# n={graph.n} edges={graph.nedges}")

    def workload(source: int):
        bfs_level(source % graph.n, graph)
        pagerank(graph, max_iters=10)

    if threads <= 1:
        with telemetry.collect(burble=True) as col:
            workload(0)
            snap = col.snapshot()
            trace = telemetry.chrome_trace_merged([col])
    else:
        import threading

        snaps: list[dict] = []
        lock = threading.Lock()

        def worker(i: int):
            with telemetry.collect() as col:
                workload(i)
                with lock:
                    snaps.append(col.snapshot(include_events=True))

        ts = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        snap = snaps[0]
        trace = telemetry.chrome_trace_merged(snaps)

    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(trace, f)

    print("\n# snapshot summary" + (f" (thread 1 of {threads})" if threads > 1 else ""))
    width = max(map(len, snap["ops"]), default=0)
    for name, st in snap["ops"].items():
        print(f"#   {name:{width}s} calls={st['calls']:<6d} "
              f"seconds={st['seconds']:.4f}")
    for kind, count in snap["decisions"].items():
        print(f"#   decision {kind}: {count}")
    tids = {ev["tid"] for ev in trace["traceEvents"]}
    print(f"# wrote Chrome trace ({len(tids)} track(s)) to {out_path} "
          "(open in chrome://tracing)")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("snapshot", nargs="?", help="telemetry snapshot JSON to convert")
    p.add_argument("-o", "--out", default="trace.json", help="output trace path")
    p.add_argument("--demo", action="store_true", help="run the BFS/PageRank demo")
    p.add_argument("--scale", type=int, default=12, help="demo RMAT scale")
    p.add_argument("--threads", type=int, default=1,
                   help="demo worker threads (one trace track each)")
    args = p.parse_args(argv)
    if args.demo:
        return demo(args.out, args.scale, max(args.threads, 1))
    if not args.snapshot:
        p.error("either a snapshot path or --demo is required")
    return convert(args.snapshot, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
