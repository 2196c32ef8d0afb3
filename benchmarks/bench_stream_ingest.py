"""Streaming ingestion: sustained edges/s, incremental-vs-full speedup,
bounded-memory windows.

Standalone (argparse, not pytest) so CI and developers can run it at any
scale and get a machine-readable JSON verdict:

    PYTHONPATH=src python benchmarks/bench_stream_ingest.py \
        --scale 14 --windows 20 --budget 64m --out BENCH_PR8.json

Two phases:

* **bounded ingest** (runs first so the RSS high-water mark is not
  polluted): the full RMAT event stream is ingested under a governor
  ``ExecutionContext`` with a memory budget; over-budget windows must be
  chunked (not rejected) and the peak-RSS increase over the post-setup
  baseline must stay within ``budget * 1.2``.
* **speedup + parity** (the headline): the same stream drives the three
  incremental maintainers — dynamic PageRank, incremental connected
  components, per-delta triangle counts — and on **every** window each
  result is parity-asserted against its from-scratch counterpart on a
  copy of the current graph, while both sides are timed.  The acceptance
  criterion is a median per-window combined speedup >= 5x.
"""

from __future__ import annotations

import argparse
import json
import time

_SUFFIX = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_bytes(text: str) -> int:
    text = text.strip().lower()
    scale = 1
    if text and text[-1] in _SUFFIX:
        scale = _SUFFIX[text[-1]]
        text = text[:-1]
    return int(text) * scale


def peak_rss_bytes() -> int:
    """VmHWM (the process peak RSS high-water mark) in bytes."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) << 10
    raise RuntimeError("VmHWM not found in /proc/self/status")


def rmat_events(scale: int, edge_factor: int, windows: int, seed: int):
    """Timestamped RMAT edge events: Graph500 quadrant sampling, with
    duplicates kept (a real stream re-asserts hot edges), uniform
    timestamps over ``windows`` unit windows."""
    import numpy as np

    a, b, c = 0.57, 0.19, 0.19
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = edge_factor * n
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        r = rng.random(m)
        right = (r >= a) & (r < a + b)
        lower = (r >= a + b) & (r < a + b + c)
        both = r >= a + b + c
        bit = np.int64(1 << level)
        rows += bit * (lower | both)
        cols += bit * (right | both)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    ts = np.sort(rng.uniform(0.0, float(windows), rows.size))
    return n, rows, cols, ts


def _drive(stream, src, dst, ts, batch, on_window):
    import numpy as np  # noqa: F401 - keep signature symmetric with tests

    for lo in range(0, ts.size, batch):
        for win in stream.ingest(src[lo:lo + batch], dst[lo:lo + batch],
                                 ts[lo:lo + batch]):
            on_window(win)
    win = stream.flush()
    if win is not None:
        on_window(win)


def run_bounded(scale: int, edge_factor: int, windows: int, budget: int,
                chunk_budget: int, batch: int) -> dict:
    """Ingest under a tight governor working-set budget (forces chunked
    window assembly) while the process peak RSS must stay within the
    outer ``budget`` envelope."""
    from repro.graphblas import governor
    from repro.lagraph import GraphKind
    from repro.stream import GraphStream

    n, src, dst, ts = rmat_events(scale, edge_factor, windows, seed=7)
    stream = GraphStream(n, kind=GraphKind.UNDIRECTED, window="tumbling",
                         width=1.0)
    closed = []
    baseline = peak_rss_bytes()
    t0 = time.perf_counter()
    with governor.ExecutionContext(memory_budget=chunk_budget):
        _drive(stream, src, dst, ts, batch, closed.append)
    elapsed = time.perf_counter() - t0
    delta = peak_rss_bytes() - baseline
    assembly_s = sum(w.seconds for w in closed)
    events = sum(w.n_events for w in closed)
    return {
        "n": n,
        "events": events,
        "windows": len(closed),
        "chunks": sum(w.chunks for w in closed),
        "chunked_windows": sum(1 for w in closed if w.chunks > 1),
        "elapsed_s": elapsed,
        "assembly_s": assembly_s,
        "edges_per_s": events / assembly_s if assembly_s else 0.0,
        "peak_rss_delta_bytes": delta,
        "rss_within_budget": bool(delta <= budget * 1.2),
        "nvals_final": int(stream.graph.A.nvals),
    }


def run_speedup(scale: int, edge_factor: int, windows: int, batch: int,
                pr_tol: float) -> dict:
    import numpy as np

    from repro.lagraph import (
        Graph,
        GraphKind,
        connected_components,
        pagerank,
        triangle_count,
    )
    from repro.stream import (
        DynamicPageRank,
        GraphStream,
        IncrementalComponents,
        IncrementalTriangles,
    )

    n, src, dst, ts = rmat_events(scale, edge_factor, windows, seed=7)
    stream = GraphStream(n, kind=GraphKind.UNDIRECTED, window="tumbling",
                         width=1.0)
    pr = DynamicPageRank(stream.graph, tol=pr_tol)
    max_gap = 2 * pr_tol / (1 - pr.damping)  # the parity contract
    cc = IncrementalComponents(stream.graph)
    tri = IncrementalTriangles(stream.graph)
    per_window = []
    assembly_s = 0.0
    events = 0

    def on_window(win):
        nonlocal assembly_s, events
        assembly_s += win.seconds
        events += win.n_events

        t0 = time.perf_counter()
        ranks, sweeps = pr.update()
        t_pr = time.perf_counter() - t0
        t0 = time.perf_counter()
        labels = cc.update()
        t_cc = time.perf_counter() - t0
        t0 = time.perf_counter()
        count = tri.update()
        t_tri = time.perf_counter() - t0

        oracle = Graph(stream.graph.A.dup(), stream.graph.kind)
        t0 = time.perf_counter()
        # converged oracle: the default 100 iterations stop near 0.85**100
        full_pr, _ = pagerank(oracle, tol=pr_tol, max_iters=1000)
        f_pr = time.perf_counter() - t0
        t0 = time.perf_counter()
        full_cc = connected_components(oracle)
        f_cc = time.perf_counter() - t0
        t0 = time.perf_counter()
        full_tri = triangle_count(oracle)
        f_tri = time.perf_counter() - t0

        gap = float(np.abs(full_pr.to_dense(0.0) - ranks).sum())
        assert gap < max_gap, f"window {win.index}: pagerank gap {gap}"
        assert np.array_equal(labels, full_cc.to_dense()), (
            f"window {win.index}: component labels diverge"
        )
        assert count == full_tri, (
            f"window {win.index}: triangles {count} != {full_tri}"
        )
        inc = t_pr + t_cc + t_tri
        full = f_pr + f_cc + f_tri
        per_window.append({
            "window": win.index,
            "events": win.n_events,
            "assembly_s": win.seconds,
            "pr_sweeps": sweeps,
            "pr_gap_l1": gap,
            "inc_s": {"pagerank": t_pr, "components": t_cc,
                      "triangles": t_tri},
            "full_s": {"pagerank": f_pr, "components": f_cc,
                       "triangles": f_tri},
            "speedup": {
                "pagerank": f_pr / t_pr if t_pr else float("inf"),
                "components": f_cc / t_cc if t_cc else float("inf"),
                "triangles": f_tri / t_tri if t_tri else float("inf"),
                "combined": full / inc if inc else float("inf"),
            },
        })

    _drive(stream, src, dst, ts, batch, on_window)
    assert per_window, "stream produced no windows"
    assert pr.recomputes == cc.recomputes == tri.recomputes == 0, (
        "tumbling stream must never fall back to recompute"
    )

    def median(key):
        vals = sorted(w["speedup"][key] for w in per_window)
        return vals[len(vals) // 2]

    summary = {
        "n": n,
        "events": events,
        "windows": len(per_window),
        "assembly_s": assembly_s,
        "edges_per_s": events / assembly_s if assembly_s else 0.0,
        "median_speedup": {k: median(k) for k in
                           ("pagerank", "components", "triangles",
                            "combined")},
        "max_pr_gap_l1": max(w["pr_gap_l1"] for w in per_window),
        "pr_sweeps": sum(w["pr_sweeps"] for w in per_window),
        "parity_windows": len(per_window),
    }
    return {"summary": summary, "per_window": per_window}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=14,
                        help="RMAT scale (2**scale vertices)")
    parser.add_argument("--edge-factor", type=int, default=8)
    parser.add_argument("--windows", type=int, default=20,
                        help="tumbling windows the stream spans")
    parser.add_argument("--batch", type=int, default=8192,
                        help="events per ingest call")
    parser.add_argument("--budget", default="64m",
                        help="peak-RSS envelope (k/m/g suffixes)")
    parser.add_argument("--chunk-budget", default="2m",
                        help="governor working-set budget for the bounded "
                             "phase; sized to force chunked assembly")
    parser.add_argument("--pr-tol", type=float, default=1e-10)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--out", default="BENCH_PR8.json")
    args = parser.parse_args(argv)
    budget = parse_bytes(args.budget)

    chunk_budget = parse_bytes(args.chunk_budget)

    results = {
        "scale": args.scale,
        "edge_factor": args.edge_factor,
        "windows": args.windows,
        "budget": args.budget,
        "budget_bytes": budget,
        "chunk_budget": args.chunk_budget,
        "chunk_budget_bytes": chunk_budget,
        "pr_tol": args.pr_tol,
    }

    results["bounded"] = b = run_bounded(
        args.scale, args.edge_factor, args.windows, budget, chunk_budget,
        args.batch,
    )
    print(
        f"bounded @ scale {args.scale}: {b['windows']} windows, "
        f"{b['chunks']} chunks ({b['chunked_windows']} windows split), "
        f"{b['edges_per_s']:.0f} edges/s, peak RSS delta "
        f"{b['peak_rss_delta_bytes'] / (1 << 20):.1f} MiB vs budget "
        f"{budget / (1 << 20):.0f} MiB: "
        f"{'WITHIN' if b['rss_within_budget'] else 'OVER'} budget*1.2"
    )
    assert b["rss_within_budget"], "peak RSS exceeded budget * 1.2"
    assert b["chunked_windows"] > 0, (
        "budget never forced chunked assembly; lower --budget or raise scale"
    )

    results["speedup"] = s = run_speedup(
        args.scale, args.edge_factor, args.windows, args.batch, args.pr_tol
    )
    summary = s["summary"]
    med = summary["median_speedup"]
    print(
        f"speedup @ scale {args.scale}: {summary['windows']} windows "
        f"parity-asserted, sustained {summary['edges_per_s']:.0f} edges/s, "
        f"median speedup pagerank {med['pagerank']:.1f}x, components "
        f"{med['components']:.1f}x, triangles {med['triangles']:.1f}x, "
        f"combined {med['combined']:.1f}x "
        f"(max PR L1 gap {summary['max_pr_gap_l1']:.2e}, "
        f"{summary['pr_sweeps']} PR sweeps)"
    )
    assert med["combined"] >= args.min_speedup, (
        f"median combined speedup {med['combined']:.2f}x below "
        f"{args.min_speedup}x"
    )

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    return results


if __name__ == "__main__":
    main()
