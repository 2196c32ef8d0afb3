"""Serving-layer chaos benchmark: goodput, latency, and zero wrong
results under fault injection, overload, and a persistent kernel fault.

Standalone (argparse, not pytest) so CI and developers can run it at any
scale and get a machine-readable JSON verdict:

    PYTHONPATH=src python benchmarks/bench_serve.py \
        --scale 13 --queries 10000 --budget 64m --out BENCH_PR9.json

Four phases over one published RMAT snapshot:

* **fault-free** — closed-loop multi-tenant clients drive a mixed
  bfs/sssp/components/triangles workload; every result is checked
  against the precomputed direct-call answer on the same snapshot.
  This sets the goodput baseline.
* **chaos** — the same workload with ``serve.exec`` faults armed
  (probabilistic ``OutOfMemory`` on query runs).  Nothing replays a
  failed query, so each injected fault must cost exactly its own query
  (``failed == faults_fired``), with **zero wrong results**, and the
  goodput of the queries no fault hit must stay >= ``--min-goodput``
  (default 0.9) of the fault-free baseline.  The two phases run as *interleaved
  rounds* (fault-free block, chaos block, repeat) so slow environmental
  drift — CPU throttling under sustained load, allocator growth —
  cancels out of the ratio instead of being billed to fault handling.
* **overload** — an open-loop burst far past queue capacity onto a
  throttled server; the bounded admission queue must shed with
  ``Overloaded`` (never hang or grow unboundedly) while every admitted
  request still returns the exact answer — and runs no slower for the
  queue being full (``overload.exec_p50_ms`` against the fault-free
  ``exec_p50_ms``).
* **persistent fault** — every ``mxv.push`` kernel raises
  ``OutOfMemory``: each bfs must end ``failed`` after exactly one kernel
  run, in milliseconds, and once the fault lifts the next queries must
  be exact again (nothing outlives a failure).

Peak RSS (VmHWM delta over the fault-free + chaos serving phases) must
stay within ``--budget * --rss-factor``; every request runs under a
per-request governor context carrying that budget.  The overload and
persistent-fault phases run after the RSS envelope is read.
"""

from __future__ import annotations

import argparse
import json
import threading
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


def rmat_edges(scale: int, edge_factor: int, seed: int):
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
    return n, rows[off], cols[off]


# --------------------------------------------------------------------------
# workload
# --------------------------------------------------------------------------

def build_workload(snapshot, sources, rng):
    """The mixed query set and its precomputed direct-call answers.

    Returns (jobs, expected): jobs is a list of (algo, params, key);
    expected maps key -> the exact answer a direct call produces on the
    published snapshot.  Serving the same snapshot must reproduce these
    bit-for-bit — any mismatch is a wrong result.
    """
    from repro.lagraph import bfs, connected_components, sssp, triangle_count

    expected = {}
    for s in sources:
        expected[("bfs", s)] = bfs(int(s), snapshot)[0]
        expected[("sssp", s)] = sssp(int(s), snapshot)
    expected[("components",)] = connected_components(snapshot)
    expected[("triangles",)] = triangle_count(snapshot)

    def draw():
        r = rng.random()
        s = int(sources[rng.integers(0, len(sources))])
        if r < 0.40:
            return ("bfs", {"source": s}, ("bfs", s))
        if r < 0.70:
            return ("sssp", {"source": s}, ("sssp", s))
        if r < 0.90:
            return ("components", {}, ("components",))
        return ("triangles", {}, ("triangles",))

    return draw, expected


def check(value, want) -> bool:
    if isinstance(want, (int, float)):
        return value == want
    return value.isequal(want)


def run_phase(server, draw, expected, queries, tenants, clients):
    """Closed-loop clients: each submits synchronously, so the queue
    stays shallow and goodput measures the serving path, not shedding."""
    import numpy as np

    lock = threading.Lock()
    stats = {"ok": 0, "wrong": 0, "failed": 0}
    exec_ms, e2e_ms, wait_ms = [], [], []
    remaining = [queries]  # shared work counter: no per-client stragglers

    def client(k):
        tenant = f"tenant{k % tenants}"
        while True:
            with lock:
                if remaining[0] <= 0:
                    return
                remaining[0] -= 1
                algo, params, key = draw()
            t = server.submit(algo, graph="g", tenant=tenant, **params)
            try:
                value = t.result(timeout=300)
            except Exception:
                with lock:
                    stats["failed"] += 1
                continue
            ok = check(value, expected[key])
            with lock:
                stats["ok" if ok else "wrong"] += 1
                exec_ms.append(t.exec_s * 1e3)
                e2e_ms.append((t.t_done - t.t_submit) * 1e3)
                wait_ms.append(t.queue_wait_s * 1e3)

    threads = [threading.Thread(target=client, args=(k,))
               for k in range(clients)]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    elapsed = time.perf_counter() - t0

    return {
        **stats,
        "queries": queries,
        "elapsed_s": elapsed,
        "_exec_ms": exec_ms,
        "_e2e_ms": e2e_ms,
        "_wait_ms": wait_ms,
    }


def merge_rounds(parts) -> dict:
    """Pool per-round phase results into one summary with percentiles."""
    import numpy as np

    merged = {}
    for p in parts:
        for k, v in p.items():
            if k.startswith("_"):
                merged.setdefault(k, []).extend(v)
            else:
                merged[k] = merged.get(k, 0) + v

    def pct(xs, q):
        return float(np.percentile(xs, q)) if xs else 0.0

    exec_ms = merged.pop("_exec_ms", [])
    e2e_ms = merged.pop("_e2e_ms", [])
    wait_ms = merged.pop("_wait_ms", [])
    elapsed = merged["elapsed_s"]
    merged.update(
        goodput_qps=merged["ok"] / elapsed if elapsed else 0.0,
        exec_p50_ms=pct(exec_ms, 50),
        exec_p99_ms=pct(exec_ms, 99),
        e2e_p50_ms=pct(e2e_ms, 50),
        e2e_p99_ms=pct(e2e_ms, 99),
        queue_wait_p50_ms=pct(wait_ms, 50),
        queue_wait_p99_ms=pct(wait_ms, 99),
    )
    return merged


def run_overload(n, src, dst, expected, sources, queries, budget) -> dict:
    """Open-loop burst onto a deliberately throttled server: the bounded
    queue must shed rather than hang, and the survivors stay exact."""
    from statistics import median

    from repro.serve import GraphServer, Overloaded

    with GraphServer(workers=2, queue_depth=32, deadline_s=None,
                     memory_budget=budget) as srv:
        _serve_graph(srv, n, src, dst)
        tickets, shed_reasons = [], {}
        t0 = time.perf_counter()
        for i in range(queries):
            try:
                tickets.append(srv.submit(
                    "bfs", graph="g", tenant=f"tenant{i % 4}",
                    source=int(sources[i % len(sources)]),
                ))
            except Overloaded as exc:
                shed_reasons[exc.reason] = shed_reasons.get(exc.reason, 0) + 1
        submit_elapsed = time.perf_counter() - t0
        wrong = 0
        for t in tickets:
            if not check(t.result(timeout=300),
                         expected[("bfs", t.params["source"])]):
                wrong += 1
        shed = sum(shed_reasons.values())
        return {
            "submitted": queries,
            "admitted": len(tickets),
            "shed": shed,
            "shed_reasons": shed_reasons,
            "wrong": wrong,
            "submit_elapsed_s": submit_elapsed,
            "exec_p50_ms": median(t.exec_s * 1e3 for t in tickets)
            if tickets else 0.0,
            "max_depth_bound": 64,  # soft cap: < 2 * queue_depth
            "queue_bounded": bool(shed > 0),
        }


def run_persistent_fault(n, src, dst, expected, sources, budget) -> dict:
    """Every ``mxv.push`` raises: each bfs fails after one kernel run, and
    the first queries after the fault lifts are exact."""
    from repro.graphblas import faults
    from repro.graphblas.errors import OutOfMemory
    from repro.serve import GraphServer

    with GraphServer(workers=2, deadline_s=None,
                     memory_budget=budget) as srv:
        _serve_graph(srv, n, src, dst)
        failed, runs, fail_ms = 0, [], []
        for i in range(10):
            with faults.inject("mxv.push", OutOfMemory, probability=1.0,
                               max_fires=None) as plan:
                t = srv.submit("bfs", graph="g",
                               source=int(sources[i % len(sources)]))
                t.wait(300)
            failed += t.outcome == "failed"
            runs.append(plan.calls)
            fail_ms.append((t.t_done - t.t_submit) * 1e3)
        wrong = 0
        for i in range(8):
            t = srv.submit("bfs", graph="g",
                           source=int(sources[i % len(sources)]))
            if not check(t.result(300), expected[("bfs", t.params["source"])]):
                wrong += 1
        return {
            "queries": len(runs),
            "failed": failed,
            "max_kernel_runs": max(runs),
            "fail_p50_ms": float(sorted(fail_ms)[len(fail_ms) // 2]),
            "fail_max_ms": max(fail_ms),
            "wrong": wrong,
        }


def _serve_graph(srv, n, src, dst):
    import numpy as np

    from repro.stream import GraphStream

    stream = GraphStream(n, width=1e18)
    srv.add_graph("g", stream=stream)
    srv.ingest("g", src, dst, np.zeros(src.size))
    srv.publish("g")


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=13,
                        help="RMAT scale (2**scale vertices)")
    parser.add_argument("--edge-factor", type=int, default=8)
    parser.add_argument("--queries", type=int, default=10000,
                        help="total queries across all phases")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--clients", type=int, default=12,
                        help="closed-loop client threads")
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--sources", type=int, default=8,
                        help="distinct bfs/sssp source vertices")
    parser.add_argument("--rounds", type=int, default=4,
                        help="interleaved fault-free/chaos round pairs")
    parser.add_argument("--fault-probability", type=float, default=0.05,
                        help="serve.exec OutOfMemory probability (chaos)")
    parser.add_argument("--budget", default="64m",
                        help="per-request governor budget and the "
                             "peak-RSS envelope (k/m/g suffixes)")
    parser.add_argument("--rss-factor", type=float, default=1.5)
    parser.add_argument("--min-goodput", type=float, default=0.9,
                        help="chaos goodput floor, as a fraction of the "
                             "fault-free baseline")
    parser.add_argument("--out", default="BENCH_PR9.json")
    args = parser.parse_args(argv)

    import numpy as np

    from repro.graphblas import faults
    from repro.serve import GraphServer

    budget = parse_bytes(args.budget)
    n, src, dst = rmat_edges(args.scale, args.edge_factor, seed=9)
    # phase split: 40% fault-free, 40% chaos, 20% overload burst
    q_base = (args.queries * 2) // 5
    q_burst = args.queries - 2 * q_base

    results = {
        "scale": args.scale,
        "edge_factor": args.edge_factor,
        "n": int(n),
        "edges": int(src.size),
        "queries": args.queries,
        "workers": args.workers,
        "clients": args.clients,
        "tenants": args.tenants,
        "fault_probability": args.fault_probability,
        "budget": args.budget,
        "budget_bytes": budget,
    }

    with GraphServer(workers=args.workers, queue_depth=256,
                     deadline_s=None, memory_budget=budget) as srv:
        _serve_graph(srv, n, src, dst)
        snapshot = srv.snapshot("g")
        rng = np.random.default_rng(17)
        # sources with at least one outgoing edge, so bfs has work to do
        sources = np.unique(src)[:args.sources]
        draw, expected = build_workload(snapshot, sources, rng)

        # unmeasured warm-up so the first measured block is not penalised
        # for first-touch costs (allocator growth, cold caches)
        warm = max(50, q_base // 10)
        run_phase(srv, draw, expected, warm, args.tenants, args.clients)
        results["warmup_queries"] = warm

        baseline_rss = peak_rss_bytes()

        # interleaved rounds: drift hits both phases equally
        rounds = max(1, min(args.rounds, q_base // max(1, args.clients)))
        ff_parts, ch_parts = [], []
        for r in range(rounds):
            block = q_base // rounds + (1 if r < q_base % rounds else 0)
            ff_parts.append(run_phase(
                srv, draw, expected, block, args.tenants, args.clients))
            with faults.inject("serve.exec",
                               probability=args.fault_probability,
                               seed=23 + r, max_fires=None) as plan:
                part = run_phase(
                    srv, draw, expected, block, args.tenants, args.clients)
            part["faults_fired"] = plan.fires
            ch_parts.append(part)

        results["fault_free"] = ff = merge_rounds(ff_parts)
        results["chaos"] = ch = merge_rounds(ch_parts)
        results["rounds"] = rounds
        print(f"fault-free: {ff['ok']}/{ff['queries']} ok, "
              f"{ff['goodput_qps']:.0f} q/s, "
              f"e2e p50 {ff['e2e_p50_ms']:.1f} ms / "
              f"p99 {ff['e2e_p99_ms']:.1f} ms")
        ratio = (ch["goodput_qps"] / ff["goodput_qps"]
                 if ff["goodput_qps"] else 0.0)
        ch["goodput_ratio"] = ratio
        print(f"chaos: {ch['ok']}/{ch['queries']} ok, "
              f"{ch['faults_fired']} faults fired, {ch['failed']} failed, "
              f"{ch['goodput_qps']:.0f} q/s "
              f"({ratio:.1%} of fault-free), "
              f"e2e p99 {ch['e2e_p99_ms']:.1f} ms")

        serve_stats = srv.stats()
        results["server"] = {
            "outcomes": serve_stats["outcomes"],
            "admitted": serve_stats["admitted"],
        }
        # the RSS envelope covers the 10k-query goodput phases; the
        # overload/persistent-fault phases below intentionally enter
        # degraded regimes (VmHWM is monotonic, so read it here)
        goodput_peak_rss = peak_rss_bytes()

    results["overload"] = ov = run_overload(
        n, src, dst, expected, sources, q_burst, budget)
    print(f"overload: {ov['admitted']} admitted / {ov['shed']} shed of "
          f"{ov['submitted']} burst-submitted ({ov['shed_reasons']}), "
          f"{ov['wrong']} wrong")

    results["persistent_fault"] = pf = run_persistent_fault(
        n, src, dst, expected, sources, budget)
    print(f"persistent fault: {pf['failed']}/{pf['queries']} failed after "
          f"<= {pf['max_kernel_runs']} kernel runs "
          f"(p50 {pf['fail_p50_ms']:.1f} ms, max {pf['fail_max_ms']:.1f} ms), "
          f"{pf['wrong']} wrong once lifted")

    rss_delta = goodput_peak_rss - baseline_rss
    results["rss"] = {
        "baseline_bytes": baseline_rss,
        "peak_delta_bytes": rss_delta,
        "envelope_bytes": int(budget * args.rss_factor),
        "within": bool(rss_delta <= budget * args.rss_factor),
    }
    print(f"peak RSS delta {rss_delta / (1 << 20):.1f} MiB over the "
          f"goodput phases vs envelope "
          f"{budget * args.rss_factor / (1 << 20):.0f} MiB: "
          f"{'WITHIN' if results['rss']['within'] else 'OVER'}")

    wrong_total = ff["wrong"] + ch["wrong"] + ov["wrong"] + pf["wrong"]
    results["wrong_total"] = wrong_total

    # the artifact is written before the verdict so a failing run still
    # leaves its numbers behind for diagnosis
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    print(f"wrote {args.out}")

    assert wrong_total == 0, f"{wrong_total} wrong results"
    assert ch["failed"] == ch["faults_fired"], (
        f"{ch['failed']} queries failed under chaos for "
        f"{ch['faults_fired']} injected faults"
    )
    assert ratio >= args.min_goodput, (
        f"chaos goodput {ratio:.1%} below {args.min_goodput:.0%} floor"
    )
    assert ov["queue_bounded"], "overload burst never shed"
    assert pf["failed"] == pf["queries"], "a persistent fault was answered"
    assert pf["max_kernel_runs"] == 1, (
        f"{pf['max_kernel_runs']} kernel runs for one failed query"
    )
    assert results["rss"]["within"], "peak RSS exceeded the envelope"
    return results


if __name__ == "__main__":
    main()
