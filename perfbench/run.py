#!/usr/bin/env python3
"""perfbench: one harness, one schema.

    python3 perfbench/run.py --workload suite_r12 --seed 7 --seconds 12 --trace 0
    python3 perfbench/run.py --all --out perfbench/results/run.json
    python3 perfbench/run.py --compare perfbench/results/baseline.json perfbench/results/run.json

``--workload`` runs one workload in this process and prints, as the last
line of stdout, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  ``--all`` runs the five workloads one after
another, each in its own fresh subprocess (never concurrently), untraced
then traced, and writes one result file with an environment fingerprint.

Measurement rule.  A pass is fixed work on inputs generated from
``--seed``; passes repeat until ``--seconds`` have gone by.  Neighbour
noise on a small shared box comes in multi-second bursts, so every timed
part (a suite case, a stream phase, ...) is read from its *fastest* pass
and ``wall_s`` is the sum of those; ``harness.pass_spread`` reports how far
the median pass was from the fastest.  Set-up (imports + fixtures + one
warm-up) is timed in fresh processes and reported as the median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import _common  # noqa: E402 - needs the path entry above

sys.path.insert(0, str(_common.SRC))

#: Fresh-process set-up timings per untraced run; the median is reported.
SETUP_SAMPLES = 3
#: Share of ``--seconds`` a traced run spends on untraced passes (for the
#: per-kind timings and the overhead base) before tracing starts.
UNTRACED_SHARE = 0.4
#: Per-layer metrics that are counts from public counters or span counts:
#: they must repeat exactly for a fixed seed.
COUNT_METRICS = (
    "tiled.spills", "tiled.reloads", "tiled.spilled_mb", "tiled.reloaded_mb",
    "tiled.read_amp", "lagraph.op_calls", "ops.calls", "stream.chunks",
    "incr.recomputes", "incr.pagerank_sweeps",
)


# -- one workload, in this process --------------------------------------------

def timed_setup(name: str, seed: int, smoke: bool):
    """Build the workload from a process that has imported neither NumPy
    nor the library yet, so the reading includes both imports."""
    t0 = perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, smoke)
    wl.setup()
    return wl, perf_counter() - t0


def setup_in_child(name: str, seed: int, smoke: bool) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                         check=False)
    if out.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{out.stderr}")
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def measure(wl, seconds: float, on_pass=None) -> list:
    """Repeat ``wl.run_pass()`` until ``seconds`` are used up.  Another pass
    starts only if the fastest so far would still fit (10 % slack), so a
    run overshoots by less than a pass; there is always at least one."""
    passes = []
    t0 = perf_counter()
    while True:
        p = wl.run_pass()
        passes.append(p)
        if on_pass is not None:
            on_pass(p)
        fastest = min(q.wall_s for q in passes)
        if (perf_counter() - t0) + fastest > seconds * 1.1:
            return passes


def fastest_pass(passes):
    return min(passes, key=lambda p: p.wall_s)


def end_to_end(passes) -> dict:
    wall = sum(min(p.parts[k] for p in passes) for k in passes[0].parts)
    # unit i is the same work, with the same neighbours, in every pass
    units = [min(col) for col in zip(*(p.units for p in passes))]
    return {
        "wall_s": wall,
        "op_p50_ms": _common.percentile(units, 50) * 1e3,
        "op_p90_ms": _common.percentile(units, 90) * 1e3,
    }


def check_all(wl, passes) -> tuple[int, int]:
    attempted = failed = 0
    for p in passes:
        a, f = wl.check(p)
        attempted += a
        failed += f
    return attempted, failed


def run_untraced(name: str, seed: int, seconds: float, smoke: bool):
    samples = [setup_in_child(name, seed, smoke)
               for _ in range(0 if smoke else SETUP_SAMPLES - 1)]
    wl, own = timed_setup(name, seed, smoke)
    samples.append(own)
    # Peak memory is read after the first pass: every pass's outputs are
    # kept for the checks, so a later reading would grow with the number of
    # passes that happened to fit, and the oracles have not allocated yet.
    rss = []
    passes = measure(wl, 0.0 if smoke else seconds,
                     on_pass=lambda p: rss or rss.append(_common.peak_rss_bytes()))
    attempted, failed = check_all(wl, passes)
    metrics = end_to_end(passes)
    metrics["setup_s"] = _common.median(samples)
    metrics["peak_rss_mb"] = rss[0] / float(1 << 20)
    return attempted, failed, metrics


def trace_metrics(summary: dict) -> dict:
    """The layer numbers every workload has: self time per call and share
    of root time, by layer, from one traced pass."""
    import _trace

    total = summary["root_s"]
    layers = _trace.layer_totals(summary)
    by_name = summary["by_name"]

    def calls(layer):
        return layers.get(layer, (0, 0.0))[0]

    def self_s(layer):
        return layers.get(layer, (0, 0.0))[1]

    def per_call_us(*names):
        n = sum(by_name[k][0] for k in names if k in by_name)
        s = sum(by_name[k][1] for k in names if k in by_name)
        return s / n * 1e6 if n else 0.0

    def layer_us(layer):
        return self_s(layer) / calls(layer) * 1e6 if calls(layer) else 0.0

    def share(layer):
        return self_s(layer) / total if total else 0.0

    def units_per_s(name):
        n, s, units = by_name.get(name, (0, 0.0, 0))
        return units / s if s else 0.0

    return {
        "lagraph.self_share": share("lagraph"),
        "lagraph.op_calls": summary["ops_under_lagraph"],
        "ops.self_us": layer_us("ops"),
        "ops.calls": calls("ops"),
        "plan.us": layer_us("plan"),
        "plan.share": share("plan"),
        "dispatch.self_us": layer_us("dispatch"),
        "dispatch.share": share("dispatch"),
        "kernel.us": layer_us("kernel"),
        "kernel.share": share("kernel"),
        "kernel.mxm_s": by_name.get("kernel:mxm", (0, 0.0, 0))[1],
        "kernel.mxv_s": sum(by_name.get(k, (0, 0.0, 0))[1]
                            for k in ("kernel:mxv", "kernel:vxm")),
        "engine.pool_blocks": by_name.get("engine:run_blocks", (0, 0.0, 0))[2],
        "matrix.set_element_us": per_call_us("matrix:set_element"),
        "matrix.remove_element_us": per_call_us("matrix:remove_element"),
        "matrix.wait_us": per_call_us("matrix:wait"),
        "matrix.update_batch_edges_per_s": units_per_s("matrix:update_batch"),
        "matrix.from_coo_edges_per_s": units_per_s("matrix:from_coo"),
        "stream.ingest_call_us": per_call_us("stream:ingest", "stream:flush"),
        "stream.snapshot_ms": per_call_us("stream:snapshot") / 1e3,
        "harness.root_coverage": 1.0 - share("harness"),
    }


def cache_metrics() -> dict:
    from repro.graphblas import compiled, engine, plan

    def ratio(stats):
        seen = stats["hits"] + stats["misses"]
        return stats["hits"] / seen if seen else 0.0

    comp = compiled.cache_stats()
    return {
        "plan.resolver_hit_ratio": ratio(plan.resolver_cache_stats()),
        "engine.cache_hit_ratio": ratio(engine.kernel_cache_stats()),
        "compiled.cache_hit_ratio": ratio(comp),
        "compiled.compile_s": comp["compile_seconds"],
    }


def run_traced(name: str, seed: int, seconds: float, smoke: bool):
    import _trace

    wl, _ = timed_setup(name, seed, smoke)
    untraced = measure(wl, 0.0 if smoke else seconds * UNTRACED_SHARE)

    tracer = _trace.Tracer()
    kept = {}

    def keep_fastest(p):
        if "pass" not in kept or p.wall_s < kept["pass"].wall_s:
            kept["pass"], kept["threads"] = p, tracer.threads()
        tracer.reset()

    tracer.install()
    wl.tracer = tracer
    try:
        traced = measure(wl, 0.0 if smoke else seconds * (1 - UNTRACED_SHARE),
                         on_pass=keep_fastest)
    finally:
        tracer.uninstall()
        wl.tracer = _trace.NullTracer()

    attempted, failed = check_all(wl, untraced + traced)
    best = fastest_pass(untraced)
    metrics = trace_metrics(_trace.summarize(kept["threads"]))
    metrics.update(wl.layer_metrics(best))
    extra, a, f = wl.extras(best)
    metrics.update(extra)
    metrics.update(cache_metrics())
    # traced passes count too: their overhead is reported beside the spread
    walls = [p.wall_s for p in untraced + traced]
    metrics["harness.pass_spread"] = _common.median(walls) / min(walls) - 1.0
    metrics["harness.oracle_s"] = wl.oracle_s
    metrics["harness.trace_overhead_x"] = kept["pass"].wall_s / best.wall_s
    metrics["failed_share"] = (failed + f) / (attempted + a)

    _common.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    _trace.dump(kept["threads"], _common.RESULTS_DIR / f"trace-{name}.json")
    return attempted + a, failed + f, metrics


def run_workload(args) -> int:
    spec = _common.load_spec()
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    runner = run_traced if args.trace else run_untraced
    attempted, failed, values = runner(args.workload, args.seed, args.seconds,
                                       args.smoke)
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {undeclared}")
    # a layer the workload never enters did zero calls in zero seconds
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


# -- every workload, each in a fresh subprocess --------------------------------

def run_all(args) -> int:
    spec = _common.load_spec()
    result = {"schema": 1, "fingerprint": _common.fingerprint(args.seed),
              "run_seconds": args.seconds, "smoke": args.smoke,
              "workloads": {}}
    for wl in spec["workloads"]:
        name = wl["name"]
        entry = result["workloads"][name] = {}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=900, check=False)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                raise SystemExit(f"{name} --trace {trace} exited "
                                 f"{out.returncode}")
            line = json.loads(out.stdout.strip().splitlines()[-1])
            entry[group] = line["metrics"]
            entry[f"{group}_outcome"] = {
                k: line[k] for k in ("correct", "attempted", "failed")}
            print(f"\n== {name} ({group}; attempted {line['attempted']}, "
                  f"failed {line['failed']})")
            for metric, cell in line["metrics"].items():
                print(f"  {metric:36s} {cell['value']:>16.6g} {cell['unit']}")
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"\nwrote {out_path}")
    bad = [n for n, e in result["workloads"].items()
           if not (e["end_to_end_outcome"]["correct"]
                   and e["per_layer_outcome"]["correct"])]
    return 1 if bad else 0


# -- comparing two result files -----------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric); A is the base."""
    spec = _common.load_spec()
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    any_worse = False
    print(f"{'workload':14s} {'metric':12s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for wl in spec["workloads"]:
        name = wl["name"]
        ea, eb = a["workloads"][name], b["workloads"][name]
        spread = max(e["per_layer"]["harness.pass_spread"]["value"]
                     for e in (ea, eb))
        for m in spec["end_to_end"]:
            va = ea["end_to_end"][m["name"]]["value"]
            vb = eb["end_to_end"][m["name"]]["value"]
            ratio = vb / va
            worse_by = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            if abs(worse_by) <= m["bound"]:
                verdict = "same"
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse_by > 0 else "better"
            any_worse |= verdict == "worse"
            print(f"{name:14s} {m['name']:12s} {va:12.5g} {vb:12.5g} "
                  f"{ratio:7.3f} {m['bound']:6.2f}  {verdict}")
        fa = sum(ea[f"{g}_outcome"]["failed"] for g in ("end_to_end", "per_layer"))
        fb = sum(eb[f"{g}_outcome"]["failed"] for g in ("end_to_end", "per_layer"))
        if fb > fa:
            any_worse = True
            print(f"{name:14s} failed       {fa:12d} {fb:12d}  "
                  f"{'':7s} {'':6s}  worse")
    return 1 if any_worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="scale-8 fixtures, one pass, one set-up sample")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up of --workload and exit")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--out", default=str(_common.RESULTS_DIR / "run.json"))
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not _common.SRC.joinpath("repro").is_dir():
        print(f"perfbench: library source not found at {_common.SRC}",
              file=sys.stderr)
        return 2
    _common.warn_if_env_set()
    if args.seconds is None:
        args.seconds = float(_common.load_spec()["run_seconds"])
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("give --workload NAME, --all or --compare A B")
    if args.setup_only:
        _, seconds = timed_setup(args.workload, args.seed, args.smoke)
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
