"""The compiled kernel tier vs the vectorized NumPy kernels.

The default ``optimized`` backend runs the compiled kernels whenever a
toolchain resolves, so the baseline side of every comparison here is the
same backend with the tier switched off (``compiled.set_config(
toolchain="off")``), not ``backend="optimized"``.

Claims measured (the BENCH_PR10.json acceptance gates):

* **Warm Gustavson SpGEMM**: on an RMAT graph the compiled scalar-SPA
  kernel beats the vectorized engine's expand/sort/reduceat pipeline —
  the JIT loop skips the O(flops log flops) duplicate sort entirely.
  Gate: >= 1.5x at scale 14.
* **Terminal early exit**: a masked LOR_LAND pull mxv on selective
  masks, where every surviving dot product hits OR's annihilator in the
  first few terms.  The compiled kernel bails per *element*; the
  vectorized path can only skip per 64-wide block.  Gate: >= 3x.
* **Cold-start amortization**: the first compiled call pays the JIT
  build; the LRU makes every later call warm.
* **Correctness riders**: the differential engine, which runs the
  optimized engine and so the compiled kernels wherever production picks
  them, reports zero divergences, and disabling the tier
  (``GRAPHBLAS_COMPILED_TOOLCHAIN=off``) makes ``backend="compiled"``
  reproduce the NumPy kernels' results bit for bit.

Runs two ways: under pytest (small scale, asserts structure not speed)
and as a script — ``python benchmarks/bench_compiled_kernels.py
--scale 14 --out BENCH_PR10.json`` — which writes the committed JSON.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(__file__))

import numpy as np

from _common import emit, wall
from repro.graphblas import Matrix, Vector, compiled, telemetry
from repro.graphblas import operations as ops
from repro.graphblas.backends.differential import DifferentialBackend
from repro.graphblas.types import BOOL, FP64
from repro.generators.rmat import rmat_graph
from repro.harness import Table

try:
    import pytest
except ImportError:  # script mode does not need it
    pytest = None


def _mxm_inputs(scale):
    G = rmat_graph(scale, 16, seed=7, kind="directed", weighted=True)
    A = G.A
    r, c, v = A.extract_tuples()
    return Matrix.from_coo(r, c, v.astype(np.float64),
                           nrows=A.nrows, ncols=A.ncols, dtype=FP64)


def _mxv_inputs(scale, mask_frac=0.25, edge_factor=64):
    """A dense BOOL graph, a full frontier, and a selective row mask:
    the direction-optimized BFS pull step late in the traversal, where
    nearly every surviving dot product hits OR's terminal immediately
    but the rows are long enough that a full scan is real work."""
    G = rmat_graph(scale, edge_factor, seed=11, kind="directed")
    r, c, _ = G.A.extract_tuples()
    A = Matrix.from_coo(r, c, np.ones(r.size, dtype=np.bool_),
                        nrows=G.A.nrows, ncols=G.A.ncols, dtype=BOOL)
    n = A.nrows
    u = Vector.from_dense(np.ones(n, dtype=np.bool_), missing=False)
    rng = np.random.default_rng(3)
    sel = np.flatnonzero(rng.random(n) < mask_frac)
    mask = Vector.from_coo(sel, np.ones(sel.size, dtype=np.bool_),
                           size=n, dtype=BOOL)
    return A, u, mask


def _bench_mxm(A, repeat=3):
    def run():
        C = Matrix(FP64, A.nrows, A.ncols)
        ops.mxm(C, A, A, "PLUS_TIMES", method="gustavson", backend="compiled")
        return C

    with compiled.toolchain_off():
        t_np = wall(run, repeat=repeat)
    compiled.clear_cache()
    t_cold = wall(run, repeat=1)  # includes the JIT build
    t_warm = wall(run, repeat=repeat)
    return {
        "numpy_s": t_np,
        "compiled_cold_s": t_cold,
        "compiled_warm_s": t_warm,
        "warm_speedup": t_np / t_warm,
    }


def _bench_mxv(A, u, mask, repeat=3):
    def run():
        w = Vector(BOOL, A.nrows)
        ops.mxv(w, A, u, "LOR_LAND", mask=mask, backend="compiled")
        return w

    with compiled.toolchain_off():
        t_np = wall(run, repeat=repeat)
    run()  # absorb the compile
    t_cmp = wall(run, repeat=repeat)
    with telemetry.collect() as col:
        run()
    exits = [e["args"] for e in col.events
             if e["type"] == "decision" and e["name"] == "mxv.early_exit"]
    ex = exits[-1] if exits else {}
    terminated = int(ex.get("terminated", 0))
    depth = (ex.get("depth_sum", 0) / terminated) if terminated else None
    return {
        "numpy_s": t_np,
        "compiled_s": t_cmp,
        "speedup": t_np / t_cmp,
        "dots": int(ex.get("dots", 0)),
        "terminated": terminated,
        "mean_hit_depth": depth,
    }


def _check_differential(A):
    # keep the dense replay under the differential budget (1<<22 cells):
    # 128**3 = 2M flops for the mxm cost model
    sub_n = min(A.nrows, 128)
    rs, cs, vs = A.extract_tuples()
    keep = (rs < sub_n) & (cs < sub_n)
    S = Matrix.from_coo(rs[keep], cs[keep], vs[keep],
                        nrows=sub_n, ncols=sub_n, dtype=FP64)
    be = DifferentialBackend()
    for sr in ("PLUS_TIMES", "MIN_PLUS", "MAX_MIN"):
        ops.mxm(Matrix(FP64, sub_n, sub_n), S, S, sr, backend=be)
    return dict(be.stats)


def _check_tier_disabled(A):
    """GRAPHBLAS_COMPILED_TOOLCHAIN=off must be a bit-exact pass-through."""
    import warnings

    C_opt = Matrix(FP64, A.nrows, A.ncols)
    with compiled.toolchain_off():
        ops.mxm(C_opt, A, A, "PLUS_TIMES")
    prior = os.environ.get("GRAPHBLAS_COMPILED_TOOLCHAIN")
    os.environ["GRAPHBLAS_COMPILED_TOOLCHAIN"] = "off"
    compiled.reset()
    try:
        C_off = Matrix(FP64, A.nrows, A.ncols)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ops.mxm(C_off, A, A, "PLUS_TIMES", backend="compiled")
    finally:
        if prior is None:
            del os.environ["GRAPHBLAS_COMPILED_TOOLCHAIN"]
        else:
            os.environ["GRAPHBLAS_COMPILED_TOOLCHAIN"] = prior
        compiled.reset()
    r1, c1, v1 = C_opt.extract_tuples()
    r2, c2, v2 = C_off.extract_tuples()
    return (np.array_equal(r1, r2) and np.array_equal(c1, c2)
            and np.array_equal(v1, v2))


def run_suite(scale: int, repeat: int = 3) -> dict:
    A = _mxm_inputs(scale)
    Ab, u, mask = _mxv_inputs(scale)
    results = {
        "scale": scale,
        "nrows": A.nrows,
        "nvals": A.nvals,
        "toolchain": compiled.toolchain_name(),
        "mxm_gustavson": _bench_mxm(A, repeat=repeat),
        "mxv_early_exit": _bench_mxv(Ab, u, mask, repeat=repeat),
        "differential": _check_differential(A),
        "tier_disabled_bit_identical": _check_tier_disabled(A),
        "compiled_cache": compiled.cache_stats(),
    }
    return results


def validate(results: dict, *, strict: bool) -> list[str]:
    """The acceptance gates; ``strict`` enforces the speed floors."""
    problems = []
    if results["differential"]["divergences"] != 0:
        problems.append("differential divergences != 0")
    if not results["tier_disabled_bit_identical"]:
        problems.append("tier-off results not bit-identical to NumPy")
    if results["mxv_early_exit"]["terminated"] == 0:
        problems.append("no early exits taken on the selective-mask mxv")
    if strict:
        if results["mxm_gustavson"]["warm_speedup"] < 1.5:
            problems.append(
                f"warm mxm speedup {results['mxm_gustavson']['warm_speedup']:.2f}x < 1.5x")
        if results["mxv_early_exit"]["speedup"] < 3.0:
            problems.append(
                f"early-exit mxv speedup {results['mxv_early_exit']['speedup']:.2f}x < 3x")
    return problems


def _emit_table(results: dict) -> None:
    t = Table(
        f"Compiled kernel tier vs NumPy kernels "
        f"(RMAT-{results['scale']}, {results['toolchain']} toolchain)",
        ["kernel", "numpy s", "compiled s", "speedup"],
    )
    g = results["mxm_gustavson"]
    t.add("mxm gustavson (warm)", g["numpy_s"], g["compiled_warm_s"],
          f"{g['warm_speedup']:.2f}x")
    t.add("mxm gustavson (cold, incl. JIT)", g["numpy_s"],
          g["compiled_cold_s"], f"{g['numpy_s'] / g['compiled_cold_s']:.2f}x")
    e = results["mxv_early_exit"]
    t.add("mxv LOR_LAND pull, selective mask", e["numpy_s"],
          e["compiled_s"], f"{e['speedup']:.2f}x")
    d = results["differential"]
    t.note(f"early exit: {e['terminated']}/{e['dots']} dots terminated, "
           f"mean hit depth {e['mean_hit_depth']:.1f} terms"
           if e["terminated"] else "early exit: none taken")
    t.note(f"differential: {d['verified']} verified, "
           f"{d['divergences']} divergences")
    t.note("tier disabled: bit-identical = "
           f"{results['tier_disabled_bit_identical']}")
    emit(t, "compiled_kernels")


# -- pytest entry points ------------------------------------------------------

if pytest is not None:
    needs_tier = pytest.mark.skipif(
        not compiled.available(),
        reason="no compiled toolchain (numba or cc) available")

    @needs_tier
    def test_compiled_suite(benchmark):
        def run():
            results = run_suite(10, repeat=2)
            problems = validate(results, strict=False)
            assert not problems, problems
            _emit_table(results)

        benchmark.pedantic(run, rounds=1, iterations=1)

    @needs_tier
    def test_compiled_warm_beats_cold():
        A = _mxm_inputs(9)
        r = _bench_mxm(A, repeat=2)
        assert r["compiled_warm_s"] <= r["compiled_cold_s"]


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=14,
                    help="RMAT scale (2**scale vertices; default 14)")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--out", default=None,
                    help="write the results JSON here (e.g. BENCH_PR10.json)")
    ap.add_argument("--strict", action="store_true",
                    help="fail on the speedup floors, not just correctness")
    args = ap.parse_args(argv)

    if not compiled.available():
        print("no compiled toolchain available; nothing to measure",
              file=sys.stderr)
        return 1
    results = run_suite(args.scale, repeat=args.repeat)
    _emit_table(results)
    problems = validate(results, strict=args.strict)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(results, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}")
    for p in problems:
        print(f"GATE FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
