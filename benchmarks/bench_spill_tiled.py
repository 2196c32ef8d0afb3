"""Bounded-memory tiled mxm: parity + peak-RSS verdict for spill execution.

Standalone (argparse, not pytest) so CI and developers can run it at any
scale and get a machine-readable JSON verdict:

    PYTHONPATH=src python benchmarks/bench_spill_tiled.py \
        --scale 16 --budget 64m --out BENCH_PR6.json

Two phases:

* **parity** (small scale): an mxm forced over-budget by the governor
  completes transparently via tiled spill and must match unbudgeted
  in-memory execution bit for bit;
* **bounded RSS** (the headline): ``C = A*A`` on an RMAT graph through
  the tiled API with the result streamed stripe by stripe (checksummed,
  never fully materialized).  The peak-RSS increase over the post-setup
  baseline must stay within ``budget * 1.2`` — the acceptance criterion
  — while the pool spills and reloads tiles under a resident budget far
  below the matrix's in-memory product footprint.
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


def _weighted_rmat(scale: int, edge_factor: int, seed: int):
    import numpy as np

    from repro.generators import rmat_graph
    from repro.graphblas import Matrix

    A0 = rmat_graph(scale, edge_factor, seed=seed).A
    r, c, _ = A0.extract_tuples()
    rng = np.random.default_rng(seed + 1)
    return Matrix.from_coo(r, c, rng.uniform(-1.0, 1.0, r.size),
                           nrows=A0.nrows, ncols=A0.ncols, dtype="FP64")


def run_parity(scale: int, edge_factor: int) -> dict:
    """Transparent governed tiled mxm == in-memory mxm, bit for bit."""
    from repro.graphblas import Matrix, governor
    from repro.graphblas import operations as ops

    A = _weighted_rmat(scale, edge_factor, seed=7)
    expected = Matrix("FP64", A.nrows, A.ncols)
    ops.mxm(expected, A, A, "PLUS_TIMES")
    C = Matrix("FP64", A.nrows, A.ncols)
    with governor.ExecutionContext(
        memory_budget=1 << 20, spill_budget=1 << 20
    ) as ctx:
        ops.mxm(C, A, A, "PLUS_TIMES")
    assert ctx.stats["tiled"] == 1, "parity op was not routed to tiled"
    er, ec, ev = expected.extract_tuples()
    cr, cc, cv = C.extract_tuples()
    assert (er == cr).all() and (ec == cc).all(), "parity: coordinates differ"
    assert ev.tobytes() == cv.tobytes(), "parity: values not bit-identical"
    return {"scale": scale, "nvals": int(A.nvals), "bit_identical": True}


def run_bounded(scale: int, edge_factor: int, budget: int,
                tile_dim: int = 0) -> dict:
    """Stream C = A*A through tiled spill execution; measure peak RSS."""
    from repro.graphblas import tiled
    from repro.graphblas.mxm import flop_total

    A = _weighted_rmat(scale, edge_factor, seed=7)
    n, nvals = A.nrows, A.nvals
    a_rows = A.by_row()
    # exact flop count of A*A, the count the kernels and the governor
    # use: the unreduced expansion an in-memory product must hold, and
    # what the budget is being compared against
    est_bytes = flop_total(a_rows, a_rows) * 24
    # chunk_bytes bounds each chunk's working set regardless of tile
    # size, so the grid only needs enough tiles for spill locality
    # — a ~32x32 grid keeps per-stripe scheduling overhead low
    td = tile_dim if tile_dim else max(tiled.MIN_TILE_DIM, n // 32)
    pool_budget = max(1 << 16, budget // 6)

    rss0 = peak_rss_bytes()
    t0 = time.perf_counter()
    with tiled.SpillPool(budget=pool_budget) as pool:
        A_t = tiled.TiledMatrix.from_store(a_rows, td, pool, dtype=A.dtype)
        C_t = tiled.mxm_tiled(A_t, A_t, "PLUS_TIMES", pool=pool,
                              chunk_bytes=budget // 6)
        checksum = 0.0
        out_nvals = 0
        for _, _, vals in C_t.iter_stripes(max_bytes=budget // 8):
            checksum += float(vals.sum())
            out_nvals += int(vals.size)
        stats = dict(pool.stats)
    elapsed = time.perf_counter() - t0
    rss_delta = peak_rss_bytes() - rss0

    assert stats["spills"] > 0, "pool budget never forced a spill"
    within = rss_delta <= budget * 1.2
    return {
        "scale": scale,
        "edge_factor": edge_factor,
        "n": n,
        "nvals": nvals,
        "out_nvals": out_nvals,
        "checksum": checksum,
        "budget_bytes": budget,
        "est_inmemory_bytes": int(est_bytes),
        "tile_dim": int(td),
        "grid": [A_t.grid_rows, A_t.grid_cols],
        "pool_budget_bytes": int(pool_budget),
        "spills": stats["spills"],
        "reloads": stats["reloads"],
        "spilled_bytes": stats["spilled_bytes"],
        "reloaded_bytes": stats["reloaded_bytes"],
        "elapsed_s": elapsed,
        "peak_rss_delta_bytes": int(rss_delta),
        "rss_within_budget": bool(within),
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=16,
                        help="RMAT scale (2**scale vertices)")
    parser.add_argument("--edge-factor", type=int, default=8)
    parser.add_argument("--budget", default="64m",
                        help="memory budget (k/m/g suffixes)")
    parser.add_argument("--parity-scale", type=int, default=12,
                        help="scale for the bit-parity phase")
    parser.add_argument("--tile-dim", type=int, default=0,
                        help="tile edge (0 = n/32)")
    parser.add_argument("--out", default="BENCH_PR6.json")
    args = parser.parse_args(argv)
    budget = parse_bytes(args.budget)

    results = {"budget": args.budget, "budget_bytes": budget}
    results["parity"] = run_parity(args.parity_scale, args.edge_factor)
    print(f"parity @ scale {args.parity_scale}: bit-identical")

    results["bounded"] = b = run_bounded(args.scale, args.edge_factor,
                                         budget, args.tile_dim)
    print(
        f"bounded @ scale {args.scale}: grid={b['grid']} "
        f"tile_dim={b['tile_dim']} spills={b['spills']} "
        f"reloads={b['reloads']} elapsed={b['elapsed_s']:.2f}s"
    )
    print(
        f"peak RSS delta {b['peak_rss_delta_bytes'] / (1 << 20):.1f} MiB vs "
        f"budget {budget / (1 << 20):.0f} MiB "
        f"(in-memory estimate {b['est_inmemory_bytes'] / (1 << 20):.1f} MiB): "
        f"{'WITHIN' if b['rss_within_budget'] else 'OVER'} budget*1.2"
    )
    assert b["rss_within_budget"], "peak RSS exceeded budget * 1.2"

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    return results


if __name__ == "__main__":
    main()
