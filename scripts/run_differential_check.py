#!/usr/bin/env python3
"""Differential cross-check: run LAGraph algorithms with runtime verification.

Executes BFS, SSSP (Bellman-Ford, and delta-stepping on a weighted graph
with a mixed light/heavy split and on a unit-weight one whose split is A
itself), and triangle counting on RMAT graphs under the ``differential``
kernel backend: every Table-I operation whose dense replay fits the
verification budget is re-executed on the spec-literal reference engine
and compared; oversized operations are executed on the optimized engine
only and reported as skipped.

The exit code is non-zero iff any divergence was observed (a divergence
also raises immediately, pinpointing the first diverging operation).

Run:  python scripts/run_differential_check.py --scale 14
      python scripts/run_differential_check.py --scale 10 --budget $((1<<24))
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.generators import rmat_graph
from repro.graphblas import options
from repro.graphblas.backends import backend
from repro.graphblas.backends.differential import DifferentialBackend
from repro.graphblas.errors import BackendDivergence, BudgetExceeded
from repro.lagraph import bfs_level, sssp, triangle_count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=14,
                    help="RMAT scale: 2**scale vertices (default 14)")
    ap.add_argument("--edge-factor", type=int, default=8)
    ap.add_argument("--budget", type=int, default=None,
                    help=f"verification budget in dense cells "
                         f"(default GRAPHBLAS_DIFF_BUDGET or "
                         f"{options.defaults('diff')['budget']})")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--strict", action="store_true",
                    help="fail (exit 1) instead of skipping operations whose "
                         "dense replay exceeds the verification budget")
    args = ap.parse_args(argv)

    print(f"generating RMAT scale={args.scale} "
          f"({1 << args.scale} vertices, edge factor {args.edge_factor})")
    directed = rmat_graph(args.scale, args.edge_factor, seed=args.seed)
    weighted = rmat_graph(args.scale, args.edge_factor, weighted=True,
                          seed=args.seed + 1)
    undirected = rmat_graph(args.scale, args.edge_factor, kind="undirected",
                            seed=args.seed + 2)

    be = DifferentialBackend(budget=args.budget, strict=args.strict)
    print(f"verification budget: {be.budget} dense cells"
          + (" (strict)" if args.strict else ""))

    workloads = [
        ("bfs_level", lambda: bfs_level(0, directed)),
        ("sssp (bellman-ford)", lambda: sssp(0, weighted, method="bellman-ford")),
        ("sssp (delta, weighted)", lambda: sssp(0, weighted, method="delta")),
        ("sssp (delta, unweighted)", lambda: sssp(0, directed, method="delta")),
        ("triangle_count", lambda: triangle_count(undirected)),
    ]
    failed = False
    for name, fn in workloads:
        before = dict(be.stats)
        t0 = time.perf_counter()
        try:
            with backend(be):
                fn()
        except BackendDivergence as exc:
            failed = True
            print(f"  {name}: DIVERGENCE — {exc}")
            continue
        except BudgetExceeded as exc:
            failed = True
            print(f"  {name}: OVER BUDGET (strict) — {exc}")
            continue
        dt = time.perf_counter() - t0
        v = be.stats["verified"] - before["verified"]
        s = be.stats["skipped"] - before["skipped"]
        print(f"  {name}: {v} ops verified, {s} skipped (over budget) "
              f"[{dt:.2f}s]")

    st = be.stats
    print(f"total: {st['verified']} verified, {st['skipped']} skipped, "
          f"{st['divergences']} divergences")
    if st["verified"] == 0 and not failed:
        print("warning: budget skipped every operation — nothing was verified")
    return 1 if failed or st["divergences"] else 0


if __name__ == "__main__":
    sys.exit(main())
