"""Ablations of the substrate's design knobs (DESIGN.md's design-choice list).

Three tunables whose values the paper's systems pick empirically; each
ablation sweeps the knob and reports where our substrate's optimum falls:

* **Gustavson chunk cap** — the expansion SpGEMM bounds its intermediate
  partial-product buffer; too small re-pays per-chunk overhead, too large
  blows the cache/allocator.  Only the NumPy Gustavson chunks (the
  compiled one folds each row in a SPA), so this sweep runs it.
* **Direction-switch threshold** — GraphBLAST's push/pull density cutoff
  (section II.E): sweep it over a BFS and compare traversal time.
* **Dual-orientation storage** — GraphBLAST's 2x-memory CSR+CSC mode
  (Figure 3 / the env-var the paper mentions): direction-optimized BFS
  with and without the second copy.
"""

import numpy as np
import pytest

from _common import emit, wall
from repro.generators import rmat_graph
import importlib

# the package re-exports the mxm *function*, shadowing the submodule name
mxm_mod = importlib.import_module("repro.graphblas.mxm")
from repro.graphblas import DirectionOptimizer, Matrix, compiled
from repro.graphblas import operations as ops
from repro.harness import Table
from repro.lagraph.bfs import bfs_level


def test_ablation_gustavson_chunk(benchmark, rmat_medium):
    A = rmat_medium.structure("FP64")

    def product():
        C = Matrix("FP64", A.nrows, A.ncols)
        ops.mxm(C, A, A, "PLUS_TIMES", method="gustavson")
        return C

    def run():
        t = Table(
            "Ablation: Gustavson expansion chunk cap (A*A, RMAT scale 11)",
            ["chunk cap (partial products)", "seconds"],
        )
        default = mxm_mod.GUSTAVSON_CHUNK_FLOPS
        with compiled.toolchain_off():
            try:
                for cap in (1 << 12, 1 << 16, 1 << 20, 1 << 23, 1 << 26):
                    mxm_mod.GUSTAVSON_CHUNK_FLOPS = cap
                    t.add(cap, wall(product, repeat=2))
            finally:
                mxm_mod.GUSTAVSON_CHUNK_FLOPS = default
        t.note("too small: per-chunk overhead; too large: giant intermediates")
        emit(t, "ablation_gustavson_chunk")

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_ablation_chunk_results_identical(rmat_small):
    A = rmat_small.structure("FP64")
    default = mxm_mod.GUSTAVSON_CHUNK_FLOPS
    outs = []
    with compiled.toolchain_off():
        try:
            for cap in (1 << 8, 1 << 14, 1 << 23):
                mxm_mod.GUSTAVSON_CHUNK_FLOPS = cap
                C = Matrix("FP64", A.nrows, A.ncols)
                ops.mxm(C, A, A, "PLUS_TIMES", method="gustavson")
                outs.append(C)
        finally:
            mxm_mod.GUSTAVSON_CHUNK_FLOPS = default
    assert outs[0].isequal(outs[1]) and outs[0].isequal(outs[2])


def test_ablation_direction_threshold(benchmark, rmat_medium):
    def run():
        t = Table(
            "Ablation: push/pull switch threshold (BFS, RMAT scale 11)",
            ["threshold", "seconds", "directions used"],
        )
        for thr in (0.005, 0.02, 0.05, 0.2, 0.8):
            opt = DirectionOptimizer(threshold=thr)
            sec = wall(
                lambda: bfs_level(0, rmat_medium, optimizer=DirectionOptimizer(thr)),
                repeat=3,
            )
            bfs_level(0, rmat_medium, optimizer=opt)
            t.add(thr, sec, "+".join(sorted(set(opt.history))))
        t.note("0.8 never pulls; 0.005 pulls almost immediately")
        emit(t, "ablation_direction_threshold")

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_ablation_dual_storage(benchmark):
    def run():
        t = Table(
            "Ablation: GraphBLAST dual CSR+CSC storage (direction-opt BFS)",
            ["storage", "bytes", "seconds"],
        )
        for dual in (False, True):
            g = rmat_graph(11, 8, seed=7, kind="undirected")
            if dual:
                g.enable_dual_storage()
            sec = wall(
                lambda: bfs_level(0, g, optimizer=DirectionOptimizer(0.03)),
                repeat=3,
            )
            nbytes = g.A.nbytes + (g.A._alt.nbytes if g.A._alt is not None else 0)
            t.add("CSR + CSC (2x)" if dual else "CSR only", nbytes, sec)
        t.note("the paper: an environment variable selects this memory/speed trade")
        emit(t, "ablation_dual_storage")

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_ablation_dual_storage_speedup():
    g1 = rmat_graph(11, 8, seed=7, kind="undirected")
    g2 = rmat_graph(11, 8, seed=7, kind="undirected").enable_dual_storage()
    t_single = wall(lambda: bfs_level(0, g1, optimizer=DirectionOptimizer(0.03)), repeat=3)
    t_dual = wall(lambda: bfs_level(0, g2, optimizer=DirectionOptimizer(0.03)), repeat=3)
    assert t_dual < t_single  # the second copy pays for itself in BFS
