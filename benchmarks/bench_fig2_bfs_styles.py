"""F2 — Figure 2: the same level BFS in three runnable notations.

The paper's Figure 2 shows one algorithm (level BFS) written as math
pseudocode, PyGB DSL, GBTL C++, and the GraphBLAS C API.  We reproduce the
three runnable styles — the PyGB DSL (2b), the core library surface (2c's
role), and the GrB_* C-API facade (2d) — assert they produce identical
levels, compare their LoC, and benchmark each.
"""

import numpy as np
import pytest

from _common import emit, wall
from repro import pygb as gbd
from repro.graphblas import Vector
from repro.graphblas import capi as grb
from repro.graphblas import operations as ops
from repro.harness import Table, count_function_loc
from repro.lagraph import bfs_level


def bfs_pygb(graph, frontier, levels):
    """Figure 2(b): the PyGB DSL, verbatim modulo imports."""
    depth = 0
    while frontier.nvals > 0:
        depth += 1
        levels[frontier][:] = depth
        with gbd.LogicalSemiring, gbd.Replace:
            frontier[~levels] = graph.T @ frontier


# descriptor: transpose A, complement (value) mask, replace — Fig 2's
# Desc_TranA_ScmpM_Replace
from repro.graphblas.descriptor import Descriptor  # noqa: E402

_rc_t0 = Descriptor(transpose_a=True, complement_mask=True, replace=True)


def bfs_core(graph, frontier, levels):
    """Figure 2(c)'s role: the library's native operation surface."""
    depth = 0
    while frontier.nvals > 0:
        depth += 1
        ops.assign(levels, depth, ops.ALL, mask=frontier)
        ops.mxv(frontier, graph, frontier, "LOR_LAND", mask=levels, desc=_rc_t0)


def bfs_capi(graph, frontier):
    """Figure 2(d): the GraphBLAS C API, line for line."""
    info, n = grb.GrB_Matrix_nrows(graph)
    info, levels = grb.GrB_Vector_new(grb.GrB_INT64, n)
    info, nvals = grb.GrB_Vector_nvals(frontier)
    depth = 0
    while nvals > 0:
        depth += 1
        grb.GrB_assign(levels, frontier, grb.GrB_NULL, depth, grb.GrB_ALL)
        grb.GrB_mxv(frontier, levels, grb.GrB_NULL, "LOR_LAND", graph, frontier, _rc_t0)
        info, nvals = grb.GrB_Vector_nvals(frontier)
    return levels


def _setup(g):
    n = g.n
    frontier = Vector("BOOL", n)
    frontier.set_element(0, True)
    levels = Vector("INT64", n)
    return frontier, levels


def _run_pygb(g):
    frontier, levels = _setup(g)
    bfs_pygb(gbd.Matrix(g.A), gbd.Vector(frontier), gbd.Vector(levels))
    return levels


def _run_core(g):
    frontier, levels = _setup(g)
    bfs_core(g.A, frontier, levels)
    return levels


def _run_capi(g):
    frontier, _ = _setup(g)
    return bfs_capi(g.A, frontier)


def test_all_styles_agree(rmat_small):
    """All three notations compute identical levels (Fig 2's premise)."""
    lv_pygb = _run_pygb(rmat_small)
    lv_core = _run_core(rmat_small)
    lv_capi = _run_capi(rmat_small)
    assert lv_pygb.isequal(lv_core)
    assert lv_core.isequal(lv_capi)
    # and they match the library BFS (depth offset: Fig 2 roots at 1)
    lib = bfs_level(0, rmat_small)
    i1, v1 = lv_core.extract_tuples()
    i2, v2 = lib.extract_tuples()
    assert i1.tolist() == i2.tolist()
    assert (np.asarray(v1) - 1).tolist() == list(v2)


def test_figure2_table(benchmark, rmat_small):
    def run():
        t = Table(
            "Figure 2 reproduction: level BFS in three notations "
            f"(RMAT scale 9, n={rmat_small.n})",
            ["notation", "paper analogue", "LoC", "seconds"],
        )
        t.add("PyGB DSL", "Fig 2(b) PyGB", count_function_loc(bfs_pygb),
              wall(_run_pygb, rmat_small))
        t.add("core library", "Fig 2(c) GBTL C++", count_function_loc(bfs_core),
              wall(_run_core, rmat_small))
        t.add("GrB_* C API", "Fig 2(d) C API", count_function_loc(bfs_capi),
              wall(_run_capi, rmat_small))
        t.note("identical levels asserted across all notations")
        emit(t, "fig2_bfs_styles")

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.parametrize("style", ["pygb", "core", "capi"])
def test_bench_fig2(benchmark, rmat_small, style):
    runner = {"pygb": _run_pygb, "core": _run_core, "capi": _run_capi}[style]
    benchmark(runner, rmat_small)
