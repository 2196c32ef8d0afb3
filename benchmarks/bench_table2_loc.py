"""T2 — Table II: lines-of-code comparison.

The paper's Table II counts application lines (cloc) for three algorithms
in Ligra, GraphIt, and GraphBLAS (GraphBLAST).  We apply the same counting
rule to *our* GraphBLAS-based implementations and print the table with the
paper's published baselines alongside.

The reproduction target is the *shape*: the GraphBLAS formulation stays in
the same few-dozen-lines class as the DSL (GraphIt) and far below the
hand-rolled framework (Ligra) for the harder algorithms.
"""

import pytest

from _common import emit
from repro.harness import Table, count_function_loc
from repro.lagraph.bfs import bfs
from repro.lagraph.clustering import local_clustering
from repro.lagraph.sssp import delta_stepping_sssp

# Table II of the paper, verbatim.
PAPER = {
    "Breadth-first-search": {"ligra": 29, "graphit": 22, "graphblas": 25},
    "Single-source shortest-path": {"ligra": 55, "graphit": 25, "graphblas": 25},
    "Local graph clustering": {"ligra": 84, "graphit": None, "graphblas": 45},
}

# The comparison subjects are the library functions themselves: checkpoint,
# resume and per-iteration records live in governor.iterate, so each body
# is only the GraphBLAS calls of the algorithm.
OURS = {
    "Breadth-first-search": bfs,
    "Single-source shortest-path": delta_stepping_sssp,
    "Local graph clustering": local_clustering,
}


def test_table2_loc(benchmark):
    def run():
        t = Table(
            "Table II reproduction: lines of application code per algorithm",
            ["algorithm", "Ligra", "GraphIt", "GraphBLAS (paper)", "this repo"],
        )
        for name, row in PAPER.items():
            t.add(
                name,
                row["ligra"],
                row["graphit"] if row["graphit"] is not None else "N/A",
                row["graphblas"],
                count_function_loc(OURS[name]),
            )
        t.note("Ligra/GraphIt/GraphBLAS columns are the paper's published counts")
        t.note("'this repo' counts our Python implementation with the same rule")
        emit(t, "table2_loc")

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.parametrize("name", list(PAPER))
def test_loc_stays_in_graphblas_class(name):
    """Our count must stay within ~2x of the paper's GraphBLAS column and
    below Ligra's count for the algorithms where GraphBLAS wins on paper."""
    ours = count_function_loc(OURS[name])
    paper_gb = PAPER[name]["graphblas"]
    assert ours <= 2 * paper_gb, (name, ours)
    if PAPER[name]["ligra"] > paper_gb:
        assert ours < PAPER[name]["ligra"], (name, ours)
