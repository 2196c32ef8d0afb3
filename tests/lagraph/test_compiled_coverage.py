"""The compiled tier runs the section-V algorithms' own semirings.

The fifteen cases of the ``suite_r12`` benchmark run on an RMAT-8 graph
with a toolchain resolved.  Every ``mxm``/``mxv``/``vxm`` ``plan.done``
record names the tier that ran it (the plan-owned ``kernel`` field); at
most 5 % may say ``numpy``.  A failure lists each class the selector
declined, so a regression names the semiring and operand types that
fell back.
"""

import collections

import numpy as np
import pytest

from repro import lagraph as lg
from repro.generators import rmat_graph
from repro.graphblas import compiled, telemetry

pytestmark = pytest.mark.skipif(
    not compiled.available(),
    reason="no compiled toolchain (numba or cc) available",
)

MAX_NUMPY_SHARE = 0.05


def _suite_cases(g, gk, src):
    """The ``suite_r12`` catalogue: (function name, args, kwargs)."""
    return [
        *[("bfs_level", (s, g), {}) for s in src],
        *[("bfs", (s, g), {"level": True, "parent": True}) for s in src],
        *[("delta_stepping_sssp", (s, g), {}) for s in src],
        *[("bellman_ford_sssp", (s, g), {}) for s in src],
        ("bfs_levels_batch", (src, g), {}),
        ("pagerank", (g,), {}),
        ("hits", (g,), {}),
        ("connected_components", (g,), {}),
        ("triangle_count", (g, "sandia_ll"), {}),
        ("betweenness_centrality", (g,), {"sources": src}),
        ("ktruss", (gk, 3), {}),
        ("maximal_independent_set", (g,), {"seed": 0}),
        ("greedy_color", (g,), {"seed": 0}),
        ("peer_pressure_clustering", (g,), {"max_iters": 12}),
        ("kcore_decomposition", (g,), {}),
    ]


def test_suite_products_run_compiled(monkeypatch):
    compiled.reset()
    g = rmat_graph(8, 8, kind="undirected", weighted=True,
                   seed=7).enable_dual_storage()
    gk = rmat_graph(6, 8, kind="undirected", weighted=True, seed=9)
    deg = g.out_degree.to_dense(0)
    src = np.argsort(-deg, kind="stable")[:4].astype(np.int64)

    declined = collections.Counter()
    select_class = compiled.select_class

    def spy(semiring, a_type, b_type, out_type, span, heap=False):
        sel = select_class(semiring, a_type, b_type, out_type, span,
                           heap=heap)
        if sel[0] is None:
            declined[(semiring.name, a_type.name, b_type.name,
                      out_type.name, "heap" if heap else "")] += 1
        return sel

    monkeypatch.setattr(compiled, "select_class", spy)
    with telemetry.plan_capture(), telemetry.collect() as col:
        for fname, args, kwargs in _suite_cases(g, gk, src):
            getattr(lg, fname)(*args, **kwargs)
    products = [e["args"] for e in col.events
                if e["type"] == "decision" and e["name"] == "plan.done"
                and e["args"]["op"] in ("mxm", "mxv", "vxm")]
    numpy = sum(rec.get("kernel") == "numpy" for rec in products)
    assert len(products) > 100
    assert numpy <= MAX_NUMPY_SHARE * len(products), (
        f"{numpy} of {len(products)} products ran NumPy; declined classes "
        f"(semiring, A, B, out, method): {sorted(declined.items())}")
