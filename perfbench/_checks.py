"""Vectorized result validators.

They assert the same invariants as ``repro.lagraph.check_bfs_levels`` /
``check_bfs_parents`` / ``check_sssp_distances`` / ``check_component_labels``
but in O(edges) NumPy instead of per-edge Python: the library's validators
take ~0.1 s per call at RMAT scale 12, and the benchmark validates every
BFS/SSSP result of every pass.  ``test_smoke.py`` holds the two
implementations against each other.  Each function returns True/False.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-9


def _edges(graph):
    return graph.A.extract_tuples()


def _dense(vec, n: int, missing):
    idx, vals = vec.extract_tuples()
    out = np.full(n, missing, dtype=np.float64)
    out[idx] = vals
    return out


def bfs_levels_ok(graph, source: int, levels) -> bool:
    """Source at level 0; no edge leaves the reached set or spans more than
    one level; every other reached vertex has a predecessor one level up."""
    n = graph.n
    lv = _dense(levels, n, -1.0)
    if lv[source] != 0:
        return False
    r, c, _ = _edges(graph)
    from_reached = lv[r] >= 0
    if np.any(lv[c[from_reached]] < 0):
        return False
    if np.any(lv[c[from_reached]] > lv[r[from_reached]] + 1):
        return False
    best_pred = np.full(n, np.inf)
    np.minimum.at(best_pred, c[from_reached], lv[r[from_reached]])
    reached = np.flatnonzero(lv >= 0)
    reached = reached[reached != source]
    return bool(np.all(best_pred[reached] == lv[reached] - 1))


def bfs_parents_ok(graph, source: int, parents, levels) -> bool:
    """Parent and level patterns agree; every parent edge exists and climbs
    exactly one level; the source is its own parent."""
    n = graph.n
    lv = _dense(levels, n, -1.0)
    pi, pv = parents.extract_tuples()
    pv = np.asarray(pv, dtype=np.int64)
    if not np.array_equal(np.sort(pi), np.flatnonzero(lv >= 0)):
        return False
    is_src = pi == source
    if not np.all(pv[is_src] == source):
        return False
    child, par = pi[~is_src], pv[~is_src]
    r, c, _ = _edges(graph)
    if not np.all(np.isin(par * n + child, r * n + c)):
        return False
    return bool(np.all(lv[par] == lv[child] - 1))


def sssp_ok(graph, source: int, dist) -> bool:
    """d(source) = 0; no edge is relaxable or leaves the reached set; every
    other reached vertex has a tight incoming edge."""
    n = graph.n
    d = _dense(dist, n, np.inf)
    if d[source] != 0.0:
        return False
    r, c, w = _edges(graph)
    finite = np.isfinite(d[r])
    via = d[r[finite]] + w[finite]
    if np.any(~np.isfinite(d[c[finite]])):
        return False
    if np.any(d[c[finite]] > via + _EPS):
        return False
    best = np.full(n, np.inf)
    np.minimum.at(best, c[finite], via)
    reached = np.flatnonzero(np.isfinite(d))
    reached = reached[reached != source]
    return bool(np.all(np.abs(best[reached] - d[reached]) < _EPS))


def component_labels_ok(graph, labels) -> bool:
    """Every vertex labelled; edge endpoints share a label; each label is
    the smallest vertex id carrying it."""
    li, lval = labels.extract_tuples()
    if li.size != graph.n:
        return False
    lab = np.asarray(lval, dtype=np.int64)
    if lab.min() < 0 or lab.max() >= graph.n:
        return False
    r, c, _ = _edges(graph)
    if np.any(lab[r] != lab[c]):
        return False
    smallest = np.full(graph.n, graph.n, dtype=np.int64)
    np.minimum.at(smallest, lab, np.arange(graph.n))
    return bool(np.all(smallest[lab] == lab))


def pagerank_ok(rank) -> bool:
    from repro.lagraph import check_pagerank

    try:
        check_pagerank(rank)
    except AssertionError:
        return False
    return True


def same_entries(x, y, *, tol: float = 0.0) -> bool:
    """Two vectors/matrices with the same pattern and (nearly) the same
    values — the cross-method equality check."""
    tx, ty = x.extract_tuples(), y.extract_tuples()
    if any(a.shape != b.shape or not np.array_equal(a, b)
           for a, b in zip(tx[:-1], ty[:-1])):
        return False
    vx = np.asarray(tx[-1], dtype=np.float64)
    vy = np.asarray(ty[-1], dtype=np.float64)
    return bool(np.all(np.abs(vx - vy) <= tol))
