"""Centrality measures: PageRank and betweenness (paper section V).

* PageRank follows the LAGraph/GAP formulation: out-degree-normalized
  rank propagation over the (+, second) semiring with teleport and proper
  dangling-vertex redistribution.
* Betweenness centrality is Brandes' algorithm in batched linear-algebra
  form (Buluç & Gilbert's CombBLAS formulation [2]): a multi-source
  forward sweep counting shortest paths with masked ``plus_first``
  products, then the dependency back-propagation with masked products
  against the transpose.
"""

from __future__ import annotations

import numpy as np

from ..graphblas import Matrix, Vector, governor
from ..graphblas import operations as ops
from ..graphblas.descriptor import Descriptor
from ..graphblas.errors import InvalidValue
from .graph import Graph, GraphKind

__all__ = [
    "pagerank",
    "betweenness_centrality",
    "closeness_centrality",
    "hits",
]

_RSC = Descriptor(replace=True, complement_mask=True, structural_mask=True)
_RS = Descriptor(replace=True, structural_mask=True)


def pagerank(
    graph: Graph,
    *,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iters: int = 100,
    init: Vector | None = None,
    checkpoint=None,
    resume=None,
) -> tuple[Vector, int]:
    """PageRank; returns (rank vector summing to 1, iterations used).

    ``init`` warm-starts the power iteration from a previous rank vector
    (the dynamic-graph restart: after a small edge delta the old ranks
    are near the new fixed point, so few iterations remain).

    ``checkpoint`` snapshots the rank vector after each completed
    iteration; ``resume`` restarts from such a snapshot.  The iteration
    body depends only on the loop-carried rank vector, so a resumed run
    is bit-identical to an uninterrupted one.
    """
    n = graph.n
    AT = graph.AT
    deg = graph.out_degree  # entries only at non-dangling vertices

    teleport = (1.0 - damping) / n
    if init is None:
        r = Vector.full(1.0 / n, n, dtype="FP64")
    elif init.size != n:
        raise InvalidValue(f"init rank vector has size {init.size}, graph has {n}")
    else:
        r = Vector("FP64", n)
        ops.apply(r, init, "identity")
    deg_f = Vector("FP64", n)
    ops.apply(deg_f, deg, "identity")  # cast INT64 degrees to FP64
    inv_deg = Vector("FP64", n)
    ops.apply(inv_deg, deg_f, "minv")  # 1/deg at non-dangling vertices

    def power_step(it, s):
        prev = s["r"]
        # per-edge contribution of each vertex: r / out-degree
        w = Vector("FP64", n)
        ops.ewise_mult(w, prev, inv_deg, "times")
        # rank mass parked on dangling vertices, redistributed uniformly
        dangling = float(ops.reduce_scalar(prev, "plus")) - float(
            ops.reduce_scalar(w_times_deg(w, deg), "plus")
        )
        t = Vector("FP64", n)
        ops.mxv(t, AT, w, "PLUS_SECOND", method="pull")
        base = teleport + damping * dangling / n
        r = s["r"] = Vector.full(base, n, dtype="FP64")
        ops.apply(t, t, "times", right=damping)
        ops.ewise_add(r, r, t, "plus")
        # L1 convergence check
        diff = Vector("FP64", n)
        ops.ewise_add(diff, r, prev, "minus")
        ops.apply(diff, diff, "abs")
        return {"iteration": it + 1,
                "residual": float(ops.reduce_scalar(diff, "plus"))}

    state = {"r": r}
    iters = governor.iterate("pagerank", state, power_step, checkpoint, resume,
                             event="pagerank.iteration", steps=max_iters,
                             until=lambda rec: rec["residual"] < tol,
                             n=n, damping=damping, tol=tol)
    return state["r"], iters


def w_times_deg(w: Vector, deg: Vector) -> Vector:
    """w * deg — recovers the rank mass of non-dangling vertices."""
    out = Vector("FP64", w.size)
    ops.ewise_mult(out, w, deg, "times")
    return out


def betweenness_centrality(graph: Graph, sources=None, *,
                           checkpoint=None, resume=None) -> Vector:
    """Batched Brandes betweenness; exact when ``sources`` is None.

    Returns the standard (unnormalized) betweenness: for undirected graphs
    the conventional halving is applied.

    ``checkpoint``/``resume`` snapshot the loop state after each level of
    either phase (the snapshot records which phase it was taken in); a
    resumed run must pass the same ``sources``.
    """
    n = graph.n
    if sources is None:
        sources = np.arange(n, dtype=np.int64)
    else:
        sources = np.asarray(sources, dtype=np.int64)
    ns = sources.size
    A = graph.A
    # paths(s, v) counts shortest s-v paths; stack_d is the depth-d frontier
    paths = Matrix.from_coo(
        np.arange(ns), sources, np.ones(ns, dtype=np.float64),
        nrows=ns, ncols=n, dtype="FP64",
    )
    state = {"phase": "forward", "paths": paths, "depth": 1, "stack_0": paths.dup()}

    def forward(_, s):
        if s["phase"] != "forward":  # resumed into the backward phase
            return None
        depth, frontier = s["depth"], Matrix("FP64", ns, n)
        # advance one level, counting paths: (+, first) carries path counts
        ops.mxm(frontier, s[f"stack_{depth - 1}"], A, "PLUS_FIRST",
                mask=s["paths"], desc=_RSC)
        if frontier.nvals == 0:
            s["phase"] = "backward"
            s["bcu"] = Matrix.from_dense(np.ones((ns, n)), dtype="FP64")
            return None
        ops.ewise_add(s["paths"], s["paths"], frontier, "plus")
        s[f"stack_{depth}"], s["depth"] = frontier, depth + 1
        return {"depth": depth, "frontier_nvals": frontier.nvals}

    def backward(_, s):
        # dependency accumulation, deepest level first; the stack shrinks
        d, bcu = s["depth"] - 1, s["bcu"]
        if d == 0:
            return None
        w = Matrix("FP64", ns, n)
        # w = (1 + delta) ./ sigma, restricted to this level's frontier
        ops.ewise_mult(w, bcu, inv(s["paths"]), "times", mask=s[f"stack_{d}"],
                       desc=_RS)
        back = Matrix("FP64", ns, n)
        # pull dependencies one level up: back(s, v) = sum_{(v,u) in E} w(s, u)
        ops.mxm(back, w, A, "PLUS_FIRST", mask=s[f"stack_{d - 1}"],
                desc=_RS & Descriptor(transpose_b=True))
        update = Matrix("FP64", ns, n)
        ops.ewise_mult(update, back, s["paths"], "times")
        ops.ewise_add(bcu, bcu, update, "plus")
        del s[f"stack_{d}"]
        s["depth"] = d
        return {}

    done = governor.iterate("betweenness", state, forward, checkpoint, resume,
                            span="betweenness.forward", event="betweenness.level",
                            sources=int(ns), n=n)
    governor.iterate("betweenness", state, backward, checkpoint, start=done,
                     span="betweenness.backward", sources=int(ns), n=n)
    bcu, paths = state["bcu"], state["paths"]

    # centrality(v) = sum_s delta_s(v), excluding each source's own
    # self-dependency: bcu(s, v) = 1 + delta_s(v), so subtract the ns
    # baseline ones and the diagonal terms delta_v(v).
    c = Vector("FP64", n)
    ops.reduce_rowwise(c, bcu, "plus", desc="T0")
    ops.apply(c, c, "plus", right=-float(ns))
    roots = Matrix.from_coo(
        np.arange(ns), sources, np.ones(ns), nrows=ns, ncols=n, dtype="FP64"
    )
    self_dep = Matrix("FP64", ns, n)
    ops.ewise_mult(self_dep, bcu, roots, "first")  # bcu at (s, sources[s])
    dv = Vector("FP64", n)
    ops.reduce_rowwise(dv, self_dep, "plus", desc="T0")
    counts = Vector("FP64", n)
    ops.reduce_rowwise(counts, roots, "plus", desc="T0")
    ops.ewise_add(dv, dv, neg(counts), "plus")  # dv = sum_s delta_v(v)
    ops.ewise_add(c, c, neg(dv), "plus")
    if graph.kind is GraphKind.UNDIRECTED:
        ops.apply(c, c, "times", right=0.5)
    return c


def neg(v: Vector) -> Vector:
    """Element-wise additive inverse."""
    out = Vector("FP64", v.size)
    ops.apply(out, v, "ainv")
    return out


def closeness_centrality(graph: Graph, *, wf_improved: bool = True) -> Vector:
    """Closeness centrality via batched BFS levels.

    c(v) = (r - 1) / sum(d(v, u)) over v's reachable set of size r (incoming
    distances, per the standard definition), optionally scaled by the
    Wasserman-Faust factor (r - 1)/(n - 1) for disconnected graphs —
    matching networkx's default.  One masked ``mxm`` BFS sweep computes all
    sources at once.
    """
    from .bfs import bfs_levels_batch

    n = graph.n
    # distances INTO v = BFS levels FROM v on the reversed graph
    rev = Graph(graph.AT, graph.kind) if graph.kind is GraphKind.DIRECTED else graph
    L = bfs_levels_batch(np.arange(n), rev)
    r, _, v = L.extract_tuples()
    totals = np.zeros(n)
    reach = np.zeros(n)
    np.add.at(totals, r, v.astype(np.float64))
    np.add.at(reach, r, 1.0)  # includes the source itself at distance 0
    out = np.zeros(n)
    nonzero = totals > 0
    out[nonzero] = (reach[nonzero] - 1) / totals[nonzero]
    if wf_improved and n > 1:
        out[nonzero] *= (reach[nonzero] - 1) / (n - 1)
    return Vector.from_dense(out)


def hits(
    graph: Graph, *, tol: float = 1e-10, max_iters: int = 200
) -> tuple[Vector, Vector]:
    """HITS hubs and authorities by alternating mxv power iteration.

    a = A^T h; h = A a; normalized each round (L1, like networkx).
    Returns (hubs, authorities).
    """
    n = graph.n
    h = Vector.full(1.0 / n, n, dtype="FP64")
    a = Vector("FP64", n)
    for _ in range(max_iters):
        prev = h.to_dense()
        ops.mxv(a, graph.AT, h, "PLUS_SECOND", method="pull")
        _l1_normalize(a)
        ops.mxv(h, graph.A, a, "PLUS_SECOND", method="pull")
        _l1_normalize(h)
        if np.abs(h.to_dense() - prev).sum() < tol:
            break
    return h, a


def _l1_normalize(v: Vector) -> None:
    total = float(ops.reduce_scalar(v, "PLUS"))
    if total > 0:
        ops.apply(v, v, "times", right=1.0 / total)


def inv(M: Matrix) -> Matrix:
    """Element-wise reciprocal of the stored entries."""
    out = Matrix("FP64", *M.shape)
    ops.apply(out, M, "minv")
    return out
