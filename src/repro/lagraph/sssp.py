"""Single-source shortest paths: Bellman-Ford and delta-stepping.

The paper's catalogue lists single-source shortest path with the
linear-algebraic delta-stepping of Sridhar et al. [32] as the reference
GraphBLAS formulation; plain Bellman-Ford over the (min, +) semiring is
the textbook baseline both for testing and for the Table II comparison.
"""

from __future__ import annotations

from ..graphblas import Vector, governor
from ..graphblas import operations as ops
from ..graphblas.errors import InvalidValue
from .graph import Graph

__all__ = ["bellman_ford_sssp", "delta_stepping_sssp", "sssp"]


def bellman_ford_sssp(
    source: int,
    graph: Graph,
    *,
    max_iters: int | None = None,
    checkpoint=None,
    resume=None,
) -> Vector:
    """Bellman-Ford over the (min, +) semiring.

    ``d'(j) = min(d(j), min_i d(i) + A(i, j))`` iterated to fixpoint; raises
    on a negative-weight cycle.  Unreachable vertices have no entry.

    ``checkpoint`` snapshots the distance vector after each completed
    relaxation round; ``resume`` restarts from such a snapshot.  Each
    round depends only on the loop-carried distances, so a resumed run is
    bit-identical.
    """
    n = graph.n
    if not 0 <= int(source) < n:
        raise InvalidValue(f"source {source} outside [0,{n})")
    d = Vector("FP64", n)
    d.set_element(source, 0.0)
    limit = n if max_iters is None else max_iters

    def relax(it, s):
        d, prev = s["d"], s["d"].dup()
        # d<-- min over incoming relaxations, folded in with the MIN accum
        ops.vxm(d, d, graph.A, "MIN_PLUS", accum="MIN")
        changed = not d.isequal(prev)
        if changed and it >= limit:  # still improving after `limit` rounds
            raise InvalidValue("graph contains a negative-weight cycle")
        return {"iteration": it, "reached": d.nvals, "changed": changed}

    state = {"d": d}
    governor.iterate("sssp", state, relax, checkpoint, resume,
                     span="sssp.bellman_ford", event="sssp.iteration",
                     until=lambda rec: not rec["changed"], source=int(source), n=n)
    return state["d"]


def delta_stepping_sssp(source: int, graph: Graph, delta: float | None = None) -> Vector:
    """Delta-stepping SSSP (Sridhar et al. [32]) for non-negative weights.

    Edges are split into light (w <= delta) and heavy (w > delta), a split
    the graph caches; vertices settle bucket by bucket, with a light-edge
    relaxation loop inside each bucket that re-relaxes only the entries
    that are new or improved, followed by one heavy-edge relaxation out
    of it.
    """
    n = graph.n
    if not 0 <= int(source) < n:
        raise InvalidValue(f"source {source} outside [0,{n})")
    wmin, wmean, _ = graph.weight_summary
    if wmin < 0:
        raise InvalidValue("delta-stepping requires non-negative weights")
    if delta is None:
        # common heuristic: average edge weight (falls back to 1)
        delta = wmean if graph.nvals else 1.0
    if delta <= 0:
        raise InvalidValue("delta must be positive")
    AL, AH = graph.delta_split(delta)
    t = Vector("FP64", n)
    t.set_element(source, 0.0)
    state = {"settled": 0.0}  # every distance below it is final

    def bucket(i, s):
        rest = Vector("FP64", n)
        ops.select(rest, t, "VALUEGE", s["settled"])
        if rest.nvals == 0:
            return None
        m = float(ops.reduce_scalar(rest, "MIN"))
        k = m // delta  # the exact floor; m / delta can round up to k + 1
        if (k + 1) * delta <= m:  # the product rounded down onto m
            k += 1
        lo, hi = k * delta, (k + 1) * delta
        tB = Vector("FP64", n)  # the bucket as last relaxed
        while True:  # light-edge loop: relax only what is new or improved
            prev, tB = tB, Vector("FP64", n)
            ops.select(tB, t, "VALUEGE", lo)
            ops.select(tB, tB, "VALUELT", hi)
            same = Vector("BOOL", n)
            ops.ewise_mult(same, tB, prev, "EQ")
            frontier = Vector("FP64", n)
            ops.apply(frontier, tB, mask=same, desc="RC")
            if frontier.nvals == 0:
                break
            ops.vxm(t, frontier, AL, "MIN_PLUS", accum="MIN")
            if lo + wmin >= hi:
                # every relaxed value is >= lo + wmin (rounding is
                # monotone), so none lands back inside [lo, hi)
                break
        # one heavy-edge relaxation out of the settled bucket (t is final
        # in [lo, hi), so the last tB is the whole bucket)
        if AH.nvals:
            ops.vxm(t, tB, AH, "MIN_PLUS", accum="MIN")
        s["settled"] = hi
        return {"bucket": i, "lo": lo, "hi": hi, "candidates": rest.nvals}

    governor.iterate("sssp", state, bucket, span="sssp.delta_stepping",
                     event="sssp.bucket", source=int(source), n=n, delta=delta)
    return t


def sssp(source: int, graph: Graph, *, method: str = "delta", delta: float | None = None) -> Vector:
    """Dispatching front-end: ``method`` is ``"delta"`` or ``"bellman-ford"``."""
    if method in ("delta", "delta-stepping"):
        return delta_stepping_sssp(source, graph, delta)
    if method in ("bf", "bellman-ford", "bellman_ford"):
        return bellman_ford_sssp(source, graph)
    raise InvalidValue(f"unknown sssp method {method!r}")
