"""Connected components (paper section V, ref [38] — LACC / FastSV).

Two linear-algebraic algorithms:

* :func:`connected_components` — **FastSV** (the successor to the LACC
  algorithm of Azad & Buluç the paper cites): a parent vector is improved
  each round by (1) *hooking* — every vertex offers its grandparent to its
  neighbours' parents via a (min, second) product and a min-duplicate
  scatter (``GrB_Vector_build`` with dup=MIN), and (2) *shortcutting* —
  pointer jumping f = f[f].  Converges in O(log n) rounds.
* :func:`cc_label_propagation` — the simple min-label-propagation baseline
  (one (min, second) mxv per round, O(diameter) rounds), kept as the
  cross-check oracle.

Both treat the graph as undirected (weakly connected components).
"""

from __future__ import annotations

import numpy as np

from ..graphblas import Matrix, Vector, governor
from ..graphblas import operations as ops
from .graph import Graph, GraphKind

__all__ = [
    "connected_components",
    "cc_label_propagation",
    "component_sizes",
    "merge_labels",
]


def merge_labels(labels: np.ndarray, us, vs) -> np.ndarray:
    """Fold a batch of new edges into a min-vertex-id component labeling.

    The incremental half of FastSV: a window of edge *insertions* can only
    merge components, so instead of re-running the O(e) hooking rounds we
    union the touched labels (min label becomes the root, preserving the
    min-vertex-id invariant) and relabel through the union-find roots.
    ``labels`` must be such a labeling: every label is a vertex id in
    ``[0, labels.size)``.  Only the labels the union-find touched change,
    so the Python work is O(delta * alpha) and the relabel is one
    vectorised gather through an identity lookup table patched at them.
    Deletions can split components and are not handled here — callers
    fall back to :func:`connected_components`.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.size == 0:
        return labels
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(labels[us].tolist(), labels[vs].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    if not parent:
        return labels
    lut = np.arange(labels.size, dtype=labels.dtype)
    merged = list(parent)
    lut[merged] = [find(x) for x in merged]
    return lut[labels]


def _symmetric_structure(graph: Graph) -> Matrix:
    S = graph.structure("BOOL")
    if graph.kind is not GraphKind.UNDIRECTED and not graph.is_symmetric_structure:
        ops.ewise_add(S, S, S, "LOR", desc="T1")  # S = S | S^T
    return S


def connected_components(graph: Graph, *, checkpoint=None, resume=None) -> Vector:
    """FastSV: component id (minimum vertex id in component) per vertex.

    ``checkpoint`` snapshots the parent-pointer vector after each completed
    hooking/shortcutting round; ``resume`` restarts from such a snapshot.
    Each round depends only on the loop-carried parent vector, so a resumed
    run is bit-identical.
    """
    n = graph.n
    S = _symmetric_structure(graph)

    def fastsv_round(it, s):
        f = s["f"]
        changed = False
        fd = f.to_dense()
        # grandparents: gp = f[f]  (a gather, i.e. GrB extract with I = f)
        gp = Vector("INT64", n)
        ops.extract(gp, f, fd)

        # hooking: mngp(i) = min over neighbours j of gp(j)
        mngp = Vector("INT64", n)
        ops.mxv(mngp, S, gp, "MIN_SECOND")
        mi, mv = mngp.extract_tuples()
        # hook the *parent* of i to the min neighbouring grandparent:
        # f[f[i]] = min(f[f[i]], mngp(i)) — a scatter-min, i.e. a
        # GrB_Vector_build with dup = MIN folded into f with eWise MIN
        if mi.size:
            scatter = Vector("INT64", n)
            scatter.build(fd[mi], mv, dup="MIN")
            before = f.dup()
            ops.ewise_add(f, f, scatter, "MIN")
            changed |= not f.isequal(before)
            # hook also directly: f[i] = min(f[i], mngp(i))
            before = f.dup()
            ops.ewise_add(f, f, mngp, "MIN")
            changed |= not f.isequal(before)

        # shortcutting: f = min(f, f[f])
        before = f.dup()
        ops.ewise_add(f, f, gp, "MIN")
        changed |= not f.isequal(before)
        return {"round": it + 1, "changed": changed}

    state = {"f": Vector.from_dense(np.arange(n, dtype=np.int64))}  # parents
    governor.iterate("components", state, fastsv_round, checkpoint, resume,
                     span="components.fastsv", event="components.round",
                     until=lambda rec: not rec["changed"], n=n)
    # fully path-compress before returning
    fd = state["f"].to_dense()
    while True:
        nxt = fd[fd]
        if np.array_equal(nxt, fd):
            break
        fd = nxt
    return Vector.from_dense(fd)


def cc_label_propagation(graph: Graph, max_iters: int | None = None) -> Vector:
    """Min-label propagation: O(diameter) (min, second) products."""
    n = graph.n
    S = _symmetric_structure(graph)
    labels = Vector.from_dense(np.arange(n, dtype=np.int64))
    limit = max_iters if max_iters is not None else n
    for _ in range(limit):
        before = labels.dup()
        ops.mxv(labels, S, labels, "MIN_SECOND", accum="MIN")
        if labels.isequal(before):
            break
    return labels


def component_sizes(labels: Vector) -> dict[int, int]:
    """Histogram of component sizes from a label vector."""
    _, vals = labels.extract_tuples()
    ids, counts = np.unique(vals, return_counts=True)
    return {int(i): int(c) for i, c in zip(ids, counts)}
