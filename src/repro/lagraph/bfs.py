"""Breadth-first search: level, parent, and direction-optimizing variants.

BFS heads the paper's algorithm catalogue (section V) and is the paper's
running example: Figure 2 shows level BFS in four notations; section II.E
explains how GraphBLAST folds Beamer's direction-optimizing (push-pull)
traversal into ``GrB_mxv``; and section II.A notes that SuiteSparse's
terminal-monoid early exit "will enable a fast direction-optimizing BFS".

Conventions: the source vertex has level 0; unreachable vertices have no
entry in the level vector; the source's parent is itself.
"""

from __future__ import annotations

import numpy as np

from ..graphblas import Matrix, Vector, governor
from ..graphblas import operations as ops
from ..graphblas.descriptor import Descriptor
from ..graphblas.errors import InvalidValue
from ..graphblas.mxv import DirectionOptimizer
from .graph import Graph

__all__ = ["bfs_level", "bfs_parent", "bfs", "bfs_levels_batch"]

# mask = complement of the structural visited set; replace the frontier
_RSC = Descriptor(replace=True, complement_mask=True, structural_mask=True)
_S = Descriptor(structural_mask=True)


def bfs_level(
    source: int,
    graph: Graph,
    *,
    method: str = "auto",
    optimizer: DirectionOptimizer | None = None,
    checkpoint=None,
    resume=None,
) -> Vector:
    """Level BFS (Figure 2): v -> hops from ``source``; INT64 vector.

    ``method`` forces ``"push"`` or ``"pull"``; ``"auto"`` applies the
    direction-optimization rule (supply a :class:`DirectionOptimizer` to
    observe or tune the switching behaviour).
    """
    level, _ = bfs(source, graph, parent=False, method=method,
                   optimizer=optimizer, checkpoint=checkpoint, resume=resume)
    return level


def bfs_parent(
    source: int,
    graph: Graph,
    *,
    method: str = "auto",
    optimizer: DirectionOptimizer | None = None,
) -> Vector:
    """Parent BFS: v -> its BFS-tree parent (positional ANY_SECONDI semiring)."""
    _, parent = bfs(
        source, graph, level=False, parent=True, method=method, optimizer=optimizer
    )
    return parent


def bfs(source: int, graph: Graph, *, level: bool = True, parent: bool = False,
        method: str = "auto", optimizer: DirectionOptimizer | None = None,
        checkpoint=None, resume=None) -> tuple[Vector | None, Vector | None]:
    """Combined level/parent BFS over out-edges of ``graph``.

    Returns ``(level_vector, parent_vector)`` with None for outputs not
    requested.  The traversal is the Figure 2 loop: assign the depth (or
    parents) under the frontier mask, then advance the frontier through the
    adjacency transpose under the complemented visited mask with replace.

    ``checkpoint`` (a path, :class:`~repro.graphblas.governor.Checkpoint`,
    or callable) snapshots the loop state after each completed level;
    ``resume`` restarts from such a snapshot (see
    :func:`~repro.graphblas.governor.iterate`).
    """
    n = graph.n
    if not 0 <= int(source) < n:
        raise InvalidValue(f"source {source} outside [0,{n})")
    if not (level or parent):
        raise InvalidValue("request at least one of level/parent")
    state = {"frontier": Vector("INT64" if parent else "BOOL", n)}
    state["frontier"].set_element(source, source if parent else True)
    outputs = [key for key, on in (("levels", level), ("parents", parent)) if on]
    state.update((key, Vector("INT64", n)) for key in outputs)
    # product value = the frontier vertex id for parent BFS
    semiring = "ANY_SECONDI" if parent else "LOR_LAND"

    def step(depth, s):
        frontier, nvals = s["frontier"], s["frontier"].nvals
        if nvals == 0:
            return None
        if level:
            ops.assign(s["levels"], depth, ops.ALL, mask=frontier, desc=_S)
        if parent:
            ops.assign(s["parents"], frontier, ops.ALL, mask=frontier, desc=_S)
        ops.mxv(frontier, graph.AT, frontier, semiring, mask=s[outputs[0]],
                desc=_RSC, method=method, optimizer=optimizer)
        return {"level": depth, "frontier_nvals": nvals, "frontier_density": nvals / n}

    governor.iterate("bfs", state, step, checkpoint, resume, event="bfs.level",
                     source=int(source), n=n, parent=parent)
    return state.get("levels"), state.get("parents")


def bfs_levels_batch(sources, graph: Graph) -> Matrix:
    """Multi-source BFS: row s of the result holds levels from sources[s].

    The frontier is an ns x n Boolean matrix advanced with masked ``mxm`` —
    the batched form used by betweenness centrality.
    """
    sources = np.asarray(sources, dtype=np.int64)
    ns, n = sources.size, graph.n
    levels = Matrix("INT64", ns, n)
    frontier = Matrix.from_coo(
        np.arange(ns), sources, np.ones(ns, dtype=bool), nrows=ns, ncols=n
    )

    def step(depth, _):
        nvals = frontier.nvals
        if nvals == 0:
            return None
        ops.assign(levels, depth, ops.ALL, ops.ALL, mask=frontier, desc=_S)
        ops.mxm(frontier, frontier, graph.A, "LOR_LAND", mask=levels, desc=_RSC)
        return {"level": depth, "frontier_nvals": nvals}

    governor.iterate("bfs_batch", {}, step, event="bfs.level", sources=int(ns), n=n)
    return levels
