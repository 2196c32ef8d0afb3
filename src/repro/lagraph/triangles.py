"""Triangle counting and enumeration (paper section V, refs [34], [35]).

Masked SpGEMM is the canonical GraphBLAS showcase: computing ``A*A`` only
where ``A`` has entries touches exactly the wedges that can close into
triangles.  Three classic methods are provided (all assume an undirected
simple graph; self-loops are removed first):

* ``burkhardt``:  ntri = sum((A*A) .* A) / 6
* ``cohen``:      ntri = sum((L*U) .* A) / 2
* ``sandia_ll``:  ntri = sum((L*L) .* L)   — the masked lower-triangular
  form, usually fastest because the mask is smallest.
"""

from __future__ import annotations

import numpy as np

from ..graphblas import Matrix, telemetry
from ..graphblas import operations as ops
from ..graphblas.descriptor import Descriptor
from ..graphblas.errors import InvalidValue
from ..graphblas.types import FP64
from ..graphblas.updatelog import chain_net_edges
from .graph import Graph

__all__ = [
    "triangle_count",
    "triangle_count_delta",
    "triangle_counts_per_vertex",
    "triangle_matrix",
    "triangle_enumerate",
]


def triangle_count_delta(graph: Graph, deltas, prev_count: int) -> int | None:
    """Advance an undirected triangle count across assembled windows.

    With A' the adjacency after the windows and D = A' - A the chain's
    net +1/-1 delta, loops dropped (:func:`~repro.graphblas.updatelog.
    chain_net_edges`), the cyclic trace of T = tr(X^3)/6 gives

        T' - T = 1/2 sum(D .* A'A'<D>) - 1/2 sum(D .* A'D<D>)
                 + 1/6 sum(D .* DD<D>)

    arXiv 2509.18984's matrix streaming of section-V counting: each term
    is a D-masked dot product, an eWiseMult and a reduce, O(|D| x
    degree).  A loop s_i = [A'(i,i)] over-counts the first two terms'
    difference by s_i D(i,j), subtracted at D's rows.

    A must store both directions (UNDIRECTED).  Value-only overwrites and
    edges that net out over the chain give no D.  None means the net
    delta could not be keyed (``n > 2**31``): the caller recounts.
    """
    A, n = graph.A.wait(), graph.n
    net = chain_net_edges(deltas, n)
    if net is None:
        return None
    au, av, ru, rv = net
    rows, cols = np.concatenate([au, ru]), np.concatenate([av, rv])
    sign = np.repeat([1.0, -1.0], [au.size, ru.size])
    off = rows != cols
    rows, cols, sign = rows[off], cols[off], sign[off]
    if rows.size == 0:
        return prev_count
    D = Matrix.from_coo(rows, cols, sign, nrows=n, ncols=n, dtype="FP64")
    # PAIR's sum runs in A's own type, so a narrow one would saturate
    X = A if A.dtype == FP64 else graph.structure("FP64")
    wedges = _delta_sum(X, X, "PLUS_PAIR", D)
    wedges -= _delta_sum(A, D, "PLUS_SECOND", D)
    if graph.nself_edges:
        # W = diag(row sums of D); (A'W')(i,i) = s_i
        U, inv = np.unique(rows, return_inverse=True)
        W = Matrix.from_coo(U, U, np.bincount(inv, weights=sign),
                            nrows=n, ncols=n)
        wedges -= _delta_sum(X, W, "PLUS_PAIR", W)
    return prev_count + (3 * wedges + _delta_sum(D, D, "PLUS_TIMES", D)) // 6


def _delta_sum(X: Matrix, Y: Matrix, semiring: str, D: Matrix) -> int:
    """sum(D .* X*Y'<D>): one D-masked dot product, eWiseMult, reduce."""
    C = Matrix("FP64", D.nrows, D.ncols)
    ops.mxm(C, X, Y, semiring, mask=D, desc=_RST, method="dot")
    ops.ewise_mult(C, C, D, "TIMES")
    return int(round(ops.reduce_scalar(C, "PLUS")))


_RS = Descriptor(replace=True, structural_mask=True)
_RST = Descriptor(replace=True, structural_mask=True, transpose_b=True)


def _prepared(graph: Graph) -> Matrix:
    """Boolean structure with the diagonal dropped."""
    S = graph.without_self_edges().structure("FP64")
    return S


def triangle_count(graph: Graph, method: str = "sandia_ll") -> int:
    """Count triangles of an undirected graph with the chosen method."""
    A = _prepared(graph)
    n = A.nrows
    method = method.lower()
    with telemetry.span("triangles", method=method, n=n, nvals=int(A.nvals)):
        return _count(A, n, method)


def _count(A: Matrix, n: int, method: str) -> int:
    if method == "burkhardt":
        C = Matrix("FP64", n, n)
        ops.mxm(C, A, A, "PLUS_TIMES", mask=A, desc=_RS, method="dot")
        return int(round(ops.reduce_scalar(C, "PLUS") / 6))
    if method == "cohen":
        L = Matrix("FP64", n, n)
        ops.select(L, A, "TRIL", -1)
        U = Matrix("FP64", n, n)
        ops.select(U, A, "TRIU", 1)
        C = Matrix("FP64", n, n)
        ops.mxm(C, L, U, "PLUS_TIMES", mask=A, desc=_RS, method="dot")
        return int(round(ops.reduce_scalar(C, "PLUS") / 2))
    if method == "sandia_ll":
        L = Matrix("FP64", n, n)
        ops.select(L, A, "TRIL", -1)
        C = Matrix("FP64", n, n)
        ops.mxm(C, L, L, "PLUS_TIMES", mask=L, desc=_RS, method="dot")
        return int(round(ops.reduce_scalar(C, "PLUS")))
    raise InvalidValue(f"unknown triangle-count method {method!r}")


def triangle_matrix(graph: Graph) -> Matrix:
    """Per-edge triangle counts: T(i, j) = triangles through edge (i, j)."""
    A = _prepared(graph)
    n = A.nrows
    T = Matrix("FP64", n, n)
    ops.mxm(T, A, A, "PLUS_TIMES", mask=A, desc=_RS, method="dot")
    return T


def triangle_enumerate(graph: Graph) -> np.ndarray:
    """List all triangles as sorted (i, j, k) rows, i < j < k.

    The paper's catalogue asks for "triangle counting and enumeration"
    [34], [35].  Enumeration works on the strictly-lower-triangular
    structure L: for every L edge (j, i) with i < j, the triangles through
    it are the common neighbours k < i, read off the row intersections
    that the masked ``L*L`` dot product identifies.  Returns an (ntri, 3)
    int array.
    """
    A = _prepared(graph)
    n = A.nrows
    L = Matrix("FP64", n, n)
    ops.select(L, A, "TRIL", -1)
    U = Matrix("FP64", n, n)
    ops.select(U, A, "TRIU", 1)
    # an S entry at (c, a) means edge (a, c) closes >= 1 triangle through
    # some middle vertex k with a < k < c
    S = Matrix("FP64", n, n)
    ops.mxm(S, L, L, "PLUS_TIMES", mask=L, desc=_RS, method="dot")
    sr, sc, _ = S.extract_tuples()
    lstore = L.by_row()
    ustore = U.by_row()
    out: list[tuple[int, int, int]] = []
    lo_s, lo_e = lstore.major_ranges(sr)  # neighbours of c below c
    hi_s, hi_e = ustore.major_ranges(sc)  # neighbours of a above a
    for e in range(sr.size):
        below_c = lstore.minor[lo_s[e] : lo_e[e]]
        above_a = ustore.minor[hi_s[e] : hi_e[e]]
        common = np.intersect1d(below_c, above_a, assume_unique=True)
        c, a = int(sr[e]), int(sc[e])
        for k in common:
            out.append((a, int(k), c))  # a < k < c by construction
    return np.array(sorted(out), dtype=np.int64).reshape(-1, 3)


def triangle_counts_per_vertex(graph: Graph) -> np.ndarray:
    """Triangles incident on each vertex (for clustering coefficients)."""
    T = triangle_matrix(graph)
    from ..graphblas import Vector

    w = Vector("FP64", T.nrows)
    ops.reduce_rowwise(w, T, "PLUS")
    return (w.to_dense() / 2).astype(np.int64)
