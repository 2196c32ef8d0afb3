"""The LAGraph ``Graph`` object: an adjacency matrix plus cached properties.

The paper's section IV stresses that "graph algorithms do not occur in
isolation": the library hands algorithms a graph whose expensive derived
objects — the transpose, degree vectors, structural symmetry — are computed
once and cached, and returns opaque GraphBLAS handles so downstream
operations pay no copy cost.  This mirrors the ``LAGraph_Graph`` /
``LAGraph_Cached_*`` design the LAGraph project converged on.
"""

from __future__ import annotations

import enum

import numpy as np

from ..graphblas import Matrix, Vector, telemetry
from ..graphblas import operations as ops
from ..graphblas.errors import InvalidValue
from ..graphblas.types import FP64

__all__ = ["Graph", "GraphKind"]


class GraphKind(str, enum.Enum):
    """Adjacency interpretation (LAGraph_Kind)."""

    DIRECTED = "directed"
    UNDIRECTED = "undirected"


class Graph:
    """A graph held as an n x n adjacency matrix with cached properties.

    ``A[i, j]`` is the weight of edge i -> j (any GraphBLAS domain).  For
    ``UNDIRECTED`` graphs the matrix must be structurally symmetric (each
    edge stored in both directions), which :meth:`from_edges` arranges.
    """

    def __init__(self, A: Matrix, kind: GraphKind | str = GraphKind.DIRECTED):
        if A.nrows != A.ncols:
            raise InvalidValue("adjacency matrix must be square")
        self.A = A
        self.kind = GraphKind(kind)
        self._cache: dict[str, object] = {}
        # Settled A epoch each cached property was computed (or last
        # patched) at; a read whose recorded epoch trails ``A._epoch``
        # is never served as-is — it is patched forward from the delta
        # chain when a patcher exists, recomputed otherwise.
        self._cache_epoch: dict[str, int] = {}
        # the delta feed that makes cache maintenance incremental
        A.track_deltas(True)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        sources,
        targets,
        weights=None,
        *,
        n: int | None = None,
        kind: GraphKind | str = GraphKind.DIRECTED,
        dtype=None,
        dup="PLUS",
    ) -> "Graph":
        """Build from edge lists; undirected graphs get both directions."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if weights is None:
            weights = np.ones(sources.size, dtype=dtype or np.bool_)
        else:
            weights = np.asarray(weights)
        kind = GraphKind(kind)
        if n is None:
            n = int(max(sources.max(initial=-1), targets.max(initial=-1))) + 1
            n = max(n, 1)
        weights = np.resize(weights, sources.shape)
        if kind is GraphKind.UNDIRECTED:
            keep = sources != targets  # do not double self-loops
            sources, targets = (
                np.concatenate([sources, targets[keep]]),
                np.concatenate([targets, sources[keep]]),
            )
            weights = np.concatenate([weights, weights[keep]])
        A = Matrix.from_coo(
            sources,
            targets,
            weights,
            nrows=n,
            ncols=n,
            dtype=dtype or weights.dtype,
            dup=dup,
        )
        return cls(A, kind)

    @classmethod
    def from_dense(cls, array, *, missing=0, kind=GraphKind.DIRECTED) -> "Graph":
        return cls(Matrix.from_dense(array, missing=missing), kind)

    # -- basic properties --------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.A.nrows

    @property
    def nvals(self) -> int:
        """Number of stored adjacency entries (2x edges if undirected)."""
        return self.A.nvals

    @property
    def nedges(self) -> int:
        """Number of edges (self-loops counted once)."""
        if self.kind is GraphKind.UNDIRECTED:
            return (self.nvals + self.nself_edges) // 2
        return self.nvals

    # -- cached properties (LAGraph_Cached_*) --------------------------------

    def delete_cached(self) -> None:
        """Drop every cached property (after mutating ``A``).

        No longer required for correctness — cache reads are epoch-checked
        and patched or recomputed automatically — but kept as the explicit
        LAGraph-style reset.
        """
        self._cache.clear()
        self._cache_epoch.clear()

    def _cache_get(self, key: str):
        """Serve ``key`` only at the current epoch, patching forward from
        the delta chain when this property knows how; None means the
        caller must recompute (and ``_cache_put`` the result)."""
        if key not in self._cache:
            return None
        cached_at = self._cache_epoch.get(key, -1)
        current = self.A._epoch
        if cached_at == current:
            return self._cache[key]
        patcher = _PATCHERS.get(key)
        if patcher is not None:
            chain = self.A.deltas_since(cached_at)
            if chain is not None:
                value = self._cache[key]
                for delta in chain:
                    value = patcher(self, value, delta)
                self._cache[key] = value
                self._cache_epoch[key] = self.A._epoch
                if telemetry.ENABLED:
                    telemetry.decision(
                        "graph.cache", key=key, patched=True,
                        windows=len(chain),
                    )
                return value
        # stale with no usable delta chain: recompute from scratch
        del self._cache[key]
        self._cache_epoch.pop(key, None)
        if telemetry.ENABLED:
            telemetry.decision("graph.cache", key=key, patched=False)
        return None

    def _cache_put(self, key: str, value):
        self._cache[key] = value
        self._cache_epoch[key] = self.A._epoch
        return value

    @property
    def AT(self) -> Matrix:
        """Cached transpose (LAGraph_Cached_AT); A itself if undirected."""
        if self.kind is GraphKind.UNDIRECTED:
            return self.A
        self.A.wait()
        T = self._cache_get("AT")
        if T is None:
            T = Matrix(self.A.dtype, self.n, self.n)
            ops.transpose(T, self.A)
            self._cache_put("AT", T)
        return T

    @property
    def out_degree(self) -> Vector:
        """Cached out-degree vector (LAGraph_Cached_OutDegree)."""
        self.A.wait()
        d = self._cache_get("out_degree")
        if d is None:
            d = Vector("INT64", self.n)
            # count in INT64: a BOOL-domain PLUS would saturate at one
            ones = Matrix("INT64", self.n, self.n)
            ops.apply(ones, self.A, "one")
            ops.reduce_rowwise(d, ones, "plus")
            self._cache_put("out_degree", d)
        return d

    @property
    def in_degree(self) -> Vector:
        """Cached in-degree vector (LAGraph_Cached_InDegree)."""
        if self.kind is GraphKind.UNDIRECTED:
            return self.out_degree
        self.A.wait()
        d = self._cache_get("in_degree")
        if d is None:
            d = Vector("INT64", self.n)
            ones = Matrix("INT64", self.n, self.n)
            ops.apply(ones, self.A, "one")
            ops.reduce_rowwise(d, ones, "plus", desc="T0")
            self._cache_put("in_degree", d)
        return d

    @property
    def is_symmetric_structure(self) -> bool:
        """Cached structural symmetry test (recomputed when stale: the
        predicate cannot be patched from a delta alone)."""
        if self.kind is GraphKind.UNDIRECTED:
            return True
        self.A.wait()
        sym = self._cache_get("symmetric")
        if sym is None:
            r1, c1, _ = self.A.extract_tuples()
            r2, c2, _ = self.AT.extract_tuples()
            sym = self._cache_put(
                "symmetric",
                bool(np.array_equal(r1, r2) and np.array_equal(c1, c2)),
            )
        return sym

    @property
    def nself_edges(self) -> int:
        """Cached count of self-loops (LAGraph_Cached_NSelfEdges)."""
        self.A.wait()
        nself = self._cache_get("nself")
        if nself is None:
            r, c, _ = self.A.extract_tuples()
            nself = self._cache_put("nself", int(np.count_nonzero(r == c)))
        return nself

    @property
    def weight_summary(self) -> tuple[float, float, float]:
        """Cached ``(min, mean, max)`` of A's entries as floats
        (LAGraph_Cached_EMin / EMax); NaNs when A has no entries.
        Recomputed when stale."""
        self.A.wait()
        summary = self._cache_get("weight_summary")
        if summary is None:
            w = self.A._store.values
            summary = self._cache_put(
                "weight_summary",
                (float(w.min()), float(w.mean()), float(w.max()))
                if w.size else (np.nan, np.nan, np.nan),
            )
        return summary

    def delta_split(self, delta: float) -> tuple[Matrix, Matrix]:
        """Cached FP64 light/heavy split ``(A<=delta, A>delta)`` for
        delta-stepping SSSP.  One entry, replaced when ``delta`` changes
        and recomputed when stale.  A one-sided split of an FP64 graph
        aliases A itself instead of copying it."""
        self.A.wait()
        cached = self._cache_get("delta_split")
        if cached is not None and cached[0] == delta:
            return cached[1], cached[2]
        n, A = self.n, self.A
        wmin, _, wmax = self.weight_summary
        if A.dtype == FP64 and wmax <= delta:
            AL, AH = A, Matrix("FP64", n, n)
        elif A.dtype == FP64 and wmin > delta:
            AL, AH = Matrix("FP64", n, n), A
        else:
            AL, AH = Matrix("FP64", n, n), Matrix("FP64", n, n)
            ops.select(AL, A, "VALUELE", delta)
            ops.select(AH, A, "VALUEGT", delta)
            # both orientations built before publication: concurrent
            # readers of a served snapshot only ever read the split
            for M in (AL, AH):
                M.keep_both_orientations(True)
                M.by_row()
                M.by_col()
        self._cache_put("delta_split", (delta, AL, AH))
        return AL, AH

    def without_self_edges(self) -> "Graph":
        """A copy with the diagonal removed (LAGraph_DeleteSelfEdges)."""
        B = Matrix(self.A.dtype, self.n, self.n)
        ops.select(B, self.A, "offdiag")
        return Graph(B, self.kind)

    def enable_dual_storage(self) -> "Graph":
        """Keep CSR and CSC twins of A (and its cached transpose) alive.

        This is GraphBLAST's performance-oriented storage (section II.E,
        Figure 3): push traversal reads one orientation, pull the other, at
        2x memory.  Without it each push/pull switch pays an O(e log e)
        conversion.
        """
        self.A.keep_both_orientations(True)
        self.A.by_col()
        self.A.by_row()
        AT = self.AT
        if AT is not self.A:
            AT.keep_both_orientations(True)
            AT.by_col()
            AT.by_row()
        return self

    def structure(self, dtype="BOOL") -> Matrix:
        """The pattern of A as a boolean matrix of True entries."""
        B = Matrix(dtype, self.n, self.n)
        ops.apply(B, self.A, "one")
        return B

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph({self.kind.value}, n={self.n}, nvals={self.A._store.nvals})"
        )


# -- cached-property patchers --------------------------------------------------
#
# Each takes (graph, cached value, DeltaBatch) and returns the value advanced
# by one assembled window, so `_cache_get` can maintain a property in O(delta)
# instead of recomputing it in O(e).  Properties without an entry here
# (structural symmetry) fall back to recompute-on-stale.


def _patch_degree(value: Vector, delta, *, by_row: bool) -> Vector:
    dd = value.to_dense(0).astype(np.int64, copy=False)
    nr, nc, _ = delta.new_edges()
    rr, rc, _ = delta.removed_edges()
    np.add.at(dd, nr if by_row else nc, 1)
    np.subtract.at(dd, rr if by_row else rc, 1)
    return Vector.from_dense(dd, missing=0, dtype="INT64")


def _patch_out_degree(g: "Graph", value: Vector, delta) -> Vector:
    return _patch_degree(value, delta, by_row=True)


def _patch_in_degree(g: "Graph", value: Vector, delta) -> Vector:
    return _patch_degree(value, delta, by_row=False)


def _patch_transpose(g: "Graph", T: Matrix, delta) -> Matrix:
    # replay the window on the transpose with rows and columns swapped;
    # insertions and deletions are coordinate-disjoint after resolution,
    # so one batch applies them all
    rows = np.concatenate([delta.ins_cols, delta.del_cols])
    cols = np.concatenate([delta.ins_rows, delta.del_rows])
    vals = np.concatenate(
        [delta.ins_values, np.zeros(delta.del_rows.size, dtype=T.dtype.np_dtype)]
    )
    dels = np.concatenate(
        [
            np.zeros(delta.ins_rows.size, dtype=bool),
            np.ones(delta.del_rows.size, dtype=bool),
        ]
    )
    if rows.size:
        T.update_batch(rows, cols, vals, deleted=dels)
        T.wait()
    return T


def _patch_nself(g: "Graph", nself: int, delta) -> int:
    nr, nc, _ = delta.new_edges()
    rr, rc, _ = delta.removed_edges()
    return (
        nself
        + int(np.count_nonzero(nr == nc))
        - int(np.count_nonzero(rr == rc))
    )


_PATCHERS = {
    "out_degree": _patch_out_degree,
    "in_degree": _patch_in_degree,
    "AT": _patch_transpose,
    "nself": _patch_nself,
}
