"""Incremental algorithm maintenance keyed on assembled delta windows.

Each maintainer caches the result of one algorithm together with the
adjacency epoch it was computed at.  ``update()`` asks the matrix for the
contiguous :class:`~repro.graphblas.updatelog.DeltaBatch` chain since that
epoch and advances the cached result in O(delta)-flavored work; whenever
the chain is unavailable (tracking off, bulk mutation, window log
truncated) or the delta violates the maintainer's assumptions (deletions
for union-only components), it falls back to the from-scratch algorithm —
the parity oracle it is tested against.

* :class:`DynamicPageRank` — Jacobi residual sweeps.  The residual vector
  is carried across windows; a window adjusts it only at the vertices
  whose out-links changed, then sweeps it over the edge list until the
  L1 residual is back under ``tol``.
  Parity contract: ``||p - p*||_1 <= tol / (1 - damping)``, so against the
  from-scratch power iteration the L1 gap is at most
  ``2 * tol / (1 - damping)``.
* :class:`IncrementalComponents` — insertions can only merge components,
  so the min-vertex-id labeling is advanced with a union-find over the
  delta's endpoints (:func:`repro.lagraph.components.merge_labels`);
  windows containing physical deletions trigger a FastSV recompute.
  Exact parity.
* :class:`IncrementalTriangles` — the count advanced by three masked
  dot products over the chain's net ±1 delta
  (:func:`repro.lagraph.triangles.triangle_count_delta`); a chain whose
  net delta is unavailable (coordinate-key overflow) recounts.  Exact
  parity.

:class:`DynamicPageRank` and :class:`IncrementalTriangles` read a chain
through :func:`repro.graphblas.updatelog.chain_net_edges`: each touched
coordinate's presence before the chain against after it, so value-only
overwrites and edges that come and go inside one catch-up cancel.
"""

from __future__ import annotations

import math

import numpy as np

from ..graphblas import telemetry
from ..graphblas.formats import ragged_take
from ..graphblas.updatelog import chain_net_edges
from ..lagraph.centrality import pagerank
from ..lagraph.components import connected_components, merge_labels
from ..lagraph.graph import Graph
from ..lagraph.triangles import triangle_count, triangle_count_delta

__all__ = ["DynamicPageRank", "IncrementalComponents", "IncrementalTriangles"]

_INDEX = np.int64


class DynamicPageRank:
    """PageRank maintained across windows by carried-residual sweeps.

    ``update()`` returns ``(ranks, sweeps)`` where ``ranks`` is the dense
    FP64 rank array (summing to ~1) and ``sweeps`` is the number of
    residual sweeps the window needed (0 when r is already within tol).
    """

    def __init__(self, graph: Graph, *, damping: float = 0.85,
                 tol: float = 1e-8, max_sweeps: int = 1000):
        self.graph = graph
        self.damping = float(damping)
        self.tol = float(tol)
        self.max_sweeps = int(max_sweeps)
        self._p: np.ndarray | None = None
        self._r: np.ndarray | None = None
        self._epoch = -1
        self.recomputes = 0
        self.windows = 0
        self.last_sweeps = 0

    @property
    def ranks(self) -> np.ndarray | None:
        return self._p

    # -- the solver --------------------------------------------------------

    def _restart(self, edges, deg: np.ndarray, n: int) -> None:
        """Uniform p and its exact r = b + d * M^T p - p, O(e)."""
        p, d = np.full(n, 1.0 / n), self.damping
        rows, cols = edges()
        nz = deg > 0
        pod = np.where(nz, p / np.maximum(deg, 1), 0.0)
        t = np.bincount(cols, weights=pod[rows], minlength=n)
        dangling = float(p[~nz].sum())
        self._p, self._r = p, (1.0 - d) / n + d * t + d * dangling / n - p

    def _adjust_residual(self, chain, store, deg_new: np.ndarray, n: int) -> bool:
        """Advance the carried residual by the chain's net edge changes;
        touches only the changed sources' adjacency.  False → recompute."""
        net = chain_net_edges(chain, n)
        if net is None:
            return False
        au, av, ru, rv = net
        if au.size == 0 and ru.size == 0:
            return True  # value-only window: structure-blind PageRank
        p, d, r = self._p, self.damping, self._r
        deg_old = deg_new.astype(np.float64, copy=True)
        np.subtract.at(deg_old, au, 1)
        np.add.at(deg_old, ru, 1)
        U = np.unique(np.concatenate([au, ru]))
        dnu, dou = deg_new[U], deg_old[U]
        coef_new = np.where(dnu > 0, d * p[U] / np.maximum(dnu, 1), 0.0)
        coef_old = np.where(dou > 0, d * p[U] / np.maximum(dou, 1), 0.0)
        # over the final adjacency of the touched sources
        starts, ends = store.major_ranges(U)
        counts = ends - starts
        neigh = ragged_take(store.minor, starts, counts)
        if neigh.size:
            wgt = np.repeat(coef_new - coef_old, counts)
            r += np.bincount(neigh, weights=wgt, minlength=n)
        # the old adjacency lacked the net-added coords and had the removed
        if au.size:
            np.add.at(r, av, coef_old[np.searchsorted(U, au)])
        if ru.size:
            np.subtract.at(r, rv, coef_old[np.searchsorted(U, ru)])
        # dangling transitions redistribute uniformly
        dang_shift = float(p[U][dnu == 0].sum()) - float(p[U][dou == 0].sum())
        if dang_shift:
            r += d * dang_shift / n
        return True

    def _push(self, edges, deg: np.ndarray, n: int) -> int | None:
        """Jacobi sweeps until ||r||_1 <= tol (None past max_sweeps): each
        moves r into p and spreads it one hop, r = d * (M^T r + r.dangling
        / n), so each sweep scales ||r||_1 by at most d."""
        if float(np.abs(self._r).sum()) <= self.tol:
            return 0
        p, d = self._p, self.damping
        rows, cols = edges()
        dangling = deg == 0
        share = np.where(dangling, 0.0, d / np.maximum(deg, 1))
        sweeps = 0
        while float(np.abs(self._r).sum()) > self.tol:
            if sweeps >= self.max_sweeps:
                return None
            r = self._r
            p += r
            mass = float(r[dangling].sum())
            self._r = np.bincount(cols, weights=(r * share)[rows], minlength=n)
            self._r += d * mass / n
            sweeps += 1
        return sweeps

    def update(self) -> tuple[np.ndarray, int]:
        A = self.graph.A
        A.wait()
        n = self.graph.n
        deg = self.graph.out_degree.to_dense(0).astype(np.float64)
        store = A.by_row()
        coo = None

        def edges():  # O(e): built on first use, at most once per update
            nonlocal coo
            if coo is None:
                coo = store.to_coo()[:2]
            return coo

        chain = None if self._p is None else A.deltas_since(self._epoch)
        with telemetry.span("stream.pagerank", n=n, windows=self.windows):
            patched = False
            if chain is not None:
                patched = self._adjust_residual(chain, store, deg, n)
            if not patched:
                if self._p is not None:
                    self.recomputes += 1
                self._restart(edges, deg, n)
            self._epoch = A._epoch  # (p, r) now describe the current graph
            sweeps = self._push(edges, deg, n)
            if sweeps is None:
                # pathological window: restart from scratch once
                self.recomputes += 1
                self._restart(edges, deg, n)
                sweeps = self._push(edges, deg, n)
                if sweeps is None:
                    raise RuntimeError(
                        "dynamic pagerank failed to converge "
                        f"in {self.max_sweeps} sweeps"
                    )
        self.windows += 1
        self.last_sweeps = sweeps
        if telemetry.ENABLED:
            telemetry.instant(
                "stream.pagerank.window", sweeps=sweeps, patched=patched
            )
        return self._p, sweeps

    def parity_gap(self) -> float:
        """L1 distance to a fresh from-scratch PageRank (test/bench hook).

        Bounded by ``2 * tol / (1 - damping)`` per the parity contract.  The
        oracle's step (<= 2, shrinking by damping) gets enough iterations.
        """
        iters = 1 + math.ceil(math.log(self.tol / 2) / math.log(self.damping))
        full, _ = pagerank(self.graph, damping=self.damping, tol=self.tol,
                           max_iters=iters)
        return float(np.abs(full.to_dense(0.0) - self._p).sum())


class IncrementalComponents:
    """Min-vertex-id component labels maintained across windows."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._labels: np.ndarray | None = None
        self._epoch = -1
        self.recomputes = 0
        self.windows = 0

    @property
    def labels(self) -> np.ndarray | None:
        return self._labels

    def update(self) -> np.ndarray:
        A = self.graph.A
        A.wait()
        chain = None if self._labels is None else A.deltas_since(self._epoch)
        with telemetry.span("stream.components", windows=self.windows):
            patched = False
            if chain is not None:
                labels = self._labels
                patched = True
                for delta in chain:
                    rr, _, _ = delta.removed_edges()
                    if rr.size:
                        patched = False  # deletions may split components
                        break
                    nr, nc, _ = delta.new_edges()
                    labels = merge_labels(labels, nr, nc)
                if patched:
                    self._labels = labels
            if not patched:
                if self._labels is not None:
                    self.recomputes += 1
                self._labels = (
                    connected_components(self.graph).to_dense().astype(np.int64)
                )
        self._epoch = A._epoch
        self.windows += 1
        return self._labels


class IncrementalTriangles:
    """Global triangle count maintained across windows.

    ``update()`` advances the cached count by
    :func:`~repro.lagraph.triangles.triangle_count_delta` over the delta
    chain since the cached epoch: three dot products masked by the net
    ±1 delta, each O(|delta| x degree).  With no chain, or when the
    chain's net delta cannot be keyed (``n > 2**31``), it recounts with
    ``method`` and adds one to ``recomputes``.
    """

    def __init__(self, graph: Graph, *, method: str = "sandia_ll"):
        self.graph = graph
        self.method = method
        self._count: int | None = None
        self._epoch = -1
        self.recomputes = 0
        self.windows = 0

    @property
    def count(self) -> int | None:
        return self._count

    def update(self) -> int:
        A = self.graph.A
        A.wait()
        chain = None if self._count is None else A.deltas_since(self._epoch)
        with telemetry.span("stream.triangles", windows=self.windows):
            count = None
            if chain is not None:
                count = triangle_count_delta(self.graph, chain, self._count)
            if count is None:
                if self._count is not None:
                    self.recomputes += 1
                count = triangle_count(self.graph, self.method)
            self._count = count
        self._epoch = A._epoch
        self.windows += 1
        return self._count
