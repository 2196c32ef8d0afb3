"""Shortest paths: Bellman-Ford, delta-stepping, APSP, A* vs networkx."""

import sys
import threading

import networkx as nx
import numpy as np
import pytest

from repro.graphblas import Matrix
from repro.graphblas.errors import InvalidValue
from repro.generators import grid_graph, path_graph
from repro.lagraph import (
    Graph,
    apsp,
    apsp_distances_dense,
    astar_distance,
    astar_path,
    bellman_ford_sssp,
    bfs_level,
    check_sssp_distances,
    delta_stepping_sssp,
    sssp,
)
from repro.stream import GraphStream


def weighted_pair(n=40, p=0.1, seed=3, directed=True):
    rng = np.random.default_rng(seed)
    G_nx = nx.gnp_random_graph(n, p, seed=seed, directed=directed)
    for u, v in G_nx.edges:
        G_nx[u][v]["weight"] = float(rng.integers(1, 10))
    e = list(G_nx.edges)
    g = Graph.from_edges(
        [u for u, v in e],
        [v for u, v in e],
        [G_nx[u][v]["weight"] for u, v in e],
        n=n,
        kind="directed" if directed else "undirected",
        dtype=np.float64,
    )
    return G_nx, g


def dist_dict(v):
    i, x = v.extract_tuples()
    return {int(a): float(b) for a, b in zip(i, x)}


class TestBellmanFord:
    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_matches_dijkstra(self, seed):
        G_nx, g = weighted_pair(seed=seed)
        d = bellman_ford_sssp(0, g)
        assert dist_dict(d) == dict(
            nx.single_source_dijkstra_path_length(G_nx, 0, weight="weight")
        )

    def test_handles_negative_edges(self):
        g = Graph.from_edges([0, 0, 1], [1, 2, 2], [5.0, 10.0, -3.0], n=3)
        d = bellman_ford_sssp(0, g)
        assert dist_dict(d) == {0: 0.0, 1: 5.0, 2: 2.0}

    def test_negative_cycle_detected(self):
        g = Graph.from_edges([0, 1, 2], [1, 2, 0], [1.0, -5.0, 1.0], n=3)
        with pytest.raises(InvalidValue):
            bellman_ford_sssp(0, g)

    def test_unreachable_absent(self):
        g = Graph.from_edges([0], [1], [1.0], n=4)
        d = bellman_ford_sssp(0, g)
        assert d.get(3) is None and d.nvals == 2

    def test_validator(self):
        G_nx, g = weighted_pair(seed=11)
        check_sssp_distances(g, 0, bellman_ford_sssp(0, g))


class TestDeltaStepping:
    @pytest.mark.parametrize("seed", [3, 5])
    @pytest.mark.parametrize("delta", [None, 1.0, 3.0, 100.0])
    def test_matches_bellman_ford(self, seed, delta):
        G_nx, g = weighted_pair(seed=seed)
        bf = bellman_ford_sssp(0, g)
        ds = delta_stepping_sssp(0, g, delta)
        assert dist_dict(ds) == dist_dict(bf)

    def test_negative_weight_rejected(self):
        g = Graph.from_edges([0], [1], [-1.0], n=2)
        with pytest.raises(InvalidValue):
            delta_stepping_sssp(0, g)

    def test_bad_delta(self):
        g = path_graph(3)
        with pytest.raises(InvalidValue):
            delta_stepping_sssp(0, g, delta=-2.0)

    def test_unweighted_grid(self):
        g = grid_graph(5, 5)
        d = delta_stepping_sssp(0, g)
        for r in range(5):
            for c in range(5):
                assert d[r * 5 + c] == r + c

    def test_dispatcher(self):
        G_nx, g = weighted_pair(seed=7)
        assert dist_dict(sssp(0, g, method="delta")) == dist_dict(
            sssp(0, g, method="bellman-ford")
        )
        with pytest.raises(InvalidValue):
            sssp(0, g, method="teleport")


def fresh(g):
    """A new Graph over a copy of g's tuples: no cached properties."""
    r, c, v = g.A.extract_tuples()
    return Graph(Matrix.from_coo(r, c, v, nrows=g.n, ncols=g.n,
                                 dtype=g.A.dtype), g.kind)


def same_vector(a, b):
    ai, av = a.extract_tuples()
    bi, bv = b.extract_tuples()
    return np.array_equal(ai, bi) and np.array_equal(av, bv)


class TestDeltaSplitCache:
    """The light/heavy split and weight summary are Graph cached
    properties: epoch-checked, one split entry, safe to share."""

    def test_mutations_recompute_split(self):
        _, g = weighted_pair(seed=5)
        for delta in (None, 3.0):
            delta_stepping_sssp(0, g, delta)  # warm the cache
        g.A.set_element(0, 7, 0.5)  # a new lightest edge
        assert same_vector(delta_stepping_sssp(0, g, 3.0),
                           delta_stepping_sssp(0, fresh(g), 3.0))
        r, c, _ = g.A.extract_tuples()
        for i, j in zip(r[:5], c[:5]):
            g.A.remove_element(int(i), int(j))
        assert same_vector(delta_stepping_sssp(0, g, 3.0),
                           delta_stepping_sssp(0, fresh(g), 3.0))
        assert same_vector(delta_stepping_sssp(0, g), bellman_ford_sssp(0, g))

    def test_one_split_entry(self):
        _, g = weighted_pair(seed=3)
        for delta in (2.0, 6.0, 2.0, 6.0):
            delta_stepping_sssp(0, g, delta)
            assert g._cache["delta_split"][0] == delta
        assert [k for k in g._cache if "split" in k] == ["delta_split"]

    def test_no_copy_of_a_per_call(self, monkeypatch):
        from repro.graphblas import operations as ops

        _, g = weighted_pair(seed=3)
        touched = []  # per select / extract_tuples call: was it on A?
        select, tuples = ops.select, Matrix.extract_tuples

        def spy_select(C, A, *a, **k):
            touched.append(A is g.A)
            return select(C, A, *a, **k)

        def spy_tuples(M):
            touched.append(M is g.A)
            return tuples(M)

        monkeypatch.setattr(ops, "select", spy_select)
        monkeypatch.setattr(Matrix, "extract_tuples", spy_tuples)
        delta_stepping_sssp(0, g)  # builds the cached split
        touched.clear()
        delta_stepping_sssp(5, g)
        assert touched and not any(touched)

    @pytest.mark.parametrize("unit", [False, True])
    def test_threads_share_served_snapshot(self, unit):
        _, g = weighted_pair(n=60, seed=8, directed=False)
        r, c, v = g.A.extract_tuples()
        if unit:  # the split aliases A itself
            v = np.ones_like(v)
        serial = delta_stepping_sssp(0, Graph.from_edges(r, c, v, n=g.n))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                stream = GraphStream(g.n, kind="directed", window="tumbling",
                                     width=10.0)
                stream.ingest(r, c, np.zeros(r.size), v)
                stream.flush()
                snap = stream.snapshot()  # cold cache on every round
                gate = threading.Barrier(2, timeout=60)
                out = [None, None]

                def run(k):
                    gate.wait()
                    out[k] = delta_stepping_sssp(0, snap)

                ts = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
                for t in ts:
                    t.start()
                for t in ts:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert all(o is not None and same_vector(o, serial) for o in out)
        finally:
            sys.setswitchinterval(interval)


def typed_pair(dtype, seed=4, n=40):
    """A random directed graph in ``dtype``: weights 1..9, or True."""
    rng = np.random.default_rng(seed)
    r = rng.integers(0, n, 6 * n)
    c = rng.integers(0, n, 6 * n)
    w = np.ones(r.size, bool) if dtype is np.bool_ else rng.integers(1, 10, r.size)
    return Graph.from_edges(r, c, w.astype(dtype), n=n, dtype=dtype, dup="FIRST")


class TestDeltaSplitShapes:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.bool_])
    @pytest.mark.parametrize("shape", ["light", "heavy", "mixed"])
    def test_matches_bellman_ford(self, dtype, shape):
        g = typed_pair(dtype)
        wmin, _, wmax = g.weight_summary
        delta = {"light": wmax, "heavy": wmin / 2,
                 "mixed": (wmin + wmax) / 2}[shape]
        AL, AH = g.delta_split(delta)
        assert AL.nvals + AH.nvals == g.nvals
        nonempty = {"light": (True, False), "heavy": (False, True),
                    "mixed": (True, True)}[shape]
        if dtype is np.bool_ and shape == "mixed":
            nonempty = (True, False)  # every BOOL weight is 1: never mixed
        assert (AL.nvals > 0, AH.nvals > 0) == nonempty
        if dtype is np.float64 and shape != "mixed":
            assert (AL if shape == "light" else AH) is g.A  # aliased
        for s in (0, 3, 17):
            assert dist_dict(delta_stepping_sssp(s, g, delta)) == dist_dict(
                bellman_ford_sssp(s, g))

    @pytest.mark.parametrize("w", [0.1, 0.7, 3.0])
    @pytest.mark.parametrize("delta", [None, 0.1, 0.35])
    def test_uniform_weights(self, w, delta):
        """One light round per bucket when every light edge weighs delta
        or more; rounding must not let a relaxation slip back in.  With
        w=0.7, delta=0.35, 1.4 / 0.35 rounds below 4: the bucket index
        must still put 1.4 inside its bucket (an empty one loops forever)."""
        g = typed_pair(np.bool_, seed=9)
        r, c, _ = g.A.extract_tuples()
        g = Graph.from_edges(r, c, np.full(r.size, w), n=g.n, dtype=np.float64)
        for s in (0, 5):
            assert dist_dict(delta_stepping_sssp(s, g, delta)) == dist_dict(
                bellman_ford_sssp(s, g))

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.bool_])
    def test_unit_weights_give_bfs_levels(self, dtype):
        g = typed_pair(np.bool_, seed=6)
        r, c, _ = g.A.extract_tuples()
        g = Graph.from_edges(r, c, np.ones(r.size, dtype), n=g.n, dtype=dtype)
        levels = dist_dict(bfs_level(0, g))
        assert dist_dict(delta_stepping_sssp(0, g)) == levels
        assert len(levels) > 1


class TestAPSP:
    def test_matches_all_dijkstra(self):
        G_nx, g = weighted_pair(n=25, seed=4)
        D = apsp_distances_dense(g)
        for s in range(25):
            exp = nx.single_source_dijkstra_path_length(G_nx, s, weight="weight")
            for t in range(25):
                assert D[s, t] == exp.get(t, np.inf), (s, t)

    def test_diagonal_is_zero(self):
        G_nx, g = weighted_pair(n=15, seed=6)
        D = apsp(g)
        for i in range(15):
            assert D[i, i] == 0.0

    def test_negative_weight_rejected(self):
        g = Graph.from_edges([0], [1], [-1.0], n=2)
        with pytest.raises(InvalidValue):
            apsp(g)

    def test_apsp_first_row_matches_sssp(self):
        G_nx, g = weighted_pair(n=30, seed=9)
        D = apsp_distances_dense(g)
        d = dist_dict(bellman_ford_sssp(0, g))
        for t in range(30):
            assert D[0, t] == d.get(t, np.inf)


class TestAStar:
    def test_dijkstra_equivalence_without_heuristic(self):
        G_nx, g = weighted_pair(seed=3)
        for t in (5, 11, 23):
            try:
                exp = nx.dijkstra_path_length(G_nx, 0, t, weight="weight")
            except nx.NetworkXNoPath:
                with pytest.raises(InvalidValue):
                    astar_path(0, t, g)
                continue
            path, dist = astar_path(0, t, g)
            assert dist == exp
            assert path[0] == 0 and path[-1] == t
            # the returned path's edges must exist and sum to the distance
            total = sum(g.A[u, v] for u, v in zip(path, path[1:]))
            assert np.isclose(total, dist)

    def test_admissible_heuristic_preserves_optimality(self):
        g = grid_graph(6, 6)
        target = 35

        def manhattan(v):
            r, c = divmod(v, 6)
            return abs(r - 5) + abs(c - 5)

        path, dist = astar_path(0, target, g, heuristic=manhattan)
        assert dist == 10
        assert astar_distance(0, target, g, manhattan) == 10

    def test_heuristic_prunes_expansions(self):
        """A good heuristic avoids exploring a long decoy branch that
        Dijkstra (h = 0) must exhaust."""
        import repro.lagraph.astar as astar_mod

        # line 0-1-...-10 (target 10) plus a 20-vertex decoy branch off 0
        chain = [(i, i + 1) for i in range(10)]
        branch = [(0, 11)] + [(10 + k, 11 + k) for k in range(1, 20)]
        edges = chain + branch
        src = [u for u, v in edges] + [v for u, v in edges]
        dst = [v for u, v in edges] + [u for u, v in edges]
        g = Graph.from_edges(src, dst, np.ones(len(src)), n=31, dtype=np.float64)

        def h(v):  # embed on a line: chain at x=v, branch at x=-(v-10)
            x = v if v <= 10 else -(v - 10)
            return abs(10 - x)

        calls = {"n": 0}
        orig = astar_mod._expand

        def counting(graph, u):
            calls["n"] += 1
            return orig(graph, u)

        astar_mod._expand = counting
        try:
            path, dist = astar_mod.astar_path(0, 10, g)
            dijkstra_count = calls["n"]
            calls["n"] = 0
            path2, dist2 = astar_mod.astar_path(0, 10, g, heuristic=h)
            astar_count = calls["n"]
        finally:
            astar_mod._expand = orig
        assert dist == dist2 == 10
        assert astar_count < dijkstra_count

    def test_bad_vertices(self):
        g = path_graph(3)
        with pytest.raises(InvalidValue):
            astar_path(0, 99, g)

    def test_negative_weight_rejected(self):
        g = Graph.from_edges([0], [1], [-1.0], n=2)
        with pytest.raises(InvalidValue):
            astar_path(0, 1, g)
