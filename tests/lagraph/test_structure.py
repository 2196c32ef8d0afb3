"""Triangles, k-truss, connected components, subgraph census vs oracles."""

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.graphblas.errors import InvalidValue
from repro.generators import complete_graph, cycle_graph, path_graph
from repro.lagraph import (
    Graph,
    all_ktruss,
    cc_label_propagation,
    check_component_labels,
    component_sizes,
    connected_components,
    ktruss,
    subgraph_census,
    triangle_count,
    triangle_counts_per_vertex,
    trussness,
)
from repro.lagraph.components import merge_labels


def und_pair(n=40, p=0.12, seed=1):
    G_nx = nx.gnp_random_graph(n, p, seed=seed)
    e = list(G_nx.edges)
    g = Graph.from_edges(
        [u for u, v in e], [v for u, v in e], n=n, kind="undirected"
    )
    return G_nx, g


class TestTriangles:
    @pytest.mark.parametrize("method", ["burkhardt", "cohen", "sandia_ll"])
    @pytest.mark.parametrize("seed", [1, 2, 9])
    def test_counts_match_networkx(self, method, seed):
        G_nx, g = und_pair(seed=seed)
        exp = sum(nx.triangles(G_nx).values()) // 3
        assert triangle_count(g, method) == exp

    def test_unknown_method(self):
        _, g = und_pair()
        with pytest.raises(InvalidValue):
            triangle_count(g, "quantum")

    def test_per_vertex(self):
        G_nx, g = und_pair(seed=4)
        exp = nx.triangles(G_nx)
        got = triangle_counts_per_vertex(g)
        assert all(got[i] == exp[i] for i in range(40))

    def test_complete_graph_formula(self):
        g = complete_graph(7)
        assert triangle_count(g) == 7 * 6 * 5 // 6

    def test_triangle_free(self):
        g = cycle_graph(8)
        assert triangle_count(g) == 0

    def test_self_loops_ignored(self):
        g = Graph.from_edges([0, 1, 2, 0], [1, 2, 0, 0], n=3, kind="undirected")
        assert triangle_count(g) == 1


class TestKTruss:
    @pytest.mark.parametrize("seed", [1, 4])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_edge_counts_match_networkx(self, seed, k):
        G_nx = nx.gnp_random_graph(30, 0.25, seed=seed)
        e = list(G_nx.edges)
        g = Graph.from_edges([u for u, v in e], [v for u, v in e], n=30, kind="undirected")
        C = ktruss(g, k)
        assert C.nvals // 2 == nx.k_truss(G_nx, k).number_of_edges()

    def test_k_below_three_rejected(self):
        _, g = und_pair()
        with pytest.raises(InvalidValue):
            ktruss(g, 2)

    def test_clique_survives_its_truss(self):
        g = complete_graph(6)  # K6 is a 6-truss
        assert ktruss(g, 6).nvals // 2 == 15
        assert ktruss(g, 7).nvals == 0

    def test_support_values_are_correct(self):
        g = complete_graph(5)
        C = ktruss(g, 3)
        _, _, vals = C.extract_tuples()
        assert set(vals.tolist()) == {3}  # every K5 edge is in 3 triangles

    def test_all_ktruss_monotone(self):
        _, g = und_pair(p=0.3, seed=5)
        rows = all_ktruss(g)
        edges = [r[1] for r in rows]
        assert edges == sorted(edges, reverse=True)
        assert rows[0][0] == 3

    def test_trussness_consistent_with_ktruss(self):
        _, g = und_pair(p=0.3, seed=5)
        t = trussness(g)
        for k in (3, 4):
            from_t = {e for e, kk in t.items() if kk >= k}
            C = ktruss(g, k)
            r, c, _ = C.extract_tuples()
            direct = {(int(i), int(j)) for i, j in zip(r, c) if i < j}
            assert from_t == direct


class TestComponents:
    @pytest.mark.parametrize("seed,p", [(8, 0.03), (2, 0.08), (5, 0.01)])
    def test_fastsv_matches_networkx(self, seed, p):
        G_nx, g = und_pair(n=60, p=p, seed=seed)
        cc = connected_components(g)
        check_component_labels(g, cc)
        comps = list(nx.connected_components(G_nx))
        labels = cc.to_dense()
        assert len(set(labels.tolist())) == len(comps)
        for comp in comps:
            assert len({labels[v] for v in comp}) == 1

    def test_label_propagation_agrees_with_fastsv(self):
        _, g = und_pair(n=50, p=0.04, seed=7)
        assert connected_components(g).isequal(cc_label_propagation(g))

    def test_directed_graph_weak_components(self):
        g = Graph.from_edges([0, 2], [1, 3], n=5)  # directed edges
        labels = connected_components(g).to_dense()
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2] != labels[4]

    def test_component_sizes(self):
        g = Graph.from_edges([0, 2], [1, 3], n=5, kind="undirected")
        sizes = component_sizes(connected_components(g))
        assert sorted(sizes.values()) == [1, 2, 2]

    def test_singleton_graph(self):
        g = Graph.from_edges([], [], n=4, kind="undirected")
        labels = connected_components(g).to_dense()
        assert labels.tolist() == [0, 1, 2, 3]

    def test_path_is_one_component(self):
        g = path_graph(30)
        assert component_sizes(connected_components(g)) == {0: 30}

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_merge_labels_matches_recompute_on_union_graph(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        us = rng.integers(0, n, 40)
        vs = rng.integers(0, n, 40)
        labels = connected_components(
            Graph.from_edges(us, vs, n=n, kind="undirected")
        ).to_dense()
        for size in (0, 1, 5, 30):
            bu, bv = rng.integers(0, n, size), rng.integers(0, n, size)
            labels = merge_labels(labels, bu, bv)
            us, vs = np.concatenate([us, bu]), np.concatenate([vs, bv])
            union = Graph.from_edges(us, vs, n=n, kind="undirected")
            assert np.array_equal(labels, connected_components(union).to_dense())


def brute_noninduced(G_nx):
    n = G_nx.number_of_nodes()
    A = nx.to_numpy_array(G_nx) > 0
    tri = wedge = p4 = c4 = tailed = claw = 0
    for a, b, c in itertools.permutations(range(n), 3):
        if A[a, b] and A[b, c]:
            wedge += 1
        if A[a, b] and A[b, c] and A[a, c]:
            tri += 1
    wedge //= 2
    tri //= 6
    for a, b, c, d in itertools.permutations(range(n), 4):
        if A[a, b] and A[b, c] and A[c, d]:
            p4 += 1
        if A[a, b] and A[b, c] and A[c, d] and A[d, a]:
            c4 += 1
        if A[a, b] and A[b, c] and A[a, c] and A[c, d]:
            tailed += 1
        if A[a, b] and A[a, c] and A[a, d]:
            claw += 1
    return {
        "triangles": tri,
        "wedges": wedge,
        "three_paths": p4 // 2,
        "four_cycles": c4 // 8,
        "tailed_triangles": tailed // 2,
        "claws": claw // 6,
    }


class TestSubgraphCensus:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_matches_brute_force(self, seed):
        G_nx = nx.gnp_random_graph(10, 0.35, seed=seed)
        e = list(G_nx.edges)
        g = Graph.from_edges([u for u, v in e], [v for u, v in e], n=10, kind="undirected")
        got = subgraph_census(g)
        for k, v in brute_noninduced(G_nx).items():
            assert got[k] == v, k

    def test_known_closed_forms(self):
        # C6: 6 edges, 6 wedges, no triangles, one 6-cycle but no 4-cycle
        g = cycle_graph(6)
        c = subgraph_census(g)
        assert c["edges"] == 6 and c["wedges"] == 6
        assert c["triangles"] == 0 and c["four_cycles"] == 0
        assert c["three_paths"] == 6

    def test_k4(self):
        c = subgraph_census(complete_graph(4))
        assert c["triangles"] == 4
        assert c["four_cycles"] == 3
        assert c["three_paths"] == 12
        assert c["claws"] == 4


class TestKTrussIncremental:
    """The Low et al. edge-centric variant must match the Davis formulation."""

    @pytest.mark.parametrize("seed", [1, 4, 9])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_recompute_variant(self, seed, k):
        from repro.lagraph.ktruss import ktruss_incremental

        G_nx = nx.gnp_random_graph(35, 0.2, seed=seed)
        e = list(G_nx.edges)
        g = Graph.from_edges(
            [u for u, v in e], [v for u, v in e], n=35, kind="undirected"
        )
        a = ktruss(g, k)
        b = ktruss_incremental(g, k)
        ra, ca, _ = a.extract_tuples()
        rb, cb, _ = b.extract_tuples()
        assert np.array_equal(ra, rb) and np.array_equal(ca, cb)

    def test_zero_support_edges_deleted(self):
        from repro.lagraph.ktruss import ktruss_incremental

        # a triangle plus a dangling path: the path edges have support 0
        g = Graph.from_edges(
            [0, 1, 2, 2, 3], [1, 2, 0, 3, 4], n=5, kind="undirected"
        )
        C = ktruss_incremental(g, 3)
        assert C.nvals == 6  # only the triangle survives

    def test_k_below_three_rejected(self):
        from repro.lagraph.ktruss import ktruss_incremental

        with pytest.raises(InvalidValue):
            ktruss_incremental(complete_graph(4), 2)


class TestTriangleEnumeration:
    """The paper asks for counting AND enumeration [34][35]."""

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_matches_brute_force(self, seed):
        from repro.lagraph.triangles import triangle_enumerate

        G_nx = nx.gnp_random_graph(22, 0.2, seed=seed)
        e = list(G_nx.edges)
        g = Graph.from_edges(
            [u for u, v in e], [v for u, v in e], n=22, kind="undirected"
        )
        A = nx.to_numpy_array(G_nx) > 0
        exp = {
            (a, b, c)
            for a, b, c in itertools.combinations(range(22), 3)
            if A[a, b] and A[b, c] and A[a, c]
        }
        got = set(map(tuple, triangle_enumerate(g).tolist()))
        assert got == exp
        assert len(got) == triangle_count(g)

    def test_rows_are_sorted_triples(self):
        from repro.lagraph.triangles import triangle_enumerate

        tris = triangle_enumerate(complete_graph(5))
        assert tris.shape == (10, 3)
        assert all(a < b < c for a, b, c in tris.tolist())

    def test_triangle_free_graph(self):
        from repro.lagraph.triangles import triangle_enumerate

        assert triangle_enumerate(cycle_graph(8)).shape == (0, 3)
