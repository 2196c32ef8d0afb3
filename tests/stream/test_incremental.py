"""Parity of the incremental maintainers against their from-scratch
counterparts on every window of a stream (tumbling = insert-only,
sliding = insertions + deletions)."""

import numpy as np
import pytest

from repro.graphblas import Matrix
from repro.lagraph import (
    Graph,
    GraphKind,
    connected_components,
    pagerank,
    triangle_count,
)
from repro.stream import (
    DynamicPageRank,
    GraphStream,
    IncrementalComponents,
    IncrementalTriangles,
)

PR_TOL = 1e-10
DAMPING = 0.85
PR_GAP = 2 * PR_TOL / (1 - DAMPING)  # the parity contract
CERT_SLACK = 1e-13  # fp rounding when re-deriving the residual


def _stream(window, seed=7, n=120, m=1500, t_hi=8.0, width=1.0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    ts = np.sort(rng.uniform(0, t_hi, m))
    st = GraphStream(n, kind=GraphKind.UNDIRECTED, window=window, width=width)
    return st, src, dst, ts, m


def _drive(st, src, dst, ts, m, on_window, batch=250):
    for lo in range(0, m, batch):
        for win in st.ingest(src[lo:lo + batch], dst[lo:lo + batch],
                             ts[lo:lo + batch]):
            on_window(win)
    win = st.flush()
    if win is not None:
        on_window(win)


def _oracle(graph):
    return Graph(graph.A.dup(), graph.kind)


def _full_pagerank(g):
    """From-scratch ranks converged to PR_TOL (0.85**100 cannot reach it)."""
    full, _ = pagerank(g, tol=PR_TOL, max_iters=1000)
    return full.to_dense(0.0)


def _residual_l1(g, p, damping=DAMPING):
    """||b + d * P^T p - p||_1 re-derived from the graph's tuples."""
    n = g.n
    rows, cols, _ = g.A.extract_tuples()
    deg = np.bincount(rows, minlength=n).astype(np.float64)
    pod = np.where(deg > 0, p / np.maximum(deg, 1), 0.0)
    pushed = np.bincount(cols, weights=pod[rows], minlength=n)
    dangling = float(p[deg == 0].sum())
    r = (1 - damping) / n + damping * (pushed + dangling / n) - p
    return float(np.abs(r).sum())


@pytest.mark.parametrize("window", ["tumbling", "sliding"])
def test_all_maintainers_parity_every_window(window):
    st, src, dst, ts, m = _stream(window)
    pr = DynamicPageRank(st.graph, tol=PR_TOL)
    cc = IncrementalComponents(st.graph)
    tri = IncrementalTriangles(st.graph)
    checked = []

    def on_window(win):
        ranks, _ = pr.update()
        labels = cc.update()
        count = tri.update()
        g = _oracle(st.graph)
        gap = float(np.abs(_full_pagerank(g) - ranks).sum())
        assert gap < PR_GAP, (win.index, gap)
        assert np.array_equal(labels, connected_components(g).to_dense())
        assert count == triangle_count(g)
        checked.append(win.index)

    _drive(st, src, dst, ts, m, on_window)
    assert len(checked) >= 5


def test_tumbling_stream_never_recomputes():
    st, src, dst, ts, m = _stream("tumbling")
    pr = DynamicPageRank(st.graph, tol=PR_TOL)
    cc = IncrementalComponents(st.graph)
    tri = IncrementalTriangles(st.graph)
    _drive(st, src, dst, ts, m,
           lambda w: (pr.update(), cc.update(), tri.update()))
    assert pr.recomputes == 0
    assert cc.recomputes == 0
    assert tri.recomputes == 0
    assert pr.windows == cc.windows == tri.windows > 0


def test_sliding_deletions_force_component_recompute():
    st, src, dst, ts, m = _stream("sliding", width=2.0)
    cc = IncrementalComponents(st.graph)
    _drive(st, src, dst, ts, m, lambda w: cc.update())
    assert cc.recomputes > 0  # expiry windows carry physical deletions
    assert np.array_equal(
        cc.labels, connected_components(_oracle(st.graph)).to_dense()
    )


def test_bulk_mutation_breaks_chain_and_recomputes():
    st, src, dst, ts, m = _stream("tumbling", m=400, t_hi=2.0)
    cc = IncrementalComponents(st.graph)
    tri = IncrementalTriangles(st.graph)
    pr = DynamicPageRank(st.graph, tol=PR_TOL)
    _drive(st, src, dst, ts, m,
           lambda w: (pr.update(), cc.update(), tri.update()))
    # out-of-band bulk edit: clear+rebuild breaks the chain; keep the
    # adjacency symmetric (UNDIRECTED contract) by dropping whole
    # canonical pairs rather than individual directed entries
    A = st.graph.A
    rows, cols, vals = A.extract_tuples()
    keep = (np.minimum(rows, cols) + np.maximum(rows, cols)) % 3 != 0
    A.clear()
    A.build(rows[keep], cols[keep], vals[keep], dup="SECOND")
    A.wait()
    before = (pr.recomputes, cc.recomputes, tri.recomputes)
    ranks, _ = pr.update()
    labels = cc.update()
    count = tri.update()
    assert (pr.recomputes, cc.recomputes, tri.recomputes) == tuple(
        b + 1 for b in before
    )
    g = _oracle(st.graph)
    assert float(np.abs(_full_pagerank(g) - ranks).sum()) < PR_GAP
    assert np.array_equal(labels, connected_components(g).to_dense())
    assert count == triangle_count(g)


def test_pagerank_parity_gap_helper():
    st, src, dst, ts, m = _stream("tumbling", m=300, t_hi=2.0)
    pr = DynamicPageRank(st.graph, tol=PR_TOL)
    _drive(st, src, dst, ts, m, lambda w: pr.update())
    assert pr.parity_gap() < PR_GAP


def test_pagerank_handles_danglings_and_isolates():
    # a tiny directed-style corner exercised through UNDIRECTED mirroring:
    # isolated vertices stay at teleport mass, parity holds
    st = GraphStream(6, kind=GraphKind.UNDIRECTED, window="tumbling",
                     width=1.0)
    pr = DynamicPageRank(st.graph, tol=PR_TOL)
    st.ingest([0, 1], [1, 2], [0.1, 0.2])
    win = st.flush()
    assert win is not None
    ranks, _ = pr.update()
    assert float(np.abs(_full_pagerank(_oracle(st.graph)) - ranks).sum()) < PR_GAP


def test_maintainers_survive_multi_window_chains():
    """Updating only every third window consumes multi-window chains."""
    st, src, dst, ts, m = _stream("sliding", width=1.5)
    pr = DynamicPageRank(st.graph, tol=PR_TOL)
    tri = IncrementalTriangles(st.graph)
    seen = []

    def on_window(win):
        seen.append(win)
        if len(seen) % 3 == 0:
            ranks, _ = pr.update()
            count = tri.update()
            g = _oracle(st.graph)
            assert float(np.abs(_full_pagerank(g) - ranks).sum()) < PR_GAP
            assert count == triangle_count(g)

    _drive(st, src, dst, ts, m, on_window)
    assert pr.windows >= 2


@pytest.mark.parametrize("window,every", [("tumbling", 1), ("sliding", 1),
                                          ("sliding", 3)])
def test_pagerank_residual_certificate_every_update(window, every):
    """The carried residual is the true one: no oracle, just b + dP^T p - p
    re-derived on a fresh copy of the graph after every update."""
    st, src, dst, ts, m = _stream(window, width=1.5)
    pr = DynamicPageRank(st.graph, tol=PR_TOL)
    seen = []

    def on_window(win):
        seen.append(win)
        if len(seen) % every == 0:
            ranks, _ = pr.update()
            cert = _residual_l1(_oracle(st.graph), ranks)
            assert cert <= PR_TOL + CERT_SLACK, (win.index, cert)

    _drive(st, src, dst, ts, m, on_window)
    assert pr.windows >= 2


def test_pagerank_failure_path_restarts_once_then_recovers():
    st, src, dst, ts, m = _stream("tumbling")
    pr = DynamicPageRank(st.graph, tol=PR_TOL)
    _drive(st, src[:750], dst[:750], ts[:750], 750, lambda w: pr.update())
    assert pr.recomputes == 0
    st.ingest(src[750:], dst[750:], ts[750:])
    st.flush()
    pr.max_sweeps = 2
    with pytest.raises(RuntimeError, match="failed to converge"):
        pr.update()
    assert pr.recomputes == 1  # exactly one from-scratch restart
    pr.max_sweeps = 1000
    ranks, sweeps = pr.update()
    assert sweeps > 0
    g = _oracle(st.graph)
    assert float(np.abs(_full_pagerank(g) - ranks).sum()) < PR_GAP
    assert _residual_l1(g, ranks) <= PR_TOL + CERT_SLACK


# -- IncrementalTriangles edge cases: each window checked against a recount --

def _sym(rows, cols):
    rows, cols = np.asarray(rows), np.asarray(cols)
    return np.r_[rows, cols], np.r_[cols, rows]


def _tracked_graph(n=24, m=90, seed=11):
    """A symmetric graph with a few self-loops, delta tracking on."""
    rng = np.random.default_rng(seed)
    r, c = _sym(rng.integers(0, n, m), rng.integers(0, n, m))
    r, c = np.r_[r, [0, 5, 9]], np.r_[c, [0, 5, 9]]
    A = Matrix.from_coo(r, c, 1.0, nrows=n, ncols=n, dup="SECOND")
    A.track_deltas(True)
    g = Graph(A, GraphKind.UNDIRECTED)
    tri = IncrementalTriangles(g)
    assert tri.update() == triangle_count(_oracle(g))
    return g, tri


def _window(A, rows, cols, values=1.0, deleted=None):
    A.update_batch(rows, cols, values, deleted=deleted)
    A.wait()


def _check(g, tri, recomputes=0):
    assert tri.update() == triangle_count(_oracle(g))
    assert tri.recomputes == recomputes


def _absent_pairs(A, k):
    """k vertex pairs (u < v) with no stored edge between them."""
    absent = np.argwhere(~A.pattern())
    absent = absent[absent[:, 0] < absent[:, 1]]
    return absent[:: max(1, absent.shape[0] // k)][:k]


def test_triangles_self_loops_toggled_in_one_chain():
    g, tri = _tracked_graph()
    A = g.A
    pairs = _absent_pairs(A, 4)
    ends = np.unique(pairs)
    _window(A, ends, ends)  # loops on both ends of every new edge
    _window(A, *_sym(pairs[:2, 0], pairs[:2, 1]))
    _window(A, ends[::2], ends[::2], deleted=True)  # some loops go again
    _window(A, [0, 5], [0, 5], deleted=True)
    assert g.nself_edges > 0
    _check(g, tri)
    _window(A, *_sym(pairs[2:, 0], pairs[2:, 1]))
    _check(g, tri)


def test_triangles_insert_then_delete_in_one_catch_up():
    g, tri = _tracked_graph()
    A = g.A
    before = tri.count
    pairs = _absent_pairs(A, 6)
    u, v = _sym(pairs[:, 0], pairs[:, 1])
    _window(A, u, v)
    _window(A, u, v, deleted=True)  # net delta: nothing
    assert len(A.deltas_since(tri._epoch)) == 2
    _check(g, tri)
    assert tri.count == before


def test_triangles_value_only_overwrites():
    g, tri = _tracked_graph()
    A = g.A
    before = tri.count
    rows, cols, vals = A.extract_tuples()
    _window(A, rows[::3], cols[::3], vals[::3] * 7.0 + 2.0)
    _check(g, tri)
    assert tri.count == before


def test_triangles_deletions_only_window():
    g, tri = _tracked_graph()
    A = g.A
    rows, cols, _ = A.extract_tuples()
    off = rows < cols
    _window(A, *_sym(rows[off][::2], cols[off][::2]), deleted=True)
    _check(g, tri)


def test_triangles_unkeyable_chain_recounts(monkeypatch):
    from repro.lagraph import triangles as tri_mod

    g, tri = _tracked_graph()
    _window(g.A, *_sym([2, 4], [6, 6]))
    monkeypatch.setattr(tri_mod, "chain_net_edges", lambda chain, n: None)
    _check(g, tri, recomputes=1)
