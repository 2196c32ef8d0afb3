"""Checkpoint/resume: atomic snapshots and bit-identical restarts.

The acceptance property: kill pagerank mid-run with an injected fault,
resume from the last on-disk snapshot, and obtain the exact bytes an
uninterrupted run produces.
"""

import os

import numpy as np
import pytest

from repro.graphblas import (
    InvalidValue,
    Matrix,
    OutOfMemory,
    Vector,
    faults,
    governor,
)
from repro.io import load_state, save_state
from repro.lagraph import Graph
from repro.lagraph.bfs import bfs
from repro.lagraph.centrality import betweenness_centrality, pagerank
from repro.lagraph.components import connected_components
from repro.lagraph.dnn import dnn_inference
from repro.lagraph.sssp import bellman_ford_sssp


@pytest.fixture
def graph():
    rng = np.random.default_rng(17)
    n = 60
    r = rng.integers(0, n, 300)
    c = rng.integers(0, n, 300)
    keep = r != c
    w = rng.random(keep.sum()) + 0.1
    A = Matrix.from_coo(r[keep], c[keep], w, nrows=n, ncols=n,
                        dtype="FP64", dup="FIRST")
    return Graph(A)


# --------------------------------------------------------------------------
# the io layer
# --------------------------------------------------------------------------

class TestSaveLoadState:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        M = Matrix.from_coo([0, 3, 7], [2, 1, 7], [1.5, -2.0, 0.25],
                            nrows=9, ncols=8, dtype="FP64")
        idx = np.array([1, 4, 6])
        v = Vector.from_coo(idx, rng.random(3), size=10, dtype="FP64")
        path = str(tmp_path / "state.npz")
        save_state(path, {"M": M, "v": v, "it": 7, "tol": 1e-8,
                          "name": "pr", "flag": True})
        st = load_state(path)
        assert st["it"] == 7 and st["tol"] == 1e-8
        assert st["name"] == "pr" and st["flag"] is True
        ri, rj, rv = st["M"].extract_tuples()
        mi, mj, mv = M.extract_tuples()
        assert np.array_equal(ri, mi) and np.array_equal(rj, mj)
        assert np.array_equal(rv, mv)
        vi, vv = st["v"].extract_tuples()
        oi, ov = v.extract_tuples()
        assert np.array_equal(vi, oi) and np.array_equal(vv, ov)

    def test_reserved_key_separator_rejected(self, tmp_path):
        with pytest.raises(InvalidValue):
            save_state(str(tmp_path / "x.npz"), {"a::b": 1})

    def test_unserializable_value_rejected(self, tmp_path):
        with pytest.raises(InvalidValue):
            save_state(str(tmp_path / "x.npz"), {"obj": object()})

    def test_atomic_write_keeps_previous_snapshot(self, tmp_path):
        path = str(tmp_path / "cp.npz")
        save_state(path, {"gen": 1})
        with faults.inject("io.write", OutOfMemory):
            with pytest.raises(OutOfMemory):
                save_state(path, {"gen": 2})
        assert load_state(path)["gen"] == 1  # old snapshot intact
        leftovers = [f for f in os.listdir(tmp_path) if ".tmp." in f]
        assert not leftovers  # no temp debris

    def test_atomic_write_syncs_temp_file_before_rename(self, tmp_path,
                                                        monkeypatch):
        # a rename that reaches the disk before the data would leave an
        # empty checkpoint after a power loss
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.getsize(src)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = str(tmp_path / "cp.npz")
        save_state(path, {"gen": 1})
        size = os.path.getsize(path)
        # the whole payload was synced, then renamed
        assert calls == [("fsync", size), ("replace", size)]
        assert load_state(path)["gen"] == 1

    def test_load_missing_manifest_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.npz")
        np.savez(path, junk=np.arange(3))
        with pytest.raises(InvalidValue):
            load_state(path)


class TestCheckpointObject:
    def test_every_k_limits_save_frequency(self, tmp_path):
        cp = governor.Checkpoint(str(tmp_path / "cp.npz"), every=3)
        for it in range(1, 10):
            governor.save_hook(cp, "alg", it, {"x": it})
        assert cp.saves == 3  # iterations 3, 6, 9

    def test_algorithm_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "cp.npz")
        cp = governor.Checkpoint(path)
        cp.save("pagerank", 4, {"x": 1})
        with pytest.raises(InvalidValue, match="pagerank"):
            governor.load_checkpoint(path, algorithm="bfs")

    def test_as_checkpoint_normalization(self, tmp_path):
        assert governor.as_checkpoint(None) is None
        cp = governor.Checkpoint(str(tmp_path / "a.npz"))
        assert governor.as_checkpoint(cp) is cp
        fn = lambda a, i, s: None
        assert governor.as_checkpoint(fn) is fn
        made = governor.as_checkpoint(str(tmp_path / "b.npz"))
        assert isinstance(made, governor.Checkpoint)

    def test_invalid_every_rejected(self, tmp_path):
        with pytest.raises(InvalidValue):
            governor.Checkpoint(str(tmp_path / "c.npz"), every=0)


# --------------------------------------------------------------------------
# kill-and-resume (the acceptance test)
# --------------------------------------------------------------------------

class TestKillAndResume:
    def test_pagerank_killed_mid_run_resumes_bit_identical(self, graph, tmp_path):
        r_full, it_full = pagerank(graph)
        assert it_full > 4  # the kill below must land mid-run

        path = str(tmp_path / "pr.npz")
        # kill the run partway: each iteration pulls through mxv once,
        # so failing the 4th pull aborts during iteration 4
        with faults.inject("mxv.pull", OutOfMemory, nth=4):
            with pytest.raises(OutOfMemory):
                pagerank(graph, checkpoint=path)
        st = governor.load_checkpoint(path, algorithm="pagerank")
        assert int(st["__iteration__"]) < it_full

        r_res, it_res = pagerank(graph, resume=path)
        assert it_res == it_full
        assert np.array_equal(r_full.to_dense(), r_res.to_dense())

    def test_bfs_resume_matches(self, graph, tmp_path):
        lv_full, _ = bfs(0, graph)
        path = str(tmp_path / "bfs.npz")
        bfs(0, graph, checkpoint=path)  # last snapshot = final state
        # also resume from an early snapshot
        early = str(tmp_path / "bfs_early.npz")
        taken = []

        def first_only(alg, it, state):
            if not taken:
                governor.Checkpoint(early).save(alg, it, state)
                taken.append(it)

        bfs(0, graph, checkpoint=first_only)
        lv_res, _ = bfs(0, graph, resume=early)
        assert lv_full.isequal(lv_res)

    def test_bfs_resume_output_shape_mismatch(self, graph, tmp_path):
        path = str(tmp_path / "bfs.npz")
        bfs(0, graph, checkpoint=path)  # level only
        with pytest.raises(InvalidValue):
            bfs(0, graph, parent=True, level=False, resume=path)

    def test_sssp_resume_matches(self, graph, tmp_path):
        d_full = bellman_ford_sssp(0, graph)
        early = str(tmp_path / "sssp.npz")
        taken = []

        def first_only(alg, it, state):
            if not taken:
                governor.Checkpoint(early).save(alg, it, state)
                taken.append(it)

        bellman_ford_sssp(0, graph, checkpoint=first_only)
        d_res = bellman_ford_sssp(0, graph, resume=early)
        assert np.array_equal(d_full.to_dense(), d_res.to_dense())

    def test_components_resume_matches(self, graph, tmp_path):
        f_full = connected_components(graph)
        early = str(tmp_path / "cc.npz")
        taken = []

        def first_only(alg, it, state):
            if not taken:
                governor.Checkpoint(early).save(alg, it, state)
                taken.append(it)

        connected_components(graph, checkpoint=first_only)
        f_res = connected_components(graph, resume=early)
        assert np.array_equal(f_full.to_dense(), f_res.to_dense())

    def test_betweenness_resume_both_phases(self, graph, tmp_path):
        sources = np.arange(12)
        bc_full = betweenness_centrality(graph, sources)
        snaps = []

        def record(alg, it, state):
            path = str(tmp_path / f"bc_{len(snaps)}.npz")
            governor.Checkpoint(path).save(alg, it, state)
            snaps.append((state["phase"], path))

        betweenness_centrality(graph, sources, checkpoint=record)
        fwd = [p for ph, p in snaps if ph == "forward"]
        bwd = [p for ph, p in snaps if ph == "backward"]
        assert fwd and bwd
        bc_f = betweenness_centrality(graph, sources, resume=fwd[0])
        assert np.array_equal(bc_full.to_dense(), bc_f.to_dense())
        bc_b = betweenness_centrality(graph, sources, resume=bwd[0])
        assert np.array_equal(bc_full.to_dense(), bc_b.to_dense())

    def test_betweenness_resume_source_count_mismatch(self, graph, tmp_path):
        path = str(tmp_path / "bc.npz")
        betweenness_centrality(graph, np.arange(5), checkpoint=path)
        with pytest.raises(InvalidValue):
            betweenness_centrality(graph, np.arange(6), resume=path)

    def test_dnn_resume_skips_completed_layers(self, tmp_path):
        rng = np.random.default_rng(23)
        Y0 = Matrix.from_coo(rng.integers(0, 6, 25), rng.integers(0, 12, 25),
                             rng.random(25), nrows=6, ncols=12,
                             dtype="FP64", dup="PLUS")
        Ws = [
            Matrix.from_coo(rng.integers(0, 12, 30), rng.integers(0, 12, 30),
                            rng.random(30) - 0.3, nrows=12, ncols=12,
                            dtype="FP64", dup="PLUS")
            for _ in range(4)
        ]
        bs = [0.05, 0.0, -0.1, 0.02]
        Y_full = dnn_inference(Y0, Ws, bs)
        early = str(tmp_path / "dnn.npz")
        taken = []

        def first_only(alg, it, state):
            if not taken:
                governor.Checkpoint(early).save(alg, it, state)
                taken.append(it)

        dnn_inference(Y0, Ws, bs, checkpoint=first_only)
        assert taken == [1]
        Y_res = dnn_inference(Y0, Ws, bs, resume=early)
        assert np.array_equal(Y_full.to_dense(), Y_res.to_dense())

    def test_pagerank_resume_size_mismatch(self, graph, tmp_path):
        path = str(tmp_path / "pr.npz")
        pagerank(graph, checkpoint=path)
        rng = np.random.default_rng(2)
        smaller = Graph(Matrix.from_coo([0, 1], [1, 2], [1.0, 1.0],
                                        nrows=3, ncols=3, dtype="FP64"))
        with pytest.raises(InvalidValue):
            pagerank(smaller, resume=path)
