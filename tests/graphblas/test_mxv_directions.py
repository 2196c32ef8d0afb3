"""Push vs pull SpMV and the direction-optimization rule (paper II.E)."""

import numpy as np
import pytest

from repro.graphblas import DirectionOptimizer, Matrix, Vector
from repro.graphblas import operations as ops
from repro.graphblas import telemetry
from repro.graphblas.descriptor import Descriptor
from repro.graphblas.errors import InvalidValue
from repro.graphblas.types import BOOL
from tests.helpers import kernel_tier, random_matrix_np, random_vector_np


class TestPushPullEquivalence:
    @pytest.mark.parametrize("density", [0.02, 0.3, 0.9])
    @pytest.mark.parametrize("semiring", ["PLUS_TIMES", "MIN_PLUS", "LOR_LAND"])
    def test_push_equals_pull(self, density, semiring):
        rng = np.random.default_rng(5)
        A, _, _ = random_matrix_np(rng, 30, 30, 0.15)
        u, _, _ = random_vector_np(rng, 30, density)
        w_push = Vector("FP64", 30)
        w_pull = Vector("FP64", 30)
        ops.mxv(w_push, A, u, semiring, method="push")
        ops.mxv(w_pull, A, u, semiring, method="pull")
        assert w_push.pattern().tolist() == w_pull.pattern().tolist()
        assert np.allclose(w_push.to_dense(), w_pull.to_dense())

    def test_pull_uses_output_mask_hint(self):
        """Masked pull computes only admitted rows but matches push output."""
        rng = np.random.default_rng(6)
        A, _, _ = random_matrix_np(rng, 40, 40, 0.2)
        u, _, _ = random_vector_np(rng, 40, 0.8)
        m, _, _ = random_vector_np(rng, 40, 0.2, dtype=np.bool_)
        out_a = Vector("FP64", 40)
        out_b = Vector("FP64", 40)
        ops.mxv(out_a, A, u, "PLUS_TIMES", mask=m, method="pull", desc="RS")
        ops.mxv(out_b, A, u, "PLUS_TIMES", mask=m, method="push", desc="RS")
        assert out_a.isequal(out_b)

    def test_unknown_method(self):
        A = Matrix.sparse_identity(3)
        u = Vector.full(1.0, 3)
        with pytest.raises(InvalidValue):
            ops.mxv(Vector("FP64", 3), A, u, method="sideways")


class TestComplementedMaskPull:
    """A pull under a complemented mask computes only the rows the mask
    admits (BFS's pull skips the visited set), yet its result is the
    unrestricted product written through the same mask."""

    N = 40

    def _inputs(self):
        rng = np.random.default_rng(11)
        n = self.N
        A, _, _ = random_matrix_np(rng, n, n, 0.25)
        u, _, _ = random_vector_np(rng, n, 0.7)
        # stored False entries: a valued mask admits them when complemented
        idx = np.sort(rng.choice(n, n // 2, replace=False))
        m = Vector.from_coo(idx, rng.random(idx.size) < 0.7, size=n,
                            dtype=BOOL)
        prior = np.arange(0, n, 3)
        w0 = Vector.from_coo(prior, prior * 1.0, size=n)
        return A, u, m, w0

    @pytest.mark.parametrize("kernel", ["compiled", "numpy"])
    @pytest.mark.parametrize("op", ["mxv", "vxm"])
    @pytest.mark.parametrize("structural", [False, True],
                             ids=["valued", "structural"])
    @pytest.mark.parametrize("replace", [False, True],
                             ids=["keep", "replace"])
    def test_equals_unrestricted(self, kernel, op, structural, replace):
        A, u, m, w0 = self._inputs()
        args = (A, u) if op == "mxv" else (u, A)
        desc = Descriptor(complement_mask=True, structural_mask=structural,
                          replace=replace)
        with kernel_tier(kernel):
            got = w0.dup()
            getattr(ops, op)(got, *args, "PLUS_TIMES", mask=m, desc=desc,
                             method="pull")
            t = Vector("FP64", self.N)
            getattr(ops, op)(t, *args, "PLUS_TIMES", method="pull")
            want = w0.dup()
            ops.assign(want, t, ops.ALL, mask=m, desc=desc)
        gi, gv = got.extract_tuples()
        wi, wv = want.extract_tuples()
        assert gi.tobytes() == wi.tobytes() and gv.tobytes() == wv.tobytes()

    @pytest.mark.parametrize("kernel", ["compiled", "numpy"])
    def test_visited_rows_are_not_scanned(self, kernel):
        A, u, m, _ = self._inputs()
        n = self.N
        visited = m.extract_tuples()[0]
        unvisited = np.setdiff1d(np.arange(n), visited)
        admit = Vector.from_coo(unvisited, np.ones(unvisited.size, bool),
                                size=n, dtype=BOOL)

        def flops(**kw):
            with telemetry.collect() as col:
                ops.mxv(Vector("FP64", n), A, u, "PLUS_TIMES", method="pull",
                        **kw)
            return col.ops["mxv"].flops

        with kernel_tier(kernel):
            everything = flops()
            complemented = flops(mask=m, desc=Descriptor(
                complement_mask=True, structural_mask=True, replace=True))
            admitted_only = flops(mask=admit, desc=Descriptor(
                structural_mask=True, replace=True))
        assert complemented == admitted_only < everything


class TestDirectionOptimizer:
    """The literal GraphBLAST hysteresis rule from section II.E."""

    def test_starts_push_when_sparse(self):
        opt = DirectionOptimizer(threshold=0.1)
        assert opt.choose(0.01) == "push"

    def test_starts_pull_when_dense(self):
        opt = DirectionOptimizer(threshold=0.1)
        assert opt.choose(0.5) == "pull"

    def test_crossing_above_switches_to_pull(self):
        opt = DirectionOptimizer(threshold=0.1)
        opt.choose(0.05)
        assert opt.choose(0.2) == "pull"

    def test_crossing_below_switches_to_push(self):
        opt = DirectionOptimizer(threshold=0.1)
        opt.choose(0.5)
        assert opt.choose(0.01) == "push"

    def test_no_crossing_keeps_previous(self):
        """'If neither outcome has occurred, use the previous traversal.'"""
        opt = DirectionOptimizer(threshold=0.1)
        opt.choose(0.05)          # push
        opt.choose(0.2)           # crossed above -> pull
        assert opt.choose(0.5) == "pull"   # stays above: keep pull
        assert opt.choose(0.3) == "pull"   # still above: keep pull
        assert opt.choose(0.02) == "push"  # crossed below -> push
        assert opt.choose(0.01) == "push"  # stays below: keep push

    def test_history_records_choices(self):
        opt = DirectionOptimizer(threshold=0.1)
        for d in (0.01, 0.5, 0.4, 0.01):
            opt.choose(d)
        assert opt.history == ["push", "pull", "pull", "push"]

    def test_bad_threshold(self):
        with pytest.raises(InvalidValue):
            DirectionOptimizer(threshold=1.5)

    def test_bfs_switches_directions_on_rmat(self):
        """On a scale-free graph the frontier densifies then shrinks; the
        optimizer must use both directions across the traversal."""
        from repro.generators import rmat_graph
        from repro.graphblas import backends
        from repro.lagraph import bfs_level

        g = rmat_graph(9, 12, seed=1, kind="undirected")
        opt = DirectionOptimizer(threshold=0.02)
        # direction switching is an optimized-engine internal: pin the backend
        with backends.backend("optimized"):
            bfs_level(0, g, optimizer=opt)
        assert "push" in opt.history and "pull" in opt.history

    def test_auto_without_optimizer_picks_by_density(self):
        rng = np.random.default_rng(8)
        A, _, _ = random_matrix_np(rng, 30, 30, 0.2)
        sparse_u, _, _ = random_vector_np(rng, 30, 0.02)
        dense_u, _, _ = random_vector_np(rng, 30, 0.9)
        # both must compute correctly regardless of chosen direction
        for u in (sparse_u, dense_u):
            w_auto = Vector("FP64", 30)
            w_ref = Vector("FP64", 30)
            ops.mxv(w_auto, A, u, "PLUS_TIMES", method="auto")
            ops.mxv(w_ref, A, u, "PLUS_TIMES", method="push")
            assert w_auto.isequal(w_ref)
