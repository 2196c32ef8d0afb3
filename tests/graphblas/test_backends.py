"""Pluggable kernel backends: registry, selection, dispatch, and parity.

Covers the backend registry and thread-local selection machinery, the
scipy.sparse interop round trips, the differential cross-checking
engine, and the GxB-style C-API global option.  The hypothesis section
pushes randomized Table-I workloads through the ``differential`` backend
across all four storage formats, so every example is executed by *both*
engines and compared.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphblas import Matrix, Vector, backends, telemetry
from repro.graphblas import operations as ops
from repro.graphblas.backends import (
    KernelBackend,
    available_backends,
    backend,
    dispatch,
    get_backend,
    register_backend,
    set_default_backend,
)
from repro.graphblas.backends.differential import DifferentialBackend, plan_cost
from repro.graphblas.errors import BackendDivergence, InvalidValue
from repro.graphblas import plan as planmod

FORMATS = ["csr", "csc", "hypercsr", "hypercsc"]

# the suite may legitimately run under GRAPHBLAS_BACKEND=<other engine>
ENV_DEFAULT = os.environ.get("GRAPHBLAS_BACKEND", "optimized")


@pytest.fixture(autouse=True)
def _restore_default_backend():
    yield
    set_default_backend(None)


def small_pair(seed=0, n=8, density=0.4, lo=-4, hi=5):
    rng = np.random.default_rng(seed)
    def one():
        dense = np.where(rng.random((n, n)) < density,
                         rng.integers(lo, hi, (n, n)), 0)
        return Matrix.from_dense(dense.astype(np.float64), missing=0)
    return one(), one()


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        for want in ("optimized", "compiled", "reference", "differential"):
            assert want in names
        assert "scipy" not in names

    def test_get_backend_caches_instances(self):
        assert get_backend("optimized") is get_backend("optimized")

    def test_get_backend_accepts_instance(self):
        be = get_backend("optimized")
        assert get_backend(be) is be

    def test_unknown_backend_raises(self):
        with pytest.raises(InvalidValue, match="unknown backend"):
            get_backend("no-such-engine")

    def test_duplicate_registration_raises(self):
        with pytest.raises(InvalidValue, match="already registered"):
            register_backend("optimized", lambda: None)

    def test_replace_registration(self):
        class Probe(KernelBackend):
            name = "probe"

        register_backend("probe", Probe, replace=True)
        try:
            assert isinstance(get_backend("probe"), Probe)
            register_backend("probe", Probe, replace=True)  # idempotent w/ flag
        finally:
            import repro.graphblas.backends as B

            B._factories.pop("probe", None)
            B._instances.pop("probe", None)


class TestSelection:
    def test_default_follows_environment(self):
        assert backends.current_backend_name() == ENV_DEFAULT

    def test_context_manager_nests(self):
        with backend("reference"):
            assert backends.current_backend_name() == "reference"
            with backend("differential"):
                assert backends.current_backend_name() == "differential"
            assert backends.current_backend_name() == "reference"
        assert backends.current_backend_name() == ENV_DEFAULT

    def test_set_default_backend(self):
        other = "reference" if ENV_DEFAULT != "reference" else "differential"
        set_default_backend(other)
        assert backends.current_backend_name() == other
        set_default_backend(None)
        assert backends.current_backend_name() == ENV_DEFAULT

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_BACKEND", "reference")
        set_default_backend(None)  # force a re-read of the environment
        assert backends.current_backend_name() == "reference"

    def test_per_call_override(self):
        A, B = small_pair(seed=1)
        C1 = Matrix(np.float64, *A.shape)
        C2 = Matrix(np.float64, *A.shape)
        ops.mxm(C1, A, B, "PLUS_TIMES", backend="reference")
        ops.mxm(C2, A, B, "PLUS_TIMES")
        assert C1.isequal(C2)

    def test_ops_equal_across_backends(self):
        A, B = small_pair(seed=2)
        baseline = Matrix(np.float64, *A.shape)
        ops.mxm(baseline, A, B, "PLUS_TIMES")
        for name in ("compiled", "reference", "differential"):
            C = Matrix(np.float64, *A.shape)
            with backend(name):
                ops.mxm(C, A, B, "PLUS_TIMES")
            assert C.isequal(baseline), name


class TestDispatchTelemetry:
    def test_dispatch_decision_recorded(self):
        A, B = small_pair(seed=3)
        C = Matrix(np.float64, *A.shape)
        telemetry.enable()
        try:
            ops.mxm(C, A, B, "PLUS_TIMES")
            snap = telemetry.snapshot()
        finally:
            telemetry.disable()
        assert snap["decisions"].get("backend.dispatch", 0) >= 1

    def test_dispatch_is_one_call(self):
        # a backend without the op raises; dispatch walks to no other engine
        class Partial(KernelBackend):
            name = "partial"

        A, B = small_pair(seed=4)
        C = Matrix(np.float64, *A.shape)
        before = C.dup()
        with telemetry.collect() as col:
            with pytest.raises(NotImplementedError, match="partial"):
                ops.mxm(C, A, B, "MIN_PLUS", backend=Partial())
        served = [e["args"]["backend"] for e in col.events
                  if e["type"] == "decision"
                  and e["name"] == "backend.dispatch"]
        assert served == ["partial"]
        assert C.isequal(before)


class TestSciPyInterop:
    scipy = pytest.importorskip("scipy.sparse")

    def test_cancellation_zeros_stay_in_pattern(self):
        # A@B where the only product sums to exactly zero: GraphBLAS keeps
        # the structural entry (scipy would prune it), and so must the
        # scipy round trip.
        A = Matrix.from_coo([0, 0], [0, 1], [1.0, -1.0], nrows=2, ncols=2)
        B = Matrix.from_coo([0, 1], [0, 0], [1.0, 1.0], nrows=2, ncols=2)
        for name in ("optimized", "reference"):
            C = Matrix(np.float64, 2, 2)
            ops.mxm(C, A, B, "PLUS_TIMES", backend=name)
            assert C.nvals == 1, name
            assert C[0, 0] == 0.0, name
            assert Matrix.from_scipy(C.to_scipy()).isequal(C), name

    def test_ewise_add_cancellation(self):
        u = Vector.from_coo([1, 3], [2.0, -7.0], size=5)
        v = Vector.from_coo([1, 4], [-2.0, 1.0], size=5)
        for name in ("optimized", "reference"):
            w = Vector(np.float64, 5)
            ops.ewise_add(w, u, v, "PLUS", backend=name)
            assert w.nvals == 3 and w[1] == 0.0, name
            assert Vector.from_scipy(w.to_scipy()).isequal(w), name

    def test_roundtrip_matrix_scipy(self):
        A, _ = small_pair(seed=8)
        back = Matrix.from_scipy(A.to_scipy())
        assert back.isequal(A)

    def test_roundtrip_vector_scipy(self):
        u = Vector.from_coo([0, 3, 9], [1.5, -2.0, 4.0], size=11)
        back = Vector.from_scipy(u.to_scipy())
        assert back.isequal(u)


class TestDifferential:
    def test_counts_verified(self):
        A, B = small_pair(seed=9)
        be = DifferentialBackend()
        C = Matrix(np.float64, *A.shape)
        with backend(be):
            ops.mxm(C, A, B, "PLUS_TIMES")
            ops.reduce_scalar(A, "PLUS")
        assert be.stats == {"verified": 2, "skipped": 0, "divergences": 0}

    def test_budget_skips_large_ops(self):
        A, B = small_pair(seed=10)
        be = DifferentialBackend(budget=1)  # everything is over budget
        C = Matrix(np.float64, *A.shape)
        with backend(be):
            ops.mxm(C, A, B, "PLUS_TIMES")
        assert be.stats["skipped"] == 1 and be.stats["verified"] == 0
        # the optimized result still lands
        want = Matrix(np.float64, *A.shape)
        ops.mxm(want, A, B, "PLUS_TIMES")
        assert C.isequal(want)

    def test_plan_cost_mxm_includes_inner_dim(self):
        A, B = small_pair(seed=11)
        p = planmod.plan_mxm(Matrix(np.float64, *A.shape), A, B, "PLUS_TIMES")
        assert plan_cost(p) == A.nrows * B.ncols * A.ncols

    def test_divergence_raises(self, monkeypatch):
        import repro.graphblas.backends.differential as diff

        opt = get_backend("optimized")

        class Corrupting:
            def __getattr__(self, name):
                real = getattr(opt, name)
                if name != "mxm":
                    return real

                def bad(plan):
                    real(plan)
                    plan.out.set_element(0, 0, 12345.0)
                    plan.out.wait()
                    return plan.out

                return bad

        monkeypatch.setattr(
            diff, "get_backend",
            lambda s: Corrupting() if s == "optimized" else get_backend(s),
        )
        A, B = small_pair(seed=12)
        be = DifferentialBackend()
        C = Matrix(np.float64, *A.shape)
        with pytest.raises(BackendDivergence, match="mxm"):
            with backend(be):
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert be.stats["divergences"] == 1

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_DIFF_BUDGET", "77")
        assert DifferentialBackend().budget == 77

    def test_strict_fails_on_over_budget_op(self):
        from repro.graphblas.errors import BudgetExceeded

        A, B = small_pair(seed=13)
        be = DifferentialBackend(budget=1, strict=True)
        C = Matrix(np.float64, *A.shape)
        with pytest.raises(BudgetExceeded, match="strict"):
            with backend(be):
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert be.stats["skipped"] == 1 and be.stats["verified"] == 0

    def test_strict_within_budget_still_verifies(self):
        A, B = small_pair(seed=14)
        be = DifferentialBackend(strict=True)
        C = Matrix(np.float64, *A.shape)
        with backend(be):
            ops.mxm(C, A, B, "PLUS_TIMES")
        assert be.stats["verified"] == 1 and be.stats["skipped"] == 0


class TestCapiGlobalOption:
    def test_backend_set_get(self):
        from repro.graphblas import capi

        assert capi.GxB_Backend_get() == ENV_DEFAULT
        other = "reference" if ENV_DEFAULT != "reference" else "differential"
        assert capi.GxB_Backend_set(other) == capi.Info.SUCCESS
        assert capi.GxB_Backend_get() == other
        assert capi.GxB_Backend_set("bogus") == capi.Info.INVALID_VALUE
        capi.GxB_Backend_set(None)
        assert capi.GxB_Backend_get() == ENV_DEFAULT


# ---------------------------------------------------------------------------
# hypothesis: randomized Table-I workloads through the differential engine
# ---------------------------------------------------------------------------

def _coo(entries, n):
    if not entries:
        return Matrix(np.float64, n, n)
    seen = {}
    for r, c, v in entries:
        seen[(r, c)] = float(v)
    rows = [k[0] for k in seen]
    cols = [k[1] for k in seen]
    vals = [seen[k] for k in seen]
    return Matrix.from_coo(rows, cols, vals, nrows=n, ncols=n)


entry_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-3, 3)),
    max_size=18,
)


@settings(max_examples=40, deadline=None)
@given(a=entry_lists, b=entry_lists, fmt=st.sampled_from(FORMATS))
def test_differential_mxm_property(a, b, fmt):
    A, B = _coo(a, 6).set_format(fmt), _coo(b, 6).set_format(fmt)
    C = Matrix(np.float64, 6, 6)
    be = DifferentialBackend()
    with backend(be):
        ops.mxm(C, A, B, "PLUS_TIMES")
        ops.mxm(C, A, B, "MIN_PLUS", accum="PLUS")
    assert be.stats["verified"] == 2 and be.stats["divergences"] == 0


@settings(max_examples=40, deadline=None)
@given(a=entry_lists, b=entry_lists, fmt=st.sampled_from(FORMATS),
       which=st.sampled_from(["ewise_add", "ewise_mult"]))
def test_differential_ewise_property(a, b, fmt, which):
    A, B = _coo(a, 6).set_format(fmt), _coo(b, 6).set_format(fmt)
    C = Matrix(np.float64, 6, 6)
    be = DifferentialBackend()
    with backend(be):
        getattr(ops, which)(C, A, B, "PLUS" if which == "ewise_add" else "TIMES")
        getattr(ops, which)(C, A, B, "MAX")
    assert be.stats["verified"] == 2 and be.stats["divergences"] == 0


@settings(max_examples=40, deadline=None)
@given(a=entry_lists, fmt=st.sampled_from(FORMATS))
def test_differential_apply_reduce_property(a, fmt):
    A = _coo(a, 6).set_format(fmt)
    C = Matrix(np.float64, 6, 6)
    w = Vector(np.float64, 6)
    be = DifferentialBackend()
    with backend(be):
        ops.apply(C, A, "AINV")
        ops.apply(C, A, "PLUS", right=2.5)
        ops.reduce_rowwise(w, A, "PLUS")
        total = ops.reduce_scalar(A, "PLUS")
    assert be.stats["verified"] == 4 and be.stats["divergences"] == 0
    r, c, v = A.extract_tuples()
    assert total == pytest.approx(v.sum()) or A.nvals == 0
