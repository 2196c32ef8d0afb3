"""The compiled kernel tier: backend wiring, cache, telemetry, parity.

Covers the fifth backend end to end — registry and fallback-chain
behavior (including the never-raise warn-once path when no toolchain is
usable), the compiled-kernel LRU and its warm reuse across calls, the
``compiled.kernel`` / ``compiled.early_exit`` telemetry and their obs
metrics, the ``cmp`` column in EXPLAIN, the ``GxB_Compiled_set/get``
C-API option, terminal early exit, and value parity against the
optimized engine (bit-identical for order-insensitive add monoids and
integer types, tolerance-checked for float PLUS where numpy's unrolled
reduceat and the scalar SPA legitimately differ in the last ulp).

The whole module runs on whatever toolchain ``auto`` resolves to — cc
in a bare container, numba when the ``[compiled]`` extra is installed —
and parity classes are skipped when neither exists.
"""

import os
import warnings

import numpy as np
import pytest

from repro import obs
from repro.graphblas import Matrix, Vector, backends, capi, envutil, telemetry
from repro.graphblas import compiled
from repro.graphblas import operations as ops
from repro.graphblas.backends import get_backend, set_default_backend
from repro.graphblas.backends.differential import DifferentialBackend
from repro.graphblas.types import BOOL, FP64, INT64

HAVE_TIER = compiled.available()
needs_tier = pytest.mark.skipif(
    not HAVE_TIER, reason="no compiled toolchain (numba or cc) available"
)


@pytest.fixture(autouse=True)
def _clean_tier():
    compiled.reset()
    yield
    set_default_backend(None)
    compiled.reset()
    envutil.reset_warned()


def rand_pair(seed=0, n=40, density=0.15):
    rng = np.random.default_rng(seed)
    def one():
        dense = np.where(rng.random((n, n)) < density,
                         rng.standard_normal((n, n)), 0.0)
        return Matrix.from_dense(dense, missing=0.0)
    return one(), one()


def rand_vec(seed=1, n=40, density=0.3):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random(n) < density, rng.standard_normal(n), 0.0)
    return Vector.from_dense(dense, missing=0.0)


class TestRegistryAndFallback:
    def test_compiled_registered(self):
        assert "compiled" in backends.available_backends()
        be = get_backend("compiled")
        assert be.name == "compiled"
        assert be.fallback == "optimized"

    def test_off_toolchain_warns_once_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_COMPILED_TOOLCHAIN", "off")
        compiled.reset()
        envutil.reset_warned()
        assert not compiled.available()
        A, B = rand_pair()
        C = Matrix(FP64, A.nrows, B.ncols)
        set_default_backend("compiled")
        with pytest.warns(RuntimeWarning, match="compiled"):
            ops.mxm(C, A, B, "PLUS_TIMES")
        assert C.nvals > 0  # served by the fallback, never raised
        # the warning is once-per-process: a second op stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ops.mxm(Matrix(FP64, A.nrows, B.ncols), A, B, "PLUS_TIMES")

    def test_fallback_telemetry_emitted(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_COMPILED_TOOLCHAIN", "off")
        compiled.reset()
        A, B = rand_pair()
        C = Matrix(FP64, A.nrows, B.ncols)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with telemetry.collect() as col:
                ops.mxm(C, A, B, "PLUS_TIMES", backend="compiled")
        falls = [e for e in col.events
                 if e["type"] == "decision" and e["name"] == "backend.fallback"]
        assert any(e["args"]["declined"] == "compiled"
                   and e["args"]["fallback"] == "optimized" for e in falls)

    @needs_tier
    def test_unsupported_semiring_declined(self):
        # user-defined ops have no template: the plan must fall through
        A, B = rand_pair()
        C = Matrix(FP64, A.nrows, B.ncols)
        with telemetry.collect() as col:
            ops.mxm(C, A, B, "PLUS_TIMES", backend="compiled",
                    method="heap")  # heap method is not compiled
        falls = [e for e in col.events
                 if e["type"] == "decision" and e["name"] == "backend.fallback"]
        assert any(e["args"]["declined"] == "compiled" for e in falls)
        assert C.nvals > 0


@needs_tier
class TestKernelCache:
    def test_warm_reuse(self):
        A, B = rand_pair()
        C = Matrix(FP64, A.nrows, B.ncols)
        ops.mxm(C, A, B, "PLUS_TIMES", backend="compiled")
        s1 = compiled.cache_stats()
        assert s1["misses"] >= 1 and s1["size"] >= 1
        ops.mxm(Matrix(FP64, A.nrows, B.ncols), A, B, "PLUS_TIMES",
                backend="compiled")
        s2 = compiled.cache_stats()
        assert s2["misses"] == s1["misses"]       # no rebuild
        assert s2["hits"] > s1["hits"]            # served from cache

    def test_lru_eviction_on_shrink(self, monkeypatch):
        monkeypatch.setattr(compiled, "CACHE_SIZE", 1)
        A, B = rand_pair()
        ops.mxm(Matrix(FP64, A.nrows, B.ncols), A, B, "PLUS_TIMES",
                backend="compiled")
        ops.mxm(Matrix(FP64, A.nrows, B.ncols), A, B, "MIN_PLUS",
                backend="compiled")
        st = compiled.cache_stats()
        assert st["size"] == 1 and st["evictions"] >= 1

    def test_kernel_telemetry_compile_then_hit(self):
        A, B = rand_pair()
        with telemetry.collect() as col:
            ops.mxm(Matrix(FP64, A.nrows, B.ncols), A, B, "PLUS_TIMES",
                    backend="compiled")
            ops.mxm(Matrix(FP64, A.nrows, B.ncols), A, B, "PLUS_TIMES",
                    backend="compiled")
        evs = [e["args"] for e in col.events
               if e["type"] == "decision" and e["name"] == "compiled.kernel"]
        events = [e["event"] for e in evs]
        assert "compile" in events and "hit" in events
        first_compile = next(e for e in evs if e["event"] == "compile")
        assert first_compile["seconds"] >= 0.0
        assert first_compile["toolchain"] == compiled.toolchain_name()


@needs_tier
class TestObservability:
    def test_plan_done_carries_cache_deltas_and_cmp_column(self):
        A, B = rand_pair()
        C = Matrix(FP64, A.nrows, B.ncols)
        rep = obs.explain(
            lambda: ops.mxm(C, A, B, "PLUS_TIMES", backend="compiled"))
        rec = rep.records[0]
        assert rec["backend"] == "compiled"
        assert rec.get("compiled_compiles", 0) + rec.get("compiled_hits", 0) >= 1
        text = rep.text()
        assert "cmp" in text.splitlines()[1]
        assert "h/" in text and "c" in text  # the Nh/Mc cell rendered

    def test_metrics_registry_series(self):
        obs.reset()
        try:
            obs.enable()
            A, B = rand_pair()
            ops.mxm(Matrix(FP64, A.nrows, B.ncols), A, B, "PLUS_TIMES",
                    backend="compiled")
            ops.mxm(Matrix(FP64, A.nrows, B.ncols), A, B, "PLUS_TIMES",
                    backend="compiled")
            text = obs.prometheus_text()
            assert "graphblas_compiled_kernel_events_total" in text
            assert 'event="compile"' in text and 'event="hit"' in text
            assert "graphblas_compile_seconds" in text
            assert 'graphblas_compiled_kernel_cache{stat="hits"}' in text
            obs.check_prometheus_text(text)
        finally:
            obs.reset()


class TestCapi:
    def test_get_shape(self):
        st = capi.GxB_Compiled_get()
        assert set(st) == {"toolchain", "directory", "resolved", "available",
                           "cache"}
        assert st["cache"]["capacity"] == compiled.CACHE_SIZE

    def test_set_invalid(self):
        assert capi.GxB_Compiled_set("off") == capi.GrB_SUCCESS
        st = capi.GxB_Compiled_get()
        assert st["resolved"] is None and not st["available"]
        assert capi.GxB_Compiled_set("llvm") == capi.Info.INVALID_VALUE
        assert capi.GxB_Compiled_set(cache_size=7) == capi.Info.INVALID_VALUE
        # failed sets leave the config untouched
        assert capi.GxB_Compiled_get()["toolchain"] == "off"


@needs_tier
class TestParity:
    SEMIRINGS = ["PLUS_TIMES", "MIN_PLUS", "MAX_MIN"]

    @pytest.mark.parametrize("sr", SEMIRINGS)
    def test_mxm_matches_optimized(self, sr):
        A, B = rand_pair(seed=3)
        C1 = Matrix(FP64, A.nrows, B.ncols)
        C2 = Matrix(FP64, A.nrows, B.ncols)
        ops.mxm(C1, A, B, sr, backend="compiled")
        ops.mxm(C2, A, B, sr, backend="optimized")
        r1, c1, v1 = C1.extract_tuples()
        r2, c2, v2 = C2.extract_tuples()
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(c1, c2)
        if sr == "PLUS_TIMES":
            # float PLUS is order-sensitive and numpy's reduceat unrolls
            # long segments 8-wide, so the scalar SPA can differ in the
            # last ulp — tolerance-checked, same as the differential tier
            np.testing.assert_allclose(v1, v2, rtol=1e-9, atol=1e-12)
        else:
            # MIN/MAX monoids are order-insensitive: bit-identical
            np.testing.assert_array_equal(v1, v2)

    def test_masked_mxm_dot_path(self):
        A, B = rand_pair(seed=4)
        rng = np.random.default_rng(5)
        md = (rng.random((A.nrows, B.ncols)) < 0.2).astype(np.float64)
        M = Matrix.from_dense(md, missing=0.0)
        C1 = Matrix(FP64, A.nrows, B.ncols)
        C2 = Matrix(FP64, A.nrows, B.ncols)
        with telemetry.collect() as col:
            ops.mxm(C1, A, B, "PLUS_TIMES", mask=M, backend="compiled")
        methods = [e["args"]["method"] for e in col.events
                   if e["type"] == "decision" and e["name"] == "spgemm.method"]
        assert "dot" in methods
        ops.mxm(C2, A, B, "PLUS_TIMES", mask=M, backend="optimized")
        r1, c1, v1 = C1.extract_tuples()
        r2, c2, v2 = C2.extract_tuples()
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_allclose(v1, v2, rtol=1e-9, atol=1e-12)

    def test_mxv_vxm_both_directions(self):
        A, _ = rand_pair(seed=6)
        for nv, sr in ((2, "PLUS_TIMES"), (35, "MIN_PLUS")):
            u = rand_vec(seed=nv, density=nv / 40)
            for op in (ops.mxv, ops.vxm):
                w1 = Vector(FP64, A.nrows)
                w2 = Vector(FP64, A.nrows)
                op(w1, A, u, sr, backend="compiled") if op is ops.mxv \
                    else op(w1, u, A, sr, backend="compiled")
                op(w2, A, u, sr, backend="optimized") if op is ops.mxv \
                    else op(w2, u, A, sr, backend="optimized")
                i1, v1 = w1.extract_tuples()
                i2, v2 = w2.extract_tuples()
                np.testing.assert_array_equal(i1, i2)
                np.testing.assert_allclose(v1, v2, rtol=1e-9, atol=1e-12)

    def test_bit_identical_with_tier_disabled(self, monkeypatch):
        # with GRAPHBLAS_COMPILED_TOOLCHAIN=off the compiled backend is
        # a pure pass-through: results are byte-for-byte what the
        # optimized engine produces on its own
        A, B = rand_pair(seed=7)
        monkeypatch.setenv("GRAPHBLAS_COMPILED_TOOLCHAIN", "off")
        compiled.reset()
        C_off = Matrix(FP64, A.nrows, B.ncols)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ops.mxm(C_off, A, B, "PLUS_TIMES", backend="compiled")
        C_opt = Matrix(FP64, A.nrows, B.ncols)
        ops.mxm(C_opt, A, B, "PLUS_TIMES", backend="optimized")
        r1, c1, v1 = C_off.extract_tuples()
        r2, c2, v2 = C_opt.extract_tuples()
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(v1, v2)

    def test_differential_primary_compiled(self):
        be = DifferentialBackend(primary="compiled")
        A, B = rand_pair(seed=8, n=16)
        u = rand_vec(seed=9, n=16)
        plan_ops = [
            lambda: ops.mxm(Matrix(FP64, 16, 16), A, B, "PLUS_TIMES",
                            backend=be),
            lambda: ops.mxv(Vector(FP64, 16), A, u, "MIN_PLUS", backend=be),
        ]
        for f in plan_ops:
            f()
        assert be.stats["divergences"] == 0
        assert be.stats["verified"] == len(plan_ops)


@needs_tier
class TestEarlyExit:
    def _bool_inputs(self, n=64, seed=11):
        rng = np.random.default_rng(seed)
        Ad = rng.random((n, n)) < 0.4
        ud = rng.random(n) < 0.5
        A = Matrix.from_dense(Ad.astype(np.bool_), missing=False)
        u = Vector.from_dense(ud.astype(np.bool_), missing=False)
        return A, u

    def test_lor_land_pull_terminates_and_matches(self):
        A, u = self._bool_inputs()
        w1 = Vector(BOOL, A.nrows)
        w2 = Vector(BOOL, A.nrows)
        with telemetry.collect() as col:
            ops.mxv(w1, A, u, "LOR_LAND", backend="compiled")
        ops.mxv(w2, A, u, "LOR_LAND", backend="optimized")
        i1, v1 = w1.extract_tuples()
        i2, v2 = w2.extract_tuples()
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(v1, v2)
        exits = [e["args"] for e in col.events
                 if e["type"] == "decision"
                 and e["name"] == "compiled.early_exit"]
        assert exits and exits[0]["terminated"] > 0
        # early exit means rows stopped before scanning every candidate
        assert exits[0]["scanned"] < exits[0].get("possible", float("inf")) \
            if "possible" in exits[0] else True

    def test_max_min_terminal_fp64(self):
        # MAX over FP64 terminates at +inf: the first column's product
        # min(inf, inf) = inf hits the annihilator immediately
        n = 32
        dense = np.full((n, n), 1.0)
        dense[:, 0] = np.inf
        A = Matrix.from_dense(dense, missing=np.nan)
        u = Vector.from_dense(np.full(n, np.inf), missing=0.0)
        w1 = Vector(FP64, n)
        w2 = Vector(FP64, n)
        with telemetry.collect() as col:
            ops.mxv(w1, A, u, "MAX_MIN", backend="compiled")
        ops.mxv(w2, A, u, "MAX_MIN", backend="optimized")
        i1, v1 = w1.extract_tuples()
        i2, v2 = w2.extract_tuples()
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(v1, v2)
        exits = [e["args"] for e in col.events
                 if e["type"] == "decision"
                 and e["name"] == "compiled.early_exit"]
        assert any(e["terminated"] > 0 for e in exits)


@needs_tier
class TestPythonOracle:
    """The interpreted rendering of the generated source is the oracle
    for the native toolchains: same template, no compiler in between."""

    def test_cc_or_numba_matches_python_toolchain(self):
        A, B = rand_pair(seed=12, n=24)
        native = Matrix(FP64, 24, 24)
        ops.mxm(native, A, B, "PLUS_TIMES", backend="compiled")
        compiled.set_config(toolchain="python")
        compiled.clear_cache()
        assert compiled.toolchain_name() == "python"
        interp = Matrix(FP64, 24, 24)
        ops.mxm(interp, A, B, "PLUS_TIMES", backend="compiled")
        r1, c1, v1 = native.extract_tuples()
        r2, c2, v2 = interp.extract_tuples()
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(v1, v2)

    def test_int64_semiring_parity(self):
        rng = np.random.default_rng(13)
        n = 20
        Ad = np.where(rng.random((n, n)) < 0.3,
                      rng.integers(-5, 6, (n, n)), 0)
        A = Matrix.from_dense(Ad.astype(np.int64), missing=0)
        B = Matrix.from_dense(Ad.T.astype(np.int64), missing=0)
        for sr in ("PLUS_TIMES", "MIN_PLUS", "MAX_MIN"):
            C1 = Matrix(INT64, n, n)
            C2 = Matrix(INT64, n, n)
            ops.mxm(C1, A, B, sr, backend="compiled")
            ops.mxm(C2, A, B, sr, backend="optimized")
            r1, c1, v1 = C1.extract_tuples()
            r2, c2, v2 = C2.extract_tuples()
            np.testing.assert_array_equal(r1, r2)
            np.testing.assert_array_equal(c1, c2)
            np.testing.assert_array_equal(v1, v2)
