"""The compiled kernel tier: selection, backend wiring, cache, telemetry.

Covers the tier end to end — the default ``optimized`` backend running
the compiled kernels for every class :func:`compiled.select` accepts,
the ``compiled`` name resolving to that same engine (including the
never-raise warn-once path when no toolchain is usable), the
differential backend verifying the tier production runs, the plan-class
memo (warm reuse, LRU bound, one build per class under racing threads,
a failed build declining its class),
the ``compiled.kernel`` / ``mxm.early_exit`` / ``mxv.early_exit``
telemetry and their obs metrics, the plan-owned ``kernel`` /
``kernel_cache`` fields of ``plan.done`` and EXPLAIN's ``kernel``/``cmp``
columns, the ``GxB_Compiled_set/get`` C-API option, terminal early exit,
and value parity against the NumPy kernels (the toolchain-off side):
bit-identical for order-insensitive add monoids and integer types,
tolerance-checked for float PLUS where numpy's unrolled reduceat and the
strict left fold legitimately differ in the last ulp.

The whole module runs on whatever toolchain ``auto`` resolves to — cc
in a bare container, numba when the ``[compiled]`` extra is installed —
and tier classes are skipped when neither exists.
"""

import sys
import threading
import warnings

import numpy as np
import pytest

from repro import obs
from repro.graphblas import Matrix, Vector, backends, capi, envutil, telemetry
from repro.graphblas import compiled
from repro.graphblas import operations as ops
from repro.graphblas import plan as gplan
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


def _decisions(col, name):
    return [e["args"] for e in col.events
            if e["type"] == "decision" and e["name"] == name]


def _run_threads(threads, timeout=120.0):
    """Start and join ``threads`` with a short switch interval, so the
    interpreter interleaves them finely; every thread must finish."""
    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout)
    finally:
        sys.setswitchinterval(prev)
    assert not any(th.is_alive() for th in threads)


class TestRegistryAndFallback:
    def test_compiled_registered(self):
        # the name stays; it resolves to the engine that runs the tier
        assert "compiled" in backends.available_backends()
        assert get_backend("compiled") is get_backend("optimized")

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

    def test_default_backend_silent_without_toolchain(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_COMPILED_TOOLCHAIN", "off")
        compiled.reset()
        envutil.reset_warned()
        A, B = rand_pair()
        u = rand_vec()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ops.mxm(Matrix(FP64, A.nrows, B.ncols), A, B, "PLUS_TIMES")
            ops.mxv(Vector(FP64, A.nrows), A, u, "PLUS_TIMES")

    @needs_tier
    def test_unsupported_semiring_declined(self):
        # the heap method has no compiled kernel: NumPy runs it, in one call
        A, B = rand_pair()
        C = Matrix(FP64, A.nrows, B.ncols)
        rep = obs.explain(lambda: ops.mxm(C, A, B, "PLUS_TIMES",
                                          backend="compiled", method="heap"))
        (rec,) = rep.records
        assert rec["backend"] == "optimized" and rec["kernel"] == "numpy"
        assert C.nvals > 0


@needs_tier
class TestSelect:
    """``compiled.select``: one memoised decision per plan class."""

    def _plan(self, sr, dtype=FP64, seed=0, **kw):
        A, B = rand_pair(seed=seed, n=12)
        if dtype is not FP64:
            A = Matrix.from_coo(*A.extract_tuples()[:2],
                                np.ones(A.nvals, dtype=dtype.np_dtype),
                                nrows=12, ncols=12, dtype=dtype)
            B = A
        return gplan.plan_mxm(Matrix(dtype, 12, 12), A, B, sr, **kw)

    def test_default_backend_runs_compiled(self):
        A, B = rand_pair(seed=2)
        got, want = Matrix(FP64, 40, 40), Matrix(FP64, 40, 40)
        rep = obs.explain(lambda: ops.mxm(got, A, B, "PLUS_TIMES"))
        assert rep.records[0]["backend"] == "optimized"
        assert rep.records[0]["kernel"] == "compiled"
        ops.mxm(want, A, B, "PLUS_TIMES", backend="compiled")
        for g, w in zip(got.extract_tuples(), want.extract_tuples()):
            assert g.tobytes() == w.tobytes()

    def test_declines_are_memoised_too(self):
        p1 = self._plan("PLUS_DIV", dtype=INT64)  # no template: NumPy
        p2 = self._plan("PLUS_DIV", dtype=INT64)
        assert compiled.select(p1) is None and compiled.select(p2) is None
        st = compiled.cache_stats()
        assert st["declined"] == 1 and st["hits"] == 1 and st["misses"] == 0
        assert p1.selection[1] == p2.selection[1] == "declined"

    def test_heap_method_declines_and_mixed_types_compile(self):
        assert compiled.select(self._plan("PLUS_TIMES", method="heap")) is None
        A, _ = rand_pair(n=12)
        Bi = Matrix.from_coo([0], [0], [1], nrows=12, ncols=12, dtype=INT64)
        mixed = gplan.plan_mxm(Matrix(FP64, 12, 12), A, Bi, "PLUS_TIMES")
        kern = compiled.select(mixed)
        assert kern is not None
        assert kern.spec.key == ("PLUS", "TIMES", "FP64", "INT64", "FP64")
        # one class per operand-type pair: the uniform class is another
        assert compiled.select(self._plan("PLUS_TIMES")) is not kern

    def test_oversized_dimension_declines_outside_memo(self, monkeypatch):
        monkeypatch.setattr(compiled, "MAX_DIMENSION", 8)
        assert compiled.select(self._plan("PLUS_TIMES")) is None
        assert compiled.cache_stats()["size"] == 0

    def test_one_plan_one_outcome(self):
        p = self._plan("PLUS_TIMES")
        kern = compiled.select(p)
        assert p.selection == (kern, "built")
        assert compiled.select(p) is kern  # resolved once per plan
        assert compiled.cache_stats()["hits"] == 0
        q = self._plan("PLUS_TIMES", seed=1)
        assert compiled.select(q) is kern and q.selection[1] == "hit"

    def test_failed_build_declines_and_numpy_runs(self, monkeypatch):
        # e.g. an artifact directory that cannot be written or loaded from
        calls = []

        def broken(spec, tc):
            calls.append(spec)
            raise OSError("read-only file system")

        monkeypatch.setattr(compiled._toolchain, "build", broken)
        A, B = rand_pair(seed=3)
        u = rand_vec()
        want_c, want_y = Matrix(FP64, 40, 40), Vector(FP64, 40)
        with compiled.toolchain_off():
            ops.mxm(want_c, A, B, "PLUS_TIMES")
            ops.mxv(want_y, A, u, "PLUS_TIMES")
        got_c, got_y = Matrix(FP64, 40, 40), Vector(FP64, 40)
        with pytest.warns(RuntimeWarning, match="kernel build failed"):
            ops.mxm(got_c, A, B, "PLUS_TIMES")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the failure warns once
            ops.mxv(got_y, A, u, "PLUS_TIMES")
            ops.vxm(Vector(FP64, 40), u, A, "PLUS_TIMES")
            ops.mxm(Matrix(FP64, 40, 40), A, B, "PLUS_TIMES")
        assert len(calls) == 1  # the decline is memoised: no rebuild
        st = compiled.cache_stats()
        assert st["misses"] == 0 and st["declined"] == 1
        for got, want in ((got_c, want_c), (got_y, want_y)):
            for g, w in zip(got.extract_tuples(), want.extract_tuples()):
                assert g.tobytes() == w.tobytes()

    def test_first_use_under_threads_builds_once_per_class(self, tmp_path):
        # a fresh artifact directory makes every cc build a real compile,
        # widening the window in which the threads race
        compiled.set_config(directory=str(tmp_path))
        classes = [("PLUS_TIMES", FP64), ("MIN_PLUS", FP64),
                   ("MAX_MIN", INT64), ("PLUS_DIV", INT64)]
        barrier = threading.Barrier(4)
        got = [None] * 4
        errors = []

        def worker(t):
            try:
                plans = [self._plan(sr, dtype, seed=t) for sr, dtype in classes]
                barrier.wait()
                got[t] = [compiled.select(p) for p in plans]
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        _run_threads([threading.Thread(target=worker, args=(t,))
                      for t in range(4)])
        assert not errors, errors
        st = compiled.cache_stats()
        assert st["misses"] == 3          # one build per compiled class
        assert st["declined"] == 1        # the class with no template, once
        for k in range(3):
            first = got[0][k]
            assert first is not None
            assert all(g[k] is first for g in got)
        assert all(g[3] is None for g in got)


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
        evs = _decisions(col, "compiled.kernel")
        events = [e["event"] for e in evs]
        assert "compile" in events and "hit" in events
        first_compile = next(e for e in evs if e["event"] == "compile")
        assert first_compile["seconds"] >= 0.0
        assert first_compile["toolchain"] == compiled.toolchain_name()


@needs_tier
class TestObservability:
    def test_plan_done_carries_cache_deltas_and_cmp_column(self):
        """``plan.done`` names the tier and this plan's own cache outcome;
        EXPLAIN renders them in the ``kernel`` and ``cmp`` columns."""
        A, B = rand_pair()
        C = Matrix(FP64, A.nrows, B.ncols)
        rep = obs.explain(
            lambda: ops.mxm(C, A, B, "PLUS_TIMES", backend="compiled"))
        rec = rep.records[0]
        assert rec["backend"] == "optimized"
        assert rec["kernel"] == "compiled"
        assert rec["kernel_cache"] == "built"
        header = rep.text().splitlines()[1]
        assert "cmp" in header and "kernel" in header
        assert f"built/{compiled.toolchain_name()}" in rep.text()
        rep2 = obs.explain(
            lambda: ops.mxm(Matrix(FP64, 40, 40), A, B, "PLUS_TIMES"))
        assert rep2.records[0]["kernel_cache"] == "hit"

    def test_plan_done_attribution_under_threads(self, tmp_path):
        """Two threads, obs on: a compiled-class plan compiling while a
        NumPy-only class (a multiply with no template) runs beside it.  Each
        ``plan.done`` names its own tier; neither reports the other's
        compile."""
        compiled.set_config(directory=str(tmp_path))  # a real cc compile
        A, B = rand_pair(seed=3)
        Ai = Matrix.from_coo(*A.extract_tuples()[:2],
                             np.ones(A.nvals, dtype=np.int64),
                             nrows=40, ncols=40, dtype=INT64)
        done = threading.Event()
        barrier = threading.Barrier(2)
        records = {"compiled": [], "numpy": []}
        errors = []

        def plans(col):
            return _decisions(col, "plan.done")

        def compiled_side():
            try:
                with telemetry.collect() as col:
                    barrier.wait()
                    ops.mxm(Matrix(FP64, 40, 40), A, B, "PLUS_TIMES")
                records["compiled"] = plans(col)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                done.set()

        def numpy_side():
            try:
                with telemetry.collect() as col:
                    barrier.wait()
                    while not done.is_set():
                        ops.mxm(Matrix(INT64, 40, 40), Ai, Ai, "PLUS_DIV")
                records["numpy"] = plans(col)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        obs.reset()
        try:
            obs.enable()
            _run_threads([threading.Thread(target=compiled_side),
                          threading.Thread(target=numpy_side)])
        finally:
            obs.reset()
        assert not errors, errors
        (rec,) = records["compiled"]
        assert rec["kernel"] == "compiled" and rec["kernel_cache"] == "built"
        assert records["numpy"]
        for rec in records["numpy"]:
            assert rec["kernel"] == "numpy"
            assert "kernel_cache" not in rec
            assert not any("compile" in key for key in rec)

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
            assert 'graphblas_compiled_kernel_cache{stat="declined"}' in text
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
    """Compiled kernels vs the NumPy kernels (toolchain off)."""

    SEMIRINGS = ["PLUS_TIMES", "MIN_PLUS", "MAX_MIN"]

    @pytest.mark.parametrize("sr", SEMIRINGS)
    def test_mxm_matches_optimized(self, sr):
        A, B = rand_pair(seed=3)
        C1 = Matrix(FP64, A.nrows, B.ncols)
        C2 = Matrix(FP64, A.nrows, B.ncols)
        ops.mxm(C1, A, B, sr, backend="compiled")
        with compiled.toolchain_off():
            ops.mxm(C2, A, B, sr)
        r1, c1, v1 = C1.extract_tuples()
        r2, c2, v2 = C2.extract_tuples()
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(c1, c2)
        if sr == "PLUS_TIMES":
            # float PLUS is order-sensitive and numpy's reduceat unrolls
            # long segments 8-wide, so the strict left fold can differ
            # in the last ulp — tolerance-checked
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
        assert "dot" in [e["method"] for e in _decisions(col, "spgemm.method")]
        with compiled.toolchain_off():
            ops.mxm(C2, A, B, "PLUS_TIMES", mask=M)
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
                args = (A, u) if op is ops.mxv else (u, A)
                op(w1, *args, sr, backend="compiled")
                with compiled.toolchain_off():
                    op(w2, *args, sr)
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



class TestDifferentialVerifiesProduction:
    """The differential backend checks the tier production dispatch runs."""

    @pytest.mark.parametrize("method, tier", [("auto", "compiled"),
                                              ("heap", "numpy")])
    def test_kernel_matches_optimized(self, method, tier):
        A, B = rand_pair(seed=8, n=16)
        be = DifferentialBackend()
        kernels, outs = {}, {}
        for name in ("optimized", "differential", "compiled"):
            C = Matrix(FP64, 16, 16)
            rep = obs.explain(lambda: ops.mxm(
                C, A, B, "PLUS_TIMES", method=method,
                backend=be if name == "differential" else name))
            (rec,) = rep.records
            kernels[name] = rec["kernel"]
            outs[name] = C.extract_tuples()
        assert kernels["differential"] == kernels["optimized"]
        assert kernels["optimized"] == (tier if HAVE_TIER else "numpy")
        assert be.stats == {"verified": 1, "skipped": 0, "divergences": 0}
        # backend="compiled" is the optimized engine: bit-identical output
        for got, want in zip(outs["compiled"], outs["optimized"]):
            assert got.tobytes() == want.tobytes()


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
            ops.mxv(w1, A, u, "LOR_LAND", method="pull")
        with compiled.toolchain_off():
            ops.mxv(w2, A, u, "LOR_LAND", method="pull")
        i1, v1 = w1.extract_tuples()
        i2, v2 = w2.extract_tuples()
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(v1, v2)
        exits = _decisions(col, "mxv.early_exit")
        assert exits and exits[0]["terminated"] > 0
        # early exit: rows stopped before scanning every stored entry
        assert exits[0]["scanned"] < A.nvals

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
            ops.mxv(w1, A, u, "MAX_MIN")
        with compiled.toolchain_off():
            ops.mxv(w2, A, u, "MAX_MIN")
        i1, v1 = w1.extract_tuples()
        i2, v2 = w2.extract_tuples()
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(v1, v2)
        exits = _decisions(col, "mxv.early_exit")
        assert any(e["terminated"] > 0 for e in exits)

    def test_mxm_dot_reports_engine_decision(self):
        n = 80
        A = Matrix.from_dense(np.ones((n, n), dtype=bool))
        with telemetry.collect() as col:
            ops.mxm(Matrix(BOOL, n, n), A, A, "LOR_LAND", mask=A, desc="RS",
                    method="dot")
        assert not _decisions(col, "compiled.early_exit")
        (ev,) = _decisions(col, "mxm.early_exit")
        assert 0 < ev["terminated"] <= ev["eligible"] <= ev["dots"]


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
            with compiled.toolchain_off():
                ops.mxm(C2, A, B, sr)
            r1, c1, v1 = C1.extract_tuples()
            r2, c2, v2 = C2.extract_tuples()
            np.testing.assert_array_equal(r1, r2)
            np.testing.assert_array_equal(c1, c2)
            np.testing.assert_array_equal(v1, v2)
