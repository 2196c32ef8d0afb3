"""The hot-path performance engine: dual-format twins, parallel blocks.

The engine's contract is *bit-for-bit* equality with the serial,
single-format paths: every test here compares engine-on against
engine-off (or parallel against serial) on identical inputs and asserts
exact array equality, dtypes included — the kernel parity tests on both
kernel tiers.
"""

import importlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.generators import random_matrix, random_vector, rmat_graph
from repro.graphblas import (
    Descriptor, Matrix, Vector, backend, backends, blocking, capi, compiled,
    engine, governor, options, telemetry,
)
from repro.graphblas import operations as ops
from repro.graphblas import plan as planning
from repro.graphblas.errors import Cancelled, Info, InvalidValue
from repro.graphblas.matrix import Matrix as _Matrix
from repro.graphblas.types import lookup_type
from tests.helpers import kernel_tier

# the package exports the function ``mxm`` under the module's name
mxm_module = importlib.import_module("repro.graphblas.mxm")


@pytest.fixture(autouse=True)
def _fresh_engine():
    """Every test starts from the env-default engine state and leaves no
    configuration or executor behind."""
    engine.reset()
    yield
    engine.reset()


def _mats(n=80, density=0.08, dtype=np.float64, seeds=(11, 12)):
    A = random_matrix(n, n, density, dtype=dtype, seed=seeds[0])
    B = random_matrix(n, n, density, dtype=dtype, seed=seeds[1])
    return A, B


def _same(p, q):
    for x, y in zip(p, q):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y, equal_nan=True)


# -- configuration -----------------------------------------------------------


class TestConfig:
    def test_defaults_on(self):
        cfg = engine.get_config()
        assert cfg.enabled and cfg.parallel
        assert cfg.workers == options.defaults("engine")["workers"]
        assert engine.ENABLED and engine.DUAL_FORMAT and engine.PARALLEL

    def test_master_switch_disables_all_mechanisms(self):
        engine.set_engine(False)
        assert not engine.ENABLED
        assert not engine.DUAL_FORMAT
        assert not engine.PARALLEL
        engine.set_engine(True)
        assert engine.ENABLED and engine.DUAL_FORMAT and engine.PARALLEL

    def test_individual_toggles(self):
        engine.set_engine(parallel=False)
        assert engine.ENABLED and engine.DUAL_FORMAT and not engine.PARALLEL

    def test_env_off(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_ENGINE", "off")
        engine.reset()
        assert not engine.ENABLED and not engine.DUAL_FORMAT

    def test_env_workers(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_ENGINE_WORKERS", "7")
        engine.reset()
        assert engine.get_config().workers == 7 and engine.WORKERS == 7

    def test_workers_floor_is_one(self):
        with pytest.raises(InvalidValue):
            engine.set_engine(workers=0)
        assert engine.get_config().workers >= 1


class TestAdmitBlocks:
    def test_numpy_blocks_need_a_builtin_ufunc_semiring(self):
        from repro.graphblas.monoid import monoid
        from repro.graphblas.semiring import make_semiring, semiring
        from repro.graphblas.types import FP64, INT64

        engine.set_engine(True, workers=4)

        def admit(*numpy_semiring):
            return engine.admit_blocks("mxm", 1, 1, None, lambda _: 1,
                                       *numpy_semiring)

        assert admit(semiring("PLUS_TIMES"), FP64) == 4
        assert admit(semiring("ANY_SECONDI"), INT64) == 4  # positional
        assert admit() == 4  # compiled blocks pass no semiring
        _, times = capi.GrB_BinaryOp_new(lambda x, y: x * y)
        user = make_semiring(monoid("PLUS"), times)
        assert admit(user, FP64) == 1  # a Python callback stays serial

    def test_serial_below_threshold_or_when_switched_off(self):
        engine.set_engine(True, workers=4)
        assert engine.admit_blocks("mxm", 0, 1, None, lambda _: 1) == 1
        engine.set_engine(parallel=False)
        assert engine.admit_blocks("mxm", 1, 1, None, lambda _: 1) == 1


# -- bit-for-bit parity: engine on vs off, on both kernel tiers --------------


SEMIRING_DTYPES = [
    ("PLUS_TIMES", np.float64),
    ("PLUS_TIMES", np.float32),
    ("MIN_PLUS", np.int64),
    ("MAX_PLUS", np.float64),
    ("LOR_LAND", bool),
    ("PLUS_PAIR", np.int64),
]

ON, OFF = {"enabled": True}, {"enabled": False}
PARALLEL = {"enabled": True, "parallel": True, "workers": 4}
SERIAL = {"parallel": False}


def _same_on_each_tier(run, first, second):
    """``run()`` under engine settings ``first`` and ``second`` agrees bit
    for bit on the NumPy kernels and, when a toolchain resolves, on the
    compiled ones.  ``set_engine`` does not choose the tier, so the tiers
    loop here (keeping the test ids tier-free)."""
    for tier in ("numpy", "compiled") if compiled.available() else ("numpy",):
        with kernel_tier(tier):
            engine.set_engine(**first)
            a = run()
            engine.set_engine(**second)
            b = run()
        _same(a, b)


class TestParity:
    @pytest.mark.parametrize("sr,dtype", SEMIRING_DTYPES)
    def test_mxm_gustavson(self, sr, dtype):
        A, B = _mats(dtype=dtype)
        out_t = planning.resolve_semiring(sr).out_type(A.dtype, B.dtype)

        def run():
            C = Matrix(out_t, 80, 80)
            ops.mxm(C, A, B, sr, method="gustavson")
            return C.extract_tuples()

        _same_on_each_tier(run, ON, OFF)

    @pytest.mark.parametrize("sr,dtype", SEMIRING_DTYPES)
    def test_mxm_dot(self, sr, dtype):
        A, B = _mats(n=40, density=0.15, dtype=dtype)
        out_t = planning.resolve_semiring(sr).out_type(A.dtype, B.dtype)

        def run():
            C = Matrix(out_t, 40, 40)
            ops.mxm(C, A, B, sr, method="dot")
            return C.extract_tuples()

        _same_on_each_tier(run, ON, OFF)

    @pytest.mark.parametrize("method", ["push", "pull"])
    @pytest.mark.parametrize("sr,dtype", SEMIRING_DTYPES)
    def test_mxv_both_directions(self, sr, dtype, method):
        A, _ = _mats(dtype=dtype)
        u = random_vector(80, 0.3, dtype=dtype, seed=5)
        out_t = planning.resolve_semiring(sr).out_type(A.dtype, u.dtype)

        def run():
            w = Vector(out_t, 80)
            ops.mxv(w, A, u, sr, method=method)
            return w.extract_tuples()

        _same_on_each_tier(run, ON, OFF)

    def test_vxm_pull_transposed(self):
        A, _ = _mats()
        u = random_vector(80, 0.4, seed=9)

        def run():
            w = Vector("FP64", 80)
            ops.vxm(w, u, A, "PLUS_TIMES", method="pull")
            return w.extract_tuples()

        _same_on_each_tier(run, ON, OFF)

    def test_dot_early_exit_terminal_monoid(self):
        A, B = _mats(dtype=bool, density=0.3)

        def run():
            C = Matrix("BOOL", 80, 80)
            ops.mxm(C, A, B, "LOR_LAND", method="dot")
            return C.extract_tuples()

        _same_on_each_tier(run, ON, OFF)


class TestParallelParity:
    def test_parallel_mxm_bit_identical_to_serial(self, monkeypatch):
        A, B = _mats(n=150, density=0.15)
        monkeypatch.setattr(engine, "MIN_PARALLEL_FLOPS", 1)

        def run():
            C = Matrix("FP64", 150, 150)
            ops.mxm(C, A, B, "PLUS_TIMES", method="gustavson")
            return C.extract_tuples()

        _same_on_each_tier(run, PARALLEL, SERIAL)

    def test_parallel_pull_mxv_bit_identical(self, monkeypatch):
        A, _ = _mats(n=150, density=0.15)
        u = random_vector(150, 0.6, seed=6)
        monkeypatch.setattr(engine, "MIN_PARALLEL_ENTRIES", 1)

        def run():
            w = Vector("FP64", 150)
            ops.mxv(w, A, u, "PLUS_TIMES", method="pull")
            return w.extract_tuples()

        _same_on_each_tier(run, PARALLEL, SERIAL)

    @pytest.mark.parametrize("sr,dtype", [
        ("PLUS_FIRSTI", np.float64),  # positional multiplies
        ("MIN_SECONDI", np.float64),
        ("LXOR_LAND", bool),          # builtin ops with no NumPy ufunc
    ])
    def test_numpy_blocks_bit_identical_for_builtin_classes(
            self, sr, dtype, monkeypatch):
        A, B = _mats(n=150, density=0.15, dtype=dtype)
        u = random_vector(150, 0.6, dtype=dtype, seed=6)
        out_t = planning.resolve_semiring(sr).out_type(A.dtype, B.dtype)
        monkeypatch.setattr(engine, "MIN_PARALLEL_FLOPS", 1)
        monkeypatch.setattr(engine, "MIN_PARALLEL_ENTRIES", 1)

        def run():
            C = Matrix(out_t, 150, 150)
            ops.mxm(C, A, B, sr, method="gustavson")
            w = Vector(out_t, 150)
            ops.mxv(w, A, u, sr, method="pull")
            return (*C.extract_tuples(), *w.extract_tuples())

        blocks = []
        real = engine.run_blocks
        monkeypatch.setattr(engine, "run_blocks", lambda fn, tasks, workers: (
            blocks.append(len(tasks)) or real(fn, tasks, workers)))
        with kernel_tier("numpy"):
            engine.set_engine(**PARALLEL)
            run()
        assert len(blocks) == 2 and min(blocks) > 1  # mxm and mxv fanned out
        _same_on_each_tier(run, PARALLEL, SERIAL)

    def test_parallel_blocks_recorded_in_telemetry(self, monkeypatch):
        from repro.graphblas.backends import current_backend_name

        if current_backend_name() != "optimized":
            pytest.skip("row-blocked SpGEMM is an optimized-backend path")
        A, B = _mats(n=150, density=0.15)
        monkeypatch.setattr(engine, "MIN_PARALLEL_FLOPS", 1)
        engine.set_engine(True, workers=4)
        with telemetry.collect() as col:
            ops.mxm(Matrix("FP64", 150, 150), A, B, "PLUS_TIMES",
                    method="gustavson")
        spans = [
            e for e in col.snapshot(include_events=True)["events"]
            if e["type"] == "span" and e["name"] == "engine.block"
        ]
        assert len(spans) >= 2
        assert all(s["args"]["op"] == "mxm" for s in spans)


# -- dual-format twins -------------------------------------------------------


class TestDualFormat:
    def test_twin_cached_and_reused(self):
        A, _ = _mats()
        A.wait()
        first = A.by_col()
        assert A._alt is first
        assert A.by_col() is first  # O(1) second time

    def test_mutation_invalidates_twin(self):
        A, _ = _mats()
        A.by_col()
        A.set_element(0, 0, 3.25)
        A.wait()
        fresh = A.by_col()
        assert fresh.nvals == A.nvals
        i, j, v = A.extract_tuples()
        tw_major, tw_minor, tw_vals = fresh.to_coo()
        order = np.lexsort((i, j))
        assert np.array_equal(tw_major, j[order])
        assert np.array_equal(tw_minor, i[order])
        assert np.array_equal(tw_vals, v[order])

    def test_engine_off_does_not_cache(self):
        engine.set_engine(False)
        A, _ = _mats()
        A.wait()
        A.by_col()
        assert A._alt is None

    def test_twin_emits_telemetry_decision(self):
        A, _ = _mats()
        with telemetry.collect() as col:
            A.by_col()
        evs = [
            e for e in col.snapshot(include_events=True)["events"]
            if e["name"] == "engine.twin"
        ]
        assert len(evs) == 1 and evs[0]["args"]["orientation"] == "col"


class TestTransposeFastPath:
    def test_transpose_matches_generic(self):
        A, _ = _mats()

        def run():
            C = Matrix("FP64", 80, 80)
            ops.transpose(C, A)
            return C.extract_tuples()

        engine.set_engine(True)
        on = run()
        engine.set_engine(False)
        off = run()
        _same(on, off)

    def test_transpose_output_has_warm_twin(self):
        from repro.graphblas.backends import current_backend_name

        if current_backend_name() != "optimized":
            pytest.skip("twin handoff is an optimized-backend fast path")
        A, _ = _mats()
        C = Matrix("FP64", 80, 80)
        ops.transpose(C, A)
        assert C._alt is not None and C._alt_epoch == C._epoch
        # both orientations now free — and consistent with each other
        rows_view = C.by_row()
        cols_view = C.by_col()
        assert rows_view.nvals == cols_view.nvals == A.nvals

    def test_mutate_then_retranspose(self):
        A, _ = _mats()
        C = Matrix("FP64", 80, 80)
        ops.transpose(C, A)
        C.set_element(1, 2, 42.0)
        C.wait()
        assert C[1, 2] == 42.0
        D = Matrix("FP64", 80, 80)
        ops.transpose(D, C)
        assert D[2, 1] == 42.0

    def test_masked_transpose_takes_generic_path(self):
        A, _ = _mats()
        M = random_matrix(80, 80, 0.2, dtype=bool, seed=3)

        def run():
            C = Matrix("FP64", 80, 80)
            ops.transpose(C, A, mask=M)
            return C.extract_tuples()

        engine.set_engine(True)
        on = run()
        engine.set_engine(False)
        off = run()
        _same(on, off)


# -- wait() sortedness fast path ---------------------------------------------


class TestWaitFastPath:
    def _assembly_events(self, col):
        return [
            e for e in col.snapshot(include_events=True)["events"]
            if e["name"] == "assembly"
        ]

    def test_matrix_sorted_log_takes_fast_path(self):
        A = Matrix("FP64", 50, 50)
        with telemetry.collect() as col:
            for k in range(10):
                A.set_element(k, k, float(k))
            A.wait()
        (ev,) = self._assembly_events(col)
        assert ev["args"]["fast_path"] is True
        assert A.nvals == 10 and A[4, 4] == 4.0

    def test_matrix_unsorted_log_takes_slow_path(self):
        A = Matrix("FP64", 50, 50)
        with telemetry.collect() as col:
            A.set_element(5, 5, 1.0)
            A.set_element(2, 2, 2.0)
            A.wait()
        (ev,) = self._assembly_events(col)
        assert ev["args"]["fast_path"] is False
        assert A[2, 2] == 2.0 and A[5, 5] == 1.0

    def test_matrix_zombies_take_slow_path(self):
        A = Matrix("FP64", 50, 50)
        A.set_element(1, 1, 1.0)
        A.wait()
        with telemetry.collect() as col:
            A.remove_element(1, 1)
            A.wait()
        (ev,) = self._assembly_events(col)
        assert ev["args"]["fast_path"] is False
        assert A.nvals == 0

    def test_vector_sorted_log_takes_fast_path(self):
        v = Vector("FP64", 50)
        with telemetry.collect() as col:
            for k in range(8):
                v.set_element(k * 3, float(k))
            v.wait()
        (ev,) = self._assembly_events(col)
        assert ev["args"]["fast_path"] is True
        assert v.nvals == 8 and v[6] == 2.0

    def test_vector_duplicate_index_takes_slow_path(self):
        v = Vector("FP64", 50)
        with telemetry.collect() as col:
            v.set_element(4, 1.0)
            v.set_element(4, 9.0)  # last-wins requires the dedup sort
            v.wait()
        (ev,) = self._assembly_events(col)
        assert ev["args"]["fast_path"] is False
        assert v[4] == 9.0

    def test_fast_and_slow_paths_agree(self):
        a = Matrix("FP64", 30, 30)
        b = Matrix("FP64", 30, 30)
        coords = [(i, (7 * i) % 30) for i in range(20)]
        for i, j in sorted(coords):
            a.set_element(i, j, float(i + j))  # sorted → fast path
        for i, j in reversed(sorted(coords)):
            b.set_element(i, j, float(i + j))  # reversed → slow path
        a.wait()
        b.wait()
        _same(a.extract_tuples(), b.extract_tuples())


# -- resolver memoization ----------------------------------------------------


class TestResolverMemo:
    def test_string_specs_cached(self):
        planning.reset_resolver_cache()
        s1 = planning.resolve_semiring("PLUS_TIMES")
        s2 = planning.resolve_semiring("plus_times")
        assert s1 is s2
        st = planning.resolver_cache_stats()
        assert st["misses"] == 1 and st["hits"] == 1

    def test_object_specs_bypass_cache(self):
        planning.reset_resolver_cache()
        sr = planning.resolve_semiring("MIN_PLUS")
        before = planning.resolver_cache_stats()
        assert planning.resolve_semiring(sr) is sr
        after = planning.resolver_cache_stats()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]

    def test_planning_hits_cache_and_tallies(self):
        A, B = _mats(n=20, density=0.2)
        planning.reset_resolver_cache()
        ops.mxm(Matrix("FP64", 20, 20), A, B, "PLUS_TIMES")
        with telemetry.collect() as col:
            ops.mxm(Matrix("FP64", 20, 20), A, B, "PLUS_TIMES")
        assert planning.resolver_cache_stats()["hits"] >= 1
        snap = col.snapshot()["ops"]
        assert snap.get("plan.resolve_cache", {}).get("calls", 0) >= 1

    def test_distinct_kinds_do_not_collide(self):
        planning.reset_resolver_cache()
        mon = planning.resolve_monoid("PLUS")
        acc = planning.resolve_binary("PLUS")
        assert mon is not acc


# -- C-API surface -----------------------------------------------------------


class TestCapi:
    def test_engine_set_invalid_kwarg(self):
        assert capi.GxB_Engine_set(True, bogus=1) == Info.INVALID_VALUE

    def test_descriptor_nthreads_set(self):
        info, d = capi.GrB_Descriptor_new()
        assert info == Info.SUCCESS
        info, d = capi.GrB_Descriptor_set(d, capi.GxB_NTHREADS, 8)
        assert info == Info.SUCCESS and d.nthreads == 8
        info, d = capi.GrB_Descriptor_set(d, "NTHREADS", 0)
        assert info == Info.SUCCESS and d.nthreads is None
        info, _ = capi.GrB_Descriptor_set(d, "NTHREADS", "many")
        assert info == Info.INVALID_VALUE

    def test_descriptor_and_merges_nthreads(self):
        a = Descriptor(nthreads=3)
        b = Descriptor(transpose_a=True)
        assert (a & b).nthreads == 3
        assert (b & a).nthreads == 3
        assert (b & b).nthreads is None

    def test_mxm_with_nthreads_descriptor(self, monkeypatch):
        monkeypatch.setattr(engine, "MIN_PARALLEL_FLOPS", 1)
        A, B = _mats(n=60, density=0.2)
        C1 = Matrix("FP64", 60, 60)
        ops.mxm(C1, A, B, "PLUS_TIMES", desc=Descriptor(nthreads=3),
                method="gustavson")
        C2 = Matrix("FP64", 60, 60)
        engine.set_engine(parallel=False)
        ops.mxm(C2, A, B, "PLUS_TIMES", method="gustavson")
        _same(C1.extract_tuples(), C2.extract_tuples())


# -- process-global switches under threads -----------------------------------


class TestSwitchesUnderThreads:
    def test_flipping_switches_never_changes_a_result(self, monkeypatch):
        """ROADMAP aim 3: ``engine.set_engine`` and ``set_spill_config``
        are process-global and the serve layer flips them under a worker
        pool.  Every kernel must read each switch once and stay coherent:
        whatever the main thread does, each op equals its serial answer
        bit for bit and the differential backend never diverges."""
        monkeypatch.setattr(engine, "MIN_PARALLEL_FLOPS", 1)
        monkeypatch.setattr(engine, "MIN_PARALLEL_ENTRIES", 1)
        n = 1 << 9
        A = rmat_graph(9, 8, weighted=True, seed=20190520).A
        A.wait()
        rows = np.arange(16)
        L = Matrix(A.dtype, 16, n)     # 16 x n and n x 16 slabs keep the
        R = Matrix(A.dtype, n, 16)     # dense mxm replay cheap
        ops.extract(L, A, rows, ops.ALL)
        ops.extract(R, A, ops.ALL, rows)
        dense = random_vector(n, 0.9, seed=3)    # pull-side frontier
        sparse = random_vector(n, 0.01, seed=4)  # push-side frontier

        def mxm():
            C = Matrix(A.dtype, 16, 16)
            ops.mxm(C, L, R, "PLUS_TIMES", method="gustavson")
            return C.extract_tuples()

        def pull():
            w = Vector(A.dtype, n)
            ops.mxv(w, A, dense, "PLUS_TIMES", method="pull")
            return w.extract_tuples()

        def push():
            w = Vector(A.dtype, n)
            ops.mxv(w, A, sparse, "PLUS_TIMES", method="push")
            return w.extract_tuples()

        kernels = (mxm, pull, push)
        engine.set_engine(True, parallel=False)
        with backend("optimized"):  # the engine differential checks
            serial = [k() for k in kernels]
        engine.set_engine(True, parallel=True, workers=4)

        backends._instances.pop("differential", None)  # first use races too
        stop = threading.Event()
        errors: list = []
        rounds = [0] * 4
        instances = set()

        def worker(slot):
            try:
                with backend("differential") as be:
                    instances.add(be)
                    while not stop.is_set():
                        for k, want in zip(kernels, serial):
                            _same(k(), want)
                        enabled, _, budget = governor.spill_config()
                        assert isinstance(enabled, bool) and budget >= 0
                        rounds[slot] += 1
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                stop.set()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            for flip in range(200):
                engine.set_engine(flip % 2 == 1)
                engine.set_engine(parallel=flip % 3 != 0)
                governor.set_spill_config(enabled=flip % 2 == 0)
                time.sleep(0.008)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
            governor.reset_spill_config()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(r >= 1 for r in rounds), rounds
        (be,) = instances  # one shared instance, so one stats dict
        assert be.stats["divergences"] == 0 and be.stats["skipped"] == 0
        assert be.stats["verified"] > 0


def _observe():
    """What one thread's ops see: the serving backend, kernel tier and
    admission of an ``mxm``, whether a ``set_element`` was deferred, and
    whether ``collect()`` nested in someone else's collector."""
    A = random_matrix(24, 24, 0.2, seed=5)
    M = Matrix(A.dtype, 4, 4)
    M.set_element(0, 0, 1.0)
    with telemetry.collect() as col:
        ops.mxm(Matrix(A.dtype, 24, 24), A, A, "PLUS_TIMES")
    (rec,) = [e["args"] for e in col.events
              if e["type"] == "op" and e["name"] == "mxm"]
    return {"backend": rec["backend"], "kernel": rec.get("kernel"),
            "admission": rec["admission"], "pending": M.has_pending,
            "nested": col.parent is not None}


def _in_thread(fn):
    got = []
    t = threading.Thread(target=lambda: got.append(fn()))
    t.start()
    t.join(timeout=60)
    assert got, "the probe thread failed"
    return got[0]


_SCOPES = {
    "kernel": compiled.toolchain_off,
    "backend": lambda: backend("reference"),
    "pending": blocking,
    "nested": telemetry.collect,
    "admission": lambda: governor.ExecutionContext(deadline=60.0),
}


class TestScopesUnderThreads:
    """Per-call settings are context variables: a ``with`` block held in
    one thread changes nothing another thread sees, and a new thread
    starts from the defaults."""

    @pytest.mark.parametrize("field", sorted(_SCOPES))
    def test_a_held_scope_stays_in_its_thread(self, field):
        defaults = _in_thread(_observe)
        held, release, inside = threading.Event(), threading.Event(), []

        def holder():
            with _SCOPES[field]():
                inside.append(_observe())
                held.set()
                release.wait(timeout=60)

        t = threading.Thread(target=holder)
        t.start()
        try:
            assert held.wait(timeout=60)
            seen = _in_thread(_observe)
        finally:
            release.set()
            t.join(timeout=60)
        assert not t.is_alive()
        if inside[0][field] == defaults[field]:
            pytest.skip(f"the default {field} already is the scoped one")
        assert seen == defaults

    def test_a_new_thread_starts_from_the_defaults(self):
        defaults = _in_thread(_observe)
        with compiled.toolchain_off(), backend("reference"), blocking(), \
                telemetry.collect(), governor.ExecutionContext(deadline=60.0):
            assert _observe() != defaults
            assert _in_thread(_observe) == defaults

    @pytest.mark.parametrize("nthreads", [1, 2])
    def test_cancel_stops_numpy_gustavson_between_chunks(
            self, monkeypatch, nthreads):
        monkeypatch.setattr(mxm_module, "GUSTAVSON_CHUNK_FLOPS", 64)
        monkeypatch.setattr(engine, "MIN_PARALLEL_FLOPS", 1)
        A = random_matrix(120, 120, 0.08, seed=9)
        chunks, fold = [], mxm_module.coo_sort_fold

        def counted(*args):
            chunks.append(1)
            if len(chunks) == 1 and governor.current() is not None:
                governor.current().cancel("after the first chunk")
            return fold(*args)

        monkeypatch.setattr(mxm_module, "coo_sort_fold", counted)
        desc = Descriptor(nthreads=nthreads)
        with compiled.toolchain_off(), backend("optimized"):
            ops.mxm(Matrix(A.dtype, 120, 120), A, A, "PLUS_TIMES",
                    method="gustavson", desc=desc)
            total = len(chunks)
            chunks.clear()
            with pytest.raises(Cancelled, match="after the first chunk"):
                with governor.ExecutionContext():
                    ops.mxm(Matrix(A.dtype, 120, 120), A, A, "PLUS_TIMES",
                            method="gustavson", desc=desc)
        assert total >= 8 and 1 <= len(chunks) < total


def test_lookup_type_roundtrip_for_engine_dtypes():
    # the parity matrix above leans on these dtype names resolving
    for np_dtype in (np.float64, np.float32, np.int64, bool):
        assert lookup_type(np_dtype) is lookup_type(np.dtype(np_dtype))


def test_engine_matrix_class_is_package_matrix():
    assert _Matrix is Matrix
