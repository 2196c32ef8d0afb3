"""Fault-hardened spill I/O: seeded retry, clean failure, no orphans.

The transactional guarantee extends to disk: an injected write/read
failure during tiled spill execution is retried with seeded backoff;
when retry is exhausted the operation fails with the typed error,
operands stay bit-identical, the output is untouched, and no tile or
temp file is left behind.
"""

import os

import numpy as np
import pytest

from repro.graphblas import (
    Matrix,
    OutOfMemory,
    Vector,
    faults,
    governor,
    telemetry,
    tiled,
)
from repro.graphblas import operations as ops
from tests.helpers import random_matrix_np
from tests.resilience._state import assert_same_state, deep_state


@pytest.fixture
def AB():
    rng = np.random.default_rng(17)
    A, _, _ = random_matrix_np(rng, 40, 40, 0.25)
    B, _, _ = random_matrix_np(rng, 40, 40, 0.25)
    return A, B


def _policy():
    return governor.RetryPolicy(attempts=3, base_delay=0.0, jitter=0.0)


class TestTransientFaults:
    def test_write_fault_retried_parity_preserved(self, AB, tmp_path):
        A, B = AB
        expected = Matrix("FP64", 40, 40)
        ops.mxm(expected, A, B, "PLUS_TIMES")
        C = Matrix("FP64", 40, 40)
        with telemetry.collect() as col:
            with governor.ExecutionContext(
                memory_budget=1, retry=_policy(),
                spill_dir=tmp_path, spill_budget=0,
            ) as ctx:
                with faults.inject("io.write", OutOfMemory, nth=1):
                    ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["retries"] >= 1
        assert C.isequal(expected)
        ev, cv = expected.extract_tuples()[2], C.extract_tuples()[2]
        assert ev.tobytes() == cv.tobytes()
        gov = col.snapshot()["governor"]
        assert gov["retry"] >= 1  # the backoff decision was recorded
        assert not any(tmp_path.iterdir())

    def test_read_fault_retried_parity_preserved(self, AB, tmp_path):
        A, B = AB
        expected = Matrix("FP64", 40, 40)
        ops.mxm(expected, A, B, "PLUS_TIMES")
        C = Matrix("FP64", 40, 40)
        with governor.ExecutionContext(
            memory_budget=1, retry=_policy(),
            spill_dir=tmp_path, spill_budget=0,
        ) as ctx:
            with faults.inject("io.read", OutOfMemory, nth=1):
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["retries"] >= 1
        assert C.isequal(expected)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("point", ["io.write", "io.read"])
    def test_context_policy_does_not_cost_the_pool_its_oserror_retry(
            self, point, AB, tmp_path):
        # the context's policy names the *kernel's* transient classes
        # (OutOfMemory); tile I/O failures stay the pool's to retry
        A, B = AB
        expected = Matrix("FP64", 40, 40)
        ops.mxm(expected, A, B, "PLUS_TIMES")
        C = Matrix("FP64", 40, 40)
        snaps = [deep_state(o) for o in (A, B)]
        with governor.ExecutionContext(
            memory_budget=1, retry=_policy(),
            spill_dir=tmp_path, spill_budget=0,
        ) as ctx:
            with faults.inject(point, OSError, nth=1):
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["retries"] == 1
        assert C.isequal(expected)
        ev, cv = expected.extract_tuples()[2], C.extract_tuples()[2]
        assert ev.tobytes() == cv.tobytes()
        for obj, snap in zip((A, B), snaps):
            assert_same_state(obj, snap)
        assert not any(tmp_path.iterdir())

    def test_default_pool_policy_retries_oserror(self, tmp_path):
        # without a context retry policy the pool's own seeded default
        # applies, and OSError (real disk trouble) counts as transient
        rng = np.random.default_rng(2)
        A, _, _ = random_matrix_np(rng, 24, 24, 0.3)
        with governor.ExecutionContext(
            memory_budget=1, spill_dir=tmp_path, spill_budget=0
        ) as ctx:
            with faults.inject("io.write", OSError, nth=1):
                C = Matrix("FP64", 24, 24)
                ops.mxm(C, A, A, "PLUS_TIMES")
        assert ctx.stats["retries"] >= 1
        assert C.nvals > 0


class TestExhaustedRetry:
    def test_write_faults_exhaust_operands_intact_no_orphans(self, AB, tmp_path):
        A, B = AB
        C = Matrix("FP64", 40, 40)
        snaps = [deep_state(o) for o in (C, A, B)]
        with governor.ExecutionContext(
            memory_budget=1, retry=_policy(),
            spill_dir=tmp_path, spill_budget=0,
        ):
            with faults.inject(
                "io.write", OutOfMemory, probability=1.0, seed=3,
                max_fires=None,
            ):
                with pytest.raises(OutOfMemory):
                    ops.mxm(C, A, B, "PLUS_TIMES")
        for obj, snap in zip((C, A, B), snaps):
            assert_same_state(obj, snap)
        assert C.nvals == 0
        # no orphaned tiles, no torn temp files
        assert not any(tmp_path.iterdir())

    def test_read_faults_exhaust_operands_intact_no_orphans(self, AB, tmp_path):
        A, B = AB
        C = Matrix("FP64", 40, 40)
        snaps = [deep_state(o) for o in (C, A, B)]
        with governor.ExecutionContext(
            memory_budget=1, retry=_policy(),
            spill_dir=tmp_path, spill_budget=0,
        ):
            with faults.inject(
                "io.read", OutOfMemory, probability=1.0, seed=4,
                max_fires=None,
            ):
                with pytest.raises(OutOfMemory):
                    ops.mxm(C, A, B, "PLUS_TIMES")
        for obj, snap in zip((C, A, B), snaps):
            assert_same_state(obj, snap)
        assert C.nvals == 0
        assert not any(tmp_path.iterdir())

    def test_failed_spill_keeps_tile_usable(self, tmp_path):
        # a spill that fails even after retry must not lose the tile: it
        # stays resident and the pool remains consistent
        from tests.resilience.test_tiled_spill import _store

        pool = tiled.SpillPool(
            budget=0, directory=tmp_path,
            retry=governor.RetryPolicy(attempts=2, base_delay=0.0, jitter=0.0),
        )
        try:
            s = _store(seed=9)
            with faults.inject(
                "io.write", OutOfMemory, probability=1.0, seed=5,
                max_fires=None,
            ):
                with pytest.raises(OutOfMemory):
                    pool.put("a", s)
            back = pool.get("a")  # still resident despite the failed spill
            assert back.values.tobytes() == s.values.tobytes()
            assert pool.stats["spills"] == 0
        finally:
            pool.close()
        assert not any(tmp_path.iterdir())


class TestKernelFaults:
    """A tiled chunk is one in-memory kernel call, so the kernels' own
    fault points fire on the tiled route: a transient fault is replayed
    by the context's retry policy, a persistent one fails cleanly."""

    KERNEL_POINTS = [("mxm", "spgemm.flop"), ("mxv", "mxv.pull")]

    @staticmethod
    def _output(op):
        return Matrix("FP64", 40, 40) if op == "mxm" else Vector("FP64", 40)

    @staticmethod
    def _run(op, out, A, B):
        if op == "mxm":
            ops.mxm(out, A, B, "PLUS_TIMES")
        else:
            ops.mxv(out, A, Vector.from_dense(np.linspace(-1.0, 1.0, 40)),
                    "PLUS_TIMES")

    @pytest.mark.parametrize("op,point", KERNEL_POINTS)
    def test_transient_kernel_fault_replayed_bit_identical(self, op, point,
                                                           AB, tmp_path):
        A, B = AB
        expected = self._output(op)
        self._run(op, expected, A, B)
        got = self._output(op)
        with governor.ExecutionContext(
            memory_budget=1, retry=_policy(),
            spill_dir=tmp_path, spill_budget=0,
        ) as ctx:
            with faults.inject(point, OutOfMemory, nth=1) as plan:
                self._run(op, got, A, B)
        assert plan.fires == 1
        assert ctx.stats["tiled"] == 1 and ctx.stats["retries"] == 1
        for g, w in zip(got.extract_tuples(), expected.extract_tuples()):
            assert g.tobytes() == w.tobytes()
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("op,point", KERNEL_POINTS)
    def test_persistent_kernel_fault_operands_intact_no_orphans(
            self, op, point, AB, tmp_path):
        A, B = AB
        out = self._output(op)
        snaps = [deep_state(o) for o in (out, A, B)]
        with governor.ExecutionContext(
            memory_budget=1, retry=_policy(),
            spill_dir=tmp_path, spill_budget=0,
        ) as ctx:
            with faults.inject(point, OutOfMemory, probability=1.0, seed=6,
                               max_fires=None):
                with pytest.raises(OutOfMemory):
                    self._run(op, out, A, B)
        assert ctx.stats["tiled"] >= 1
        for obj, snap in zip((out, A, B), snaps):
            assert_same_state(obj, snap)
        assert out.nvals == 0
        assert not any(tmp_path.iterdir())


class TestTornTileFiles:
    """A tile file that disagrees with its own header is an I/O error for
    the retry policy — never a garbage tile, never a leaked file."""

    @staticmethod
    def _truncate(path):
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 8)

    @staticmethod
    def _truncate_into_header(path):
        with open(path, "r+b") as f:
            f.truncate(tiled._HEADER_BYTES - 8)

    @staticmethod
    def _corrupt_length(path):
        with open(path, "r+b") as f:
            f.seek(8 * tiled._HEADER_FIELDS.index("nvals"))
            f.write(np.int64(1 << 40).tobytes())

    @staticmethod
    def _corrupt_magic(path):
        with open(path, "r+b") as f:
            f.write(b"\0" * 8)

    @staticmethod
    def _corrupt_dtype(path):
        with open(path, "r+b") as f:
            f.seek(8 * tiled._HEADER_FIELDS.index("value_dtype"))
            f.write(b"\xff" * 8)

    @pytest.mark.parametrize("damage", [
        "_truncate", "_truncate_into_header", "_corrupt_length",
        "_corrupt_magic", "_corrupt_dtype",
    ])
    def test_damaged_tile_fails_after_retry_schedule(self, damage, tmp_path):
        from tests.resilience.test_tiled_spill import _decisions, _store

        attempts = 3
        pool = tiled.SpillPool(
            budget=0, directory=tmp_path,
            retry=governor.RetryPolicy(
                attempts=attempts, base_delay=0.0, jitter=0.0,
                transient=(OSError, OutOfMemory),
            ),
        )
        try:
            good, bad = _store(seed=1), _store(seed=2)
            pool.put("good", good)
            pool.put("bad", bad)   # budget 0: both on disk now
            getattr(self, damage)(os.path.join(pool.dir, "bad.tile"))
            with telemetry.collect() as col:
                with pytest.raises(OSError, match="torn|corrupt"):
                    pool.get("bad")
            # the whole schedule ran
            assert len(_decisions(col, "governor.retry")) == attempts - 1
            assert pool.stats["reloads"] == 0     # nothing was accepted
            # the pool is still consistent: its other tile reads back
            back = pool.get("good")
            assert back.values.tobytes() == good.values.tobytes()
            assert np.array_equal(back.minor, good.minor)
        finally:
            pool.close()
        assert not any(tmp_path.iterdir())

    def test_torn_tile_mid_mxm_operands_intact_no_orphans(self, AB, tmp_path,
                                                          monkeypatch):
        # every reload sees a file two words short, as after a torn write
        A, B = AB
        C = Matrix("FP64", 40, 40)
        snaps = [deep_state(o) for o in (C, A, B)]
        real_read = tiled._read_tile

        def torn_read(path):
            self._truncate(path)
            return real_read(path)

        monkeypatch.setattr(tiled, "_read_tile", torn_read)
        with governor.ExecutionContext(
            memory_budget=1, spill_dir=tmp_path, spill_budget=0,
        ) as ctx:
            with pytest.raises(OSError, match="torn"):
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["retries"] >= 1  # the pool's default policy ran
        for obj, snap in zip((C, A, B), snaps):
            assert_same_state(obj, snap)
        assert C.nvals == 0
        assert not any(tmp_path.iterdir())


class TestSeededBackoff:
    def test_spill_retry_schedule_is_reproducible(self, tmp_path):
        # same seed -> same backoff delays on the spill path
        p1 = governor.RetryPolicy(
            attempts=4, base_delay=0.01, max_delay=0.05, jitter=0.5, seed=21
        )
        p2 = governor.RetryPolicy(
            attempts=4, base_delay=0.01, max_delay=0.05, jitter=0.5, seed=21
        )
        assert [p1.delay(k) for k in (1, 2, 3)] == [
            p2.delay(k) for k in (1, 2, 3)
        ]
