"""Fault-hardened spill I/O: one retry loop, clean failure, no orphans.

The transactional guarantee extends to disk: an ``OSError`` on a tile
write/read during tiled spill execution is re-run by the spill pool
(``tiled._IO_ATTEMPTS`` tries, a fixed doubling delay); when those are
spent, or the failure is anything else, the operation fails with the
error, operands stay bit-identical, the output is untouched, and nothing
is left in the spill directory.  A kernel fault on the tiled route fails
the op once.
"""

import os

import numpy as np
import pytest

from repro.graphblas import (
    Cancelled,
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


@pytest.fixture
def sleeps(monkeypatch):
    """The retry loop's sleeps, recorded instead of slept."""
    got = []
    monkeypatch.setattr(tiled.time, "sleep", got.append)
    return got


class TestTransientFaults:
    def test_write_fault_retried_parity_preserved(self, AB, tmp_path):
        A, B = AB
        expected = Matrix("FP64", 40, 40)
        ops.mxm(expected, A, B, "PLUS_TIMES")
        C = Matrix("FP64", 40, 40)
        with telemetry.collect() as col:
            with governor.ExecutionContext(
                memory_budget=1, spill_dir=tmp_path, spill_budget=0,
            ) as ctx:
                with faults.inject("io.write", OSError, nth=1):
                    ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["retries"] == 1
        ev, cv = expected.extract_tuples()[2], C.extract_tuples()[2]
        assert C.isequal(expected) and ev.tobytes() == cv.tobytes()
        gov = col.snapshot()["governor"]
        assert gov["retry"] == 1  # the backoff decision was recorded
        assert not any(tmp_path.iterdir())

    def test_read_fault_retried_parity_preserved(self, AB, tmp_path):
        A, B = AB
        expected = Matrix("FP64", 40, 40)
        ops.mxm(expected, A, B, "PLUS_TIMES")
        C = Matrix("FP64", 40, 40)
        snaps = [deep_state(o) for o in (A, B)]
        with governor.ExecutionContext(
            memory_budget=1, spill_dir=tmp_path, spill_budget=0,
        ) as ctx:
            with faults.inject("io.read", OSError, nth=1):
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["retries"] == 1
        ev, cv = expected.extract_tuples()[2], C.extract_tuples()[2]
        assert C.isequal(expected) and ev.tobytes() == cv.tobytes()
        for obj, snap in zip((A, B), snaps):
            assert_same_state(obj, snap)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("point", ["io.write", "io.read"])
    def test_memory_error_on_tile_io_is_not_retried(self, point, AB,
                                                    tmp_path):
        # only OSError is the pool's to re-run: anything else fails the op
        A, B = AB
        C = Matrix("FP64", 40, 40)
        snaps = [deep_state(o) for o in (C, A, B)]
        with governor.ExecutionContext(
            memory_budget=1, spill_dir=tmp_path, spill_budget=0,
        ) as ctx:
            with faults.inject(point, OutOfMemory, probability=1.0, seed=2,
                               max_fires=None) as plan:
                with pytest.raises(OutOfMemory):
                    ops.mxm(C, A, B, "PLUS_TIMES")
        assert plan.fires == 1 and ctx.stats["retries"] == 0
        for obj, snap in zip((C, A, B), snaps):
            assert_same_state(obj, snap)
        assert not any(tmp_path.iterdir())

    def test_default_pool_policy_retries_oserror(self, tmp_path):
        # the pool re-runs OSError (real disk trouble) with no option set,
        # governed or not
        rng = np.random.default_rng(2)
        A, _, _ = random_matrix_np(rng, 24, 24, 0.3)
        with governor.ExecutionContext(
            memory_budget=1, spill_dir=tmp_path, spill_budget=0
        ) as ctx:
            with faults.inject("io.write", OSError, nth=1):
                C = Matrix("FP64", 24, 24)
                ops.mxm(C, A, A, "PLUS_TIMES")
        assert ctx.stats["retries"] == 1
        assert C.nvals > 0


class TestExhaustedRetry:
    def _exhaust(self, point, seed, AB, tmp_path):
        A, B = AB
        C = Matrix("FP64", 40, 40)
        snaps = [deep_state(o) for o in (C, A, B)]
        with governor.ExecutionContext(
            memory_budget=1, spill_dir=tmp_path, spill_budget=0,
        ) as ctx:
            with faults.inject(point, OSError, probability=1.0, seed=seed,
                               max_fires=None) as plan:
                with pytest.raises(OSError):
                    ops.mxm(C, A, B, "PLUS_TIMES")
        # every try of the failing tile I/O ran, then the op failed
        assert plan.fires == tiled._IO_ATTEMPTS
        assert ctx.stats["retries"] == tiled._IO_ATTEMPTS - 1
        for obj, snap in zip((C, A, B), snaps):
            assert_same_state(obj, snap)
        assert C.nvals == 0
        # no orphaned tiles, no torn temp files
        assert not any(tmp_path.iterdir())

    def test_write_faults_exhaust_operands_intact_no_orphans(
            self, AB, tmp_path, sleeps):
        self._exhaust("io.write", 3, AB, tmp_path)

    def test_read_faults_exhaust_operands_intact_no_orphans(
            self, AB, tmp_path, sleeps):
        self._exhaust("io.read", 4, AB, tmp_path)

    def test_failed_spill_keeps_tile_usable(self, tmp_path, sleeps):
        # a spill that fails even after retry must not lose the tile: it
        # stays resident and the pool remains consistent
        from tests.resilience.test_tiled_spill import _store

        pool = tiled.SpillPool(budget=0, directory=tmp_path)
        try:
            s = _store(seed=9)
            with faults.inject("io.write", OSError, probability=1.0, seed=5,
                               max_fires=None):
                with pytest.raises(OSError):
                    pool.put("a", s)
            back = pool.get("a")  # still resident despite the failed spill
            assert back.values.tobytes() == s.values.tobytes()
            assert pool.stats["spills"] == 0
        finally:
            pool.close()
        assert not any(tmp_path.iterdir())


class TestKernelFaults:
    """A tiled chunk is one in-memory kernel call, so the kernels' own
    fault points fire on the tiled route, and fail the op once: nothing
    replays the chunk."""

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
    def test_kernel_fault_fails_once_next_call_bit_identical(
            self, op, point, AB, tmp_path):
        A, B = AB
        expected = self._output(op)
        self._run(op, expected, A, B)
        got = self._output(op)
        with governor.ExecutionContext(
            memory_budget=1, spill_dir=tmp_path, spill_budget=0,
        ) as ctx:
            with faults.inject(point, OutOfMemory, nth=1) as plan:
                with pytest.raises(OutOfMemory):
                    self._run(op, got, A, B)
            assert plan.fires == 1 and got.nvals == 0
            self._run(op, got, A, B)  # the next call, outside the fault
        assert ctx.stats["tiled"] == 2 and ctx.stats["retries"] == 0
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
            memory_budget=1, spill_dir=tmp_path, spill_budget=0,
        ) as ctx:
            with faults.inject(point, OutOfMemory, probability=1.0, seed=6,
                               max_fires=None) as plan:
                with pytest.raises(OutOfMemory):
                    self._run(op, out, A, B)
        assert plan.fires == 1
        assert ctx.stats["tiled"] == 1 and ctx.stats["retries"] == 0
        for obj, snap in zip((out, A, B), snaps):
            assert_same_state(obj, snap)
        assert out.nvals == 0
        assert not any(tmp_path.iterdir())


class TestTornTileFiles:
    """A spilled tile that disagrees with its own header is an ``OSError``
    for the pool's retry loop — never a garbage tile, never a leaked file.

    Each damage kind gets the pool's arena and the damaged tile's
    ``(offset, nbytes)``; truncation hits the last-written tile.
    """

    @staticmethod
    def _truncate(f, offset, nbytes):
        f.truncate(offset + nbytes - 8)

    @staticmethod
    def _truncate_into_header(f, offset, nbytes):
        f.truncate(offset + tiled._HEADER_BYTES - 8)

    @staticmethod
    def _corrupt_length(f, offset, nbytes):
        f.seek(offset + 8 * tiled._HEADER_FIELDS.index("nvals"))
        f.write(np.int64(1 << 40).tobytes())

    @staticmethod
    def _corrupt_magic(f, offset, nbytes):
        f.seek(offset)
        f.write(b"\0" * 8)

    @staticmethod
    def _corrupt_dtype(f, offset, nbytes):
        f.seek(offset + 8 * tiled._HEADER_FIELDS.index("value_dtype"))
        f.write(b"\xff" * 8)

    @pytest.mark.parametrize("damage", [
        "_truncate", "_truncate_into_header", "_corrupt_length",
        "_corrupt_magic", "_corrupt_dtype",
    ])
    def test_damaged_tile_fails_after_retry_schedule(self, damage, tmp_path,
                                                     sleeps):
        from tests.resilience.test_tiled_spill import (
            _arena,
            _decisions,
            _store,
        )

        pool = tiled.SpillPool(budget=0, directory=tmp_path)
        try:
            good, bad = _store(seed=1), _store(seed=2)
            pool.put("good", good)
            pool.put("bad", bad)   # budget 0: both on disk now, "bad" last
            with _arena(pool) as f:
                getattr(self, damage)(f, *pool._spilled["bad"])
            with telemetry.collect() as col:
                with pytest.raises(OSError, match="torn|corrupt"):
                    pool.get("bad")
            # the whole schedule ran
            assert len(_decisions(col, "governor.retry")) == \
                tiled._IO_ATTEMPTS - 1
            assert pool.stats["reloads"] == 0     # nothing was accepted
            # the pool is still consistent: its other tile reads back
            back = pool.get("good")
            assert back.values.tobytes() == good.values.tobytes()
            assert np.array_equal(back.minor, good.minor)
        finally:
            pool.close()
        assert not any(tmp_path.iterdir())

    def test_torn_tile_mid_mxm_operands_intact_no_orphans(self, AB, tmp_path,
                                                          monkeypatch, sleeps):
        # every reload finds its tile a word short, as after a torn write
        A, B = AB
        C = Matrix("FP64", 40, 40)
        snaps = [deep_state(o) for o in (C, A, B)]
        real_read = tiled._read_tile

        def torn_read(fd, offset, nbytes):
            os.ftruncate(fd, offset + nbytes - 8)
            return real_read(fd, offset, nbytes)

        monkeypatch.setattr(tiled, "_read_tile", torn_read)
        with governor.ExecutionContext(
            memory_budget=1, spill_dir=tmp_path, spill_budget=0,
        ) as ctx:
            with pytest.raises(OSError, match="torn"):
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["retries"] >= 1  # the pool's retry loop ran
        for obj, snap in zip((C, A, B), snaps):
            assert_same_state(obj, snap)
        assert C.nvals == 0
        assert not any(tmp_path.iterdir())

    def test_partial_write_retried_at_same_offset(self, tmp_path,
                                                  monkeypatch, sleeps):
        # the disk fails after part of a tile reached it: the retry
        # rewrites the tile in place, and the next tile follows it
        from tests.resilience.test_tiled_spill import _arena_size, _store

        real_pwritev = os.pwritev
        failed_at = []

        def pwritev(fd, bufs, offset):
            if not failed_at:
                failed_at.append(offset)
                real_pwritev(fd, [bufs[0], b"\xff" * 64], offset)
                raise OSError(28, "No space left on device")
            return real_pwritev(fd, bufs, offset)

        monkeypatch.setattr(os, "pwritev", pwritev)
        a, b = _store(seed=1), _store(seed=2)
        na, nb = (tiled._HEADER_BYTES + s.nbytes for s in (a, b))
        with tiled.SpillPool(budget=0, directory=tmp_path) as pool:
            pool.put("a", a)
            pool.put("b", b)
            assert failed_at == [0] and len(sleeps) == 1  # one retry
            assert pool._spilled == {"a": (0, na), "b": (na, nb)}
            assert _arena_size(pool) == na + nb == \
                pool.stats["spilled_bytes"]
            for key, want in (("a", a), ("b", b)):
                got = pool.get(key)
                for name in ("h", "indptr", "minor", "values"):
                    assert getattr(got, name).tobytes() == \
                        getattr(want, name).tobytes()
        assert not any(tmp_path.iterdir())


class TestBackoffSchedule:
    def test_spill_retry_schedule_is_fixed(self, tmp_path, sleeps):
        # the delays are constants: 5 ms, doubling, one fewer than tries
        from tests.resilience.test_tiled_spill import _store

        pool = tiled.SpillPool(budget=0, directory=tmp_path)
        try:
            for _ in range(2):
                with faults.inject("io.write", OSError, probability=1.0,
                                   seed=7, max_fires=None):
                    with pytest.raises(OSError):
                        pool.put(pool.unique_name(), _store(seed=3))
        finally:
            pool.close()
        one = [tiled._IO_DELAY_S * 2 ** k
               for k in range(tiled._IO_ATTEMPTS - 1)]
        assert sleeps == one + one == [0.005, 0.01, 0.005, 0.01]

    def test_cancelled_context_aborts_instead_of_sleeping(self, AB, tmp_path,
                                                          sleeps):
        A, B = AB
        C = Matrix("FP64", 40, 40)
        with governor.ExecutionContext(
            memory_budget=1, spill_dir=tmp_path, spill_budget=0,
        ) as ctx:
            class DiskTroubleWhileCancelled(OSError):
                def __init__(self, msg):
                    ctx.cancel("stop")
                    super().__init__(msg)

            with faults.inject("io.write", DiskTroubleWhileCancelled, nth=1):
                with pytest.raises(Cancelled, match="stop"):
                    ops.mxm(C, A, B, "PLUS_TIMES")
        assert sleeps == [] and ctx.stats["retries"] == 0
        assert C.nvals == 0 and not any(tmp_path.iterdir())
