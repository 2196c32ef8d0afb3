"""Tiled spill-to-disk execution: parity, pool mechanics, configuration.

The acceptance property under test: an mxm/mxv whose footprint estimate
exceeds the governor budget completes via tiled spill execution with
results *bit-identical* to unbudgeted in-memory execution — asserted here
on RMAT-14 with random FP64 values, where any regrouping of the
floating-point partial-product folds would change low-order bits.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.generators import rmat_graph
from repro.graphblas import (
    BudgetExceeded,
    Descriptor,
    Matrix,
    Vector,
    faults,
    governor,
    options,
    telemetry,
    tiled,
)
from repro.graphblas import operations as ops
from repro.graphblas.formats import Orientation, SparseStore
from tests.helpers import kernel_tier, random_matrix_np, random_vector_np


def _bits_equal(got, want) -> None:
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
        assert g.tobytes() == w.tobytes()


def _decisions(col, name: str) -> list[dict]:
    """Detail dicts of every ``name`` decision a collector recorded."""
    return [ev["args"] for ev in col.events
            if ev["type"] == "decision" and ev["name"] == name]


def _weighted_rmat(scale: int, edge_factor: int, seed: int) -> Matrix:
    A = rmat_graph(scale, edge_factor, seed=seed).A
    r, c, _ = A.extract_tuples()
    rng = np.random.default_rng(seed + 1)
    return Matrix.from_coo(
        r, c, rng.uniform(-1.0, 1.0, r.size), nrows=A.nrows, ncols=A.ncols,
        dtype="FP64",
    )


# --------------------------------------------------------------------------
# bit-identical parity (the acceptance criterion)
# --------------------------------------------------------------------------

class TestParity:
    def test_rmat14_mxm_tiled_spill_bit_identical(self, tmp_path):
        A = _weighted_rmat(14, 4, seed=7)
        expected = Matrix("FP64", A.nrows, A.ncols)
        ops.mxm(expected, A, A, "PLUS_TIMES")

        C = Matrix("FP64", A.nrows, A.ncols)
        with telemetry.collect() as col:
            with governor.ExecutionContext(
                memory_budget=1 << 20,
                spill_dir=tmp_path,
                spill_budget=1 << 20,
            ) as ctx:
                ops.mxm(C, A, A, "PLUS_TIMES")
        assert ctx.stats["tiled"] == 1
        assert ctx.stats["rejected"] == 0
        _bits_equal(C.extract_tuples(), expected.extract_tuples())
        gov = col.snapshot()["governor"]
        assert gov["tiled"] >= 1
        assert gov["spill"] >= 1 and gov["reload"] >= 1
        assert gov["spill_bytes"] > 0 and gov["reload_bytes"] > 0
        # the pool cleans up after itself: no orphaned tile files
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("op", ["mxv", "vxm"])
    def test_rmat14_matvec_tiled_bit_identical(self, op, tmp_path):
        A = _weighted_rmat(14, 4, seed=11)
        rng = np.random.default_rng(23)
        u, _, _ = random_vector_np(rng, A.nrows, density=0.3)
        run = getattr(ops, op)
        args = (A, u) if op == "mxv" else (u, A)

        expected = Vector("FP64", A.nrows)
        run(expected, *args, "PLUS_TIMES")
        w = Vector("FP64", A.nrows)
        with governor.ExecutionContext(
            memory_budget=1, spill_dir=tmp_path, spill_budget=1 << 18
        ) as ctx:
            run(w, *args, "PLUS_TIMES")
        assert ctx.stats["tiled"] == 1
        _bits_equal(w.extract_tuples(), expected.extract_tuples())
        assert not any(tmp_path.iterdir())

    def test_transposed_mxm_parity(self, tmp_path):
        rng = np.random.default_rng(3)
        A, _, _ = random_matrix_np(rng, 60, 60, 0.2)
        B, _, _ = random_matrix_np(rng, 60, 60, 0.2)
        expected = Matrix("FP64", 60, 60)
        ops.mxm(expected, A, B, "PLUS_TIMES", desc="T0")
        C = Matrix("FP64", 60, 60)
        with governor.ExecutionContext(
            memory_budget=1, spill_dir=tmp_path, spill_budget=0
        ):
            ops.mxm(C, A, B, "PLUS_TIMES", desc="T0")
        _bits_equal(C.extract_tuples(), expected.extract_tuples())

    def test_masked_mxm_parity_vs_gustavson(self, tmp_path):
        # masked "auto" picks the dot kernel in memory, whose float fold
        # order legitimately differs from Gustavson's; the tiled fold is
        # bit-identical to the Gustavson method, so pin the comparison
        rng = np.random.default_rng(4)
        A, _, _ = random_matrix_np(rng, 60, 60, 0.2)
        B, _, _ = random_matrix_np(rng, 60, 60, 0.2)
        M, _, _ = random_matrix_np(rng, 60, 60, 0.5)
        expected = Matrix("FP64", 60, 60)
        ops.mxm(expected, A, B, "PLUS_TIMES", mask=M, method="gustavson")
        C = Matrix("FP64", 60, 60)
        with governor.ExecutionContext(
            memory_budget=1, spill_dir=tmp_path, spill_budget=0
        ):
            ops.mxm(C, A, B, "PLUS_TIMES", mask=M, method="gustavson")
        _bits_equal(C.extract_tuples(), expected.extract_tuples())

    @pytest.mark.parametrize("kernel", ["numpy", "compiled"])
    @pytest.mark.parametrize("sr", ["MIN_SECONDI", "PLUS_FIRSTI",
                                    "MIN_SECONDJ"])
    def test_positional_semiring_sees_global_coords(self, sr, kernel,
                                                    tmp_path):
        # positional k, i and j across a 13x13 grid of 16-wide tiles,
        # with stripes split into several chunks (the 1 MiB chunk floor
        # holds ~44k partial products; a 16-row stripe here has ~160k)
        rng = np.random.default_rng(5)
        A, _, _ = random_matrix_np(rng, 200, 200, 0.5)
        B, _, _ = random_matrix_np(rng, 200, 200, 0.5)
        with kernel_tier(kernel):
            expected = Matrix("INT64", 200, 200)
            ops.mxm(expected, A, B, sr)
            with tiled.SpillPool(budget=1 << 16, directory=tmp_path) as pool:
                A_t = tiled.TiledMatrix.from_matrix(A, 16, pool)
                B_t = tiled.TiledMatrix.from_matrix(B, 16, pool)
                C_t = tiled.mxm_tiled(A_t, B_t, sr, chunk_bytes=1)
                assert any(len(p) > 1 for p in C_t._cells.values())
                got = C_t.to_matrix()
        assert got.dtype == expected.dtype
        _bits_equal(got.extract_tuples(), expected.extract_tuples())

    def test_explicit_tiled_method_without_budget(self):
        rng = np.random.default_rng(9)
        A, _, _ = random_matrix_np(rng, 40, 40, 0.25)
        B, _, _ = random_matrix_np(rng, 40, 40, 0.25)
        expected = Matrix("FP64", 40, 40)
        ops.mxm(expected, A, B, "PLUS_TIMES")
        C = Matrix("FP64", 40, 40)
        ops.mxm(C, A, B, "PLUS_TIMES", method="tiled")
        _bits_equal(C.extract_tuples(), expected.extract_tuples())


# --------------------------------------------------------------------------
# bounded-memory row-chunked folds
# --------------------------------------------------------------------------

class TestChunkedFold:
    """Skewed stripes run in row chunks without changing a single bit.

    A chunk holds whole output rows, so partitioning a stripe by rows
    (``chunk_bytes``) must reproduce the in-memory result bit for bit
    while keeping each chunk's working set bounded; chunk pieces are
    transient and must not survive the stripe that made them.
    """

    def test_chunked_mxm_bit_identical_pieces_dropped(self, tmp_path):
        # dense enough that stripes exceed the 1 MiB chunk floor and the
        # chunked path actually engages (several chunks per stripe)
        rng = np.random.default_rng(6)
        A, _, _ = random_matrix_np(rng, 200, 200, 0.4)
        B, _, _ = random_matrix_np(rng, 200, 200, 0.4)
        expected = Matrix("FP64", 200, 200)
        ops.mxm(expected, A, B, "PLUS_TIMES")
        with tiled.SpillPool(budget=1 << 14, directory=tmp_path) as pool:
            A_t = tiled.TiledMatrix.from_matrix(A, 16, pool)
            B_t = tiled.TiledMatrix.from_matrix(B, 16, pool)
            C_t = tiled.mxm_tiled(A_t, B_t, "PLUS_TIMES",
                                  chunk_bytes=1 << 20)
            got = C_t.to_matrix()
            # no transient piece tiles (the old "<name>/p<bi>.<bj>.<ci>"
            # keys) were spilled ...
            assert not any("/p" in key for key in pool._spilled)
            # ... because there are none any more: each chunk's row run
            # *is* a piece of its grid cell, written once, never
            # reassembled, so every spilled tile belongs to a live cell
            live = {
                key
                for T in (A_t, B_t, C_t)
                for pieces in T._cells.values() for key, _, _ in pieces
            }
            assert pool._spilled and set(pool._spilled) <= live
            assert any(len(p) > 1 for p in C_t._cells.values())
            assert pool.stats["spills"] == len(pool._spilled) \
                <= pool.stats["tiles"]
            # the arena grew by exactly the spilled tiles, back to back
            assert _arena_size(pool) == pool.stats["spilled_bytes"] == sum(
                n for _, n in pool._spilled.values())
        _bits_equal(got.extract_tuples(), expected.extract_tuples())

    def test_multi_piece_cell_serves_as_operand_and_metadata(self, tmp_path):
        # a chunked product has cells of several row-run pieces; tile()
        # concatenates them on demand and the metadata never reads disk
        rng = np.random.default_rng(16)
        A, _, _ = random_matrix_np(rng, 200, 200, 0.4)
        AA = Matrix("FP64", 200, 200)
        ops.mxm(AA, A, A, "PLUS_TIMES")
        with tiled.SpillPool(budget=0, directory=tmp_path) as pool:
            A_t = tiled.TiledMatrix.from_matrix(A, 64, pool)
            C_t = tiled.mxm_tiled(A_t, A_t, "PLUS_TIMES",
                                  chunk_bytes=1 << 20)
            assert any(len(p) > 1 for p in C_t._cells.values())
            before = dict(pool.stats)
            r, _, _ = AA.extract_tuples()
            assert np.array_equal(C_t.major_lengths(),
                                  np.bincount(r, minlength=200))
            assert C_t.nvals == AA.nvals
            assert pool.stats == before  # metadata: no reload, no spill
            for (bi, bj), pieces in C_t._cells.items():
                whole = C_t.tile(bi, bj)
                whole.check_valid()
                assert whole.nvals == sum(
                    pool.get(k).nvals for k, _, _ in pieces
                )
            _bits_equal(C_t.to_matrix().extract_tuples(),
                        AA.extract_tuples())

    def test_bounded_stream_matches_full_stripes(self, tmp_path):
        rng = np.random.default_rng(7)
        A, _, _ = random_matrix_np(rng, 500, 500, 0.3)
        with tiled.SpillPool(budget=1 << 14, directory=tmp_path) as pool:
            T = A.to_tiled(128, pool=pool)
            blocks = list(T.iter_stripes(max_bytes=1))  # floored to 64 KiB
            assert len(blocks) > T.grid_rows  # stripes actually split
            got = (
                np.concatenate([b[0] for b in blocks]),
                np.concatenate([b[1] for b in blocks]),
                np.concatenate([b[2] for b in blocks]),
            )
            _bits_equal(got, A.extract_tuples())

    def test_major_lengths_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        A, _, _ = random_matrix_np(rng, 45, 45, 0.3)
        with tiled.SpillPool(budget=0, directory=tmp_path) as pool:
            T = A.to_tiled(10, pool=pool)
            r, _, _ = A.extract_tuples()
            want = np.bincount(r, minlength=45)
            assert np.array_equal(T.major_lengths(), want)

    def test_chunk_bounds_partitions_by_target(self):
        counts = np.array([5, 5, 5, 100, 1, 1])
        assert tiled._chunk_bounds(counts, 10) == [
            (0, 2), (2, 3), (3, 4), (4, 6)  # a huge row rides alone
        ]
        assert tiled._chunk_bounds(np.array([1, 1]), 10) == [(0, 2)]
        assert tiled._chunk_bounds(np.zeros(0, dtype=np.int64), 10) == \
            [(0, 0)]


# --------------------------------------------------------------------------
# TiledMatrix round-trips
# --------------------------------------------------------------------------

class TestTiledMatrix:
    def test_roundtrip_preserves_bits(self, tmp_path):
        rng = np.random.default_rng(1)
        A, _, _ = random_matrix_np(rng, 37, 53, 0.3)
        with tiled.SpillPool(budget=0, directory=tmp_path) as pool:
            T = A.to_tiled(8, pool=pool)
            assert T.grid_rows == 5 and T.grid_cols == 7
            assert T.nvals == A.nvals
            R = T.to_matrix()
            _bits_equal(R.extract_tuples(), A.extract_tuples())

    def test_iter_stripes_sorted_and_complete(self, tmp_path):
        rng = np.random.default_rng(2)
        A, _, _ = random_matrix_np(rng, 33, 33, 0.4)
        with tiled.SpillPool(budget=1 << 10, directory=tmp_path) as pool:
            T = A.to_tiled(7, pool=pool)
            rows, cols, vals = [], [], []
            last_row = -1
            for r, c, v in T.iter_stripes():
                assert r.min() > last_row
                key = r * T.ncols + c
                assert np.all(np.diff(key) > 0)  # sorted unique per stripe
                last_row = int(r.max())
                rows.append(r); cols.append(c); vals.append(v)
            got = (np.concatenate(rows), np.concatenate(cols),
                   np.concatenate(vals))
            _bits_equal(got, A.extract_tuples())

    def test_choose_tile_dim_clamps(self):
        assert tiled.choose_tile_dim(100, 100) == 100
        assert tiled.choose_tile_dim(10**6, 10**6) == tiled.DEFAULT_TILE_DIM
        td = tiled.choose_tile_dim(1 << 14, 1 << 14, est_bytes=100 << 20,
                                   budget=64 << 20)
        assert tiled.MIN_TILE_DIM <= td <= (1 << 14)
        # a huge per-row footprint still yields a usable tile edge
        assert tiled.choose_tile_dim(4, 4, est_bytes=1 << 40,
                                     budget=1 << 20) == 4


# --------------------------------------------------------------------------
# SpillPool mechanics
# --------------------------------------------------------------------------

def _store(n=8, seed=0):
    rng = np.random.default_rng(seed)
    nv = n * 2
    maj = np.sort(rng.integers(0, n, nv))
    minr = rng.integers(0, n, nv)
    order = np.lexsort((minr, maj))
    maj, minr = maj[order], minr[order]
    keep = np.ones(nv, dtype=bool)
    keep[1:] = (np.diff(maj) != 0) | (np.diff(minr) != 0)
    vals = rng.uniform(-1, 1, nv)
    return SparseStore.from_coo(
        Orientation.ROW, n, n, maj[keep], minr[keep], vals[keep],
        _dtype("FP64"), hyper=True, assume_sorted_unique=True,
    )


def _dtype(name):
    from repro.graphblas.types import lookup_type

    return lookup_type(name)


def _arena(pool):
    """The pool's arena file, opened again through its descriptor (it has
    no name), for reading and writing in place."""
    return open(pool._arena.fileno(), "r+b", buffering=0, closefd=False)


def _arena_size(pool) -> int:
    return os.fstat(pool._arena.fileno()).st_size


class TestSpillPool:
    def test_lru_spills_cold_reloads_on_demand(self, tmp_path):
        s1, s2, s3 = _store(seed=1), _store(seed=2), _store(seed=3)
        budget = s1.nbytes + s2.nbytes  # room for two resident tiles
        with tiled.SpillPool(budget=budget, directory=tmp_path) as pool:
            pool.put("a", s1)
            pool.put("b", s2)
            assert pool.stats["spills"] == 0
            pool.put("c", s3)  # evicts "a", the least recently used
            assert pool.stats["spills"] == 1
            assert pool.stats["evictions"] == 1
            back = pool.get("a")  # reload from disk
            assert pool.stats["reloads"] == 1
            assert back.values.tobytes() == s1.values.tobytes()
            assert np.array_equal(back.minor, s1.minor)

    def test_spill_file_written_once(self, tmp_path):
        s = _store(seed=4)
        # armed but never firing: the plans count every tile write and read
        never = 1 << 30
        with tiled.SpillPool(budget=0, directory=tmp_path) as pool, \
                faults.inject("io.write", OSError, nth=never) as writes, \
                faults.inject("io.read", OSError, nth=never) as reads:
            pool.put("a", s)  # spilled immediately (budget 0)
            pool.get("a")     # reload; stays pinned-resident
            pool.get("a")     # cache hit
            assert pool.stats["reloads"] == 1
            pool.put("b", _store(seed=5))  # evicts both; "a" not rewritten
            pool.get("a")
            assert pool.stats["spills"] == 2  # one write per tile, ever
            assert pool.stats["reloads"] == 2
            assert (writes.calls, reads.calls) == (2, 2)

    def test_close_removes_all_tile_files(self, tmp_path):
        s = _store(seed=5)
        pool = tiled.SpillPool(budget=0, directory=tmp_path)
        pool.put("a", s)
        assert pool._spilled == {"a": (0, tiled._HEADER_BYTES + s.nbytes)}
        assert _arena_size(pool) == tiled._HEADER_BYTES + s.nbytes
        pool.close()
        assert pool._arena.closed and not pool._spilled
        assert not any(tmp_path.iterdir())
        pool.close()  # idempotent

    def test_crash_leaves_no_spill_file(self, tmp_path):
        # a process killed with spilled tiles leaves nothing to clean up;
        # while its pool is open the directory holds no entry either
        child = textwrap.dedent("""
            import os, sys
            import numpy as np
            from repro.graphblas import tiled
            from repro.graphblas.formats import Orientation, SparseStore
            from repro.graphblas.types import lookup_type

            def store(seed):
                rng = np.random.default_rng(seed)
                return SparseStore.from_coo(
                    Orientation.ROW, 8, 8, np.arange(8), rng.permutation(8),
                    rng.uniform(-1, 1, 8), lookup_type("FP64"), hyper=True,
                    assume_sorted_unique=True)

            pool = tiled.SpillPool(budget=0, directory=sys.argv[1])
            pool.put("a", store(1))
            pool.put("b", store(2))
            print(pool.stats["spills"], os.listdir(sys.argv[1]), flush=True)
            os._exit(1)
        """)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run([sys.executable, "-c", child, str(tmp_path)],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.strip() == "2 []"  # two spills, no entry
        assert os.listdir(tmp_path) == []

    def test_unrelated_temp_file_survives_pool(self, tmp_path):
        # a checkpoint's in-flight temp file shares the spill directory
        in_flight = tmp_path / "t3.npz.tmp.12345"
        in_flight.write_bytes(b"checkpoint being written")
        with tiled.SpillPool(budget=0, directory=tmp_path) as pool:
            assert in_flight.read_bytes() == b"checkpoint being written"
            pool.put("a", _store(seed=5))
            assert pool.stats["spills"] == 1
            assert os.listdir(tmp_path) == [in_flight.name]
        assert os.listdir(tmp_path) == [in_flight.name]

    def test_use_after_close_rejected_immediately(self, tmp_path):
        from repro.graphblas import InvalidValue

        pool = tiled.SpillPool(budget=0, directory=tmp_path)
        pool.put("a", _store(seed=5))
        pool.close()
        assert not pool._nbytes and not pool._spilled
        with telemetry.collect() as col:
            with pytest.raises(InvalidValue, match="spill pool is closed"):
                pool.get("a")
            with pytest.raises(InvalidValue, match="spill pool is closed"):
                pool.put("b", _store(seed=6))
        # no FileNotFoundError retried with back-off first
        assert not _decisions(col, "governor.retry")

    def test_put_behind_is_first_eviction_candidate(self, tmp_path):
        s1, s2, s3 = _store(seed=1), _store(seed=2), _store(seed=3)
        budget = s1.nbytes + s2.nbytes
        with tiled.SpillPool(budget=budget, directory=tmp_path) as pool:
            pool.put("a", s1)
            pool.put("b", s2)
            pool.put("out", s3, behind=True)  # over budget: "out" goes
            assert pool.stats["spills"] == 1
            assert list(pool._spilled) == ["out"]
            assert _arena_size(pool) == pool.stats["spilled_bytes"] == \
                tiled._HEADER_BYTES + s3.nbytes
            pool.get("a"), pool.get("b")      # operands never left
            assert pool.stats["reloads"] == 0
            back = pool.get("out")
            assert back.values.tobytes() == s3.values.tobytes()

    def test_unknown_tile_rejected(self, tmp_path):
        from repro.graphblas import InvalidValue

        with tiled.SpillPool(budget=0, directory=tmp_path) as pool:
            with pytest.raises(InvalidValue):
                pool.get("nope")
            pool.put("a", _store(seed=6))
            with pytest.raises(InvalidValue):
                pool.put("a", _store(seed=7))


# --------------------------------------------------------------------------
# raw spilled tiles
# --------------------------------------------------------------------------

def _typed_store(type_name: str, hyper: bool, empty: bool) -> SparseStore:
    dt = _dtype(type_name)
    if empty:
        return SparseStore.empty(Orientation.ROW, 9, 7, dt, hyper=hyper)
    rng = np.random.default_rng(len(type_name) + hyper)
    maj = np.array([0, 0, 3, 3, 3, 8], dtype=np.int64)
    minr = np.array([1, 6, 0, 2, 5, 4], dtype=np.int64)
    if dt.np_dtype.kind == "b":
        vals = rng.integers(0, 2, maj.size).astype(bool)
    elif dt.np_dtype.kind == "f":
        vals = rng.uniform(-1, 1, maj.size).astype(dt.np_dtype)
    else:
        info = np.iinfo(dt.np_dtype)
        vals = rng.integers(info.min, info.max, maj.size,
                            dtype=dt.np_dtype, endpoint=True)
    return SparseStore.from_coo(
        Orientation.ROW, 9, 7, maj, minr, vals, dt, hyper=hyper,
        assume_sorted_unique=True,
    )


class TestTileFormat:
    """A spilled tile is a fixed header plus the store's arrays as-is."""

    @pytest.mark.parametrize("empty", [False, True], ids=["full", "empty"])
    @pytest.mark.parametrize("hyper", [True, False], ids=["hyper", "csr"])
    @pytest.mark.parametrize("type_name", [
        "BOOL", "INT8", "INT16", "INT32", "INT64",
        "UINT8", "UINT16", "UINT32", "UINT64", "FP32", "FP64",
    ])
    def test_raw_round_trip_bit_identical(self, type_name, hyper, empty,
                                          tmp_path):
        s = _typed_store(type_name, hyper, empty)
        with tiled.SpillPool(budget=0, directory=tmp_path) as pool:
            pool.put("t", s)  # budget 0: on disk at once
            # the spill is the header and the arrays, nothing else
            nbytes = tiled._HEADER_BYTES + s.nbytes
            assert pool._spilled == {"t": (0, nbytes)}
            assert _arena_size(pool) == nbytes
            assert pool.stats["spilled_bytes"] == nbytes
            back = pool.get("t")
            assert pool.stats["reloads"] == 1
            assert pool.stats["reloaded_bytes"] == s.nbytes
        assert back is not s
        assert (back.orientation, back.n_major, back.n_minor) == \
            (s.orientation, s.n_major, s.n_minor)
        assert (back.h is None) == (s.h is None)
        for name in ("h", "indptr", "minor", "values"):
            got, want = getattr(back, name), getattr(s, name)
            if want is None:
                continue
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable and got.flags.aligned
        back.check_valid()

    def test_column_orientation_survives(self, tmp_path):
        s = _typed_store("FP64", True, False).transposed()
        with tiled.SpillPool(budget=0, directory=tmp_path) as pool:
            pool.put("t", s)
            assert pool.get("t").orientation is Orientation.COL

    def test_unrepresentable_value_dtype_rejected(self, tmp_path):
        from repro.graphblas import InvalidValue

        rec = np.dtype([("a", np.int32), ("b", np.float32)])
        s = _typed_store("FP64", True, False)
        s.values = np.zeros(s.nvals, dtype=rec)
        with tiled.SpillPool(budget=0, directory=tmp_path) as pool:
            with pytest.raises(InvalidValue, match="cannot spill"):
                pool.put("t", s)
            # nothing registered, nothing written
            assert not pool._spilled and _arena_size(pool) == 0


# --------------------------------------------------------------------------
# spill traffic: counts pinned on a seeded RMAT-10
# --------------------------------------------------------------------------

class TestSpillTraffic:
    def test_rmat10_operands_stay_outputs_stream(self, tmp_path):
        """Operands that fit the pool are never reloaded during the
        product; output is written behind them, once, and a bounded
        drain reads each piece at most twice.

        Twice, not once: drain blocks are maximal row runs, so a piece
        no larger than a block straddles at most one block boundary (at
        this seed 86 pieces are read once, 9 twice).  The assemble-and-
        respill path read every grid tile once per drain block.
        """
        A = _weighted_rmat(10, 8, seed=7)
        expected = Matrix("FP64", A.nrows, A.ncols)
        ops.mxm(expected, A, A, "PLUS_TIMES")
        budget = 1 << 20
        reloads_of: dict[str, int] = {}
        with tiled.SpillPool(budget=budget // 4, directory=tmp_path) as pool:
            A_t = tiled.TiledMatrix.from_store(A.by_row(), 128, pool,
                                               dtype=A.dtype)
            operand_bytes = pool.resident_bytes
            assert operand_bytes <= pool.budget  # the premise: they fit
            C_t = tiled.mxm_tiled(A_t, A_t, "PLUS_TIMES", pool=pool,
                                  chunk_bytes=budget)
            assert any(len(p) > 1 for p in C_t._cells.values())
            after_mxm = dict(pool.stats)
            assert after_mxm["reloads"] == 0       # zero operand reloads
            assert after_mxm["spills"] > 0         # output did stream out
            assert not any(k.startswith(A_t.name) for k in pool._spilled)

            with telemetry.collect() as col:
                blocks = list(C_t.iter_stripes(max_bytes=budget // 2))
            for d in _decisions(col, "governor.reload"):
                reloads_of[d["tile"]] = reloads_of.get(d["tile"], 0) + 1
            stats = dict(pool.stats)
        assert len(blocks) > C_t.grid_rows  # the drain really was bounded
        assert reloads_of and max(reloads_of.values()) <= 2
        assert not any(k.startswith(A_t.name) for k in reloads_of)
        assert stats["reloaded_bytes"] <= 3 * stats["spilled_bytes"]
        assert stats["spills"] <= stats["tiles"]   # one write per tile
        got = (
            np.concatenate([b[0] for b in blocks]),
            np.concatenate([b[1] for b in blocks]),
            np.concatenate([b[2] for b in blocks]),
        )
        _bits_equal(got, expected.extract_tuples())

    def test_governed_square_tiles_operand_once(self, tmp_path):
        """``A*A`` under the governor tiles ``A`` once, not twice."""
        A = _weighted_rmat(8, 8, seed=3)
        B = A.dup()
        expected = Matrix("FP64", A.nrows, A.ncols)
        ops.mxm(expected, A, A, "PLUS_TIMES")

        def governed(X, Y, desc=None):
            C = Matrix("FP64", A.nrows, A.ncols)
            with telemetry.collect() as col:
                with governor.ExecutionContext(
                    memory_budget=1, spill_dir=tmp_path, spill_budget=0
                ):
                    ops.mxm(C, X, Y, "PLUS_TIMES", desc=desc)
            (plan_rec,) = _decisions(col, "governor.tile_plan")
            (pool_rec,) = _decisions(col, "governor.pool")
            return C, pool_rec["tiles"], plan_rec["tile_dim"]

        C_same, tiles_same, td = governed(A, A)
        C_dup, tiles_dup, td_dup = governed(A, B)
        assert td == td_dup
        _bits_equal(C_same.extract_tuples(), expected.extract_tuples())
        _bits_equal(C_dup.extract_tuples(), expected.extract_tuples())
        with tiled.SpillPool(budget=1 << 30, directory=tmp_path) as pool:
            tiled.TiledMatrix.from_store(A.by_row(), td, pool, dtype=A.dtype)
            operand_tiles = pool.stats["tiles"]
        # same product, same output tiles: the difference is B's copy
        assert operand_tiles > 0
        assert tiles_dup - tiles_same == operand_tiles
        # A * A' shares the matrix but not the orientation: not shared
        want_t = Matrix("FP64", A.nrows, A.ncols)
        ops.mxm(want_t, A, A, "PLUS_TIMES", desc="T1")
        C_t, _, _ = governed(A, A, desc="T1")
        _bits_equal(C_t.extract_tuples(), want_t.extract_tuples())


class TestParallelFanOut:
    def test_heavy_unchunked_step_fans_out_bit_identical(self, tmp_path,
                                                         monkeypatch):
        """A tiled chunk is one in-memory kernel call, so the kernel's
        own row blocks apply, gated on the chunk's flops: a dense
        unchunked stripe takes the thread pool, a light one does not;
        both match in-memory bits."""
        from repro.graphblas import engine

        rng = np.random.default_rng(12)
        heavy, _, _ = random_matrix_np(rng, 256, 256, 0.5)
        light, _, _ = random_matrix_np(rng, 256, 256, 0.01)
        calls = []
        real = engine.run_blocks

        def counting(fn, tasks, workers):
            calls.append(len(tasks))
            return real(fn, tasks, workers)

        engine.reset()
        try:
            engine.set_engine(True, parallel=True, workers=2)
            monkeypatch.setattr(engine, "run_blocks", counting)
            for M, fans_out in ((heavy, True), (light, False)):
                expected = Matrix("FP64", 256, 256)
                ops.mxm(expected, M, M, "PLUS_TIMES")
                calls.clear()
                with tiled.SpillPool(budget=1 << 30,
                                     directory=tmp_path) as pool:
                    M_t = tiled.TiledMatrix.from_matrix(M, 64, pool)
                    # unchunked: a governing context's budget must not
                    # split the heavy stripe below the fan-out threshold
                    got = tiled.mxm_tiled(M_t, M_t, "PLUS_TIMES",
                                          chunk_bytes=1 << 30).to_matrix()
                assert bool(calls) is fans_out
                _bits_equal(got.extract_tuples(), expected.extract_tuples())
        finally:
            monkeypatch.undo()
            engine.reset()

    @pytest.mark.parametrize("op", ["mxm", "mxv"])
    def test_nthreads_reaches_tiled_kernels(self, op, monkeypatch):
        """``GxB_NTHREADS`` is honoured on the tiled route as in memory:
        ``nthreads=1`` runs no row blocks, the default does."""
        from repro.graphblas import engine

        rng = np.random.default_rng(12)
        # mxv: the pull fans out on the NumPy kernels only, above 64k
        # products per stripe (one stripe here: no budget, n < 4096)
        n = 256 if op == "mxm" else 400
        M, _, _ = random_matrix_np(rng, n, n, 0.5)
        u, _, _ = random_vector_np(rng, n, density=1.0)
        calls = []
        real = engine.run_blocks

        def counting(fn, tasks, workers):
            calls.append(len(tasks))
            return real(fn, tasks, workers)

        def run(nthreads):
            out = Matrix("FP64", n, n) if op == "mxm" else Vector("FP64", n)
            getattr(ops, op)(out, M, M if op == "mxm" else u, "PLUS_TIMES",
                             method="tiled", desc=Descriptor(nthreads=nthreads))
            return out

        engine.reset()
        try:
            engine.set_engine(True, parallel=True, workers=2)
            monkeypatch.setattr(engine, "run_blocks", counting)
            with kernel_tier("compiled" if op == "mxm" else "numpy"):
                serial = run(1)
                assert calls == []
                parallel = run(None)
                assert len(calls) > 0
        finally:
            monkeypatch.undo()
            engine.reset()
        _bits_equal(serial.extract_tuples(), parallel.extract_tuples())


# --------------------------------------------------------------------------
# configuration: environment, overrides, C API
# --------------------------------------------------------------------------

class TestConfig:
    def test_env_spill_routes_through_envutil(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_SPILL", "off")
        monkeypatch.setenv("GRAPHBLAS_SPILL_DIR", "/tmp/spill-here")
        monkeypatch.setenv("GRAPHBLAS_SPILL_BUDGET", "64m")
        assert governor.spill_config() == (False, "/tmp/spill-here", 64 << 20)

    def test_env_spill_malformed_warns_once_falls_back(self, monkeypatch):
        from repro.graphblas import envutil

        envutil.reset_warned()
        monkeypatch.setenv("GRAPHBLAS_SPILL", "sideways")
        monkeypatch.setenv("GRAPHBLAS_SPILL_DIR", "   ")
        monkeypatch.setenv("GRAPHBLAS_SPILL_BUDGET", "lots")
        with pytest.warns(RuntimeWarning):
            enabled, directory, budget = governor.spill_config()
        assert enabled is True
        assert directory is None
        assert budget == options.defaults("spill")["budget"]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second read: already warned
            governor.spill_config()
        envutil.reset_warned()

    def test_spill_off_env_rejects_over_budget(self, monkeypatch, AB):
        monkeypatch.setenv("GRAPHBLAS_SPILL", "off")
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext(memory_budget=1):  # the switch decides
            with pytest.raises(BudgetExceeded, match="tiled spill disabled"):
                ops.mxm(C, A, B, "PLUS_TIMES")

    def test_budget_exceeded_message_is_actionable(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext(memory_budget=1, spill=False):
            with pytest.raises(BudgetExceeded) as exc:
                ops.mxm(C, A, B, "PLUS_TIMES")
        msg = str(exc.value)
        assert "budget" in msg and "1 B" in msg
        assert "exceeds" in msg and " by " in msg  # estimated vs available
        assert "tiled spill disabled" in msg

    def test_context_spill_false_without_degrade_backends_rejects(self, AB):
        A, B = AB
        C = Matrix("FP64", 20, 20)
        with governor.ExecutionContext(memory_budget=1, spill=False) as ctx:
            with pytest.raises(BudgetExceeded):
                ops.mxm(C, A, B, "PLUS_TIMES")
        assert ctx.stats["rejected"] == 1


@pytest.fixture
def AB():
    rng = np.random.default_rng(11)
    A, _, _ = random_matrix_np(rng, 20, 20, 0.3)
    B, _, _ = random_matrix_np(rng, 20, 20, 0.3)
    return A, B
