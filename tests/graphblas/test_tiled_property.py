"""Property test: tiled/spilled execution is bit-identical to in-memory.

Hypothesis drives random interleavings of ``set_element`` /
``remove_element`` / ``wait`` / ``mxm`` against a matrix in each of the
four storage formats.  Every ``mxm`` runs twice — once un-governed in
memory, once under a 1-byte memory budget that forces the governor to
re-plan it as tiled spill-to-disk execution with a zero resident-tile
budget (every tile round-trips through disk) — and the two results must
match bit for bit: same coordinates, same value bytes.

Values are integer-valued FP64, so any ordering the fold could take is
exact; the coordinate sets and storage structure are what this property
exercises across formats.  (Floating-point fold-order parity is covered
on RMAT-14 with random values in tests/resilience/test_tiled_spill.py.)
"""

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphblas import Matrix, engine, governor
from repro.graphblas import operations as ops

N = 8

FORMATS = ("csr", "csc", "hypercsr", "hypercsc")

_action = st.one_of(
    st.tuples(
        st.just("set"),
        st.integers(0, N - 1),
        st.integers(0, N - 1),
        st.integers(-5, 5),
    ),
    st.tuples(st.just("remove"), st.integers(0, N - 1), st.integers(0, N - 1)),
    st.tuples(st.just("wait")),
    st.tuples(st.just("mxm")),
)


@pytest.fixture(autouse=True)
def _engine_on():
    engine.reset()
    engine.set_engine(True)
    yield
    engine.reset()


def _bits_equal(got, want) -> None:
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
        assert g.tobytes() == w.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    fmt=st.sampled_from(FORMATS),
    actions=st.lists(_action, min_size=1, max_size=10),
)
def test_tiled_spill_bit_identical_under_interleaving(fmt, actions):
    # per-example scratch space (tmp_path is function-scoped, which
    # hypothesis rightly rejects across generated examples)
    base = tempfile.mkdtemp(prefix="tiled-prop-")
    try:
        _run_example(fmt, actions, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _run_example(fmt, actions, base):
    A = Matrix("FP64", N, N)
    A.set_format(fmt)
    B = Matrix("FP64", N, N)
    B.set_format(fmt)
    rng = np.random.default_rng(0)
    for _ in range(N * 2):
        B.set_element(int(rng.integers(N)), int(rng.integers(N)),
                      float(rng.integers(-5, 6)))
    B.wait()

    for step, act in enumerate(actions):
        if act[0] == "set":
            _, i, j, v = act
            A.set_element(i, j, float(v))
        elif act[0] == "remove":
            _, i, j = act
            A.remove_element(i, j)
        elif act[0] == "wait":
            A.wait()
        else:  # mxm: in-memory vs tiled-spilled, bit for bit
            expected = Matrix("FP64", N, N)
            ops.mxm(expected, A, B, "PLUS_TIMES")
            C = Matrix("FP64", N, N)
            spill_dir = os.path.join(base, f"step{step}")
            with governor.ExecutionContext(
                memory_budget=1,          # everything is over budget
                spill_dir=spill_dir,
                spill_budget=0,           # every tile round-trips disk
            ) as ctx:
                ops.mxm(C, A, B, "PLUS_TIMES")
            assert ctx.stats["tiled"] == 1
            _bits_equal(C.extract_tuples(), expected.extract_tuples())
            # pools clean up completely even inside the example loop
            assert not os.path.exists(spill_dir) or not os.listdir(spill_dir)


# --------------------------------------------------------------------------
# a chunked product as an operand: cells made of several row-run pieces
# --------------------------------------------------------------------------

M = 96  # large enough that a 32-row stripe of A*A exceeds the chunk floor


@settings(max_examples=8, deadline=None)
@given(fmt=st.sampled_from(FORMATS), seed=st.integers(0, 2**16))
def test_multi_piece_operand_bit_identical(fmt, seed):
    """``(A*A)*A`` and ``A*(A*A)`` with the inner product chunked, so an
    operand of the outer product (left, then right) has multi-piece
    cells, equal the in-memory results bit for bit from every source
    format."""
    from repro.graphblas import tiled

    rng = np.random.default_rng(seed)
    dense = rng.integers(-5, 6, (M, M)).astype(np.float64)
    dense[rng.random((M, M)) < 0.5] = 0.0
    r, c = np.nonzero(dense)
    A = Matrix.from_coo(r, c, dense[r, c], nrows=M, ncols=M, dtype="FP64")
    A.set_format(fmt)

    AA = Matrix("FP64", M, M)
    ops.mxm(AA, A, A, "PLUS_TIMES")
    expected_left = Matrix("FP64", M, M)
    ops.mxm(expected_left, AA, A, "PLUS_TIMES")
    expected_right = Matrix("FP64", M, M)
    ops.mxm(expected_right, A, AA, "PLUS_TIMES")

    base = tempfile.mkdtemp(prefix="tiled-prop-")
    try:
        with tiled.SpillPool(budget=0, directory=base) as pool:
            A_t = tiled.TiledMatrix.from_matrix(A, 32, pool)
            AA_t = tiled.mxm_tiled(A_t, A_t, "PLUS_TIMES", chunk_bytes=1)
            assert any(len(p) > 1 for p in AA_t._cells.values())
            left = tiled.mxm_tiled(AA_t, A_t, "PLUS_TIMES").to_matrix()
            right = tiled.mxm_tiled(A_t, AA_t, "PLUS_TIMES").to_matrix()
        assert not os.listdir(base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    _bits_equal(left.extract_tuples(), expected_left.extract_tuples())
    _bits_equal(right.extract_tuples(), expected_right.extract_tuples())
