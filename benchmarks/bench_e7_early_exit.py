"""E7 — section II.A: terminal-monoid early exit in the dot product.

Claim: "a current prototype adds an early exit mechanism for the MIN, MAX,
OR, and AND monoids, where a dot product can terminate as soon as a
terminal value is found ... this will enable a fast direction-optimizing
BFS" — the pull step is a dot product over the OR monoid that can stop at
the first hit.

Reproduction: on adversarial long dense rows whose first inner product
term already yields OR's terminal ``true``, the terminal-aware dot kernel
beats an identical monoid stripped of its terminal annotation.
"""

import numpy as np
import pytest

from _common import emit, wall
from repro.graphblas import Matrix, compiled, make_monoid, make_semiring, telemetry
from repro.graphblas import operations as ops
from repro.graphblas.monoid import Monoid
from repro.graphblas.ops import binary
from repro.harness import Table

# LOR with and without the terminal annotation: same algebra, no early exit
LOR_TERMINAL = make_monoid("LOR", identity=False, terminal=True, name="lor_term")
LOR_NO_TERMINAL = make_monoid("LOR", identity=False, terminal=None, name="lor_noterm")
SR_TERM = make_semiring(LOR_TERMINAL, "LAND", name="lor_land_term")
SR_NOTERM = make_semiring(LOR_NO_TERMINAL, "LAND", name="lor_land_noterm")


def _adversarial(n_rows=64, width=200_000):
    """Rows whose very first column pairs hit: OR's terminal on term one."""
    rows = np.repeat(np.arange(n_rows), width)
    cols = np.tile(np.arange(width), n_rows)
    A = Matrix.from_coo(
        rows, cols, np.ones(rows.size, bool), nrows=n_rows, ncols=width, dtype=bool
    )
    B = Matrix.from_coo(
        np.arange(width),
        np.zeros(width, dtype=np.int64),
        np.ones(width, bool),
        nrows=width,
        ncols=1,
        dtype=bool,
    )
    mask = Matrix.from_coo(
        np.arange(n_rows),
        np.zeros(n_rows, dtype=np.int64),
        np.ones(n_rows, bool),
        nrows=n_rows,
        ncols=1,
        dtype=bool,
    )
    return A, B, mask


def _dot(A, B, mask, sr):
    C = Matrix("BOOL", A.nrows, B.ncols)
    ops.mxm(C, A, B, sr, mask=mask, desc="RS", method="dot")
    return C


def test_e7_results_identical():
    A, B, mask = _adversarial(16, 20_000)
    assert _dot(A, B, mask, SR_TERM).isequal(_dot(A, B, mask, SR_NOTERM))


def test_e7_table(benchmark):
    A, B, mask = _adversarial()

    def run():
        t = Table(
            "E7: OR-monoid early exit in masked dot products "
            f"({A.nrows} rows x {A.ncols} terms, first term hits)",
            ["kernel", "seconds"],
        )
        t_term = wall(lambda: _dot(A, B, mask, SR_TERM), repeat=3)
        t_noterm = wall(lambda: _dot(A, B, mask, SR_NOTERM), repeat=3)
        t.add("dot, terminal monoid (early exit)", t_term)
        t.add("dot, no terminal (full scan)", t_noterm)
        t.note(f"speedup {t_noterm / t_term:.1f}x on adversarial rows")
        emit(t, "e7_early_exit")

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_e7_early_exit_wins():
    A, B, mask = _adversarial()
    t_term = wall(lambda: _dot(A, B, mask, SR_TERM), repeat=3)
    t_noterm = wall(lambda: _dot(A, B, mask, SR_NOTERM), repeat=3)
    assert t_term < t_noterm / 2  # early exit must at least halve the scan


@pytest.mark.parametrize("kernel", ["terminal", "no-terminal"])
def test_bench_e7(benchmark, kernel):
    A, B, mask = _adversarial(32, 100_000)
    sr = SR_TERM if kernel == "terminal" else SR_NOTERM
    benchmark(_dot, A, B, mask, sr)


# -- PR10: the compiled tier's per-element exit vs the vectorized one ---------

def _dot_builtin(A, B, mask):
    """Same adversarial workload over the *builtin* LOR_LAND (the
    compiled tier declines user-defined monoids, so the with/without-
    terminal pair above stays on the vectorized engine)."""
    C = Matrix("BOOL", A.nrows, B.ncols)
    ops.mxm(C, A, B, "LOR_LAND", mask=mask, desc="RS", method="dot")
    return C


def _dot_vectorized(A, B, mask):
    with compiled.toolchain_off():
        return _dot_builtin(A, B, mask)


@pytest.mark.skipif(not compiled.available(),
                    reason="no compiled toolchain (numba or cc) available")
def test_e7_compiled_table(benchmark):
    """Vectorized early exit (64-wide block granularity) vs the compiled
    scalar loop that bails on the exact terminal term, with the measured
    mean hit depth from the kernel's exit statistics."""
    A, B, mask = _adversarial()
    _dot_builtin(A, B, mask)  # absorb the JIT build

    def run():
        t = Table(
            "E7b: vectorized vs compiled early exit, builtin LOR_LAND "
            f"({A.nrows} rows x {A.ncols} terms, first term hits)",
            ["kernel", "seconds"],
        )
        t_vec = wall(lambda: _dot_vectorized(A, B, mask), repeat=3)
        t_cmp = wall(lambda: _dot_builtin(A, B, mask), repeat=3)
        with telemetry.collect() as col:
            _dot_builtin(A, B, mask)
        exits = [e["args"] for e in col.events
                 if e["type"] == "decision"
                 and e["name"] == "mxm.early_exit"]
        ex = exits[-1] if exits else {}
        terminated = int(ex.get("terminated", 0))
        t.add("vectorized dot, block early exit", t_vec)
        t.add("compiled dot, per-element early exit", t_cmp)
        t.note(f"speedup {t_vec / t_cmp:.1f}x")
        if terminated:
            t.note(f"{terminated}/{ex.get('dots', 0)} dots terminated, "
                   f"mean hit depth "
                   f"{ex.get('depth_sum', 0) / terminated:.1f} of "
                   f"{A.ncols} terms")
        emit(t, "e7_early_exit_compiled")
        assert terminated > 0

    benchmark.pedantic(run, rounds=1, iterations=1)
