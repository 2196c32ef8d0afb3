"""E3 — section II.A: the three SpGEMM kernels and their masked variants.

SuiteSparse code-generates Gustavson, dot-product, and heap methods, "all
with masked variants".  The reproduction targets:

* all three methods produce identical results (asserted);
* with a *sparse output mask* (the masked-triangle-counting pattern), the
  masked dot method beats computing the full product and masking after —
  the structural win that motivates having several kernels;
* the heap method is the fidelity implementation (slowest here, as a
  Python-loop merge — no paper claim orders the three).
"""

import numpy as np
import pytest

from _common import emit, wall
from repro.graphblas import Matrix, engine
from repro.graphblas import operations as ops
from repro.graphblas.descriptor import Descriptor
from repro.harness import Table

_RS = Descriptor(replace=True, structural_mask=True)


def _adjacency(g):
    A = Matrix("FP64", g.n, g.n)
    ops.select(A, g.structure("FP64"), "OFFDIAG")
    return A


def _run(A, method, mask=None):
    C = Matrix("FP64", A.nrows, A.ncols)
    ops.mxm(C, A, A, "PLUS_TIMES", mask=mask, desc=_RS if mask is not None else None,
            method=method)
    return C


def test_e3_methods_identical(rmat_small):
    A = _adjacency(rmat_small)
    full = [_run(A, m) for m in ("gustavson", "dot", "heap")]
    assert full[0].isequal(full[1]) and full[0].isequal(full[2])
    masked = [_run(A, m, mask=A) for m in ("gustavson", "dot", "heap")]
    assert masked[0].isequal(masked[1]) and masked[0].isequal(masked[2])


def test_e3_table(benchmark, rmat_medium):
    A = _adjacency(rmat_medium)

    def run():
        t = Table(
            f"E3: SpGEMM methods on A*A, RMAT scale 11 (n={A.nrows}, "
            f"nvals={A.nvals})",
            ["method", "mask", "seconds"],
        )
        for m in ("gustavson", "dot", "heap"):
            reps = 1 if m in ("heap", "dot") else 2
            t.add(m, "none", wall(_run, A, m, repeat=reps))
        for m in ("gustavson", "dot"):
            t.add(m, "A (structural)", wall(_run, A, m, mask=A, repeat=2))
        t.note("masked dot computes only the A-pattern entries of A*A")
        emit(t, "e3_spgemm_methods")

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_e3_masked_dot_beats_unmasked_when_mask_sparse(rmat_medium):
    """The masked variant's payoff: with mask nnz << output nnz, computing
    only masked entries (dot) is faster than the full product.

    Measured with the performance engine off: the claim compares the two
    *methods*, and the engine's row-blocked parallelism splits the
    Gustavson expansion across threads but never the dot loop, which
    would turn this into a test of the thread pool rather than of the
    masked kernel's work bound.
    """
    A = _adjacency(rmat_medium)
    engine.set_engine(False)
    try:
        t_full = wall(_run, A, "gustavson", repeat=2)
        t_masked = wall(_run, A, "dot", mask=A, repeat=2)
    finally:
        engine.reset()
    # structural claim: the masked kernel must not be slower than computing
    # everything (it usually wins by a lot; keep the bound conservative)
    assert t_masked < 1.5 * t_full


@pytest.mark.parametrize("method", ["gustavson", "dot"])
@pytest.mark.parametrize("masked", [False, True])
def test_bench_e3(benchmark, rmat_small, method, masked):
    A = _adjacency(rmat_small)
    benchmark(_run, A, method, A if masked else None)
