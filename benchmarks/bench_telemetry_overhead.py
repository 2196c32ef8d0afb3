"""T1 — telemetry wiring overhead when disabled.

The telemetry subsystem (:mod:`repro.graphblas.telemetry`) threads counters,
timers and decision events through every Table-I operation.  Like the fault
harness it rides the module-attribute fast path: with no collector active,
each operation pays one ``if telemetry.ENABLED:`` read in the backend
dispatcher and nothing else.  This bench quantifies the claim two ways:

* the Table-I workload timed with telemetry in its shipped state (disabled)
  versus actively collecting (one op record per call, named after the
  plan's op, plus decision events; burble off) — the enabled column
  bounds the cost of turning diagnostics on;
* a microbenchmark of the disabled guard itself.

Acceptance (ISSUE 2): the disabled column must sit within noise of the
pre-telemetry baseline — the wiring is unmeasurable next to numpy kernels.
"""

import time

import pytest

from _common import emit, wall
from repro.generators import random_matrix, random_vector
from repro.graphblas import Matrix, Vector, telemetry
from repro.graphblas import operations as ops
from repro.harness import Table

N = 1500
DENSITY = 0.004


@pytest.fixture(scope="module")
def workload():
    A = random_matrix(N, N, DENSITY, seed=1)
    B = random_matrix(N, N, DENSITY, seed=2)
    u = random_vector(N, 0.05, seed=4)
    return A, B, u


def _cases(A, B, u):
    return {
        "mxm": lambda: ops.mxm(Matrix("FP64", N, N), A, B, "PLUS_TIMES"),
        "mxv": lambda: ops.mxv(Vector("FP64", N), A, u),
        "ewise_add": lambda: ops.ewise_add(Matrix("FP64", N, N), A, B, "PLUS"),
        "apply": lambda: ops.apply(Matrix("FP64", N, N), A, "AINV"),
        "reduce_rowwise": lambda: ops.reduce_rowwise(Vector("FP64", N), A, "PLUS"),
        "transpose": lambda: ops.transpose(Matrix("FP64", N, N), A),
    }


def test_disabled_overhead(benchmark, workload):
    """Disabled telemetry vs collecting telemetry on Table-I kernels."""
    A, B, u = workload

    def run():
        t = Table(
            "Telemetry wiring overhead "
            f"(n={N}, density={DENSITY}; seconds, best of 3)",
            ["operation", "disabled", "collecting", "collecting/disabled"],
        )
        assert not telemetry.ENABLED
        for name, fn in _cases(A, B, u).items():
            off = wall(fn, repeat=3)
            with telemetry.collect() as col:
                assert telemetry.ENABLED
                on = wall(fn, repeat=3)
            assert col.ops[name].calls > 0  # recorded under the plan's op name
            t.add(name, f"{off:.6f}", f"{on:.6f}", f"{on / off:.3f}")

        # the guard itself: one disabled check costs ~an attribute read
        reps = 1_000_000
        t0 = time.perf_counter()
        for _ in range(reps):
            if telemetry.ENABLED:
                telemetry.tally("guard", calls=1)
        per_guard = (time.perf_counter() - t0) / reps
        t.add("guard (1e6 calls)", f"{per_guard * 1e9:.1f} ns", "-", "-")
        t.note("disabled wiring is one module-attribute read per operation")
        emit(t, "telemetry_overhead")

    benchmark.pedantic(run, rounds=1, iterations=1)
