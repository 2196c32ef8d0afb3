"""O1 — observability overhead: disabled, metrics, metrics plus a collector.

ISSUE 7's acceptance gate: with observability *disabled* the Table-I
workload must run within noise of the plain-telemetry baseline (the
instrumented sites still pay exactly one ``if telemetry.ENABLED:``
module-attribute read — nothing new was added to the disabled path), and
the *enabled* cost (per-thread sharded counters + log2 histograms, no
collector, no events) must stay a small bounded multiple.

Three columns over the Table-I kernels:

* ``disabled`` — shipped state: no collector, no sink;
* ``metrics`` — ``obs.enable()`` only: every op feeds the process-wide
  registry (two dict writes per record on the owning thread's shard);
* ``metrics+collector`` — worst case: sink installed *and* a collector
  attached, so each op's one record also lands in the event log (what
  ``obs.explain`` captures).

Plus microbenchmarks of the disabled guard and one registry write, and a
machine-readable summary written to ``benchmarks/results/obs_overhead.json``
(the CI metrics-smoke leg asserts the budget from it; ``BENCH_PR7.json``
commits one run).
"""

import json
import math
import os
import time

import pytest

from _common import RESULTS_DIR, emit, wall
from repro import obs
from repro.generators import random_matrix, random_vector
from repro.graphblas import Matrix, Vector, telemetry
from repro.graphblas import operations as ops
from repro.harness import Table

N = 1500
DENSITY = 0.004

# the enabled-path budget asserted by CI.  Metrics cost is a constant
# per executed plan (a handful of shard writes for its one op record),
# so the fair gate is two-sided: ops long enough for the
# constant to wash out must stay under the ratio, and µs-scale ops
# (transpose on a 1500² sparse matrix runs in ~15 µs) must keep the
# absolute per-op overhead bounded.
ENABLED_BUDGET_RATIO = 1.5
ENABLED_BUDGET_ABS_S = 50e-6


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


def test_obs_overhead(benchmark, workload):
    """Disabled vs metrics-enabled vs metrics+collector Table-I kernels."""
    A, B, u = workload

    def run():
        obs.reset()
        t = Table(
            "Observability overhead "
            f"(n={N}, density={DENSITY}; seconds, best of 3)",
            ["operation", "disabled", "metrics", "metrics+collector",
             "metrics/disabled"],
        )
        summary = {"n": N, "density": DENSITY, "ops": {}}
        ratios = []
        for name, fn in _cases(A, B, u).items():
            # disabled and enabled rounds interleave, and the first of a
            # pair alternates, so a load swing on a shared machine lands
            # on both columns rather than on whichever ran second; each
            # round is one untimed call and one timed call
            best = {False: math.inf, True: math.inf}
            for rnd in range(3):
                for enabled in (rnd % 2 == 1, rnd % 2 == 0):
                    if enabled:
                        obs.enable()
                    assert telemetry.ENABLED == enabled
                    fn()
                    best[enabled] = min(best[enabled], wall(fn, repeat=1))
                    obs.disable()
            off, on = best[False], best[True]

            obs.enable()
            with telemetry.collect():
                traced = wall(fn, repeat=3)
            obs.disable()

            ratio = on / off
            ratios.append(ratio)
            t.add(name, f"{off:.6f}", f"{on:.6f}", f"{traced:.6f}",
                  f"{ratio:.3f}")
            summary["ops"][name] = {
                "disabled_s": off, "metrics_s": on, "traced_s": traced,
                "metrics_ratio": ratio,
            }

        # microbenchmarks: the disabled guard and one registry write
        reps = 1_000_000
        t0 = time.perf_counter()
        for _ in range(reps):
            if telemetry.ENABLED:
                telemetry.tally("guard", calls=1)
        per_guard = (time.perf_counter() - t0) / reps

        reg = obs.registry()
        reps = 200_000
        t0 = time.perf_counter()
        for _ in range(reps):
            reg.counter_inc("bench_total", 1, {"op": "mxm"})
            reg.observe("bench_seconds", 1e-4, {"op": "mxm"})
        per_write = (time.perf_counter() - t0) / reps
        obs.reset()

        t.add("guard (1e6 calls)", f"{per_guard * 1e9:.1f} ns", "-", "-", "-")
        t.add("counter+observe", "-", f"{per_write * 1e9:.1f} ns", "-", "-")
        t.note("metrics column = sharded registry writes, no collector")
        emit(t, "obs_overhead")

        summary["guard_ns"] = per_guard * 1e9
        summary["registry_write_ns"] = per_write * 1e9
        summary["metrics_ratio_worst"] = max(ratios)
        summary["metrics_ratio_geomean"] = math.exp(
            sum(math.log(r) for r in ratios) / len(ratios)
        )
        summary["budget_ratio"] = ENABLED_BUDGET_RATIO
        summary["budget_abs_s"] = ENABLED_BUDGET_ABS_S
        summary["within_budget"] = all(
            o["metrics_ratio"] <= ENABLED_BUDGET_RATIO
            or o["metrics_s"] - o["disabled_s"] <= ENABLED_BUDGET_ABS_S
            for o in summary["ops"].values()
        )
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "obs_overhead.json"), "w",
                  encoding="utf-8") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
        assert summary["within_budget"], (
            f"metrics-enabled overhead exceeds {ENABLED_BUDGET_RATIO}x "
            f"(or {ENABLED_BUDGET_ABS_S * 1e6:.0f}µs absolute) budget: "
            f"{summary['ops']}"
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
