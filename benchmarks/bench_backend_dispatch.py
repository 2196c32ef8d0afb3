"""Backend dispatch overhead: plan + registry routing must be ~free.

The pluggable-backend refactor inserts an :class:`OpPlan` build and a
registry dispatch between the public Table-I functions and the kernels.
This bench quantifies that layer two ways:

* **micro** — a tiny mxv (where fixed costs dominate) through the public
  path vs. calling the optimized backend directly with a pre-built plan:
  the difference is the plan+dispatch cost per call;
* **macro** — a realistic Table-I workload per backend, demonstrating
  that the optimized engine's end-to-end timings are unchanged and
  showing what the reference/differential engines cost instead.
"""

import numpy as np
import pytest

from _common import emit, wall
from repro.generators import random_matrix, random_vector
from repro.graphblas import Matrix, Vector, backends
from repro.graphblas import operations as ops
from repro.graphblas import plan as planmod
from repro.harness import Table

N = 1500
DENSITY = 0.004


@pytest.fixture(scope="module")
def workload():
    A = random_matrix(N, N, DENSITY, seed=1)
    B = random_matrix(N, N, DENSITY, seed=2)
    u = random_vector(N, 0.05, seed=3)
    return A, B, u


def test_dispatch_micro_overhead(workload):
    A, _, u = workload
    tiny_A = random_matrix(64, 64, 0.05, seed=9)
    tiny_u = random_vector(64, 0.3, seed=10)
    opt = backends.get_backend("optimized")
    reps = 300

    def via_public():
        w = Vector("FP64", 64)
        for _ in range(reps):
            ops.mxv(w, tiny_A, tiny_u, "PLUS_TIMES")

    def via_prebuilt_plan():
        w = Vector("FP64", 64)
        p = planmod.plan_mxv(w, tiny_A, tiny_u, "PLUS_TIMES")
        for _ in range(reps):
            opt.mxv(p)

    t_pub = wall(via_public, repeat=5)
    t_raw = wall(via_prebuilt_plan, repeat=5)
    per_call_us = (t_pub - t_raw) / reps * 1e6

    table = Table(
        "Dispatch micro-overhead (tiny mxv, fixed costs dominate)",
        ["path", "total s (x%d)" % reps, "per-call us"],
    )
    table.add("public op (plan+dispatch)", f"{t_pub:.4f}", f"{t_pub / reps * 1e6:.1f}")
    table.add("pre-built plan, direct kernel", f"{t_raw:.4f}", f"{t_raw / reps * 1e6:.1f}")
    table.add("plan+dispatch layer", "-", f"{per_call_us:.1f}")
    table.notes.append(
        "layer cost is per *operation*, never per element; it amortizes to "
        "noise on realistic operands (see macro table)"
    )
    emit(table, "bench_backend_dispatch_micro")


def test_backend_macro_comparison(workload):
    A, B, u = workload
    small_A = random_matrix(128, 128, 0.05, seed=20)
    small_B = random_matrix(128, 128, 0.05, seed=21)
    small_u = random_vector(128, 0.2, seed=22)

    def suite(be, A_, B_, u_):
        n = A_.nrows
        with backends.backend(be):
            C = Matrix("FP64", n, n)
            ops.mxm(C, A_, B_, "PLUS_TIMES")
            w = Vector("FP64", n)
            ops.mxv(w, A_, u_, "PLUS_TIMES")
            D = Matrix("FP64", n, n)
            ops.ewise_add(D, A_, B_, "PLUS")
            ops.reduce_scalar(A_, "PLUS")

    table = Table(
        "Table-I workload per backend",
        ["backend", "n=128 (all engines) s", "n=1500 s"],
    )
    for name in ("optimized", "differential", "reference"):
        t_small = wall(suite, name, small_A, small_B, small_u, repeat=3)
        if name == "optimized":
            t_big = f"{wall(suite, name, A, B, u, repeat=3):.4f}"
        else:
            t_big = "(dense replay: small shapes only)"
        table.add(name, f"{t_small:.4f}", t_big)
    table.notes.append(
        "differential = optimized + dense verification of every in-budget op; "
        "reference = pure dense spec-literal engine"
    )
    emit(table, "bench_backend_dispatch_macro")
