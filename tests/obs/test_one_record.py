"""One executed operation leaves one record.

Every public Table-I call is timed once, by the backend dispatcher, and
reported as one ``op`` event named after the plan's op.  The collector,
the metrics sink and the slow-op log all read that same record, so its
fields do not depend on whether observability is on.
"""

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.generators import random_matrix, random_vector
from repro.graphblas import FP64, Matrix, Vector, capi, telemetry
from repro.graphblas import operations as ops
from repro.graphblas.plan import TABLE1_OPS

N = 12
_I = np.array([0, 2, 5])

# every field the dispatcher's record may carry; the first group always
ALWAYS = {"backend", "route", "admission"}
FIELDS = ALWAYS | {"out_nvals", "kernel", "kernel_cache", "toolchain",
                   "method", "density", "threshold", "est_bytes",
                   "actual_bytes", "tile_dim", "tiles", "spills", "reloads",
                   "evictions", "spilled_bytes", "reloaded_bytes"}
#: what the SpGEMM / push-pull choice may say ran
METHODS = {"mxm": {"gustavson", "dot", "heap"},
           "mxv": {"push", "pull"}, "vxm": {"push", "pull"}}


def _operands():
    A = random_matrix(N, N, 0.3, seed=1)
    B = random_matrix(N, N, 0.3, seed=2)
    S = random_matrix(_I.size, _I.size, 0.6, seed=3)
    u = random_vector(N, 0.5, seed=4)
    return A, B, S, u


@pytest.fixture(scope="module")
def operands():
    return _operands()


def _calls(A, B, S, u):
    """One call per public Table-I op: (make output, run on it)."""
    k = _I.size
    return {
        "mxm": (lambda: Matrix(FP64, N, N),
                lambda C: ops.mxm(C, A, B, "PLUS_TIMES")),
        "mxv": (lambda: Vector(FP64, N), lambda w: ops.mxv(w, A, u)),
        "vxm": (lambda: Vector(FP64, N), lambda w: ops.vxm(w, u, A)),
        "ewise_add": (lambda: Matrix(FP64, N, N),
                      lambda C: ops.ewise_add(C, A, B, "PLUS")),
        "ewise_mult": (lambda: Matrix(FP64, N, N),
                       lambda C: ops.ewise_mult(C, A, B, "TIMES")),
        "apply": (lambda: Matrix(FP64, N, N),
                  lambda C: ops.apply(C, A, "AINV")),
        "select": (lambda: Matrix(FP64, N, N),
                   lambda C: ops.select(C, A, "TRIL", 0)),
        "reduce_rowwise": (lambda: Vector(FP64, N),
                           lambda w: ops.reduce_rowwise(w, A, "PLUS")),
        "reduce_scalar": (lambda: None,
                          lambda _: ops.reduce_scalar(A, "PLUS")),
        "transpose": (lambda: Matrix(FP64, N, N),
                      lambda C: ops.transpose(C, A)),
        "extract": (lambda: Matrix(FP64, k, k),
                    lambda C: ops.extract(C, A, _I, _I)),
        "assign": (lambda: A.dup(), lambda C: ops.assign(C, S, _I, _I)),
        "subassign": (lambda: A.dup(),
                      lambda C: ops.subassign(C, S, _I, _I)),
        "kronecker": (lambda: Matrix(FP64, N * k, N * k),
                      lambda C: ops.kronecker(C, A, S, "TIMES")),
    }


def _run(calls, op):
    make, call = calls[op]
    out = make()  # built outside the capture: only the op is recorded
    with telemetry.collect() as col:
        call(out)
    return col.events


def _record(events, op):
    """The call's one record, after checking nothing else is bookkeeping."""
    recs = [e for e in events if e["type"] == "op"]
    assert [e["name"] for e in recs] == [op]
    assert {e["type"] for e in events} <= {"op", "decision"}
    rec = recs[0]
    assert rec["dur"] > 0
    args = rec["args"]
    assert ALWAYS <= set(args) <= FIELDS
    assert args["route"] == "direct"
    assert args["admission"] == "ungoverned"
    assert ("out_nvals" in args) is (op != "reduce_scalar")
    assert ("kernel_cache" in args) is (args.get("kernel") == "compiled")
    assert ("toolchain" in args) is (args.get("kernel") == "compiled")
    assert args.get("method") in METHODS.get(op, {None})
    return rec


def test_table1_cases_cover_every_op(operands):
    assert sorted(_calls(*operands)) == sorted(TABLE1_OPS)


@pytest.mark.parametrize("with_obs", [False, True],
                         ids=["collector", "collector+obs"])
@pytest.mark.parametrize("op", TABLE1_OPS)
def test_one_record_per_call(operands, op, with_obs):
    calls = _calls(*operands)
    _run(calls, op)  # warm kernel caches so both modes see the same path
    if with_obs:
        obs.enable(slow_ms=0.0)
    rec = _record(_run(calls, op), op)
    if not with_obs:
        return
    snap = obs.snapshot()
    (route,) = snap["counters"]["graphblas_plan_route_total"]
    assert route["value"] == 1
    assert route["labels"] == {"backend": rec["args"]["backend"], "op": op,
                               "route": "direct"}
    (hist,) = snap["histograms"]["graphblas_op_seconds"]
    assert hist["labels"] == {"op": op} and hist["count"] == 1
    # the slow-op log keeps the very same record
    (slow,) = obs.slow_ops()
    assert slow["op"] == op
    assert slow["seconds"] == pytest.approx(rec["dur"] / 1e6)
    assert {k: slow[k] for k in rec["args"]} == rec["args"]


@pytest.mark.parametrize("op", TABLE1_OPS)
def test_fields_same_with_or_without_obs(operands, op):
    calls = _calls(*operands)
    _run(calls, op)
    alone = _record(_run(calls, op), op)["args"]
    obs.enable()
    fanned = _record(_run(calls, op), op)["args"]
    assert set(fanned) == set(alone)


def test_differential_backend_is_named(operands):
    A, B, _, _ = operands
    C = Matrix(FP64, N, N)
    with telemetry.collect() as col:
        ops.mxm(C, A, B, "PLUS_TIMES", backend="differential")
    rec = _record(col.events, "mxm")
    assert rec["args"]["backend"] == "differential"


def test_governed_over_budget_mxm_is_one_tiled_record(tmp_path):
    rng = np.random.default_rng(7)
    n, nnz = 120, 1500
    r, c = rng.integers(0, n, nnz), rng.integers(0, n, nnz)
    A = Matrix.from_coo(r, c, rng.random(nnz), nrows=n, ncols=n,
                        dtype=FP64, dup="first")
    C = Matrix(FP64, n, n)
    obs.enable()
    with telemetry.collect() as col:
        with capi.GxB_Context_new(memory_budget=1, spill=True,
                                  spill_dir=str(tmp_path)) as ctx:
            ops.mxm(C, A, A, "PLUS_TIMES")
    assert ctx.stats["tiled"] == 1
    recs = [e for e in col.events if e["type"] == "op"]
    assert [e["name"] for e in recs] == ["mxm"]
    args = recs[0]["args"]
    assert (args["route"], args["backend"], args["admission"]) == (
        "tiled", "tiled", "tiled")
    assert args["est_bytes"] > 0 and args["actual_bytes"] > 0
    assert args["method"] == "gustavson" and args["tile_dim"] > 0
    assert args["tiles"] > 0
    assert set(args) <= FIELDS
    assert col.snapshot()["governor"]["tiled"] == 1
    (route,) = obs.snapshot()["counters"]["graphblas_plan_route_total"]
    assert route["labels"]["route"] == "tiled" and route["value"] == 1


def test_route_total_counts_every_call_across_threads(operands):
    calls = _calls(*operands)
    for op in TABLE1_OPS:
        _run(calls, op)
    obs.enable()
    seen, errors = [], []

    def worker():
        try:
            calls = _calls(*_operands())  # each thread owns its operands
            outs = {op: calls[op][0]() for op in TABLE1_OPS}
            with telemetry.collect() as col:
                for op in TABLE1_OPS:
                    calls[op][1](outs[op])
            seen.append([e["name"] for e in col.events if e["type"] == "op"])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the shard writes finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert seen == [list(TABLE1_OPS)] * 4
    routes = obs.snapshot()["counters"]["graphblas_plan_route_total"]
    assert sum(s["value"] for s in routes) == 4 * len(TABLE1_OPS)
