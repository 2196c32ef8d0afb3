"""Differential backend: run optimized, verify against the dense mimic.

The paper's testing methodology (section II.A) pairs every optimized
kernel with a spec-literal MATLAB-style implementation and compares the
two on random inputs.  This backend turns that offline methodology into
a runtime engine: every dispatched :class:`~repro.graphblas.plan.OpPlan`
executes on the ``optimized`` engine — the one production dispatch
runs, so its compiled kernels wherever ``compiled.select`` picks them
and NumPy elsewhere (``plan.kernel`` says which) — and, when the
operation is small enough to afford a dense replay, the same plan is
re-run through the ``reference`` kernels on snapshots of the inputs
taken *before* the optimized engine mutated the output.  Any
disagreement in pattern or values raises
:class:`~repro.graphblas.errors.BackendDivergence`.

Dense replay of an m x n matrix op costs Theta(m*n) (Theta(m*n*k) for
mxm), so verification is budgeted: plans whose estimated dense cost
exceeds ``GRAPHBLAS_DIFF_BUDGET`` cells (default ``1 << 22``) are
executed on the optimized engine only and *counted as skipped* — the
``stats`` dict and ``differential.skip`` telemetry decisions make the
coverage gap explicit rather than silently claiming full verification.
In ``strict=True`` mode a skip is not tolerated: an over-budget plan
raises :class:`~repro.graphblas.errors.BudgetExceeded` instead, so a CI
leg that promises full verification fails loudly when coverage slips.

    with graphblas.backend("differential"):
        level = bfs_level(G, src)          # every affordable op is checked
    graphblas.backends.get_backend("differential").stats
    # {'verified': 812, 'skipped': 40, 'divergences': 0}
"""

from __future__ import annotations

import numpy as np

from .. import governor, options, telemetry
from ..errors import BackendDivergence, BudgetExceeded
from ..matrix import Matrix
from ..plan import TABLE1_OPS, OpPlan
from ..reference import RefMatrix, _values_match
from ..vector import Vector
from . import KernelBackend, get_backend
from .reference import run_ref, to_ref

def _dense_cells(x) -> int:
    if isinstance(x, Matrix):
        return x.nrows * x.ncols
    if isinstance(x, Vector):
        return x.size
    return 0


def plan_cost(plan: OpPlan) -> int:
    """Estimated dense-replay cost in cells (flop count for mxm)."""
    cells = max(
        [_dense_cells(plan.out)]
        + [_dense_cells(a) for a in plan.args]
        + [_dense_cells(plan.mask)]
    )
    if plan.op == "mxm":
        out = plan.out
        return max(cells, out.nrows * out.ncols * plan.params["inner"])
    return cells


class DifferentialBackend(KernelBackend):
    """Optimized engine with budgeted spec-literal cross-checking."""

    name = "differential"

    def __init__(self, budget: int | None = None, *, strict: bool = False):
        if budget is None:
            budget = options.get("diff")["budget"]
        self.budget = budget
        self.strict = bool(strict)
        self.stats = {"verified": 0, "skipped": 0, "divergences": 0}

    def reset_stats(self) -> None:
        self.stats = {"verified": 0, "skipped": 0, "divergences": 0}

    def _run(self, plan: OpPlan):
        if governor.ACTIVE:
            governor.poll()
        opt = get_backend("optimized")
        cost = plan_cost(plan)
        if cost > self.budget:
            self.stats["skipped"] += 1
            if telemetry.ENABLED:
                telemetry.decision(
                    "differential.skip", op=plan.op, cost=cost,
                    budget=self.budget, strict=self.strict,
                )
            if self.strict:
                raise BudgetExceeded(
                    f"{plan.op}: dense-replay cost {cost} cells exceeds the "
                    f"verification budget of {self.budget} cells and the "
                    f"differential backend is strict"
                )
            return getattr(opt, plan.op)(plan)

        # Snapshot operands before the optimized engine mutates the output.
        ref_out = to_ref(plan.out)
        ref_args = tuple(to_ref(a) for a in plan.args)
        ref_mask = to_ref(plan.mask)

        result = getattr(opt, plan.op)(plan)
        expected = run_ref(plan, ref_out, ref_args, ref_mask)

        if plan.op == "reduce_scalar":
            dtype = plan.out_type
            ok = bool(
                _values_match(
                    dtype.cast_array(np.asarray([expected])),
                    dtype.cast_array(np.asarray([result])),
                    dtype,
                )
            )
        else:
            ok = expected.matches(result)

        if not ok:
            self.stats["divergences"] += 1
            if telemetry.ENABLED:
                telemetry.decision("differential.divergence", op=plan.op)
            raise BackendDivergence(
                f"{plan.op}: optimized and reference engines disagree on the "
                f"result (pattern or values)"
            )
        self.stats["verified"] += 1
        if telemetry.ENABLED:
            telemetry.decision("differential.verify", op=plan.op, cost=cost)
        return result


for _op in TABLE1_OPS:
    setattr(DifferentialBackend, _op, DifferentialBackend._run)
del _op
