"""Execution governor: budgets, deadlines, cancellation, checkpoint.

LAGraph is the production-facing layer over the GraphBLAS kernels, and in
a long-lived analytic service the *library* — not each caller — must own
resource discipline: a single oversized ``mxm`` or a non-converging
``pagerank`` must not consume unbounded memory or wall time with no way
to bound, cancel, or resume it.

The governor is a scope held in a context variable and read by the op
pipeline (and by the engine's pool blocks, which run in a copy of their
caller's context)::

    with governor.ExecutionContext(memory_budget=64 << 20, deadline=60.0) as ctx:
        ranks, iters = pagerank(G, checkpoint="pr.ckpt.npz")

Four cooperating mechanisms:

**Admission control.**  Every planner in :mod:`repro.graphblas.plan`
submits its finished :class:`~repro.graphblas.plan.OpPlan` to
:func:`admit` before any backend sees it.  The governor estimates the
result footprint from the plan (output shape, operand ``nvals``, and for
SpGEMM the partial products the kernels themselves count) and raises
:class:`~repro.graphblas.errors.BudgetExceeded`
— *before the output is allocated* — when the estimate exceeds the
context's ``memory_budget``.  A passed ``deadline`` (seconds of wall
clock from context entry) is checked at the same point and at every poll,
raising :class:`~repro.graphblas.errors.DeadlineExceeded`.

**Cooperative cancellation.**  :meth:`ExecutionContext.cancel` (from any
thread) trips a :class:`CancellationToken`; every op checks it at
admission and kernels call :func:`poll` at SpGEMM method and tile
boundaries, raising :class:`~repro.graphblas.errors.Cancelled` at the
next such point — so an iterative algorithm stops at its next op.  These
points sit *before* mutation (and the C-API boundary is transactional),
so interrupted objects stay valid.

**Checkpoint/resume.**  :class:`Checkpoint` serializes an algorithm's
loop state atomically via :mod:`repro.io.checkpoint`; the iterative
algorithms run their loops through :func:`iterate`, which owns the span,
the per-iteration records, ``checkpoint=`` and ``resume=``, so they
restart mid-loop, bit-identically for deterministic algorithms.

**Failure & over budget.**  A failed op is not replayed: it raises
once and, as arXiv 2104.01661 asks, leaves its operands unchanged.  The
one retry in the library is the spill pool's re-run of ``OSError`` on
its own tile I/O (:mod:`repro.graphblas.tiled`), which counts in the
context's ``stats["retries"]``.  Over budget has two answers: a tileable
op re-plans as tiled spill when :meth:`ExecutionContext.spill_enabled`,
and anything else raises ``BudgetExceeded`` — the caller's answer.

Every decision (admit/reject/tiled/cancel/retry/checkpoint/resume)
emits a ``governor.*`` telemetry decision event, so traces show why an
op was throttled.  An ungoverned call pays one :func:`current` read per
guard.
"""

from __future__ import annotations

import contextvars
import threading
import time

# matrix, mxm and vector import this module: their names are read at
# call time, by when all three have loaded
from . import matrix as _matrix, mxm as _mxm, options, telemetry
from . import vector as _vector
from .errors import (
    BudgetExceeded,
    Cancelled,
    DeadlineExceeded,
    InvalidValue,
)

__all__ = [
    "CancellationToken",
    "ExecutionContext",
    "Checkpoint",
    "current",
    "poll",
    "admit",
    "admit_workers",
    "estimate_result_entries",
    "estimate_plan_bytes",
    "as_checkpoint",
    "save_hook",
    "load_checkpoint",
    "iterate",
    "env_limits",
    "spill_config",
    "set_spill_config",
    "reset_spill_config",
]

_governing: contextvars.ContextVar = contextvars.ContextVar(
    "graphblas_governor", default=None)

#: GrB_Index storage cost per stored entry (int64).
_INDEX_BYTES = 8


class CancellationToken:
    """A thread-safe, latching cancellation flag.

    Tokens are shared: the context owning a long-running algorithm hands
    its token to another thread (or a signal handler), which calls
    :meth:`cancel`; the algorithm observes it at the next poll point.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: str | None = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the token; idempotent (the first reason wins)."""
        if not self._event.is_set():
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise Cancelled(self.reason or "cancelled")


# --------------------------------------------------------------------------
# result-footprint estimation
# --------------------------------------------------------------------------

def _is_matrix(x) -> bool:
    return isinstance(x, _matrix.Matrix)


def _is_vector(x) -> bool:
    return isinstance(x, _vector.Vector)


def _nvals(x) -> int:
    return int(x.nvals)


def _entry_bytes(container, out_type) -> int:
    itemsize = 8 if out_type is None else out_type.np_dtype.itemsize
    if _is_matrix(container):
        return 2 * _INDEX_BYTES + itemsize
    return _INDEX_BYTES + itemsize


def estimate_result_entries(plan) -> int:
    """Upper estimate of stored entries the op will materialize.

    Cheap and pessimistic: operand ``nvals`` and shapes already resolved
    in the plan.  For SpGEMM it is Gustavson's partial-product count
    (:func:`~repro.graphblas.mxm.flop_total`, the total of the per-entry
    flops the kernels cut by), read from each operand's stored
    orientation, plus ``nnz(C)`` under an accumulator: the product has
    no more entries than that, nor than the dense output.  Every op's
    estimate is capped by a non-complemented mask's population (plus
    ``nnz(C)`` under an accumulator).
    """
    op = plan.op
    args = plan.args
    out = plan.out

    if op == "mxm":
        A, B = args
        A.wait()
        B.wait()
        est = _mxm.flop_total(A._store, B._store, plan.desc.transpose_a,
                              plan.desc.transpose_b)
        if plan.accum is not None:
            est += _nvals(out)
        est = min(est, int(out.nrows) * int(out.ncols))
    elif op in ("mxv", "vxm"):
        A = args[0] if plan.params.get("is_mxv", op == "mxv") else args[1]
        est = min(int(out.size), _nvals(A))
    elif op == "ewise_add":
        est = _nvals(args[0]) + _nvals(args[1])
    elif op == "ewise_mult":
        est = min(_nvals(args[0]), _nvals(args[1]))
    elif op in ("apply", "select", "transpose"):
        est = _nvals(args[0])
    elif op == "extract":
        kind = plan.params.get("kind", "vector")
        if kind == "vector":
            est = int(plan.params["I"].size)
        elif kind == "col":
            est = int(plan.params["I"].size)
        else:
            region = int(plan.params["I"].size) * int(plan.params["J"].size)
            est = min(_nvals(args[0]), region)
    elif op in ("assign", "subassign"):
        A = args[0]
        if _is_matrix(A) or _is_vector(A):
            incoming = _nvals(A)
        else:  # scalar fill of the I x J region
            I = plan.params.get("I")
            J = plan.params.get("J")
            incoming = int(I.size) if I is not None else 1
            if J is not None:
                incoming *= int(J.size)
        est = _nvals(plan.out) + incoming
    elif op == "kronecker":
        est = _nvals(args[0]) * _nvals(args[1])
    elif op == "reduce_rowwise":
        est = int(out.size)
    elif op == "reduce_scalar":
        est = 1
    else:  # pragma: no cover - future ops default to the dense bound
        est = int(out.nrows) * int(out.ncols) if _is_matrix(out) \
            else int(out.size)

    mask = plan.mask
    if mask is not None and not plan.desc.complement_mask:
        cap = _nvals(mask)
        if plan.accum is not None and out is not None:
            cap += _nvals(out)
        est = min(est, cap)
    return max(int(est), 1)


def estimate_plan_bytes(plan) -> int:
    """Estimated peak bytes the op will allocate for its result."""
    ref = plan.out if plan.out is not None else plan.args[0]
    return estimate_result_entries(plan) * _entry_bytes(ref, plan.out_type)


# --------------------------------------------------------------------------
# the execution context
# --------------------------------------------------------------------------

class ExecutionContext:
    """Resource scope for a batch of GraphBLAS work.

    Parameters
    ----------
    memory_budget:
        Per-operation result budget in bytes (None = unlimited).  Plans
        whose estimated footprint exceeds it run as tiled spill when
        tileable and spilling is on, else raise
        :class:`~repro.graphblas.errors.BudgetExceeded`.
    deadline:
        Wall-clock seconds from ``__enter__``; once passed, every
        admission and poll raises
        :class:`~repro.graphblas.errors.DeadlineExceeded`.
    cancel:
        A shared :class:`CancellationToken` (one is created if omitted).
    spill, spill_dir, spill_budget:
        Tiled spill for over-budget tileable plans: on/off (None = the
        ``GRAPHBLAS_SPILL`` switch), pool directory and byte budget.

    The scope is a context variable: contexts nest (the innermost
    governs), the engine's pool blocks see the context of the call that
    started them, and other threads do not.  A context is single-use:
    re-entering it raises.
    """

    def __init__(self, *, memory_budget: int | None = None,
                 deadline: float | None = None,
                 cancel: CancellationToken | None = None,
                 spill: bool | None = None,
                 spill_dir=None,
                 spill_budget: int | None = None) -> None:
        if memory_budget is not None and memory_budget < 0:
            raise InvalidValue(f"memory_budget must be >= 0, got {memory_budget}")
        if deadline is not None and deadline < 0:
            raise InvalidValue(f"deadline must be >= 0, got {deadline}")
        if spill_budget is not None and spill_budget < 0:
            raise InvalidValue(f"spill_budget must be >= 0, got {spill_budget}")
        self.memory_budget = None if memory_budget is None else int(memory_budget)
        self.deadline = None if deadline is None else float(deadline)
        self.token = cancel if cancel is not None else CancellationToken()
        self.spill = None if spill is None else bool(spill)
        self.spill_dir = spill_dir
        self.spill_budget = None if spill_budget is None else int(spill_budget)
        self.deadline_at: float | None = None
        self.stats = {
            "admitted": 0, "rejected": 0, "tiled": 0,
            "cancelled": 0, "retries": 0,
        }
        self._entered = False
        self._token = None

    # -- scope management ---------------------------------------------------

    def __enter__(self) -> "ExecutionContext":
        if self._entered:
            raise InvalidValue("ExecutionContext is single-use; create a new one")
        self._entered = True
        if self.deadline is not None:
            self.deadline_at = time.monotonic() + self.deadline
        self._token = _governing.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _governing.reset(self._token)

    # -- controls -----------------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip this context's cancellation token (any thread may call)."""
        self.token.cancel(reason)

    # -- enforcement --------------------------------------------------------

    def check(self) -> None:
        """Raise if cancelled or past deadline.  The poll primitive."""
        if self.token.cancelled:
            self.stats["cancelled"] += 1
            if telemetry.ENABLED:
                telemetry.decision("governor.cancel", reason=self.token.reason)
            raise Cancelled(self.token.reason or "cancelled")
        if self.deadline_at is not None and time.monotonic() > self.deadline_at:
            self.stats["cancelled"] += 1
            if telemetry.ENABLED:
                telemetry.decision("governor.cancel", reason="deadline",
                                   deadline_s=self.deadline)
            raise DeadlineExceeded(
                f"deadline of {self.deadline}s exceeded"
            )

    def admit(self, plan) -> None:
        """Admission control for one plan; called by every planner.

        Raises :class:`~repro.graphblas.errors.Cancelled` /
        :class:`~repro.graphblas.errors.DeadlineExceeded` /
        :class:`~repro.graphblas.errors.BudgetExceeded` before any output
        allocation, or tags an over-budget tileable plan for tiled spill.
        """
        self.check()
        if self.memory_budget is None:
            self.stats["admitted"] += 1
            return
        est = estimate_plan_bytes(plan)
        plan.params["est_bytes"] = est
        if est <= self.memory_budget:
            self.stats["admitted"] += 1
            return  # the dispatcher's op record carries admission="admitted"
        if plan.op in _TILEABLE and self.spill_enabled():
            plan.params["governor_tiled"] = True
            self.stats["tiled"] += 1
            return  # the dispatcher's op record carries route="tiled"
        self.stats["rejected"] += 1
        if telemetry.ENABLED:
            telemetry.decision("governor.reject", op=plan.op, reason="budget",
                               est_bytes=est, budget=self.memory_budget)
        why = "not tileable" if plan.op not in _TILEABLE else "tiled spill disabled"
        raise BudgetExceeded(
            f"{plan.op}: estimated result footprint {est} B exceeds the "
            f"context memory budget of {self.memory_budget} B by "
            f"{est - self.memory_budget} B ({why})"
        )

    def spill_enabled(self) -> bool:
        """Whether over-budget tileable ops re-plan as tiled spill: the
        context's ``spill=`` if set, else the ``GRAPHBLAS_SPILL`` switch."""
        if self.spill is not None:
            return self.spill
        return spill_config()[0]

    def spill_settings(self) -> tuple:
        """(directory, byte budget) for this context's spill pools."""
        _, env_dir, env_budget = spill_config()
        directory = self.spill_dir if self.spill_dir is not None else env_dir
        budget = self.spill_budget if self.spill_budget is not None else env_budget
        return directory, budget


def current() -> ExecutionContext | None:
    """The innermost context governing this call, or None."""
    return _governing.get()


def poll() -> None:
    """Cooperative cancellation/deadline check; no-op when un-governed."""
    ctx = current()
    if ctx is not None:
        ctx.check()


def admit(plan) -> None:
    """Submit a plan for admission; no-op when un-governed."""
    ctx = current()
    if ctx is not None:
        ctx.admit(plan)


def admit_workers(requested: int, per_block_bytes: int, op: str = "mxm") -> int:
    """Admit a parallel worker count against the governing memory budget.

    Each in-flight row block of the engine's parallel kernels holds
    roughly ``per_block_bytes`` of expansion buffers, so the admitted
    count keeps ``workers * per_block_bytes`` within the context's
    ``memory_budget``.  Never admits below one worker — serial execution
    is always allowed (the *plan* was already admitted as a whole; this
    only throttles the transient parallel working set on top of it).
    Un-governed threads get the requested count unchanged.
    """
    requested = max(1, int(requested))
    ctx = current()
    if ctx is None:
        return requested
    ctx.check()
    if ctx.memory_budget is None or per_block_bytes <= 0:
        return requested
    admitted = max(1, min(requested, ctx.memory_budget // int(per_block_bytes)))
    if telemetry.ENABLED and admitted != requested:
        telemetry.decision(
            "engine.workers",
            op=op,
            requested=requested,
            admitted=admitted,
            per_block_bytes=int(per_block_bytes),
            budget=ctx.memory_budget,
        )
    return admitted


def env_limits() -> tuple[int | None, float | None]:
    """(memory_budget, deadline) from the ``governor`` option rows.

    Used by the CI governor leg to wrap each resilience test in a
    budgeted, deadlined context.
    """
    cfg = options.get("governor")
    return cfg["budget"], cfg["deadline"]


# --------------------------------------------------------------------------
# spill configuration
# --------------------------------------------------------------------------

#: Ops the tiled planner can serve; everything else over budget is rejected.
_TILEABLE = ("mxm", "mxv", "vxm")


def spill_config() -> tuple[bool, str | None, int]:
    """Effective (enabled, directory, budget) from the ``spill`` option
    rows: overrides, then environment, then defaults."""
    cfg = options.get("spill")
    return cfg["enabled"], cfg["directory"], cfg["budget"]


def set_spill_config(**overrides) -> None:
    """Install process-wide spill overrides (the ``GxB_Spill_set`` core):
    ``enabled``, ``directory``, ``budget``.  Only the arguments given
    change; :func:`reset_spill_config` drops them all."""
    options.set("spill", **overrides)


def reset_spill_config() -> None:
    """Drop all spill overrides (back to environment defaults)."""
    options.reset("spill")


# --------------------------------------------------------------------------
# checkpoint/resume
# --------------------------------------------------------------------------

class Checkpoint:
    """Periodic, atomic snapshots of an iterative algorithm's loop state.

    Pass to an algorithm's ``checkpoint=``; every ``every``-th iteration
    the loop state (frontier/parent/rank containers plus the iteration
    counter) is serialized to ``path`` via
    :func:`repro.io.checkpoint.save_state` (write-to-temp + atomic
    rename, so a crash mid-save leaves the previous snapshot intact).
    """

    def __init__(self, path, *, every: int = 1) -> None:
        if every < 1:
            raise InvalidValue(f"every must be >= 1, got {every}")
        self.path = str(path)
        self.every = int(every)
        self.saves = 0

    def should(self, iteration: int) -> bool:
        return iteration % self.every == 0

    def save(self, algorithm: str, iteration: int, state: dict) -> None:
        from ..io.checkpoint import save_state
        payload = {"__algorithm__": algorithm, "__iteration__": int(iteration)}
        payload.update(state)
        save_state(self.path, payload)
        self.saves += 1
        if telemetry.ENABLED:
            telemetry.decision("governor.checkpoint", op=algorithm,
                               iteration=int(iteration), path=self.path)


def as_checkpoint(spec):
    """Normalize an algorithm's ``checkpoint=`` argument.

    None passes through; a :class:`Checkpoint` is used as-is; a plain
    callable is kept (invoked as ``fn(algorithm, iteration, state)``);
    a path becomes ``Checkpoint(path)``.
    """
    if spec is None or isinstance(spec, Checkpoint) or callable(spec):
        return spec
    return Checkpoint(spec)


def save_hook(cp, algorithm: str, iteration: int, state: dict) -> None:
    """Invoke a normalized checkpoint hook for one completed iteration."""
    if cp is None:
        return
    if isinstance(cp, Checkpoint):
        if cp.should(iteration):
            cp.save(algorithm, iteration, state)
        return
    cp(algorithm, int(iteration), dict(state))


def load_checkpoint(spec, *, algorithm: str | None = None) -> dict:
    """Load a snapshot for an algorithm's ``resume=`` path.

    ``spec`` is a path or a :class:`Checkpoint`.  When ``algorithm`` is
    given, a snapshot written by a different algorithm is rejected with
    :class:`~repro.graphblas.errors.InvalidValue` rather than resuming
    into the wrong loop.
    """
    path = spec.path if isinstance(spec, Checkpoint) else str(spec)
    from ..io.checkpoint import load_state
    state = load_state(path)
    found = state.get("__algorithm__")
    if algorithm is not None and found != algorithm:
        raise InvalidValue(
            f"checkpoint {path!r} was written by {found!r}, "
            f"cannot resume {algorithm!r}"
        )
    if telemetry.ENABLED:
        telemetry.decision("governor.resume", op=found or "unknown",
                           iteration=int(state.get("__iteration__", -1)),
                           path=path)
    return state


def _fits(fresh, got) -> bool:
    """Whether a restored container can stand in for a fresh one: same
    kind, element type and leading dimension (vector size, matrix rows —
    the vertices, sources or samples a loop iterates over)."""
    if _is_vector(fresh):
        return _is_vector(got) and got.dtype == fresh.dtype and got.size == fresh.size
    if _is_matrix(fresh):
        return _is_matrix(got) and got.dtype == fresh.dtype and got.nrows == fresh.nrows
    return True


def iterate(algorithm: str, state: dict, step, checkpoint=None, resume=None, *,
            span: str | None = None, event: str | None = None,
            steps: int | None = None, until=None, start: int = 0,
            **span_attrs) -> int:
    """The one iteration driver of the iterative LAGraph algorithms.

    Calls ``step(iteration, state)`` with ``iteration`` = the number of
    steps completed so far.  A step returns the fields of its record, or
    None when nothing is left to do (the loop ends without a record).
    After each completed step the driver emits ``event`` (if given) as a
    telemetry instant with those fields, hands ``state`` to the
    ``checkpoint`` hook (see :func:`as_checkpoint`) under the
    completed-step count, and ends the loop once ``until(record)`` holds
    or ``steps`` steps are done.  The loop runs inside the telemetry span
    ``span`` (default: ``algorithm``); the returned value is the number
    of completed steps.

    ``resume`` restores ``state`` in place from a snapshot of the same
    algorithm.  The snapshot must hold every container of the fresh
    ``state`` with the same kind, element type and leading dimension,
    and at most ``steps`` completed steps; otherwise
    :class:`~repro.graphblas.errors.InvalidValue`.  The driver polls
    nothing: every op a step runs is admitted by the governing context,
    so cancellation and deadlines land between (and inside) iterations.
    """
    cp = as_checkpoint(checkpoint)
    it = start
    if resume is not None:
        snap = load_checkpoint(resume, algorithm=algorithm)
        it = int(snap["__iteration__"])
        for key, fresh in state.items():
            if key not in snap or not _fits(fresh, snap[key]):
                raise InvalidValue(
                    f"checkpoint entry {key!r} does not fit this {algorithm} run"
                )
        if steps is not None and it > steps:
            raise InvalidValue(
                f"checkpoint records {it} steps, this {algorithm} run has {steps}"
            )
        state.update((k, v) for k, v in snap.items() if not k.startswith("__"))
    with telemetry.span(span or algorithm, **span_attrs):
        while steps is None or it < steps:
            record = step(it, state)
            if record is None:
                break
            it += 1
            if event is not None and telemetry.ENABLED:
                telemetry.instant(event, **record)
            if cp is not None:
                save_hook(cp, algorithm, it, state)
            if until is not None and until(record):
                break
    return it
