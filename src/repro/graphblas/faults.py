"""Fault injection: named failure points threaded through the engine.

The LAGraph follow-on work (Szárnyas et al., arXiv:2104.01661) makes
error-checked entry points a design pillar: a GraphBLAS library must keep
user objects consistent even when an operation fails mid-flight — out of
memory during SpGEMM, an invalid index discovered at execution time.  To
*prove* that property (rather than assume it), this module lets tests make
any internal step fail on demand:

* every instrumented site names an **injection point** (``"alloc"``,
  ``"assemble"``, ``"spgemm.flop"``, ``"io.read"``, ...);
* a test arms a point with :func:`inject`, choosing a **deterministic**
  trigger (fail on the nth call) or a **seeded-probabilistic** one (fail
  each call with probability p under a fixed seed);
* the armed site raises the configured exception exactly as a real failure
  would, once: nothing in the library replays the failed call (only the
  spill pool re-runs its own tile I/O on ``OSError``).  The resilience
  suite then asserts that every operand is unchanged, still passes
  :mod:`repro.graphblas.validate`, and that the caller's next call,
  outside the fault, completes correctly.

Zero overhead when disabled
---------------------------
Instrumented sites are guarded by the module-level flag :data:`ENABLED`::

    if faults.ENABLED:
        faults.trip("spgemm.flop")

With no armed plan the guard is a single module-attribute read per
*operation* (never per element), so production runs pay nothing measurable
(see ``benchmarks/bench_resilience_overhead.py``).

Typical use::

    from repro.graphblas import faults
    from repro.graphblas.errors import OutOfMemory

    with faults.inject("spgemm.flop", OutOfMemory, nth=1):
        ops.mxm(C, A, B)          # raises OutOfMemory from inside SpGEMM
    ops.mxm(C, A, B)              # the next call, outside the fault: succeeds
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from . import options
from .errors import OutOfMemory

__all__ = [
    "ENABLED",
    "POINTS",
    "FaultPlan",
    "inject",
    "trip",
    "register_point",
    "active_plans",
    "call_count",
    "fired",
    "reset_stats",
    "run_seed",
    "set_run_seed",
]

# Module-level kill switch.  False in production; flipped by inject().
# Sites guard their trip() call with ``if faults.ENABLED`` so the disabled
# path costs one attribute read.
ENABLED = False

# Registered injection points.  register_point() extends this set; trip()
# on an unregistered point is a programming error (caught in FaultPlan).
POINTS = {
    # object lifecycle
    "alloc",          # Matrix/Vector construction (storage allocation)
    "build",          # bulk build from tuples (also the write-commit path)
    "assemble",       # wait(): zombie kill + pending-tuple assembly
    "setElement",     # deferred single-element insert
    "removeElement",  # deferred single-element delete
    # kernels
    "spgemm.flop",    # sparse matrix-matrix multiply kernel
    "mxv.push",       # SpMSpV push traversal
    "mxv.pull",       # SpMV pull traversal
    "ewise",          # eWiseAdd / eWiseMult
    "apply",          # apply (unary / bound-binary / index-unary)
    "select",         # select
    "reduce",         # reduce (row-wise and scalar)
    "transpose",      # transpose
    "extract",        # extract
    "assign",         # assign / subassign
    "kronecker",      # kronecker product
    # i/o
    "io.read",        # Matrix Market / edge list / npz / spilled tile reading
    "io.write",       # Matrix Market / edge list / npz / spilled tile writing
    # serving
    "serve.exec",     # repro.serve query run (chaos harness)
}

_lock = threading.Lock()
_plans: list["FaultPlan"] = []
_counts: dict[str, int] = {}          # armed-call counts per targeted point
_fired: list[tuple[str, int]] = []    # (point, call number) of raised faults

# point -> tuple of armed plans targeting it, rebuilt on arm/disarm and
# swapped atomically.  trip() on a point with no armed plan is then one
# attribute read plus one dict probe, so arming a plan at one point does
# not tax every other instrumented site in the process (the serving
# chaos benchmark runs thousands of kernel ops per injected fault).
_armed_points: dict[str, tuple["FaultPlan", ...]] = {}


def _rebuild_index() -> None:
    index: dict[str, tuple["FaultPlan", ...]] = {}
    for plan in _plans:
        index[plan.point] = index.get(plan.point, ()) + (plan,)
    global _armed_points
    _armed_points = index

# Per-run base seed for probabilistic plans armed without an explicit
# seed: read once from GRAPHBLAS_FAULT_SEED (else fresh OS entropy) and
# combined with a monotone arm counter so every armed plan draws a
# distinct but reproducible stream.  The resilience suite prints the seed
# on failure so probabilistic failures replay deterministically.
_run_seed: int | None = None
_arm_counter = 0


def run_seed() -> int:
    """The recorded per-run fault-injection seed (created on first use)."""
    global _run_seed
    if _run_seed is None:
        seed = options.get("faults")["seed"]
        if seed is None:
            seed = int(np.random.SeedSequence().entropy)
        _run_seed = seed & 0xFFFFFFFF
    return _run_seed


def set_run_seed(seed: int | None) -> None:
    """Pin (or with None, reset) the per-run seed; also resets arm order."""
    global _run_seed, _arm_counter
    with _lock:
        _run_seed = None if seed is None else int(seed) & 0xFFFFFFFF
        _arm_counter = 0


def _next_plan_seed() -> int:
    """Derive the next armed plan's seed from the run seed + arm order."""
    global _arm_counter
    base = run_seed()
    with _lock:
        n = _arm_counter
        _arm_counter += 1
    return (base + 0x9E3779B9 * (n + 1)) & 0xFFFFFFFF


def register_point(name: str) -> str:
    """Register an extension injection point (idempotent)."""
    with _lock:
        POINTS.add(name)
    return name


class FaultPlan:
    """One armed fault: where, what to raise, and when to fire.

    Triggers (mutually exclusive):

    * ``nth`` — deterministic: fire on exactly the nth armed call of the
      point (1-based), counted from when the plan was armed;
    * ``probability`` + ``seed`` — probabilistic: fire each call with the
      given probability, reproducibly under the seed.  With ``seed=None``
      the seed is derived from the recorded per-run seed
      (:func:`run_seed`) and the plan's arm order, and recorded on the
      plan's ``seed`` attribute — so every probabilistic failure can be
      replayed with ``GRAPHBLAS_FAULT_SEED=<run seed>``.

    ``max_fires`` bounds how many times the plan raises (default 1, so a
    later call outside the deterministic window succeeds); pass ``None``
    for unlimited.
    """

    __slots__ = (
        "point", "exc", "message", "nth", "probability", "seed",
        "_rng", "max_fires", "fires", "calls",
    )

    def __init__(
        self,
        point: str,
        exc=OutOfMemory,
        *,
        nth: int = 1,
        probability: float | None = None,
        seed: int | None = None,
        message: str | None = None,
        max_fires: int | None = 1,
    ):
        if point not in POINTS:
            raise ValueError(
                f"unknown injection point {point!r}; registered: {sorted(POINTS)}"
            )
        if not (isinstance(exc, type) and issubclass(exc, BaseException)):
            raise TypeError("exc must be an exception class")
        if probability is not None and not (0.0 <= probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")
        self.point = point
        self.exc = exc
        self.message = message
        self.nth = int(nth)
        self.probability = probability
        if probability is not None and seed is None:
            seed = _next_plan_seed()
        self.seed = seed
        self._rng = np.random.default_rng(seed) if probability is not None else None
        self.max_fires = max_fires
        self.fires = 0
        self.calls = 0

    def should_fire(self) -> bool:
        self.calls += 1
        if self.max_fires is not None and self.fires >= self.max_fires:
            return False
        if self.probability is not None:
            fire = bool(self._rng.random() < self.probability)
        else:
            fire = self.calls == self.nth
        if fire:
            self.fires += 1
        return fire

    def make_exception(self) -> BaseException:
        msg = self.message or (
            f"injected fault at {self.point!r} (armed call #{self.calls})"
        )
        return self.exc(msg)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        trig = (
            f"p={self.probability}" if self.probability is not None
            else f"nth={self.nth}"
        )
        return f"FaultPlan({self.point!r}, {self.exc.__name__}, {trig})"


def trip(point: str) -> None:
    """Raise an armed fault if one matches ``point``; otherwise a no-op.

    Sites call this behind the ``faults.ENABLED`` guard; calling it with
    injection disabled is also safe (it returns immediately).
    """
    if not ENABLED:
        return
    plans = _armed_points.get(point)
    if plans is None:
        return
    _counts[point] = _counts.get(point, 0) + 1
    for plan in plans:
        if plan.should_fire():
            _fired.append((point, plan.calls))
            raise plan.make_exception()


@contextlib.contextmanager
def inject(
    point: str,
    exc=OutOfMemory,
    *,
    nth: int = 1,
    probability: float | None = None,
    seed: int | None = None,
    message: str | None = None,
    max_fires: int | None = 1,
):
    """Arm a fault for the duration of the ``with`` block.

    Yields the :class:`FaultPlan` so the caller can inspect ``plan.fires``
    (0 means the point never lay on the executed path) and ``plan.calls``.
    Nested/overlapping injections compose; injection is globally disabled
    again once the last plan is disarmed.
    """
    plan = FaultPlan(
        point, exc, nth=nth, probability=probability, seed=seed,
        message=message, max_fires=max_fires,
    )
    global ENABLED
    with _lock:
        _plans.append(plan)
        _rebuild_index()
        ENABLED = True
    try:
        yield plan
    finally:
        with _lock:
            _plans.remove(plan)
            _rebuild_index()
            ENABLED = bool(_plans)


def active_plans() -> list[FaultPlan]:
    """The currently armed plans (empty in production)."""
    return list(_plans)


def call_count(point: str) -> int:
    """Calls seen by ``point`` while a plan targeting it was armed,
    since the last :func:`reset_stats`."""
    return _counts.get(point, 0)


def fired() -> list[tuple[str, int]]:
    """(point, call#) pairs of every fault raised since the last reset."""
    return list(_fired)


def reset_stats() -> None:
    """Clear the call counters and fired-fault log."""
    with _lock:
        _counts.clear()
        _fired.clear()
