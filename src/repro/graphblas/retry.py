"""The retry loop: bounded attempts, capped exponential delays, seeded jitter.

The only retry loop in the library.  Three layers run it, each for the
failures it alone can handle: the spill pool (``OSError`` /
``OutOfMemory`` on tile I/O), backend dispatch (``OutOfMemory`` from a
kernel, when the governing context carries a policy) and the serving
layer (``OutOfMemory`` outside any op).  The loops nest —
a served query runs kernels that spill tiles — so an exception that has
exhausted one loop is marked and every enclosing loop re-raises it at
once: a persistently failing kernel costs ``attempts`` runs, not the
product of the nesting, and a transient one costs one op re-run, not one
query re-run.

The schedule::

    raw(k)   = min(base_delay * 2**(k-1), max_delay)   # k failures so far
    delay(k) = raw(k) * (1 - jitter + jitter * u)      # u ~ U[0, 1)

``jitter=1.0`` is full jitter, ``jitter=0.0`` the deterministic ladder.
A dependency leaf: NumPy and :mod:`~repro.graphblas.errors` only.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import InvalidValue, OutOfMemory

__all__ = ["RetryPolicy"]


class RetryPolicy:
    """Bounded retry with capped exponential backoff and seeded jitter.

    ``attempts`` counts the first try.  ``base_delay`` is the delay
    before the second attempt, doubling from there up to ``max_delay``
    (seconds).  Each delay is drawn uniformly from
    ``[raw * (1 - jitter), raw)`` by an RNG seeded with ``seed`` — equal
    seeds replay equal schedules — and built on the first failure, so a
    fault-free call constructs none.

    ``transient`` names the exception classes worth retrying, by default
    :class:`~repro.graphblas.errors.OutOfMemory` (what the
    fault-injection harness raises for alloc faults); anything else —
    governor rejections, API errors — propagates immediately.
    """

    def __init__(self, attempts: int = 3, *, base_delay: float = 0.01,
                 max_delay: float = 2.0, jitter: float = 0.5, seed: int = 0,
                 transient=(OutOfMemory,)) -> None:
        if attempts < 1:
            raise InvalidValue(f"attempts must be >= 1, got {attempts}")
        if base_delay < 0:
            raise InvalidValue(f"base_delay must be >= 0, got {base_delay}")
        if max_delay < 0:
            raise InvalidValue(f"max_delay must be >= 0, got {max_delay}")
        if not 0.0 <= jitter <= 1.0:
            raise InvalidValue(f"jitter must be in [0, 1], got {jitter}")
        self.attempts = int(attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self.transient = tuple(transient)
        self._rng = None

    def retrying(self, *transient) -> "RetryPolicy":
        """This schedule and seed, for another layer's error classes."""
        return RetryPolicy(
            self.attempts, base_delay=self.base_delay,
            max_delay=self.max_delay, jitter=self.jitter, seed=self.seed,
            transient=transient,
        )

    def raw(self, failures: int) -> float:
        """The un-jittered delay after ``failures`` failures (>= 1)."""
        if failures < 1:
            raise InvalidValue(f"failures must be >= 1, got {failures}")
        return min(self.base_delay * 2.0 ** (failures - 1), self.max_delay)

    def delay(self, failures: int) -> float:
        """The jittered delay before the next attempt.

        Consumes one draw from the seeded RNG per call, so delays must be
        requested in attempt order to reproduce a recorded schedule.
        """
        d = self.raw(failures)
        if self.jitter and d > 0:
            if self._rng is None:
                self._rng = np.random.default_rng(self.seed)
            d *= 1.0 - self.jitter + self.jitter * float(self._rng.random())
        return d

    def reset(self) -> None:
        """Rewind the jitter RNG to the start of the seeded stream."""
        self._rng = None

    def call(self, fn, *, on_retry=None, sleep=time.sleep):
        """Run ``fn()`` with up to ``attempts`` tries.

        After each transient failure that leaves attempts remaining,
        ``on_retry(failures, delay, exc)`` runs *before* the sleep, so a
        hook that polls a cancelled context aborts the retry instead of
        sleeping through it.  The last failure is marked
        ``retries_exhausted`` and re-raised; one that arrives already
        marked (an inner loop gave up on it) is re-raised at once.
        """
        for attempt in range(1, self.attempts + 1):
            try:
                return fn()
            except self.transient as exc:
                if (attempt == self.attempts
                        or getattr(exc, "retries_exhausted", False)):
                    exc.retries_exhausted = True
                    raise
                d = self.delay(attempt)
                if on_retry is not None:
                    on_retry(attempt, d, exc)
                if d > 0:
                    sleep(d)
