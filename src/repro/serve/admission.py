"""Bounded admission queue with per-tenant fair share and load shedding.

Unbounded queues turn overload into unbounded latency: every request is
eventually served, far past its deadline, while memory grows without
limit.  The serving layer instead *sheds* — rejects with
:class:`~repro.serve.errors.Overloaded` at admission time — once the
queue passes its watermarks, keeping latency bounded for the work it
does accept (the classic goodput-over-throughput tradeoff).

Fairness has two halves:

* **Service order** — :meth:`AdmissionQueue.get` round-robins across
  per-tenant subqueues, so a tenant with 1 queued request waits behind
  at most one request per other tenant, not behind a flood.
* **Admission** — each tenant's *fair quota* is ``capacity / active
  tenants`` (recomputed per put).  While the queue has room everyone is
  admitted; once total depth reaches capacity, only tenants *below*
  their quota may still enter (bounded overflow, at most one quota's
  worth per tenant) and tenants at/above quota are shed with reason
  ``"tenant_quota"`` or ``"queue_full"``.  A flooding tenant therefore
  cannot lock a quiet one out of a full queue.

``capacity`` is consequently a soft bound: worst-case depth is below
``2 * capacity`` (every tenant admitted while full stops at its quota).
A per-tenant hard cap (``max_queue`` on the tenant policy) is enforced
unconditionally with reason ``"tenant_limit"``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque

from .errors import Overloaded

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """Thread-safe bounded multi-tenant queue (round-robin service)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queues: OrderedDict[str, deque] = OrderedDict()
        self._depth = 0
        self._closed = False
        self.shed_total = 0
        self.admitted_total = 0

    # -- producer ----------------------------------------------------------

    def put(self, item, tenant: str, *, max_queue: int | None = None) -> None:
        """Admit ``item`` for ``tenant`` or raise :class:`Overloaded`.

        ``max_queue`` is the tenant's hard per-tenant cap (from its
        policy); the fair quota is computed from the live tenant count.
        """
        with self._not_empty:
            q = self._queues.get(tenant)
            tenant_depth = len(q) if q is not None else 0
            if max_queue is not None and tenant_depth >= max_queue:
                self.shed_total += 1
                raise Overloaded(
                    f"tenant {tenant!r} at its hard queue cap "
                    f"({tenant_depth}/{max_queue})",
                    reason="tenant_limit", tenant=tenant,
                )
            if self._depth >= self.capacity:
                active = len(self._queues) + (0 if q is not None else 1)
                quota = max(1, self.capacity // active)
                if tenant_depth >= quota:
                    self.shed_total += 1
                    reason = ("queue_full" if active == 1 else "tenant_quota")
                    raise Overloaded(
                        f"queue at capacity ({self._depth}/{self.capacity}) "
                        f"and tenant {tenant!r} at its fair share "
                        f"({tenant_depth}/{quota})",
                        reason=reason, tenant=tenant,
                    )
            if q is None:
                q = self._queues[tenant] = deque()
            q.append(item)
            self._depth += 1
            self.admitted_total += 1
            self._not_empty.notify()

    # -- consumer ----------------------------------------------------------

    def get(self, timeout: float | None = None):
        """Next item, round-robin across tenants; None on timeout/close."""
        with self._not_empty:
            if self._depth == 0 and not self._closed:
                self._not_empty.wait(timeout)
            if self._depth == 0:
                return None
            # round-robin: serve the first tenant in insertion order, then
            # rotate it to the back so every tenant advances in turn
            tenant, q = next(iter(self._queues.items()))
            item = q.popleft()
            self._depth -= 1
            del self._queues[tenant]
            if q:
                self._queues[tenant] = q  # re-append: moves to the back
            return item

    # -- lifecycle / introspection ----------------------------------------

    def close(self) -> None:
        """Wake all blocked getters; further gets return None when empty."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def drain(self) -> list:
        """Remove and return everything still queued (shutdown path)."""
        with self._not_empty:
            items = [item for q in self._queues.values() for item in q]
            self._queues.clear()
            self._depth = 0
            return items

    @property
    def depth(self) -> int:
        return self._depth

    def depth_for(self, tenant: str) -> int:
        with self._lock:
            q = self._queues.get(tenant)
            return len(q) if q is not None else 0

    def tenants(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._queues)
