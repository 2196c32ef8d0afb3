"""Serving-layer failure taxonomy.

The serving layer separates *admission* failures (the request never ran:
the server shed it or is shutting down) from *execution* failures (the
request ran once and failed; nothing re-runs it).  Clients can retry
``Overloaded`` elsewhere or later; ``QueryFailed`` carries the
underlying error and the request's outcome label.

Governor interruptions (:class:`~repro.graphblas.errors.DeadlineExceeded`,
:class:`~repro.graphblas.errors.Cancelled`) propagate unwrapped from
:meth:`~repro.serve.server.QueryTicket.result` — they are the same
exceptions a direct, governed algorithm call would raise.
"""

from __future__ import annotations

__all__ = ["ServeError", "Overloaded", "ServerClosed", "QueryFailed"]


class ServeError(Exception):
    """Base class for serving-layer errors."""


class Overloaded(ServeError):
    """The request was shed at admission instead of queued.

    Raised by :meth:`~repro.serve.server.GraphServer.submit` when the
    bounded queue is beyond its depth watermark, the tenant is over its
    fair share, or the request's deadline cannot survive the estimated
    queue wait.  ``reason`` is one of ``"queue_full"``,
    ``"tenant_quota"``, ``"tenant_limit"``, or ``"deadline_watermark"``.
    """

    def __init__(self, message: str, *, reason: str = "queue_full",
                 tenant: str | None = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.tenant = tenant


class ServerClosed(ServeError):
    """The server is draining or closed and accepts no new work."""


class QueryFailed(ServeError):
    """A served query failed while it ran.

    ``__cause__`` holds the underlying exception; ``outcome`` the
    recorded outcome label.
    """

    def __init__(self, message: str, *, outcome: str = "failed") -> None:
        super().__init__(message)
        self.outcome = outcome
