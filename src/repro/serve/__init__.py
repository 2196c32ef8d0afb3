"""``repro.serve`` — resilient in-process multi-tenant graph serving.

The subsystem turns the library into a long-lived service: writers
ingest edges through :class:`~repro.stream.GraphStream`, publication
swaps in immutable copy-on-write snapshots, and many tenants run
concurrent algorithm queries over a governed worker pool with admission
control; a failed query fails alone.  See
:mod:`repro.serve.server` for the full design and ``docs/API.md``
("Serving") for the user-facing guide.

Quick start::

    from repro.serve import GraphServer

    with GraphServer(workers=4) as srv:
        srv.add_graph("web", n=1 << 12)
        srv.ingest("web", src, dst)
        srv.publish("web")
        ranks = srv.query("pagerank", graph="web", tenant="alice")
"""

from .admission import AdmissionQueue
from .config import (
    ServeConfig,
    reset_serve_config,
    serve_config,
    set_serve_config,
)
from .errors import Overloaded, QueryFailed, ServeError, ServerClosed
from .server import (
    ALGORITHMS,
    GraphServer,
    QueryTicket,
    TenantPolicy,
    register_algorithm,
)

__all__ = [
    # server
    "GraphServer",
    "TenantPolicy",
    "QueryTicket",
    "ALGORITHMS",
    "register_algorithm",
    # config
    "ServeConfig",
    "serve_config",
    "set_serve_config",
    "reset_serve_config",
    # building blocks
    "AdmissionQueue",
    # errors
    "ServeError",
    "Overloaded",
    "ServerClosed",
    "QueryFailed",
]
