"""Serving-layer configuration: the per-server dataclass.

Process-wide defaults are the ``serve`` rows of
:mod:`repro.graphblas.options` (``GRAPHBLAS_SERVE_*`` environment,
overridden by :func:`set_serve_config` / ``capi.GxB_Serve_set``);
:func:`serve_config` snapshots them into the :class:`ServeConfig` every
new :class:`~repro.serve.GraphServer` starts from.  The remaining
fields are per-server only (constructor arguments).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..graphblas import options
from ..graphblas.errors import InvalidValue

__all__ = [
    "ServeConfig",
    "serve_config",
    "set_serve_config",
    "reset_serve_config",
]

_DEFAULTS = options.defaults("serve")


@dataclass
class ServeConfig:
    """One server's tunables; the first five mirror the ``serve`` option
    rows and are validated by them."""

    workers: int = _DEFAULTS["workers"]
    queue_depth: int = _DEFAULTS["queue_depth"]
    #: default per-request deadline (seconds, queue wait included);
    #: None/0 = no deadline.
    deadline_s: float | None = _DEFAULTS["deadline_s"]
    #: default per-request governor memory budget (bytes); None/0 = none.
    memory_budget: int | None = _DEFAULTS["memory_budget"]
    #: the kernel backend every query runs on.
    backend: str = _DEFAULTS["backend"]
    #: base seed for per-request retry backoff schedules.
    seed: int = 0
    #: attempts per retry owner (serve loop, dispatch, spill pool), backoff.
    attempts: int = 3
    base_delay_s: float = 0.002
    max_delay_s: float = 0.25

    def __post_init__(self) -> None:
        options.validate(
            "serve", **{name: getattr(self, name) for name in _DEFAULTS}
        )
        # 0 means "none" for both; the governor would read it as a limit
        self.deadline_s = self.deadline_s or None
        self.memory_budget = self.memory_budget or None
        if self.attempts < 1:
            raise InvalidValue(f"attempts must be >= 1, got {self.attempts}")

    def as_dict(self) -> dict:
        return asdict(self)


def set_serve_config(**overrides) -> None:
    """Install process-wide serve defaults (the ``GxB_Serve_set`` core).

    Only the arguments given change; an unknown name or an out-of-range
    value raises :class:`~repro.graphblas.errors.InvalidValue` before
    anything is stored, so a bad override never lies latent until the
    next server starts.
    """
    options.set("serve", **overrides)


def reset_serve_config() -> None:
    """Drop all overrides (back to environment control)."""
    options.reset("serve")


def serve_config() -> ServeConfig:
    """Effective process defaults: overrides over environment."""
    return ServeConfig(**options.get("serve"))
