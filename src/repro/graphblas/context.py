"""Execution modes (``GrB_Mode``): blocking vs non-blocking.

In non-blocking mode (the default here, as in SuiteSparse) incremental
updates — ``setElement`` / ``removeElement`` — are *deferred* as pending
tuples and zombies and assembled lazily in one O(e + p log p) step when a
materialized view is next needed.  In blocking mode every call completes
fully before returning, so each ``setElement`` costs O(e) — the contrast
the paper draws in section II.A, reproduced by bench E1.

The mode is a context variable: :func:`set_mode` and the ``with`` blocks
hold for the calling thread and the engine's pool blocks it starts; a
new thread starts non-blocking.
"""

from __future__ import annotations

import contextlib
import contextvars

__all__ = ["Mode", "get_mode", "set_mode", "blocking", "nonblocking"]


class Mode:
    BLOCKING = "blocking"
    NONBLOCKING = "nonblocking"


_mode = contextvars.ContextVar("graphblas_mode", default=Mode.NONBLOCKING)


def get_mode() -> str:
    """The current execution mode (blocking or nonblocking)."""
    return _mode.get()


def set_mode(mode: str) -> None:
    """Set the execution mode (``Mode.BLOCKING`` / ``Mode.NONBLOCKING``)."""
    if mode not in (Mode.BLOCKING, Mode.NONBLOCKING):
        from .errors import InvalidValue

        raise InvalidValue(f"unknown mode {mode!r}")
    _mode.set(mode)


@contextlib.contextmanager
def blocking():
    """Run a block of code in blocking mode."""
    token = _mode.set(Mode.BLOCKING)
    try:
        yield
    finally:
        _mode.reset(token)


@contextlib.contextmanager
def nonblocking():
    """Run a block of code in non-blocking (lazy) mode."""
    token = _mode.set(Mode.NONBLOCKING)
    try:
        yield
    finally:
        _mode.reset(token)
