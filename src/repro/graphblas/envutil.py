"""Hardened environment-variable parsing.

Configuration knobs (``GRAPHBLAS_BACKEND``, ``GRAPHBLAS_DIFF_BUDGET``,
``GRAPHBLAS_GOVERNOR_BUDGET``, ...) are read from the environment, where a
typo'd value used to propagate as a raw ``ValueError`` deep inside the op
pipeline or silently select the wrong engine.  The helpers here never
raise on malformed input: they warn once per distinct (variable, value)
pair and fall back to the documented default.

``env_bytes`` accepts plain integers plus ``k``/``m``/``g`` binary
suffixes (``64m`` == 64 MiB) so CI legs can say what they mean.
"""

from __future__ import annotations

import os
import warnings

__all__ = [
    "parse", "env", "env_int", "env_float", "env_bytes", "env_choice",
    "warn_once", "reset_warned",
]

_warned: set[tuple[str, str]] = set()

_SUFFIX = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def warn_once(var: str, raw: str, why: str, default) -> None:
    """Warn once per (variable, value) for a config that cannot be honored.

    Used by the parsers below, and by consumers whose value is
    *well-formed* but unusable in this environment — e.g.
    ``GRAPHBLAS_BACKEND=compiled`` with no JIT toolchain installed.
    """
    key = (var, raw)
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(
        f"ignoring {var}={raw!r} ({why}); using default {default!r}",
        RuntimeWarning,
        stacklevel=3,
    )


def reset_warned() -> None:
    """Forget which (variable, value) pairs already warned (for tests)."""
    _warned.clear()


def _bytes(value) -> int:
    if isinstance(value, str):
        scale = _SUFFIX.get(value[-1:].lower(), 1)
        return int(value[:-1] if scale > 1 else value) * scale
    return int(value)


_NUMERIC = {"int": (int, "not an integer"), "float": (float, "not a number"),
            "bytes": (_bytes, "not a byte count")}


def parse(kind: str, value, *, minimum=None, choices=None):
    """One value under the rules of ``kind`` (``on_off``/``int``/``float``/
    ``bytes``/``choice``/``path``); raises ``ValueError(why)``.

    The single statement of those rules: the ``env_*`` readers below apply
    it to environment text, :func:`repro.graphblas.options.set` to Python
    values.
    """
    if isinstance(value, str):
        value = value.strip()
    if kind == "on_off":
        if isinstance(value, str):
            return parse("choice", value, choices=("on", "off")) == "on"
        return bool(value)
    if kind == "choice":
        if value not in choices:
            raise ValueError(f"not one of {', '.join(sorted(choices))}")
        return value
    if kind == "path":
        # blank would silently resolve to the current directory
        if not value or not isinstance(value, (str, os.PathLike)):
            raise ValueError("empty path")
        return os.fspath(value)
    convert, why = _NUMERIC[kind]
    try:
        number = convert(value)
    except (TypeError, ValueError):
        raise ValueError(why) from None
    if number != number:  # NaN
        raise ValueError(why)
    if minimum is not None and number < minimum:
        raise ValueError(f"below minimum {minimum}")
    return number


def env(var: str, default, kind: str, **rules):
    """Read ``var`` as ``kind``; unset or blank means ``default``, and a
    malformed value warns once and falls back to it.  A set-but-blank
    *path* is malformed rather than unset."""
    raw = os.environ.get(var)
    if raw is None or (kind != "path" and not raw.strip()):
        return default
    try:
        return parse(kind, raw, **rules)
    except ValueError as exc:
        warn_once(var, raw, str(exc), default)
        return default


def env_int(var: str, default, *, minimum=None):
    """Read an integer env var, warning and falling back on bad input."""
    return env(var, default, "int", minimum=minimum)


def env_float(var: str, default, *, minimum=None):
    """Read a float env var, warning and falling back on bad input."""
    return env(var, default, "float", minimum=minimum)


def env_bytes(var: str, default, *, minimum=None):
    """Read a byte count; accepts ``k``/``m``/``g`` binary suffixes."""
    return env(var, default, "bytes", minimum=minimum)


def env_choice(var: str, default, choices):
    """Read an enumerated env var, warning and falling back on bad input."""
    return env(var, default, "choice", choices=choices)
