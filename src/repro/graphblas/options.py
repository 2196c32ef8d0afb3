"""The option table: every process-wide tunable, declared exactly once.

SuiteSparse's whole control surface is one ``GxB_Global_Option_set/get``
over an enumerated field list (paper section II.A).  This module is that
list.  Each :class:`Option` row names its group, its ``GRAPHBLAS_*``
environment variable (if any), how the value parses, its default and its
range; everything else is derived from the rows — environment parsing
(through :mod:`~repro.graphblas.envutil`, so malformed values warn once
and fall back), ``set()`` validation, the ``capi.GxB_<Group>_set/get``
pairs, and the "Configuration" table in ``docs/API.md``.

Precedence is implemented here and nowhere else::

    set(group, name=value)  >  environment variable  >  row default

:func:`get` parses the environment on every call, so it belongs on
construction, first-use and over-budget paths only.  Modules with
per-operation switches (``engine.ENABLED``, the compiled tier's toolchain
preference) snapshot ``get()`` into plain module attributes and refresh
the snapshot from their own setter/``reset()``; configure those groups
through the owning module (``engine.set_engine``, ``compiled.set_config``,
``obs.enable``) or ``capi.GxB_*_set``, which do both steps.

Adding an option is one row — and only when two existing callers or
workloads need different values (see ``CONTRIBUTING.md``).
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from . import envutil
from .errors import InvalidValue

__all__ = ["Option", "TABLE", "GROUPS", "defaults", "get", "set", "reset",
           "validate"]


class Option(NamedTuple):
    """One row of the table.

    ``kind`` is ``on_off`` / ``int`` / ``float`` / ``bytes`` (``k``/``m``/
    ``g`` suffixes) / ``choice`` / ``path``.  ``choices`` is a tuple, or a
    zero-argument callable for sets only known at run time.  A default of
    ``None`` means "unset"; ``env=None`` means there is no environment
    variable, only :func:`set`.
    """

    group: str
    name: str
    env: str | None
    kind: str
    default: object
    doc: str
    minimum: object = None
    choices: object = None


def _backend_names():
    from . import backends  # lazy: backends imports this module

    return backends.available_backends()


TABLE: tuple[Option, ...] = (
    Option("engine", "enabled", "GRAPHBLAS_ENGINE", "on_off", True,
           "dual-format twins and (with parallel) row blocks; off runs "
           "serial kernels on one stored orientation"),
    Option("engine", "parallel", None, "on_off", True,
           "row-blocked kernels on the shared pool (while the engine is on)"),
    Option("engine", "workers", "GRAPHBLAS_ENGINE_WORKERS", "int", 4,
           "thread-pool size for row-blocked kernels", minimum=1),
    Option("compiled", "toolchain", "GRAPHBLAS_COMPILED_TOOLCHAIN", "choice",
           "auto", "JIT toolchain preference; off disables the tier",
           choices=("auto", "numba", "cc", "python", "off")),
    Option("compiled", "directory", "GRAPHBLAS_COMPILED_DIR", "path", None,
           "cc artifact directory (unset: a per-user temp directory)"),
    Option("spill", "enabled", "GRAPHBLAS_SPILL", "on_off", True,
           "re-plan over-budget mxm/mxv/vxm as tiled spill-to-disk"),
    Option("spill", "directory", "GRAPHBLAS_SPILL_DIR", "path", None,
           "base directory for spill pools (unset: the system temp dir)"),
    Option("spill", "budget", "GRAPHBLAS_SPILL_BUDGET", "bytes", 256 << 20,
           "bytes of tiles a spill pool keeps resident", minimum=0),
    Option("governor", "budget", "GRAPHBLAS_GOVERNOR_BUDGET", "bytes", None,
           "memory budget of the context the CI governor legs wrap tests in",
           minimum=0),
    Option("governor", "deadline", "GRAPHBLAS_GOVERNOR_DEADLINE", "float",
           None, "deadline (seconds) of that context", minimum=0.0),
    Option("serve", "workers", "GRAPHBLAS_SERVE_WORKERS", "int", 4,
           "GraphServer worker threads", minimum=1),
    Option("serve", "queue_depth", "GRAPHBLAS_SERVE_QUEUE_DEPTH", "int", 128,
           "admission queue capacity", minimum=1),
    Option("serve", "deadline_s", "GRAPHBLAS_SERVE_DEADLINE_S", "float", 30.0,
           "default per-request deadline, queue wait included (0: none)",
           minimum=0.0),
    Option("serve", "memory_budget", "GRAPHBLAS_SERVE_BUDGET", "bytes", None,
           "default per-request governor budget (unset or 0: unlimited)",
           minimum=0),
    Option("serve", "backend", None, "choice", "optimized",
           "kernel backend every query of a server runs on",
           choices=_backend_names),
    Option("obs", "enabled", "GRAPHBLAS_OBS", "on_off", False,
           "process-wide metrics sink; on in the environment installs it at "
           "import, enable()/disable() keep the value current"),
    Option("obs", "slow_ms", "GRAPHBLAS_OBS_SLOW_MS", "float", 100.0,
           "slow-op log threshold in milliseconds", minimum=0.0),
    Option("obs", "slow_capacity", "GRAPHBLAS_OBS_SLOW_N", "int", 32,
           "slow-op log capacity", minimum=0),
    Option("obs", "emit_s", "GRAPHBLAS_OBS_EMIT_S", "float", 0.0,
           "when > 0, enable() starts the periodic emitter at this interval",
           minimum=0.0),
    Option("backend", "name", "GRAPHBLAS_BACKEND", "choice", "optimized",
           "process-default kernel backend", choices=_backend_names),
    Option("diff", "budget", "GRAPHBLAS_DIFF_BUDGET", "int", 1 << 22,
           "dense cells a differential replay may cost before it is skipped",
           minimum=0),
    Option("diff", "primary", "GRAPHBLAS_DIFF_PRIMARY", "choice", "optimized",
           "engine the differential backend puts under test",
           choices=("optimized", "compiled")),
    Option("faults", "seed", "GRAPHBLAS_FAULT_SEED", "int", None,
           "per-run seed for probabilistic fault plans (unset: OS entropy)"),
)

GROUPS: dict[str, dict[str, Option]] = {}
for _row in TABLE:
    GROUPS.setdefault(_row.group, {})[_row.name] = _row
del _row

_lock = threading.Lock()
#: group -> {name: value}; replaced whole on every write, so a concurrent
#: get() always layers a consistent dict.
_overrides: dict[str, dict] = {}


def _rows(group: str) -> dict[str, Option]:
    try:
        return GROUPS[group]
    except KeyError:
        raise InvalidValue(
            f"unknown option group {group!r}; groups: {', '.join(GROUPS)}"
        ) from None


def _rules(opt: Option) -> dict:
    choices = opt.choices() if callable(opt.choices) else opt.choices
    return {"minimum": opt.minimum, "choices": choices}


def defaults(group: str) -> dict:
    """The row defaults of ``group`` (no environment, no overrides)."""
    return {name: opt.default for name, opt in _rows(group).items()}


def get(group: str) -> dict:
    """Effective values of every option in ``group``: ``set()`` overrides
    over the environment over the row defaults."""
    out = {
        name: opt.default if opt.env is None
        else envutil.env(opt.env, opt.default, opt.kind, **_rules(opt))
        for name, opt in _rows(group).items()
    }
    out.update(_overrides.get(group, ()))
    return out


def validate(group: str, **values) -> dict:
    """Check ``values`` against the rows of ``group`` and return them
    normalised.  ``None`` means "not given" and is dropped; an unknown
    name or an out-of-range value raises
    :class:`~repro.graphblas.errors.InvalidValue`."""
    rows = _rows(group)
    out = {}
    for name, value in values.items():
        if name not in rows:
            raise InvalidValue(
                f"unknown {group} option {name!r}; settable: {', '.join(rows)}")
        if value is not None:
            try:
                out[name] = envutil.parse(rows[name].kind, value,
                                          **_rules(rows[name]))
            except ValueError as why:
                raise InvalidValue(
                    f"{group} option {name!r}: {value!r} is {why}") from None
    return out


def set(group: str, **values) -> None:  # noqa: A001
    """Override options of ``group`` for this process (``None`` leaves a
    value unchanged).  All values are validated before any is stored."""
    checked = validate(group, **values)
    with _lock:
        _overrides[group] = {**_overrides.get(group, {}), **checked}


def reset(group: str | None = None) -> None:
    """Drop the overrides of ``group`` (all groups when ``None``): back to
    environment, then default."""
    if group is not None:
        _rows(group)  # an unknown group raises
    with _lock:
        if group is None:
            _overrides.clear()
        else:
            _overrides.pop(group, None)
