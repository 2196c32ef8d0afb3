"""Compiled kernel tier: JIT semiring kernels with terminal early exit.

This package is the code-generation analogue of SuiteSparse's 960
pre-compiled semiring built-ins that the paper credits for its speed.
Where the PR-5 engine specializes *NumPy closures* (vectorized, but
structurally unable to stop mid-row), this tier generates monomorphic
scalar loops per ``(add monoid, multiply op, value type)`` and compiles
them — with numba when the ``[compiled]`` extra is installed, with the
system C compiler otherwise — so terminal monoids (LOR, LAND, MIN, MAX,
TIMES) genuinely bail out of the hot loop at the first annihilator.

Layout mirrors :mod:`repro.graphblas.engine`'s kernel cache:

* :func:`kernel_for` — LRU cache of built kernel sets keyed
  ``(toolchain, add, mult, type)``; emits ``compiled.kernel`` telemetry
  decisions (``event="compile"`` with wall seconds on a miss,
  ``event="hit"`` otherwise) that feed the ``graphblas_compile_seconds``
  histogram.
* :func:`cache_stats` — hits/misses/evictions/size/capacity plus
  cumulative compile seconds, surfaced as obs gauges.
* Tunables are the ``compiled`` rows of :mod:`repro.graphblas.options`
  (``toolchain``, ``directory``); the toolchain preference is
  snapshotted at first use, :func:`set_config`/:func:`reset` refresh it.

Selecting ``GRAPHBLAS_BACKEND=compiled`` when no toolchain is usable
never raises: :func:`warn_unavailable` warns once (the
:mod:`repro.graphblas.envutil` policy) and dispatch falls through the
backend chain to ``optimized``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from .. import envutil, options, telemetry
from . import templates, toolchain as _toolchain
from .templates import KernelSpec, spec_for, spec_supported

__all__ = [
    "available",
    "toolchain_name",
    "kernel_for",
    "supports",
    "cache_stats",
    "clear_cache",
    "reset",
    "set_config",
    "get_config",
    "warn_unavailable",
    "KernelSpec",
    "spec_for",
    "spec_supported",
]

#: Capacity of the built-kernel LRU (:func:`kernel_for`).
CACHE_SIZE = 128

_lock = threading.RLock()
_cache: "OrderedDict[tuple, _toolchain.KernelSet]" = OrderedDict()
_stats = {
    "hits": 0,
    "misses": 0,
    "evictions": 0,
    "unsupported": 0,
    "compile_seconds": 0.0,
}
#: toolchain preference, snapshotted from the option table at first use
#: (kernel_for runs per op; options.get() parses the environment).
_preference: str | None = None


def _load_preference() -> str:
    global _preference
    if _preference is None:
        _preference = options.get("compiled")["toolchain"]
    return _preference


def set_config(**overrides) -> None:
    """Override the ``compiled`` options (the ``GxB_Compiled_set`` core):
    ``toolchain`` picks the preference (``auto``/``numba``/``cc``/
    ``python``/``off``), ``directory`` relocates cc artifacts.  ``None``
    keeps the current value.  Cached kernels survive a toolchain switch
    — the cache key includes the toolchain, so stale sets are never
    served, only retained until evicted.
    """
    global _preference
    options.set("compiled", **overrides)
    _preference = None


def get_config() -> dict:
    """The effective ``compiled`` options."""
    return {**options.get("compiled"), "toolchain": _load_preference()}


def toolchain_name() -> str | None:
    """The resolved toolchain (``numba``/``cc``/``python``) or None."""
    return _toolchain.probe_toolchain(_load_preference())


def available() -> bool:
    """Whether any usable toolchain exists under the current config."""
    return toolchain_name() is not None


def supports(semiring, out_type) -> bool:
    """Whether this tier has a kernel template for the op."""
    return spec_for(semiring, out_type) is not None


def kernel_for(semiring, out_type) -> "_toolchain.KernelSet | None":
    """Fetch (or build) the kernel set for a semiring over ``out_type``.

    Returns None when the op has no template or no toolchain is usable.
    Build cost is paid once per (toolchain, add, mult, type) and
    amortized by the LRU; the cc toolchain additionally reuses
    content-addressed artifacts across processes.
    """
    spec = spec_for(semiring, out_type)
    if spec is None:
        with _lock:
            _stats["unsupported"] += 1
        return None
    tc = toolchain_name()
    if tc is None:
        return None
    key = (tc, *spec.key)
    with _lock:
        kern = _cache.get(key)
        if kern is not None:
            _cache.move_to_end(key)
            _stats["hits"] += 1
            if telemetry.ENABLED:
                telemetry.decision(
                    "compiled.kernel", event="hit", toolchain=tc,
                    kernel=str(spec))
            return kern
    # build outside the lock: compiles can take seconds and other
    # threads may want cache hits meanwhile
    t0 = time.perf_counter()
    kern = _toolchain.build(spec, tc)
    dt = time.perf_counter() - t0
    with _lock:
        if key not in _cache:
            _cache[key] = kern
            _stats["misses"] += 1
            _stats["compile_seconds"] += dt
            while len(_cache) > CACHE_SIZE:
                _cache.popitem(last=False)
                _stats["evictions"] += 1
        else:  # lost a build race; keep the cached one
            kern = _cache[key]
            _stats["hits"] += 1
    if telemetry.ENABLED:
        telemetry.decision(
            "compiled.kernel", event="compile", toolchain=tc,
            kernel=str(spec), seconds=dt)
    return kern


def cache_stats() -> dict:
    """Snapshot of the compiled-kernel cache (obs gauge source)."""
    with _lock:
        out = dict(_stats)
        out["size"] = len(_cache)
        out["capacity"] = CACHE_SIZE
        return out


def clear_cache() -> None:
    with _lock:
        _cache.clear()


def reset() -> None:
    """Drop overrides, re-read the environment at next use and drop all
    cached kernels (test hook)."""
    global _preference
    options.reset("compiled")
    with _lock:
        _preference = None
        _cache.clear()
        for k in _stats:
            _stats[k] = 0.0 if k == "compile_seconds" else 0


def warn_unavailable() -> None:
    """Warn once that the compiled backend was requested but unusable."""
    rows = options.GROUPS
    if _load_preference() == "off":
        why = f"{rows['compiled']['toolchain'].env}=off disables the tier"
    else:
        why = ("no toolchain available (numba not installed and no C "
               "compiler on PATH)")
    envutil.warn_once(rows["backend"]["name"].env, "compiled", why, "optimized")
