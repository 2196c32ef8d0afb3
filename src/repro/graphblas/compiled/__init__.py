"""Compiled kernel tier: JIT semiring kernels with terminal early exit.

This package is the code-generation analogue of SuiteSparse's 960
pre-compiled semiring built-ins that the paper credits for its speed.
Where the NumPy kernels apply a semiring's operators to whole arrays
(vectorized, but structurally unable to stop mid-row), this tier
generates monomorphic scalar loops per ``(add monoid, multiply op, A
type, B type, output type)`` and compiles them — with numba when the ``[compiled]`` extra is
installed, with the system C compiler otherwise — so terminal monoids
(LOR, LAND, MIN, MAX, TIMES) genuinely bail out of the hot loop at the
first annihilator, and ``ANY`` at its first term.

The templates cover the semirings the section-V algorithms issue: mixed
operand types (each operand is cast to the multiply's domain, the
product to the output type), ``ANY`` as a keep-first fold, and the
positional multiplies (``FIRSTI``/``SECONDI``/...).  The default backend
runs these kernels for ``mxm``/``mxv``/``vxm`` whenever :func:`select`
returns a kernel set, and NumPy otherwise; the algorithms above never
see which ran.

* :func:`select_class` — the one kernel choice, a memoised function of
  the plan *class* (add, mult, A, B and output types, heap method,
  resolved toolchain), declines included; no size cut, so a tiled and
  an in-memory run of one product always agree.  :func:`select` applies
  it to a plan, a direct tiled call to its operands.  The memo is the
  only kernel cache (LRU of :data:`CACHE_SIZE` classes).  A build emits
  ``compiled.kernel`` telemetry (``event="compile"`` with wall seconds)
  that feeds the ``graphblas_compile_seconds`` histogram; a plan's own
  cache outcome (``hit`` or ``built``) rides on its op record.
* :func:`cache_stats` — hits/misses(builds)/declined/evictions/size/
  capacity plus cumulative compile seconds, surfaced as obs gauges.
* Tunables are the ``compiled`` rows of :mod:`repro.graphblas.options`
  (``toolchain``, ``directory``); the toolchain is resolved at first use,
  :func:`set_config`/:func:`reset` re-resolve it, and
  :func:`toolchain_off` runs a block on the NumPy kernels without
  touching other threads.

With no usable toolchain, or a kernel build that fails, :func:`select`
declines (NumPy runs); a failed build warns once.  Only an explicit
``GRAPHBLAS_BACKEND=compiled`` warns about a missing toolchain, once,
through :func:`warn_unavailable` (the :mod:`repro.graphblas.envutil`
policy).
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from .. import envutil, options, telemetry
from . import toolchain as _toolchain
from .templates import KernelSpec, spec_for, spec_supported
from .toolchain import KernelSet, store_args

__all__ = [
    "available",
    "toolchain_name",
    "select",
    "select_class",
    "cache_stats",
    "clear_cache",
    "reset",
    "set_config",
    "get_config",
    "toolchain_off",
    "warn_unavailable",
    "KernelSet",
    "KernelSpec",
    "spec_for",
    "spec_supported",
]

#: Capacity of the plan-class memo (:func:`select`).
CACHE_SIZE = 128

#: SPA/mark scratch and dense pull vectors are O(dimension); above this a
#: plan runs on NumPy, so a hypersparse graph with a huge index space
#: cannot allocate gigabytes.  A per-call shape test, outside the memo.
MAX_DIMENSION = 1 << 24

_OPS = frozenset(("mxm", "mxv", "vxm"))
_DECLINED = (None, "declined")


@dataclass
class _Memo:
    """The tier's one cache: plan class -> kernel set (None = declined),
    in LRU order, with its counters."""

    entries: OrderedDict = field(default_factory=OrderedDict)
    hits: int = 0
    misses: int = 0  # kernel sets built
    declined: int = 0  # classes resolved to "NumPy runs"
    evictions: int = 0
    compile_seconds: float = 0.0


_memo = _Memo()
#: guards ``_memo``; held only for lookups and inserts
_lock = threading.Lock()
#: serialises first use: one build per class however many threads race
_build_lock = threading.Lock()
_UNRESOLVED = object()
#: the process toolchain preference, snapshotted at first use (select
#: runs per op; options.get() parses the environment)
_preference: str | None = None
#: a preference that overrides it in this context (:func:`toolchain_off`)
_override: contextvars.ContextVar = contextvars.ContextVar(
    "graphblas_toolchain", default=None)
#: preference -> probed toolchain (None: no usable one)
_probed: dict = {}


def _load_preference() -> str:
    global _preference
    if _preference is None:
        _preference = options.get("compiled")["toolchain"]
    return _preference


def set_config(**overrides) -> None:
    """Override the ``compiled`` options (the ``GxB_Compiled_set`` core):
    ``toolchain`` picks the preference (``auto``/``numba``/``cc``/
    ``python``/``off``), ``directory`` relocates cc artifacts.  ``None``
    keeps the current value.  Memoised classes survive a toolchain switch
    — the key includes the toolchain, so stale kernels are never served,
    only retained until evicted.
    """
    global _preference
    options.set("compiled", **overrides)
    _preference = None
    _probed.clear()


def get_config() -> dict:
    """The effective ``compiled`` options."""
    return {**options.get("compiled"), "toolchain": _load_preference()}


@contextlib.contextmanager
def toolchain_off():
    """Run the enclosed operations on the NumPy kernels: with the
    toolchain off every class declines (the baseline side of parity
    tests and benchmarks).  The override is a context variable: it holds
    for this thread and its pool blocks, not for other threads."""
    token = _override.set("off")
    try:
        yield
    finally:
        _override.reset(token)


def toolchain_name() -> str | None:
    """The resolved toolchain (``numba``/``cc``/``python``) or None: the
    probe of this context's override, else of the process preference."""
    pref = _override.get() or _load_preference()
    tc = _probed.get(pref, _UNRESOLVED)
    if tc is _UNRESOLVED:
        tc = _probed[pref] = _toolchain.probe_toolchain(pref)
    return tc


def available() -> bool:
    """Whether any usable toolchain exists under the current config."""
    return toolchain_name() is not None


def select(plan) -> KernelSet | None:
    """The compiled kernel set that runs ``plan``, or None (NumPy runs).

    Resolved once per plan and kept on it (``plan.selection`` holds the
    kernel set and this plan's memo outcome, ``"hit"`` or ``"built"``, or
    ``"declined"``), so every backend sees the same choice; the tier
    that runs, and for a compiled one its cache outcome and toolchain,
    go into ``plan.chosen`` for the dispatcher's op record.  The choice
    itself is :func:`select_class`.
    """
    sel = plan.selection
    if sel is None:
        sel = _DECLINED
        op = plan.op
        if op in _OPS and plan.out_type is not None:
            a, b = plan.args  # (A, B), (A, u) or (u, A)
            m = b if op == "vxm" else a
            # a vector's size is one of its matrix's dimensions
            span = max(m.nrows, m.ncols, b.nrows, b.ncols) \
                if op == "mxm" else max(m.nrows, m.ncols)
            sel = select_class(
                plan.operator, a.dtype, b.dtype, plan.out_type, span,
                heap=op == "mxm" and plan.params.get("method") == "heap")
        plan.selection = sel
        kern, outcome = sel
        if kern is None:
            plan.chosen["kernel"] = "numpy"
        else:
            plan.chosen.update(kernel="compiled", kernel_cache=outcome,
                               toolchain=kern.toolchain)
    return sel[0]


def select_class(semiring, a_type, b_type, out_type, span,
                 heap=False) -> tuple:
    """The one kernel choice: ``(kernel set | None, outcome)`` for a
    product over ``semiring`` of operands typed ``a_type`` and ``b_type``
    into ``out_type``, whose largest operand dimension is ``span``
    (``heap``: the mxm heap method was asked for).

    :func:`select` calls it with a plan's fields, and a direct
    ``tiled.mxm_tiled``/``mxv_tiled`` call with its operands', so a
    tiled chunk runs the kernels an in-memory plan of its class would.  Mixed operand types compile: each operand has its own
    template slot and is cast to the multiply's domain (see
    :mod:`.templates`).  The cheap declines come first, before the memo:
    the heap method, a span over :data:`MAX_DIMENSION`, no toolchain,
    user-defined ops or types (whose names need not be unique).  That
    keeps a declined call nearly free.  The memo is keyed on what a
    kernel set depends on — add, multiply, the A, B and output types,
    and the toolchain.
    """
    if heap or span > MAX_DIMENSION:
        return _DECLINED
    tc = toolchain_name()
    if tc is None:
        return _DECLINED
    add, mult = getattr(semiring, "add", None), getattr(semiring, "mult", None)
    if add is None or not (add.builtin and mult.builtin and a_type.builtin
                           and b_type.builtin and out_type.builtin):
        return _DECLINED
    key = (add.name, mult.name, a_type.name, b_type.name, out_type.name, tc)
    hit = _memo_hit(key)
    if hit is None:
        with _build_lock:  # one build per class however many threads race
            hit = _memo_hit(key) or _resolve(key, semiring, a_type, b_type,
                                              out_type, tc)
    return hit


def _memo_hit(key) -> tuple | None:
    """(kernel set | None, outcome) of a memoised class, else None."""
    with _lock:
        kern = _memo.entries.get(key, _UNRESOLVED)
        if kern is _UNRESOLVED:
            return None
        _memo.entries.move_to_end(key)
        _memo.hits += 1
    return _DECLINED if kern is None else (kern, "hit")


def _resolve(key, sr, a, b, out, tc) -> tuple:
    """First use of a class (caller holds ``_build_lock``): build its
    kernel set, or decline it (no template, or the build failed);
    memoise either."""
    spec = spec_for(sr, a, b, out)
    kern = None if spec is None else _build(spec, tc)
    with _lock:
        _memo.entries[key] = kern
        _memo.declined += kern is None
        while len(_memo.entries) > CACHE_SIZE:
            _memo.entries.popitem(last=False)
            _memo.evictions += 1
    return _DECLINED if kern is None else (kern, "built")


def _build(spec, tc) -> KernelSet | None:
    """Build ``spec`` with ``tc``.  A failed build (an artifact directory
    that cannot be written or loaded from, a broken compiler) warns once
    and returns None: the class declines and NumPy runs."""
    t0 = time.perf_counter()
    try:
        kern = _toolchain.build(spec, tc)
    except Exception as exc:  # noqa: BLE001 - any build failure: NumPy runs
        envutil.warn_once(options.GROUPS["compiled"]["toolchain"].env,
                          _load_preference(),
                          f"{tc} kernel build failed: {exc}", "numpy")
        return None
    seconds = time.perf_counter() - t0
    with _lock:
        _memo.misses += 1
        _memo.compile_seconds += seconds
    if telemetry.ENABLED:
        telemetry.decision("compiled.kernel", event="compile", toolchain=tc,
                           kernel=str(spec), seconds=seconds)
    return kern


def cache_stats() -> dict:
    """Snapshot of the plan-class memo (obs gauge source)."""
    with _lock:
        return {
            "hits": _memo.hits,
            "misses": _memo.misses,
            "declined": _memo.declined,
            "evictions": _memo.evictions,
            "compile_seconds": _memo.compile_seconds,
            "size": len(_memo.entries),
            "capacity": CACHE_SIZE,
        }


def clear_cache() -> None:
    """Forget every memoised class (counters are kept)."""
    with _lock:
        _memo.entries.clear()


def reset() -> None:
    """Drop overrides, re-resolve the toolchain at next use and drop the
    memo and its counters (test hook)."""
    global _memo, _preference
    options.reset("compiled")
    with _lock:
        _preference = None
        _probed.clear()
        _memo = _Memo()


def warn_unavailable() -> None:
    """Warn once that the compiled backend was requested but unusable."""
    rows = options.GROUPS
    if (_override.get() or _load_preference()) == "off":
        why = f"{rows['compiled']['toolchain'].env}=off disables the tier"
    else:
        why = ("no toolchain available (numba not installed and no C "
               "compiler on PATH)")
    envutil.warn_once(rows["backend"]["name"].env, "compiled", why, "optimized")
