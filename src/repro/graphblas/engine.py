"""Hot-path performance engine: specialized kernels, dual-format twins,
and row-blocked parallelism.

Section II.A of the paper credits SuiteSparse:GraphBLAS's speed to
code-generated semiring kernels (960 built-ins compiled to monomorphic
inner loops) and early-exit terminal-monoid dot products, and section
II.E's direction-optimizing ``mxv`` "requires both CSR and CSC copies"
of the adjacency matrix.  This module supplies the Python analogue of
all three mechanisms for the optimized backend:

1. **Kernel specialization cache** — :func:`kernel_for` closure-compiles
   a :class:`SpecializedKernel` for a ``(semiring, dtype, mask kind,
   accum, method)`` combination and memoizes it in an LRU, so hot
   semirings get pre-bound numpy ufuncs instead of generic ``Op.apply``
   dispatch.  Specialized kernels replicate the generic numerics
   *bit for bit* (same cast points, same reduction ufuncs), which the
   differential backend cross-checks.
2. **Dual-orientation storage** — when :data:`DUAL_FORMAT` is on,
   ``Matrix._oriented`` caches the opposite-orientation twin with
   mutation-epoch invalidation, making pull-phase ``mxv``/``vxm`` and
   ``transpose`` O(1) after first use.
3. **Row-blocked parallelism** — a shared, lazily created
   :class:`~concurrent.futures.ThreadPoolExecutor` runs row blocks of
   Gustavson SpGEMM / pull ``mxv``; worker counts are admitted by the
   execution governor (:func:`repro.graphblas.governor.admit_workers`).

Everything is disableable: set ``GRAPHBLAS_ENGINE=off`` (or call
``set_engine(False)``) and every kernel falls back to the generic path,
so engine-on vs engine-off results can be compared bit for bit.

The tunables are the ``engine`` rows of :mod:`repro.graphblas.options`
(``enabled``, ``parallel``, ``workers``), snapshotted into module
attributes at import so hot paths pay one attribute load;
:func:`set_engine` and :func:`reset` refresh the snapshot.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import options, telemetry

__all__ = [
    "EngineConfig",
    "SpecializedKernel",
    "get_config",
    "set_engine",
    "reset",
    "kernel_for",
    "kernel_cache_stats",
    "clear_kernel_cache",
    "pool_stats",
    "run_blocks",
    "requested_workers",
    "MIN_PARALLEL_FLOPS",
    "MIN_PARALLEL_ENTRIES",
]

#: Capacity of the specialized-kernel LRU (:func:`kernel_for`).
CACHE_SIZE = 64

# Below these work sizes the thread-pool handoff costs more than it saves.
MIN_PARALLEL_FLOPS = 1 << 18
MIN_PARALLEL_ENTRIES = 1 << 16

# Composite sort keys (major * n_minor + minor) must stay inside int64.
KEY_LIMIT = 2**62


@dataclass
class EngineConfig:
    """Snapshot of the ``engine`` option rows."""

    enabled: bool
    parallel: bool
    workers: int


def _refresh() -> None:
    """Snapshot the option table into ``_config`` and the fast flags hot
    paths read (one attribute load, not a table lookup)."""
    global _config, ENABLED, DUAL_FORMAT, PARALLEL, WORKERS
    _config = EngineConfig(**options.get("engine"))
    ENABLED = DUAL_FORMAT = _config.enabled
    PARALLEL = _config.enabled and _config.parallel
    WORKERS = _config.workers


_refresh()


def get_config() -> EngineConfig:
    """The live engine configuration (change it via :func:`set_engine`)."""
    return _config


def set_engine(enabled: bool | None = None, **overrides) -> EngineConfig:
    """Reconfigure the engine; ``None`` leaves an option unchanged.

    ``set_engine(False)`` turns every mechanism off (the generic code
    paths run); ``set_engine(True)`` turns them back on.  ``parallel=``
    and ``workers=`` tune the row-blocked kernels while the engine stays
    on.  Unknown or out-of-range options raise
    :class:`~repro.graphblas.errors.InvalidValue`.
    """
    options.set("engine", enabled=enabled, **overrides)
    _refresh()
    return _config


def reset() -> None:
    """Drop overrides, re-read the environment and drop all cached state
    (for tests)."""
    options.reset("engine")
    _refresh()
    clear_kernel_cache()
    _shutdown_executor()


# -- specialized kernels ------------------------------------------------------


class SpecializedKernel:
    """Monomorphic inner loops for one (semiring, out dtype) combination.

    Every method replicates the corresponding generic path —
    ``BinaryOp.apply`` / ``Monoid.reduce_segments`` /
    ``Monoid.reduce_array`` — with the operator dispatch, identity
    handling, and cast points resolved once at compile time instead of
    per call.  The outputs are bit-identical to the generic path for the
    inputs the sparse kernels produce (non-empty, in-bounds segments).
    """

    __slots__ = (
        "semiring_name",
        "out_type",
        "mult_uf",
        "add_uf",
        "reduce_uf",
        "is_any",
        "cast",
        "np_dtype",
        "identity",
        "terminal",
    )

    def __init__(self, semiring, out_type):
        add = semiring.add
        self.semiring_name = semiring.name
        self.out_type = out_type
        self.mult_uf = semiring.mult.ufunc
        self.add_uf = add.op.ufunc
        self.reduce_uf = add.reduce_ufunc
        self.is_any = add.name == "ANY"
        self.cast = out_type.cast_array
        self.np_dtype = out_type.np_dtype
        self.identity = add.identity(out_type)
        self.terminal = add.terminal(out_type)

    def combine(self, x, y):
        """= ``mult.apply(x, y)`` for array inputs (no output cast)."""
        return self.mult_uf(x, y)

    def segment_reduce(self, values, starts):
        """= ``add.reduce_segments(values, starts, out_type)`` for the
        kernel case: values non-empty, every start in-bounds, no empty
        segments."""
        values = self.cast(np.asarray(values))
        if self.is_any:
            return values[starts].copy()
        return self.cast(self.reduce_uf.reduceat(values, starts))

    def reduce_all(self, values):
        """= ``add.reduce_array(values, out_type)`` for non-empty input."""
        values = self.cast(np.asarray(values))
        if self.is_any:
            return values[0].item()
        return self.cast(np.asarray(self.reduce_uf.reduce(values))).item()

    def fold2(self, acc, blk):
        """Scalar accumulate: = ``cast(add.op.apply(acc, blk)).item()``."""
        return self.cast(self.add_uf(np.asarray(acc), np.asarray(blk))).item()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpecializedKernel({self.semiring_name}, {self.out_type.name})"


_cache_lock = threading.Lock()
_kernel_cache: OrderedDict[tuple, SpecializedKernel] = OrderedDict()
_cache_stats = {"hits": 0, "misses": 0, "evictions": 0, "unspecializable": 0}


def _specializable(semiring, out_type) -> bool:
    mult, add = semiring.mult, semiring.add
    if mult.positional is not None or mult.ufunc is None:
        return False
    if not (mult.builtin and add.builtin and out_type.builtin):
        return False
    return add.name == "ANY" or add.reduce_ufunc is not None


def kernel_for(semiring, out_type, mask_kind="none", accum=None, method="gustavson"):
    """Fetch (or compile) the specialized kernel for a hot combination.

    Returns ``None`` when the combination cannot be specialized
    (positional multiply ops, user-defined ops or types, monoids with no
    reduction ufunc) — callers then take the generic path.  Builtin op
    names are unique, so they key the cache; user-defined ops are never
    cached.
    """
    if not ENABLED:
        return None
    if not _specializable(semiring, out_type):
        _cache_stats["unspecializable"] += 1
        return None
    key = (
        semiring.add.name,
        semiring.mult.name,
        out_type.name,
        mask_kind,
        getattr(accum, "name", accum),
        method,
    )
    with _cache_lock:
        kern = _kernel_cache.get(key)
        if kern is not None:
            _kernel_cache.move_to_end(key)
            _cache_stats["hits"] += 1
            return kern
        kern = SpecializedKernel(semiring, out_type)
        _kernel_cache[key] = kern
        _cache_stats["misses"] += 1
        evicted = 0
        while len(_kernel_cache) > CACHE_SIZE:
            _kernel_cache.popitem(last=False)
            evicted += 1
        _cache_stats["evictions"] += evicted
    if telemetry.ENABLED:
        telemetry.decision(
            "engine.kernel",
            event="compile",
            semiring=semiring.name,
            dtype=out_type.name,
            mask=mask_kind,
            method=method,
            evicted=evicted,
        )
    return kern


def kernel_cache_stats() -> dict:
    """Counters for the kernel LRU: hits/misses/evictions/unspecializable."""
    with _cache_lock:
        stats = dict(_cache_stats)
        stats["size"] = len(_kernel_cache)
        stats["capacity"] = CACHE_SIZE
    return stats


def clear_kernel_cache() -> None:
    with _cache_lock:
        _kernel_cache.clear()
        for k in _cache_stats:
            _cache_stats[k] = 0


# -- shared thread pool -------------------------------------------------------

_pool_lock = threading.Lock()
_executor: ThreadPoolExecutor | None = None
_executor_workers = 0


def _get_executor(workers: int) -> ThreadPoolExecutor:
    global _executor, _executor_workers
    with _pool_lock:
        if _executor is None or _executor_workers < workers:
            if _executor is not None:
                _executor.shutdown(wait=True)
            _executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="gb-engine"
            )
            _executor_workers = workers
        return _executor


def _shutdown_executor() -> None:
    global _executor, _executor_workers
    with _pool_lock:
        if _executor is not None:
            _executor.shutdown(wait=True)
            _executor = None
            _executor_workers = 0


def pool_stats() -> dict:
    """Shared-pool occupancy for observability gauges.

    ``configured`` is the engine-wide worker setting; ``started`` is the
    actual size of the lazily created executor (0 until the first
    parallel kernel runs); ``live_threads`` counts its worker threads
    still alive.
    """
    with _pool_lock:
        started = _executor_workers if _executor is not None else 0
        live = sum(
            1 for t in getattr(_executor, "_threads", ()) if t.is_alive()
        ) if _executor is not None else 0
    return {"configured": WORKERS, "started": started, "live_threads": live}


def requested_workers(nthreads: int | None) -> int:
    """The worker count a kernel should request: the descriptor's
    ``GxB_NTHREADS`` when set, else the engine-wide default."""
    if nthreads is not None and nthreads >= 1:
        return int(nthreads)
    return WORKERS


def run_blocks(fn, arg_tuples, workers: int):
    """Run ``fn(*args)`` for each tuple on the shared pool, preserving order.

    Worker threads must not touch thread-local machinery (telemetry
    collectors, governor contexts, fault plans are all thread-local by
    design) — block functions do pure numpy work and return their piece;
    the coordinator merges and reports.  Exceptions propagate to the
    caller with all futures drained first, so a failed parallel section
    leaves no stray work running.
    """
    ex = _get_executor(workers)
    futures = [ex.submit(fn, *args) for args in arg_tuples]
    results = []
    first_exc = None
    for fut in futures:
        try:
            results.append(fut.result())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if first_exc is None:
                first_exc = exc
            results.append(None)
    if first_exc is not None:
        raise first_exc
    return results
