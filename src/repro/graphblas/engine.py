"""Dual-format twins and row-blocked parallelism for the default backend.

Section II.E of the paper notes that direction-optimizing ``mxv``
"requires both CSR and CSC copies" of the adjacency matrix, and
SuiteSparse runs its kernels over row slices in parallel.  This module
supplies both mechanisms:

1. **Dual-orientation storage** — when :data:`DUAL_FORMAT` is on,
   ``Matrix._oriented`` caches the opposite-orientation twin with
   mutation-epoch invalidation, making pull-phase ``mxv``/``vxm`` and
   ``transpose`` O(1) after first use.
2. **Row-blocked parallelism** — a shared, lazily created
   :class:`~concurrent.futures.ThreadPoolExecutor` runs row blocks of
   Gustavson SpGEMM / pull ``mxv``; :func:`admit_blocks` decides whether
   a call goes parallel, and the execution governor
   (:func:`repro.graphblas.governor.admit_workers`) funds the worker
   count.

Which kernel runs is not decided here: :func:`repro.graphblas.compiled.
select_class` picks the compiled tier or the NumPy kernels, and its memo
is the only kernel cache.  ``GRAPHBLAS_ENGINE=off`` (or
``set_engine(False)``) turns off twins and row blocks, so engine-on vs
engine-off results can be compared bit for bit.

The tunables are the ``engine`` rows of :mod:`repro.graphblas.options`
(``enabled``, ``parallel``, ``workers``), snapshotted into module
attributes at import so hot paths pay one attribute load;
:func:`set_engine` and :func:`reset` refresh the snapshot.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import compiled, governor, options

__all__ = [
    "EngineConfig",
    "get_config",
    "set_engine",
    "reset",
    "kernel_cache_stats",
    "pool_stats",
    "admit_blocks",
    "run_blocks",
    "requested_workers",
    "MIN_PARALLEL_FLOPS",
    "MIN_PARALLEL_ENTRIES",
]

# Below these work sizes the thread-pool handoff costs more than it saves.
MIN_PARALLEL_FLOPS = 1 << 18
MIN_PARALLEL_ENTRIES = 1 << 16


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

    ``set_engine(False)`` turns twins and row blocks off;
    ``set_engine(True)`` turns them back on.  ``parallel=`` and
    ``workers=`` tune the row-blocked kernels while the engine stays on.
    Unknown or out-of-range options raise
    :class:`~repro.graphblas.errors.InvalidValue`.
    """
    options.set("engine", enabled=enabled, **overrides)
    _refresh()
    return _config


def reset() -> None:
    """Drop overrides, re-read the environment and shut the shared pool
    down (for tests)."""
    options.reset("engine")
    _refresh()
    _shutdown_executor()


def kernel_cache_stats() -> dict:
    """Alias of ``compiled.cache_stats()``, kept for the frozen harness.

    The compiled memo is the only kernel cache; the benchmark harness
    (``perfbench/run.py``) still reads this name, so it stays until that
    harness is re-baselined (ROADMAP item 6(i)).  Its
    ``engine.cache_hit_ratio`` therefore repeats
    ``compiled.cache_hit_ratio`` and is not comparable with baselines
    taken before the engine's own kernel cache was deleted.
    """
    return compiled.cache_stats()


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


def admit_blocks(op: str, work: int, threshold: int, nthreads: int | None,
                 per_block, semiring=None, out_type=None) -> int:
    """Workers for one row-blocked kernel call (1: run it serially).

    A call goes parallel when the engine's ``parallel`` switch is on and
    its ``work`` reaches ``threshold``; the governor then funds the
    requested count against its budget, ``per_block(requested)`` bytes per
    in-flight block.  NumPy blocks (``semiring`` given) must do pure
    ufunc work, so they also need a builtin, non-positional multiply, a
    builtin monoid with a reduction ufunc (or ``ANY``) and a builtin
    output type.
    """
    if not PARALLEL or work < threshold:
        return 1
    if semiring is not None:
        mult, add = semiring.mult, semiring.add
        if (mult.positional is not None or mult.ufunc is None
                or not (mult.builtin and add.builtin and out_type.builtin)
                or (add.name != "ANY" and add.reduce_ufunc is None)):
            return 1
    requested = requested_workers(nthreads)
    if requested <= 1:
        return 1
    return governor.admit_workers(requested, per_block(requested), op=op)


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
