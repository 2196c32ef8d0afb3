"""Pluggable kernel backends for the Table-I operation set.

The operation layer splits every GraphBLAS call into an engine-independent
:class:`~repro.graphblas.plan.OpPlan` (built by :mod:`repro.graphblas.plan`)
and a kernel half served by a :class:`KernelBackend`.  Four backends ship:

``optimized``
    The sparse production engine (CSR/CSC/hypersparse kernels, push/pull
    mxv, masked SpGEMM).  The default.  Its mxm/mxv/vxm run the
    JIT-compiled monomorphic semiring kernels of
    :mod:`repro.graphblas.compiled` (true terminal-monoid early exit)
    whenever a toolchain resolved and the plan's class has a template —
    one memoised :func:`~repro.graphblas.compiled.select` per class —
    and vectorized NumPy kernels otherwise.
``compiled``
    "Compiled or decline": the same engine, serving only the plans the
    compiled tier runs; everything else — and every plan when no
    toolchain is usable — falls back to ``optimized``.
``reference``
    The dense spec-literal mimic from :mod:`repro.graphblas.reference`,
    promoted from test helper to a first-class engine.  Slow but written
    directly from the spec's math.
``differential``
    The paper's testing methodology (section II.A) as a runtime mode:
    every call runs on both ``optimized`` and ``reference`` and raises
    :class:`~repro.graphblas.errors.BackendDivergence` if the two disagree
    on pattern or values.

Selection, outermost wins:

1. per-call override: ``ops.mxm(C, A, B, backend="reference")``;
2. context manager: ``with graphblas.backend("differential"): ...``;
3. environment: ``GRAPHBLAS_BACKEND=reference`` (read once, at first use;
   ``set_default_backend`` changes it at runtime);
4. the ``optimized`` default.

Every dispatch records a ``backend.dispatch`` telemetry decision naming
the backend that served the op, and a ``backend.fallback`` decision
whenever a backend declines a plan via :meth:`KernelBackend.supports`.
"""

from __future__ import annotations

import importlib
import threading

import time

from .. import governor, options, telemetry
from ..errors import InvalidValue
from ..plan import TABLE1_OPS, OpPlan

__all__ = [
    "KernelBackend",
    "backend",
    "register_backend",
    "get_backend",
    "available_backends",
    "current_backend",
    "current_backend_name",
    "set_default_backend",
    "dispatch",
]


class KernelBackend:
    """Protocol for a kernel engine serving the Table-I operation surface.

    Subclasses implement one method per operation in
    :data:`~repro.graphblas.plan.TABLE1_OPS`; each receives a fully
    resolved :class:`OpPlan`, performs the kernel work, and finishes the
    result through the shared accum-then-mask write step so all engines
    share identical mask/accumulator/replace semantics.

    ``supports`` lets a partial backend decline plans it cannot serve;
    the dispatcher then walks the ``fallback`` chain (recording a
    ``backend.fallback`` telemetry decision at each hop).
    """

    name = "abstract"
    #: backend name to try when ``supports`` returns False (None = error).
    fallback: str | None = "optimized"

    def supports(self, plan: OpPlan) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def _unimplemented(op_name):
    def method(self, plan):
        raise NotImplementedError(f"{self.name} backend does not implement {op_name}")

    method.__name__ = op_name
    return method


for _op in TABLE1_OPS:
    setattr(KernelBackend, _op, _unimplemented(_op))
del _op


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_factories: dict[str, object] = {}
_instances: dict[str, KernelBackend] = {}
#: serializes first-use construction: two threads entering
#: ``backend(name)`` together must share one (stateful) instance.
_instances_lock = threading.RLock()
_tls = threading.local()
_default: KernelBackend | None = None


def register_backend(name: str, factory, *, replace: bool = False) -> None:
    """Register a backend under ``name``; ``factory()`` builds the instance.

    Registration is lazy: the factory runs on first :func:`get_backend`
    lookup, so a backend's module is only imported on use.
    """
    if name in _factories and not replace:
        raise InvalidValue(f"backend {name!r} already registered")
    _factories[name] = factory
    _instances.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends."""
    return tuple(sorted(_factories))


def get_backend(spec) -> KernelBackend:
    """Resolve a backend instance from a name or instance (cached)."""
    if isinstance(spec, KernelBackend):
        return spec
    inst = _instances.get(spec)
    if inst is None:
        factory = _factories.get(spec)
        if factory is None:
            raise InvalidValue(
                f"unknown backend {spec!r}; available: {', '.join(available_backends())}"
            )
        with _instances_lock:
            inst = _instances.get(spec)
            if inst is None:
                inst = _instances[spec] = factory()
    return inst


def _builtin(module: str, cls: str):
    def factory():
        mod = importlib.import_module(f".{module}", __package__)
        return getattr(mod, cls)()

    return factory


register_backend("optimized", _builtin("optimized", "OptimizedBackend"))
register_backend("compiled", _builtin("compiled", "CompiledBackend"))
register_backend("reference", _builtin("reference", "ReferenceBackend"))
register_backend("differential", _builtin("differential", "DifferentialBackend"))


# --------------------------------------------------------------------------
# selection
# --------------------------------------------------------------------------

def set_default_backend(name: str | None) -> None:
    """Set the process default (overriding ``GRAPHBLAS_BACKEND``).

    ``None`` re-reads the environment on next use.
    """
    global _default
    if name is None:
        options.reset("backend")
    else:
        options.set("backend", name=name)
    _default = None


def current_backend() -> KernelBackend:
    """The backend active on this thread (stack top, else the default)."""
    stack = getattr(_tls, "stack", None)
    if stack:
        return stack[-1]
    global _default
    if _default is None:
        # Resolved once per change: an unknown GRAPHBLAS_BACKEND warns
        # once and falls back to the default rather than raising deep
        # inside the first operation of the process.
        _default = get_backend(options.get("backend")["name"])
    return _default


def current_backend_name() -> str:
    """Name of the backend active on this thread."""
    return current_backend().name


class backend:
    """Context manager selecting a backend for the enclosed operations.

    ::

        with graphblas.backend("differential"):
            bfs_level(src, G)   # every Table-I op is cross-checked

    Selection is thread-local and nests; the innermost wins.
    """

    def __init__(self, name):
        self._target = get_backend(name)

    def __enter__(self) -> KernelBackend:
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        stack.append(self._target)
        return self._target

    def __exit__(self, *exc) -> None:
        _tls.stack.pop()


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

def dispatch(plan: OpPlan, backend=None):
    """Route a plan to the active backend, walking fallbacks as needed.

    Under an active :class:`~repro.graphblas.governor.ExecutionContext`
    three extra steps apply:

    - cancellation/deadline are polled before the kernel runs;
    - a plan the governor marked over-budget is routed to tiled
      spill-to-disk execution (:mod:`repro.graphblas.tiled`);
    - the context's :class:`~repro.graphblas.retry.RetryPolicy`, if
      any, wraps the kernel call: dispatch owns a kernel's transient
      ``OutOfMemory``, so one failed op is re-run, not the algorithm
      around it.  Tiled execution is *not* wrapped — its spill pool owns
      tile-I/O failures.
    """
    tiled_route = plan.params.pop("governor_tiled", False) or (
        plan.params.get("method") == "tiled"
        and plan.op in ("mxm", "mxv", "vxm")
    )
    if governor.ACTIVE:
        governor.poll()
    if tiled_route:
        from .. import tiled as _tiled

        if telemetry.ENABLED:
            telemetry.decision(
                "governor.tiled", op=plan.op,
                est_bytes=plan.params.get("est_bytes"),
            )
        return _execute(plan, "tiled", "tiled", lambda: _tiled.execute(plan))
    be = get_backend(backend) if backend is not None else current_backend()
    while not be.supports(plan):
        fb = be.fallback
        if fb is None or fb == be.name:
            raise NotImplementedError(
                f"backend {be.name!r} cannot serve {plan.op} and has no fallback"
            )
        if telemetry.ENABLED:
            telemetry.decision(
                "backend.fallback", op=plan.op, declined=be.name, fallback=fb
            )
        be = get_backend(fb)
    if telemetry.ENABLED:
        telemetry.decision("backend.dispatch", op=plan.op, backend=be.name)
    kernel = getattr(be, plan.op)
    retry = None
    if governor.ACTIVE:
        ctx = governor.current()
        if ctx is not None and ctx.retry is not None:
            retry = ctx.retry
    return _execute(plan, "direct", be.name, lambda: kernel(plan), retry=retry)


def _actual_bytes(plan, out) -> int | None:
    """Measured result footprint, comparable to the admission estimate."""
    try:
        nvals = getattr(out, "nvals", None)
        if nvals is None:
            return None
        return int(nvals) * governor._entry_bytes(out, plan.out_type)
    except (AttributeError, TypeError, ValueError):
        return None


def _execute(plan: OpPlan, route: str, backend_name: str, run, retry=None):
    """Run the chosen kernel, emitting a ``plan.done`` record when wanted.

    ``retry`` is the governing context's
    :class:`~repro.graphblas.retry.RetryPolicy` (or None); applying
    the wrap here lets the ``plan.done`` record carry the number of
    retries this specific plan consumed, not just the context total.

    The record — kernel wall time, dispatch route, the kernel tier that
    ran and this plan's own compiled-kernel cache outcome (read off the
    plan, never a difference of process-global counters, so concurrent
    plans cannot absorb each other's compiles), estimated vs actual
    result bytes — feeds the process metrics (``graphblas_plan_seconds``,
    slow-op log) and :func:`repro.obs.explain`.  It is only produced
    while observability or an EXPLAIN capture is active
    (``telemetry.PLAN_EVENTS``), so a plain collector-only telemetry
    stream is byte-identical to before.
    """
    if retry is not None:
        inner = run
        run = lambda: governor.with_retry(  # noqa: E731
            inner, retry, op=plan.op)
    if not (telemetry.ENABLED and telemetry.PLAN_EVENTS):
        return run()
    ctx = governor.current() if governor.ACTIVE else None
    r0 = ctx.stats.get("retries", 0) if ctx is not None else 0
    t0 = time.perf_counter()
    out = run()
    seconds = time.perf_counter() - t0
    detail = {
        "op": plan.op,
        "backend": backend_name,
        "route": route,
        "seconds": seconds,
    }
    if plan.kernel is not None:
        detail["kernel"] = plan.kernel
        if plan.kernel == "compiled":
            detail["kernel_cache"] = plan.selection[1]
    if ctx is not None and retry is not None:
        replays = ctx.stats.get("retries", 0) - r0
        if replays:
            detail["retries"] = replays
    method = plan.params.get("method")
    if method is not None:
        detail["method"] = method
    est = plan.params.get("est_bytes")
    if est is not None:
        detail["est_bytes"] = int(est)
    actual = _actual_bytes(plan, out)
    if actual is not None:
        detail["actual_bytes"] = actual
    if ctx is not None:
        if ctx.memory_budget is not None:
            detail["budget_bytes"] = ctx.memory_budget
        detail["admission"] = "tiled" if route == "tiled" else (
            "admitted" if ctx.memory_budget is not None else "unbudgeted")
    else:
        detail["admission"] = "ungoverned"
    telemetry.decision("plan.done", **detail)
    return out
