"""Pluggable kernel backends for the Table-I operation set.

The operation layer splits every GraphBLAS call into an engine-independent
:class:`~repro.graphblas.plan.OpPlan` (built by :mod:`repro.graphblas.plan`)
and a kernel half served by a :class:`KernelBackend`.  Three engines ship:

``optimized``
    The sparse production engine (CSR/CSC/hypersparse kernels, push/pull
    mxv, masked SpGEMM).  The default.  Its mxm/mxv/vxm run the
    JIT-compiled monomorphic semiring kernels of
    :mod:`repro.graphblas.compiled` (true terminal-monoid early exit)
    whenever a toolchain resolved and the plan's class has a template —
    one memoised :func:`~repro.graphblas.compiled.select` per class —
    and vectorized NumPy kernels otherwise.  ``plan.chosen`` records
    which tier ran.  The name ``compiled`` resolves to this engine too
    (warning once when no toolchain is usable).
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

Dispatch is one call: the selected backend runs the plan or raises.
It is also the one per-operation timer: while telemetry is on, every
executed plan leaves exactly one ``op`` record naming the backend that
served it and the route it took (see :func:`_execute`).
"""

from __future__ import annotations

import contextvars
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
    """

    name = "abstract"

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
#: the ``backend(...)`` blocks enclosing this call, innermost last
_selected: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "graphblas_backend", default=())
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
        if spec == "compiled":
            return _compiled_engine()
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


def _compiled_engine() -> KernelBackend:
    """``"compiled"``: the optimized engine, which already runs the
    compiled kernels for every plan class that has them.  Resolved anew
    each time, so a request made with no usable toolchain warns (once).
    """
    from .. import compiled

    if not compiled.available():
        compiled.warn_unavailable()
    return get_backend("optimized")


register_backend("optimized", _builtin("optimized", "OptimizedBackend"))
register_backend("compiled", _compiled_engine)
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
    """The backend active in this context (innermost block, else the
    default)."""
    selected = _selected.get()
    if selected:
        return selected[-1]
    global _default
    if _default is None:
        # Resolved once per change: an unknown GRAPHBLAS_BACKEND warns
        # once and falls back to the default rather than raising deep
        # inside the first operation of the process.
        _default = get_backend(options.get("backend")["name"])
    return _default


def current_backend_name() -> str:
    """Name of the backend active in this context."""
    return current_backend().name


class backend:
    """Context manager selecting a backend for the enclosed operations.

    ::

        with graphblas.backend("differential"):
            bfs_level(src, G)   # every Table-I op is cross-checked

    Selection is a context variable: it nests (the innermost wins),
    holds for the engine's pool blocks, and no other thread sees it.
    """

    def __init__(self, name):
        self._target = get_backend(name)

    def __enter__(self) -> KernelBackend:
        _selected.set(_selected.get() + (self._target,))
        return self._target

    def __exit__(self, *exc) -> None:
        _selected.set(_selected.get()[:-1])


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

def dispatch(plan: OpPlan, backend=None):
    """Run a plan on the active backend: one kernel call.

    Under an active :class:`~repro.graphblas.governor.ExecutionContext`
    cancellation/deadline are polled before the kernel runs, and a plan
    the governor marked over-budget is routed to tiled spill-to-disk
    execution (:mod:`repro.graphblas.tiled`).  A failing kernel raises
    once; nothing here re-runs it.
    """
    tiled_route = plan.params.pop("governor_tiled", False) or (
        plan.params.get("method") == "tiled"
        and plan.op in ("mxm", "mxv", "vxm")
    )
    governor.poll()
    if tiled_route:
        from .. import tiled as _tiled

        return _execute(plan, "tiled", "tiled", _tiled.execute)
    be = get_backend(backend) if backend is not None else current_backend()
    return _execute(plan, "direct", be.name, getattr(be, plan.op))


def _out_nvals(out) -> int | None:
    """Stored entries of a kernel result, read without forcing assembly
    (``nvals`` would run ``wait()`` and record an op of its own)."""
    store = getattr(out, "_store", None)
    if store is not None:
        return int(store.nvals)
    idx = getattr(out, "indices", None)
    return None if idx is None else int(idx.size)


def _execute(plan: OpPlan, route: str, backend_name: str, kernel):
    """Run ``kernel(plan)``; while telemetry is on, record the op once.

    The one ``op`` record per executed plan, named ``plan.op``: kernel
    wall time, output nvals, the serving backend and dispatch route,
    what the kernel chose and did (``plan.chosen``: the kernel tier with
    this plan's own compiled-kernel cache outcome and toolchain, the
    SpGEMM method or push/pull direction that ran, the tiled route's
    tile size and spill traffic — read off the plan, so concurrent plans
    cannot absorb each other's), estimated vs actual result bytes and
    the governor's admission verdict.  The collector, burble, Chrome
    trace, metrics sink, slow-op log and :func:`repro.obs.explain` all
    read it.
    """
    if not telemetry.ENABLED:
        return kernel(plan)
    t0 = time.perf_counter()
    out = kernel(plan)
    seconds = time.perf_counter() - t0
    nvals = _out_nvals(out)
    fields = {"backend": backend_name, "route": route, **plan.chosen}
    est = plan.params.get("est_bytes")
    if est is not None:
        fields["est_bytes"] = int(est)
    if nvals is not None:
        fields["actual_bytes"] = nvals * governor._entry_bytes(
            out, plan.out_type)
    ctx = governor.current()
    if route == "tiled":
        fields["admission"] = "tiled"
    elif ctx is None:
        fields["admission"] = "ungoverned"
    else:
        fields["admission"] = (
            "admitted" if ctx.memory_budget is not None else "unbudgeted")
    telemetry.record_op(plan.op, seconds, nvals, **fields)
    return out
