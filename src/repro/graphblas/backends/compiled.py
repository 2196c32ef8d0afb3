"""``backend="compiled"``: the compiled kernel tier, or decline.

The default ``optimized`` backend already runs the JIT kernels of
:mod:`repro.graphblas.compiled` for every ``mxm``/``mxv``/``vxm`` whose
plan class :func:`~repro.graphblas.compiled.select` accepts.  This
backend is the same engine with a stricter promise: it serves exactly
those plans and declines everything else — ops without a template,
user-defined ops or types, the heap method, dimensions above
``compiled.MAX_DIMENSION``, or no usable toolchain (the first decline
then warns once via ``envutil``) — so the dispatcher walks its fallback
chain to ``optimized``.  It keeps ``GRAPHBLAS_BACKEND=compiled``,
``diff.primary=compiled`` and per-call ``backend="compiled"`` meaning
"compiled kernels or nothing".
"""

from __future__ import annotations

from .. import compiled as _compiled
from .optimized import OptimizedBackend


class CompiledBackend(OptimizedBackend):
    """The optimized engine restricted to plans the compiled tier runs."""

    name = "compiled"
    fallback = "optimized"

    def supports(self, plan) -> bool:
        if _compiled.select(plan) is not None:
            return True
        if not _compiled.available():
            _compiled.warn_unavailable()
        return False
