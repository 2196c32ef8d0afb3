"""PyGB-style Python DSL for the GraphBLAS (paper section II.D, Figure 2b).

PyGB's goal — reproduced here — is code that "closely tracks the notation
from the GraphBLAS math spec".  The level-BFS of Figure 2(b) runs against
this module essentially verbatim::

    from repro import pygb as gb

    def bfs(graph, frontier, levels):
        depth = 0
        while frontier.nvals > 0:
            depth += 1
            levels[frontier][:] = depth
            with gb.LogicalSemiring, gb.Replace:
                frontier[~levels] = graph.T @ frontier

The pieces:

* ``Matrix``/``Vector`` wrap the core objects and overload ``@`` (matrix
  product over the ambient semiring), ``+`` (eWiseAdd), ``*`` (eWiseMult),
  ``A.T`` (lazy transpose), and ``~x`` (complemented mask).
* ``with SomeSemiring:`` sets the ambient semiring; ``with Replace:`` sets
  the REPLACE descriptor; context state is a stack in a context variable,
  so blocks nest, per thread.  A context object exists for every named
  built-in semiring (``LogicalSemiring``, ``PlusTimesSemiring``,
  ``MinPlusSemiring``, ...).
* ``w[mask] = expr`` evaluates ``expr`` into ``w`` under ``mask`` and the
  ambient descriptor; ``w[mask][:] = scalar`` is masked constant assign.
"""

from .dsl import (
    Matrix,
    Vector,
    Replace,
    Structural,
    ambient_semiring,
    semiring_context,
    LogicalSemiring,
    PlusTimesSemiring,
    MinPlusSemiring,
    MaxPlusSemiring,
    MinTimesSemiring,
    MinFirstSemiring,
    MinSecondSemiring,
    MaxMinSemiring,
    PlusMinSemiring,
    AnySecondiSemiring,
)

__all__ = [
    "Matrix",
    "Vector",
    "Replace",
    "Structural",
    "ambient_semiring",
    "semiring_context",
    "LogicalSemiring",
    "PlusTimesSemiring",
    "MinPlusSemiring",
    "MaxPlusSemiring",
    "MinTimesSemiring",
    "MinFirstSemiring",
    "MinSecondSemiring",
    "MaxMinSemiring",
    "PlusMinSemiring",
    "AnySecondiSemiring",
]
