"""GraphBLAS monoids: an associative commutative binary op with identity.

A monoid may also carry a *terminal* (annihilator) value.  The paper
(section II.A) describes SuiteSparse's early-exit mechanism for the MIN,
MAX, OR, and AND monoids: a reduction can stop as soon as the terminal
value is reached.  The dot-product SpGEMM kernel in :mod:`repro.graphblas.mxm`
uses :attr:`Monoid.terminal` exactly that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DomainMismatch, InvalidValue
from .ops import BinaryOp, binary
from .types import Type

__all__ = ["Monoid", "monoid", "MONOIDS", "BOOL_MONOIDS", "ARITH_MONOIDS"]


@dataclass(frozen=True)
class Monoid:
    """``GrB_Monoid``: (op, identity[, terminal]).

    ``identity`` and ``terminal`` may be callables taking the domain
    :class:`~repro.graphblas.types.Type` (MIN/MAX identities depend on the
    domain) or plain values.
    """

    name: str
    op: BinaryOp = field(compare=False)
    _identity: Any = field(compare=False)
    _terminal: Any = field(default=None, compare=False)
    builtin: bool = field(default=True, compare=False)

    def identity(self, dtype: Type):
        """The identity element in domain ``dtype``."""
        v = self._identity(dtype) if callable(self._identity) else self._identity
        return dtype.np_dtype.type(v) if dtype.builtin else v

    def terminal(self, dtype: Type):
        """The annihilator in ``dtype``, or None if the monoid has none."""
        if self._terminal is None:
            return None
        v = self._terminal(dtype) if callable(self._terminal) else self._terminal
        return dtype.np_dtype.type(v) if dtype.builtin else v

    @property
    def reduce_ufunc(self) -> np.ufunc | None:
        """NumPy ufunc with working ``reduce``/``reduceat``, if one exists."""
        uf = self.op.ufunc
        return uf if isinstance(uf, np.ufunc) else _REDUCE_UFUNCS.get(self.name)

    def reduce_array(self, values: np.ndarray, dtype: Type):
        """Reduce a 1-D array to a scalar of domain ``dtype``."""
        values = dtype.cast_array(np.asarray(values))
        if values.size == 0:
            return self.identity(dtype)
        if self.name == "ANY":  # keep the first member: O(1)
            return values[0].item() if dtype.builtin else values[0]
        uf = self.reduce_ufunc
        if uf is not None:
            return dtype.cast_array(np.asarray(uf.reduce(values))).item()
        acc = values[0]
        for v in values[1:]:
            acc = self.op.fn(acc, v)
        return dtype.cast_scalar(acc)

    def reduce_segments(
        self, values: np.ndarray, segment_starts: np.ndarray, dtype: Type
    ) -> np.ndarray:
        """Reduce contiguous segments of ``values`` (a vectorized groupby).

        ``segment_starts`` is the start offset of each segment; segment ``s``
        covers ``values[segment_starts[s]:segment_starts[s+1]]`` with the last
        segment running to the end.  Empty segments yield the identity.
        """
        values = dtype.cast_array(np.asarray(values))
        starts = np.asarray(segment_starts, dtype=np.int64)
        if starts.size == 0:
            return np.empty(0, dtype=dtype.np_dtype)
        if self.name == "ANY" and values.size:  # first of each segment
            ends = np.append(starts[1:], values.size)
            out = values[np.minimum(starts, values.size - 1)].copy()
            empty = starts >= ends
            if np.any(empty):
                out[empty] = self.identity(dtype)
            return out
        uf = self.reduce_ufunc
        if uf is not None and values.size:
            clipped = np.minimum(starts, values.size - 1)
            out = uf.reduceat(values, clipped)
            ends = np.append(starts[1:], values.size)
            empty = starts >= ends
            if np.any(empty):
                out = out.astype(dtype.np_dtype, copy=True)
                out[empty] = self.identity(dtype)
            return dtype.cast_array(out)
        ends = np.append(starts[1:], values.size)
        out = np.empty(starts.size, dtype=dtype.np_dtype)
        for s in range(starts.size):
            out[s] = self.reduce_array(values[starts[s] : ends[s]], dtype)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Monoid({self.name})"


def _min_identity(t: Type):
    if t.is_bool:
        return True
    if t.is_float:
        return np.inf
    return np.iinfo(t.np_dtype).max


def _max_identity(t: Type):
    if t.is_bool:
        return False
    if t.is_float:
        return -np.inf
    return np.iinfo(t.np_dtype).min


MONOIDS: dict[str, Monoid] = {}


def _def_monoid(name, opname, identity, terminal=None):
    m = Monoid(name, binary(opname), identity, terminal)
    MONOIDS[name] = m
    return m


PLUS_MONOID = _def_monoid("PLUS", "PLUS", 0)
TIMES_MONOID = _def_monoid("TIMES", "TIMES", 1, terminal=0)
MIN_MONOID = _def_monoid("MIN", "MIN", _min_identity, terminal=_max_identity)
MAX_MONOID = _def_monoid("MAX", "MAX", _max_identity, terminal=_min_identity)
LOR_MONOID = _def_monoid("LOR", "LOR", False, terminal=True)
LAND_MONOID = _def_monoid("LAND", "LAND", True, terminal=False)
LXOR_MONOID = _def_monoid("LXOR", "LXOR", False)
EQ_MONOID = _def_monoid("EQ", "LXNOR", True)  # a.k.a. LXNOR monoid
MONOIDS["LXNOR"] = EQ_MONOID
# ANY: keep the first member; any value is terminal (maximal early exit),
# which the compiled kernels exploit — they stop every fold at its first
# term, byte-equal to reduce_segments' first-of-segment rule.
ANY_MONOID = Monoid("ANY", binary("ANY"), 0, None)
MONOIDS["ANY"] = ANY_MONOID

# ufuncs for monoids whose op.ufunc is a lambda (logical ops coerce to bool
# first, so plain np.logical_* reduce correctly once values are boolean).
_REDUCE_UFUNCS: dict[str, np.ufunc] = {
    "LOR": np.logical_or,
    "LAND": np.logical_and,
    "LXOR": np.logical_xor,
    "EQ": np.equal,
    "LXNOR": np.equal,
}

# The four Boolean monoids of the built-in-semiring census (paper's "960").
BOOL_MONOIDS: tuple[str, ...] = ("LOR", "LAND", "LXOR", "EQ")
# The four arithmetic monoids over each non-Boolean domain.
ARITH_MONOIDS: tuple[str, ...] = ("MIN", "MAX", "PLUS", "TIMES")


def monoid(spec) -> Monoid:
    """Resolve a :class:`Monoid` from a Monoid or (case-insensitive) name."""
    if isinstance(spec, Monoid):
        return spec
    try:
        return MONOIDS[str(spec).upper()]
    except KeyError:
        raise InvalidValue(f"unknown monoid {spec!r}") from None


def make_monoid(op, identity, terminal=None, name: str | None = None) -> Monoid:
    """``GrB_Monoid_new``: build a user-defined monoid."""
    op = binary(op)
    if op.positional:
        raise DomainMismatch("positional ops cannot form monoids")
    return Monoid(name or f"user_{op.name}", op, identity, terminal, builtin=False)
