"""GraphBLAS operators: unary, binary, and index-unary.

Each operator is *polymorphic* (like the mathematical spec): it can be
applied in any built-in domain.  The C API's typed variants
(``GrB_PLUS_INT32``) correspond to applying the polymorphic op to inputs of
that domain.

Every built-in operator carries two implementations:

* ``ufunc`` — a vectorized NumPy callable used by all sparse kernels; and
* ``fn`` — a scalar Python function used by the dense reference
  implementation (:mod:`repro.graphblas.reference`) and by user-defined-type
  fallbacks.

This dual-implementation structure deliberately mirrors the paper's
description of SuiteSparse testing (section II.A): the fast path and the
spec-literal path are written independently and compared by the test suite.

*Positional* binary operators (``FIRSTI``/``SECONDJ``...) are the
SuiteSparse extension needed for parent BFS; they do not look at values at
all, only coordinates, and the matrix kernels special-case them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainMismatch, InvalidValue
from .types import BOOL, FP64, INT64, Type, unify_types

__all__ = [
    "UnaryOp",
    "BinaryOp",
    "IndexUnaryOp",
    "unary",
    "binary",
    "indexunary",
    "UNARY_OPS",
    "BINARY_OPS",
    "INDEXUNARY_OPS",
    "C_API_BINARY_OPS",
    "SUITESPARSE_BINARY_OPS",
    "COMPARISON_OPS",
    "bool_equivalent",
]


def _safe_div(x, y):
    """C-style division: integer div by zero yields 0, float yields inf/nan."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.dtype.kind == "f" or y.dtype.kind == "f":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(x, y)
    out_dtype = np.promote_types(x.dtype, y.dtype)
    zero = y == 0
    if not np.any(zero):
        return np.floor_divide(x, y, dtype=out_dtype, casting="unsafe")
    safe_y = np.where(zero, 1, y)
    res = np.floor_divide(x, safe_y, dtype=out_dtype, casting="unsafe")
    return np.where(zero, out_dtype.type(0), res)


def _safe_minv(x):
    x = np.asarray(x)
    if x.dtype.kind == "f":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.reciprocal(x)
    if x.dtype.kind == "b":
        return np.ones_like(x)
    return _safe_div(np.ones_like(x), x)


@dataclass(frozen=True)
class UnaryOp:
    """``GrB_UnaryOp``: z = f(x)."""

    name: str
    fn: Callable = field(compare=False)
    ufunc: Callable = field(compare=False)
    ztype: Type | None = field(default=None, compare=False)  # None: same as input
    builtin: bool = field(default=True, compare=False)

    def out_type(self, xtype: Type) -> Type:
        if self.ztype is not None:
            return self.ztype
        if self.name in ("SQRT", "EXP", "LOG") and not xtype.is_float:
            return FP64
        return xtype

    def apply(self, x: np.ndarray, out_type: Type | None = None) -> np.ndarray:
        """Vectorized application; result cast into ``out_type`` if given."""
        z = self.ufunc(np.asarray(x))
        if out_type is not None:
            z = out_type.cast_array(z)
        return z

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UnaryOp({self.name})"


@dataclass(frozen=True)
class BinaryOp:
    """``GrB_BinaryOp``: z = f(x, y)."""

    name: str
    fn: Callable = field(compare=False)
    ufunc: Callable = field(compare=False)
    ztype: Type | None = field(default=None, compare=False)  # None: domain of inputs
    commutative: bool = field(default=False, compare=False)
    positional: str | None = field(default=None, compare=False)
    builtin: bool = field(default=True, compare=False)

    def out_type(self, xtype: Type, ytype: Type) -> Type:
        if self.ztype is not None:
            return self.ztype
        if self.positional is not None:
            return INT64
        if self.name == "FIRST":
            return xtype
        if self.name == "SECOND":
            return ytype
        return unify_types(xtype, ytype)

    def apply(
        self,
        x: np.ndarray,
        y: np.ndarray,
        out_type: Type | None = None,
    ) -> np.ndarray:
        """Vectorized application; result cast into ``out_type`` if given."""
        if self.positional is not None:
            raise InvalidValue(
                f"positional op {self.name} cannot be applied to values"
            )
        z = self.ufunc(np.asarray(x), np.asarray(y))
        if out_type is not None:
            z = out_type.cast_array(z)
        return z

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BinaryOp({self.name})"


@dataclass(frozen=True)
class IndexUnaryOp:
    """``GrB_IndexUnaryOp``: z = f(a_ij, i, j, thunk).

    Used by ``select`` (structural filtering: TRIL, VALUEGT, ...) and by
    ``apply`` with index arguments (ROWINDEX, ...).
    """

    name: str
    fn: Callable = field(compare=False)  # (value, i, j, thunk) -> scalar
    ufunc: Callable = field(compare=False)  # (vals, rows, cols, thunk) -> array
    ztype: Type | None = field(default=None, compare=False)
    builtin: bool = field(default=True, compare=False)

    def out_type(self, xtype: Type) -> Type:
        return self.ztype if self.ztype is not None else xtype

    def apply(self, vals, rows, cols, thunk) -> np.ndarray:
        return self.ufunc(np.asarray(vals), np.asarray(rows), np.asarray(cols), thunk)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IndexUnaryOp({self.name})"


# --------------------------------------------------------------------------
# Built-in unary operators
# --------------------------------------------------------------------------

def _np_identity(x):
    return np.asarray(x).copy()


UNARY_OPS: dict[str, UnaryOp] = {}


def _def_unary(name, fn, ufunc, ztype=None):
    op = UnaryOp(name, fn, ufunc, ztype=ztype)
    UNARY_OPS[name] = op
    return op


IDENTITY = _def_unary("IDENTITY", lambda x: x, _np_identity)
AINV = _def_unary("AINV", lambda x: -x, lambda x: -np.asarray(x))
MINV = _def_unary("MINV", lambda x: 1 / x if x else 0, _safe_minv)
LNOT = _def_unary("LNOT", lambda x: not x, lambda x: ~np.asarray(x, dtype=bool), ztype=BOOL)
ONE = _def_unary("ONE", lambda x: 1, lambda x: np.ones_like(np.asarray(x)))
ABS = _def_unary("ABS", abs, lambda x: np.abs(np.asarray(x)))


def _float_unary(ufunc):
    def wrapped(x):
        x = np.asarray(x)
        if x.dtype.kind != "f":
            x = x.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            return ufunc(x)

    return wrapped


SQRT = _def_unary("SQRT", lambda x: float(np.sqrt(x)), _float_unary(np.sqrt))
EXP = _def_unary("EXP", lambda x: float(np.exp(x)), _float_unary(np.exp))
LOG = _def_unary("LOG", lambda x: float(np.log(x)), _float_unary(np.log))


# --------------------------------------------------------------------------
# Built-in binary operators
# --------------------------------------------------------------------------

BINARY_OPS: dict[str, BinaryOp] = {}


def _def_binary(name, fn, ufunc, ztype=None, commutative=False, positional=None):
    op = BinaryOp(
        name,
        fn,
        ufunc,
        ztype=ztype,
        commutative=commutative,
        positional=positional,
    )
    BINARY_OPS[name] = op
    return op


def _np_first(x, y):
    return np.asarray(x).copy()


def _np_second(x, y):
    return np.asarray(y).copy()


def _np_oneb(x, y):
    return np.ones_like(np.asarray(x))


def _is_bool_pair(x, y) -> bool:
    return np.asarray(x).dtype == np.bool_ and np.asarray(y).dtype == np.bool_


def _bool_aware_ufunc(on_bool, general):
    """Arithmetic ops follow SuiteSparse's Boolean conventions on BOOL
    inputs (PLUS = OR, MINUS = XOR, TIMES = AND, DIV = FIRST, ...)."""

    def wrapped(x, y):
        if _is_bool_pair(x, y):
            return on_bool(np.asarray(x), np.asarray(y))
        return general(x, y)

    return wrapped


def _bool_aware_fn(on_bool, general):
    def wrapped(x, y):
        if isinstance(x, (bool, np.bool_)) and isinstance(y, (bool, np.bool_)):
            return on_bool(x, y)
        return general(x, y)

    return wrapped


FIRST = _def_binary("FIRST", lambda x, y: x, _np_first)
SECOND = _def_binary("SECOND", lambda x, y: y, _np_second)
ONEB = _def_binary("ONEB", lambda x, y: 1, _np_oneb, commutative=True)
PAIR = ONEB  # SuiteSparse's original name for ONEB
BINARY_OPS["PAIR"] = ONEB
MIN = _def_binary(
    "MIN",
    _bool_aware_fn(lambda x, y: bool(x) and bool(y), min),
    np.minimum,
    commutative=True,
)
MAX = _def_binary(
    "MAX",
    _bool_aware_fn(lambda x, y: bool(x) or bool(y), max),
    np.maximum,
    commutative=True,
)
PLUS = _def_binary(
    "PLUS",
    _bool_aware_fn(lambda x, y: bool(x) or bool(y), lambda x, y: x + y),
    np.add,  # np.add on booleans is already logical OR
    commutative=True,
)
MINUS = _def_binary(
    "MINUS",
    _bool_aware_fn(lambda x, y: bool(x) != bool(y), lambda x, y: x - y),
    _bool_aware_ufunc(np.logical_xor, np.subtract),
)
RMINUS = _def_binary(
    "RMINUS",
    _bool_aware_fn(lambda x, y: bool(x) != bool(y), lambda x, y: y - x),
    _bool_aware_ufunc(np.logical_xor, lambda x, y: np.subtract(y, x)),
)
TIMES = _def_binary(
    "TIMES",
    _bool_aware_fn(lambda x, y: bool(x) and bool(y), lambda x, y: x * y),
    np.multiply,  # np.multiply on booleans is already logical AND
    commutative=True,
)
DIV = _def_binary(
    "DIV",
    _bool_aware_fn(lambda x, y: x, lambda x, y: x / y if y else 0),
    _bool_aware_ufunc(lambda x, y: x.copy(), _safe_div),
)
RDIV = _def_binary(
    "RDIV",
    _bool_aware_fn(lambda x, y: y, lambda x, y: y / x if x else 0),
    _bool_aware_ufunc(lambda x, y: y.copy(), lambda x, y: _safe_div(y, x)),
)
POW = _def_binary(
    "POW",
    lambda x, y: x**y,
    lambda x, y: np.power(np.asarray(x, dtype=np.float64), y)
    if np.asarray(x).dtype.kind != "f"
    else np.power(x, y),
)

# Comparison ops: TxT -> BOOL
EQ = _def_binary("EQ", lambda x, y: x == y, np.equal, ztype=BOOL, commutative=True)
NE = _def_binary("NE", lambda x, y: x != y, np.not_equal, ztype=BOOL, commutative=True)
GT = _def_binary("GT", lambda x, y: x > y, np.greater, ztype=BOOL)
LT = _def_binary("LT", lambda x, y: x < y, np.less, ztype=BOOL)
GE = _def_binary("GE", lambda x, y: x >= y, np.greater_equal, ztype=BOOL)
LE = _def_binary("LE", lambda x, y: x <= y, np.less_equal, ztype=BOOL)

# "IS" ops: like comparisons but TxT -> T (SuiteSparse extension)
ISEQ = _def_binary("ISEQ", lambda x, y: type(x)(x == y), lambda x, y: np.equal(x, y), commutative=True)
ISNE = _def_binary("ISNE", lambda x, y: type(x)(x != y), lambda x, y: np.not_equal(x, y), commutative=True)
ISGT = _def_binary("ISGT", lambda x, y: type(x)(x > y), lambda x, y: np.greater(x, y))
ISLT = _def_binary("ISLT", lambda x, y: type(x)(x < y), lambda x, y: np.less(x, y))
ISGE = _def_binary("ISGE", lambda x, y: type(x)(x >= y), lambda x, y: np.greater_equal(x, y))
ISLE = _def_binary("ISLE", lambda x, y: type(x)(x <= y), lambda x, y: np.less_equal(x, y))

# Logical ops.  In the C API these are BOOL-only; SuiteSparse extends them to
# all types by treating nonzero as true (and returning 1/0 in the domain).


def _as_bool(x):
    x = np.asarray(x)
    return x if x.dtype == np.bool_ else x != 0


LOR = _def_binary(
    "LOR",
    lambda x, y: bool(x) or bool(y),
    lambda x, y: np.logical_or(_as_bool(x), _as_bool(y)),
    commutative=True,
)
LAND = _def_binary(
    "LAND",
    lambda x, y: bool(x) and bool(y),
    lambda x, y: np.logical_and(_as_bool(x), _as_bool(y)),
    commutative=True,
)
LXOR = _def_binary(
    "LXOR",
    lambda x, y: bool(x) != bool(y),
    lambda x, y: np.logical_xor(_as_bool(x), _as_bool(y)),
    commutative=True,
)
LXNOR = _def_binary(
    "LXNOR",
    lambda x, y: bool(x) == bool(y),
    lambda x, y: ~np.logical_xor(_as_bool(x), _as_bool(y)),
    commutative=True,
)

# "ANY" — may pick either input (SuiteSparse: enables fastest-possible
# reductions); here it keeps the first, so every kernel, the tiled fold
# and the dense reference pick the same term
ANY = _def_binary("ANY", lambda x, y: x, _np_first, commutative=True)

# Positional ops (SuiteSparse extension; needed e.g. for parent BFS).
# z = f(i, j) where (i, k) indexes A's entry and (k, j) indexes B's in mxm.
FIRSTI = _def_binary("FIRSTI", None, None, positional="firsti")
FIRSTI1 = _def_binary("FIRSTI1", None, None, positional="firsti1")
FIRSTJ = _def_binary("FIRSTJ", None, None, positional="firstj")
SECONDI = _def_binary("SECONDI", None, None, positional="secondi")
SECONDJ = _def_binary("SECONDJ", None, None, positional="secondj")
SECONDJ1 = _def_binary("SECONDJ1", None, None, positional="secondj1")


# --------------------------------------------------------------------------
# Built-in index-unary operators
# --------------------------------------------------------------------------

INDEXUNARY_OPS: dict[str, IndexUnaryOp] = {}


def _def_iuop(name, fn, ufunc, ztype=None):
    op = IndexUnaryOp(name, fn, ufunc, ztype=ztype)
    INDEXUNARY_OPS[name] = op
    return op


ROWINDEX = _def_iuop(
    "ROWINDEX",
    lambda v, i, j, t: i + t,
    lambda v, i, j, t: i + t,
    ztype=INT64,
)
COLINDEX = _def_iuop(
    "COLINDEX",
    lambda v, i, j, t: j + t,
    lambda v, i, j, t: j + t,
    ztype=INT64,
)
DIAGINDEX = _def_iuop(
    "DIAGINDEX",
    lambda v, i, j, t: j - i + t,
    lambda v, i, j, t: j - i + t,
    ztype=INT64,
)
TRIL = _def_iuop(
    "TRIL", lambda v, i, j, t: j <= i + t, lambda v, i, j, t: j <= i + t, ztype=BOOL
)
TRIU = _def_iuop(
    "TRIU", lambda v, i, j, t: j >= i + t, lambda v, i, j, t: j >= i + t, ztype=BOOL
)
DIAG = _def_iuop(
    "DIAG", lambda v, i, j, t: j == i + t, lambda v, i, j, t: j == i + t, ztype=BOOL
)
OFFDIAG = _def_iuop(
    "OFFDIAG", lambda v, i, j, t: j != i + t, lambda v, i, j, t: j != i + t, ztype=BOOL
)
ROWLE = _def_iuop(
    "ROWLE", lambda v, i, j, t: i <= t, lambda v, i, j, t: i <= t, ztype=BOOL
)
ROWGT = _def_iuop(
    "ROWGT", lambda v, i, j, t: i > t, lambda v, i, j, t: i > t, ztype=BOOL
)
COLLE = _def_iuop(
    "COLLE", lambda v, i, j, t: j <= t, lambda v, i, j, t: j <= t, ztype=BOOL
)
COLGT = _def_iuop(
    "COLGT", lambda v, i, j, t: j > t, lambda v, i, j, t: j > t, ztype=BOOL
)
VALUEEQ = _def_iuop(
    "VALUEEQ", lambda v, i, j, t: v == t, lambda v, i, j, t: v == t, ztype=BOOL
)
VALUENE = _def_iuop(
    "VALUENE", lambda v, i, j, t: v != t, lambda v, i, j, t: v != t, ztype=BOOL
)
VALUELT = _def_iuop(
    "VALUELT", lambda v, i, j, t: v < t, lambda v, i, j, t: v < t, ztype=BOOL
)
VALUELE = _def_iuop(
    "VALUELE", lambda v, i, j, t: v <= t, lambda v, i, j, t: v <= t, ztype=BOOL
)
VALUEGT = _def_iuop(
    "VALUEGT", lambda v, i, j, t: v > t, lambda v, i, j, t: v > t, ztype=BOOL
)
VALUEGE = _def_iuop(
    "VALUEGE", lambda v, i, j, t: v >= t, lambda v, i, j, t: v >= t, ztype=BOOL
)


# --------------------------------------------------------------------------
# Lookup helpers
# --------------------------------------------------------------------------

def unary(spec) -> UnaryOp:
    """Resolve a :class:`UnaryOp` from an op or (case-insensitive) name."""
    if isinstance(spec, UnaryOp):
        return spec
    try:
        return UNARY_OPS[str(spec).upper()]
    except KeyError:
        raise InvalidValue(f"unknown unary op {spec!r}") from None


def binary(spec) -> BinaryOp:
    """Resolve a :class:`BinaryOp` from an op or (case-insensitive) name."""
    if isinstance(spec, BinaryOp):
        return spec
    try:
        return BINARY_OPS[str(spec).upper()]
    except KeyError:
        raise InvalidValue(f"unknown binary op {spec!r}") from None


def indexunary(spec) -> IndexUnaryOp:
    """Resolve an :class:`IndexUnaryOp` from an op or name."""
    if isinstance(spec, IndexUnaryOp):
        return spec
    try:
        return INDEXUNARY_OPS[str(spec).upper()]
    except KeyError:
        raise InvalidValue(f"unknown index-unary op {spec!r}") from None


# Operator families used by the semiring census (bench E6).
#
# The GraphBLAS C API defines logical ops for BOOL only and has no "IS" ops;
# SuiteSparse extends logical ops to all domains and adds ISEQ..ISLE.  These
# two families reproduce the paper's "600" and "960" semiring counts.
C_API_BINARY_OPS: tuple[str, ...] = (
    "FIRST",
    "SECOND",
    "MIN",
    "MAX",
    "PLUS",
    "MINUS",
    "TIMES",
    "DIV",
)
SUITESPARSE_BINARY_OPS: tuple[str, ...] = C_API_BINARY_OPS + (
    "ISEQ",
    "ISNE",
    "ISGT",
    "ISLT",
    "ISGE",
    "ISLE",
    "LOR",
    "LAND",
    "LXOR",
)
COMPARISON_OPS: tuple[str, ...] = ("EQ", "NE", "GT", "LT", "GE", "LE")

# Canonical representative of each binary op when restricted to BOOL.
# E.g. MIN == LAND == TIMES on booleans.  Used to count *unique* semirings.
_BOOL_EQUIV = {
    "FIRST": "FIRST",
    "DIV": "FIRST",
    "SECOND": "SECOND",
    "ANY": "FIRST",
    "RDIV": "SECOND",
    "MIN": "LAND",
    "TIMES": "LAND",
    "LAND": "LAND",
    "ISLE": "LAND",  # on bool: x<=y is implication, not AND -> see below
    "MAX": "LOR",
    "PLUS": "LOR",
    "LOR": "LOR",
    "MINUS": "LXOR",
    "RMINUS": "LXOR",
    "LXOR": "LXOR",
    "NE": "LXOR",
    "ISNE": "LXOR",
    "EQ": "EQ",
    "ISEQ": "EQ",
    "LXNOR": "EQ",
    "GT": "GT",
    "ISGT": "GT",
    "LT": "LT",
    "ISLT": "LT",
    "GE": "GE",
    "ISGE": "GE",
    "LE": "LE",
    "ONEB": "ONEB",
    "PAIR": "ONEB",
    "POW": "GE",  # on bool: x**y == (x >= y) ... == !y || x
}
# Correction: on BOOL, x <= y is "implies" (== GE with args swapped), and
# x >= y is "is implied".  ISLE therefore matches LE, not LAND.
_BOOL_EQUIV["ISLE"] = "LE"
_BOOL_EQUIV["ISGE"] = "GE"


def bool_equivalent(name: str) -> str:
    """Canonical name of ``name`` when its domain is restricted to BOOL."""
    try:
        return _BOOL_EQUIV[name.upper()]
    except KeyError:
        raise DomainMismatch(f"no boolean restriction known for {name!r}") from None
