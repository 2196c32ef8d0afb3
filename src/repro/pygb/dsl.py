"""Implementation of the PyGB-style DSL.

The DSL wraps :mod:`repro.graphblas` objects and dispatches overloaded
operators into the core operations, with the active semiring and descriptor
flags drawn from a context-variable stack — PyGB's "dynamic execution"
(section II.D) without its C++ code generation, which our NumPy back-end
replaces.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass

from ..graphblas import Descriptor, Matrix as _CoreMatrix, Vector as _CoreVector
from ..graphblas import operations as _ops
from ..graphblas import plan as _plan
from ..graphblas.errors import InvalidValue
from ..graphblas.semiring import Semiring
from ..graphblas.types import lookup_type

__all__ = ["Matrix", "Vector", "Replace", "Structural", "ambient_semiring"]

#: the enclosing ``with`` payloads (semirings, descriptors), innermost last
_ambient: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "pygb_ambient", default=())


def ambient_semiring(default: str = "PLUS_TIMES") -> Semiring:
    """The innermost active semiring, or ``default``."""
    for entry in reversed(_ambient.get()):
        if isinstance(entry, Semiring):
            return entry
    return _plan.resolve_semiring(default)


def _ambient_desc() -> Descriptor:
    d = Descriptor()
    for entry in _ambient.get():
        if isinstance(entry, Descriptor):
            d = d & entry
    return d


class _Context:
    """A with-able piece of ambient state (semiring or descriptor flag)."""

    def __init__(self, payload):
        self.payload = payload

    def __enter__(self):
        _ambient.set(_ambient.get() + (self.payload,))
        return self.payload

    def __exit__(self, *exc):
        _ambient.set(_ambient.get()[:-1])
        return False


def semiring_context(name: str) -> _Context:
    """Context manager selecting a named semiring for the enclosed block.

    Resolution goes through the shared :mod:`repro.graphblas.plan`
    resolvers, so the DSL accepts exactly the specs the core operations
    accept (names, ``Semiring`` objects) and raises the same errors.
    """
    return _Context(_plan.resolve_semiring(name))


LogicalSemiring = semiring_context("LOR_LAND")
PlusTimesSemiring = semiring_context("PLUS_TIMES")
MinPlusSemiring = semiring_context("MIN_PLUS")
MaxPlusSemiring = semiring_context("MAX_PLUS")
MinTimesSemiring = semiring_context("MIN_TIMES")
MinFirstSemiring = semiring_context("MIN_FIRST")
MinSecondSemiring = semiring_context("MIN_SECOND")
MaxMinSemiring = semiring_context("MAX_MIN")
PlusMinSemiring = semiring_context("PLUS_MIN")
AnySecondiSemiring = semiring_context("ANY_SECONDI")

Replace = _Context(Descriptor(replace=True))
Structural = _Context(Descriptor(structural_mask=True))


@dataclass
class _Complemented:
    """``~x``: a complemented mask."""

    inner: "Matrix | Vector"


@dataclass
class _Transposed:
    """``A.T``: a lazy transpose usable in products."""

    inner: "Matrix"

    def __matmul__(self, other):
        if isinstance(other, Vector):
            return _MatVec(self.inner, other, transpose=True)
        if isinstance(other, (Matrix, _Transposed)):
            return _MatMat(self.inner, other, transpose_a=True)
        return NotImplemented

    @property
    def T(self) -> "Matrix":
        return self.inner


@dataclass
class _MatVec:
    """Unevaluated ``A @ u`` (or ``A.T @ u``)."""

    A: "Matrix"
    u: "Vector"
    transpose: bool = False

    def evaluate(self, out: "Vector", mask, desc) -> "Vector":
        d = desc.with_(transpose_a=desc.transpose_a ^ self.transpose)
        _ops.mxv(
            out._obj,
            self.A._obj,
            self.u._obj,
            ambient_semiring(),
            mask=mask,
            desc=d,
        )
        return out

    def new(self) -> "Vector":
        sr = ambient_semiring()
        size = self.A._obj.ncols if self.transpose else self.A._obj.nrows
        out_type = sr.out_type(self.A._obj.dtype, self.u._obj.dtype)
        out = Vector(_CoreVector(out_type, size))
        return self.evaluate(out, None, _ambient_desc())


@dataclass
class _MatMat:
    """Unevaluated ``A @ B``."""

    A: "Matrix"
    B: "Matrix | _Transposed"
    transpose_a: bool = False

    def evaluate(self, out: "Matrix", mask, desc) -> "Matrix":
        B = self.B
        transpose_b = False
        if isinstance(B, _Transposed):
            transpose_b = True
            B = B.inner
        d = desc.with_(
            transpose_a=desc.transpose_a ^ self.transpose_a,
            transpose_b=desc.transpose_b ^ transpose_b,
        )
        _ops.mxm(
            out._obj, self.A._obj, B._obj, ambient_semiring(), mask=mask, desc=d
        )
        return out

    def new(self) -> "Matrix":
        sr = ambient_semiring()
        B = self.B.inner if isinstance(self.B, _Transposed) else self.B
        nrows = self.A._obj.ncols if self.transpose_a else self.A._obj.nrows
        ncols = (
            B._obj.nrows if isinstance(self.B, _Transposed) else B._obj.ncols
        )
        out_type = sr.out_type(self.A._obj.dtype, B._obj.dtype)
        out = Matrix(_CoreMatrix(out_type, nrows, ncols))
        return self.evaluate(out, None, _ambient_desc())


class _MaskedTarget:
    """``w[mask]``: an assignment target under a mask."""

    def __init__(self, target, mask_spec):
        self.target = target
        if isinstance(mask_spec, _Complemented):
            self.mask = mask_spec.inner
            self.complement = True
        else:
            self.mask = mask_spec
            self.complement = False

    def _desc(self) -> Descriptor:
        d = _ambient_desc()
        if self.complement:
            d = d.with_(complement_mask=True)
        return d

    def __setitem__(self, key, value) -> None:
        """``w[mask][:] = scalar`` — masked constant assign over all indices."""
        if key != slice(None):
            raise InvalidValue("masked constant assign expects [:]")
        _ops.assign(
            self.target._obj,
            value,
            _ops.ALL,
            *(() if isinstance(self.target, Vector) else (_ops.ALL,)),
            mask=None if self.mask is None else self.mask._obj,
            desc=self._desc(),
        )

    def assign(self, value) -> None:
        mask = None if self.mask is None else self.mask._obj
        d = self._desc()
        if isinstance(value, (_MatVec, _MatMat)):
            value.evaluate(self.target, mask, d)
        elif isinstance(value, (Matrix, Vector)):
            if isinstance(value, Vector):
                ti, tv = value._obj.extract_tuples()
                from ..graphblas.mask import write_vector

                write_vector(self.target._obj, ti, tv, mask=mask, desc=d)
            else:
                tr, tc, tv = value._obj.extract_tuples()
                from ..graphblas.mask import write_matrix

                write_matrix(self.target._obj, tr, tc, tv, mask=mask, desc=d)
        else:
            self[:] = value


def _is_mask_spec(key) -> bool:
    return isinstance(key, (Matrix, Vector, _Complemented))


class Vector:
    """DSL vector: wraps a core Vector; ``v.nvals``, ``~v``, ``v[mask]``."""

    __slots__ = ("_obj",)

    def __init__(self, obj: _CoreVector):
        self._obj = obj

    @classmethod
    def new(cls, dtype, size: int) -> "Vector":
        return cls(_CoreVector(lookup_type(dtype), size))

    @classmethod
    def from_coo(cls, indices, values, **kw) -> "Vector":
        return cls(_CoreVector.from_coo(indices, values, **kw))

    @property
    def nvals(self) -> int:
        return self._obj.nvals

    @property
    def size(self) -> int:
        return self._obj.size

    def dup(self) -> "Vector":
        return Vector(self._obj.dup())

    def clear(self) -> "Vector":
        self._obj.clear()
        return self

    def to_dense(self, fill=0):
        return self._obj.to_dense(fill)

    def __invert__(self) -> _Complemented:
        return _Complemented(self)

    def __getitem__(self, key):
        if _is_mask_spec(key):
            return _MaskedTarget(self, key)
        return self._obj.extract_element(key)

    def __setitem__(self, key, value) -> None:
        if _is_mask_spec(key):
            _MaskedTarget(self, key).assign(value)
        elif key == slice(None):
            _ops.assign(self._obj, value, _ops.ALL, desc=_ambient_desc())
        else:
            self._obj.set_element(key, value)

    def __add__(self, other: "Vector") -> "Vector":
        out = Vector(_CoreVector(self._obj.dtype, self._obj.size))
        _ops.ewise_add(
            out._obj, self._obj, other._obj, ambient_semiring().add.op
        )
        return out

    def __mul__(self, other: "Vector") -> "Vector":
        out = Vector(_CoreVector(self._obj.dtype, self._obj.size))
        _ops.ewise_mult(
            out._obj, self._obj, other._obj, ambient_semiring().mult
        )
        return out

    def reduce(self, op="PLUS"):
        return _ops.reduce_scalar(self._obj, op)

    def apply(self, op, **kw) -> "Vector":
        out = Vector(_CoreVector(self._obj.dtype, self._obj.size))
        _ops.apply(out._obj, self._obj, op, **kw)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"pygb.{self._obj!r}"


class Matrix:
    """DSL matrix: wraps a core Matrix; ``A.T``, ``A @ x``, ``A[mask]``."""

    __slots__ = ("_obj",)

    def __init__(self, obj: _CoreMatrix):
        self._obj = obj

    @classmethod
    def new(cls, dtype, nrows: int, ncols: int) -> "Matrix":
        return cls(_CoreMatrix(lookup_type(dtype), nrows, ncols))

    @classmethod
    def from_coo(cls, rows, cols, values, **kw) -> "Matrix":
        return cls(_CoreMatrix.from_coo(rows, cols, values, **kw))

    @property
    def T(self) -> _Transposed:
        return _Transposed(self)

    @property
    def nvals(self) -> int:
        return self._obj.nvals

    @property
    def shape(self):
        return self._obj.shape

    def dup(self) -> "Matrix":
        return Matrix(self._obj.dup())

    def to_dense(self, fill=0):
        return self._obj.to_dense(fill)

    def __invert__(self) -> _Complemented:
        return _Complemented(self)

    def __matmul__(self, other):
        if isinstance(other, Vector):
            return _MatVec(self, other)
        if isinstance(other, (Matrix, _Transposed)):
            return _MatMat(self, other)
        return NotImplemented

    def __add__(self, other: "Matrix") -> "Matrix":
        out = Matrix(_CoreMatrix(self._obj.dtype, *self._obj.shape))
        _ops.ewise_add(out._obj, self._obj, other._obj, ambient_semiring().add.op)
        return out

    def __mul__(self, other: "Matrix") -> "Matrix":
        out = Matrix(_CoreMatrix(self._obj.dtype, *self._obj.shape))
        _ops.ewise_mult(out._obj, self._obj, other._obj, ambient_semiring().mult)
        return out

    def __getitem__(self, key):
        if _is_mask_spec(key):
            return _MaskedTarget(self, key)
        return self._obj.extract_element(*key)

    def __setitem__(self, key, value) -> None:
        if _is_mask_spec(key):
            _MaskedTarget(self, key).assign(value)
        else:
            self._obj.set_element(*key, value)

    def reduce(self, op="PLUS"):
        return _ops.reduce_scalar(self._obj, op)

    def apply(self, op, **kw) -> "Matrix":
        out = Matrix(_CoreMatrix(self._obj.dtype, *self._obj.shape))
        _ops.apply(out._obj, self._obj, op, **kw)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"pygb.{self._obj!r}"
