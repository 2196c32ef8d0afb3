"""Kernel template library for the compiled tier.

The paper credits SuiteSparse's speed to *code-generated* semiring
kernels: 960 monomorphic inner loops, one per (monoid, multiply, type)
combination, with terminal-monoid early exit compiled into the hot loop.
This module is the template half of our analogue: given a
:class:`KernelSpec` — ``(add monoid, multiply op, A type, B type, output
type)`` — it renders the same five kernels in two source languages:

* **C** (:func:`c_source`) — compiled by the ``cc`` toolchain into a
  shared library and called through ctypes (the call releases the GIL,
  so row blocks run truly parallel on the PR-5 worker pool);
* **Python** (:func:`py_source`) — the *same algorithms* as typed scalar
  loops, consumed either by ``numba.njit`` (the ``numba`` toolchain,
  ``pip install .[compiled]``) or executed as plain Python (the
  ``python`` toolchain: slow, but it lets the template logic be parity-
  tested in environments with neither numba nor a C compiler).

The five kernels per spec:

``spgemm_count`` / ``spgemm_fill``
    Gustavson SpGEMM over a row block, two-phase (symbolic count, then
    numeric fill) with a sparse-accumulator (SPA) per output row.  Each
    output entry is a strict left fold of its partial products in
    ascending inner index — the order the vectorized engine sorts them
    into, so integer and order-insensitive (MIN/MAX/logical) results
    match the NumPy path bit for bit; float PLUS/TIMES can differ from
    it in the last ulp because numpy's ``reduceat`` unrolls long
    segments 8-wide.
``dot``
    Sorted-intersection dot products for an explicit output-coordinate
    list (the fused-mask mxm path), with **true terminal early exit**:
    the loop breaks the moment the accumulator reaches the monoid's
    annihilator (LOR's true, LAND's false, MIN/MAX extrema, TIMES' 0) —
    per *element*, not per 64-element block like the NumPy kernel.
``push`` / ``pull``
    SpMSpV scatter and masked SpMV dot kernels for mxv/vxm, sharing the
    SPA and early-exit machinery.  The matrix is the first operand for
    ``mxv`` and the second for ``vxm``, so each is rendered twice, once
    per operand order, behind one entry point.

Semantics notes (all mirrored from the NumPy operator tables in
:mod:`repro.graphblas.ops` / :mod:`repro.graphblas.monoid`, and from the
domain rules of *Mathematical Foundations of the GraphBLAS*):

* **Typed operand slots.**  Each operand is loaded in its own C type and
  cast to the domain NumPy's multiply computes in (``np.result_type``
  for arithmetic, the left or right type for FIRST/SECOND, BOOL for
  LAND/LOR); the product is cast to the output type and folded there.
  A cast to BOOL is ``!= 0`` (NumPy's ``astype(bool)``), never a
  truncation.  A float product cast into an integer output declines:
  that conversion is undefined in C where NumPy saturates.
* MIN/MAX use NumPy's NaN-propagating comparison (``x if x < y or
  isnan(x) else y``); ``x != x`` is the portable isnan spelling.
* BOOL stores as one byte of 0/1; PLUS degenerates to OR and TIMES/MIN
  to AND, exactly as ``np.add``/``np.multiply`` do on bools.
* LOR/LAND fold over any output type when the products are 0/1 (a
  BOOL-domain multiply such as ``LAND``, or ``ONEB``): ``LOR_LAND`` on
  FP64 x BOOL yields FP64 0/1.  Over other products NumPy's single-
  product segments skip the bool normalization, a corner this tier
  declines rather than reproduces.
* ``ANY`` is a keep-first fold, terminal on the first term — byte-equal
  to :meth:`~repro.graphblas.monoid.Monoid.reduce_segments`' first-of-
  segment rule, and the early exit SuiteSparse has ``ANY`` for.
* Positional multiplies (``FIRSTI``/``SECONDJ``/... and their ``1``
  variants) write the loop's i, k or j as the INT64 product, following
  :func:`repro.graphblas.mxv._vec_positional` for the vector kernels.
* Signed overflow must wrap to match NumPy: the cc toolchain compiles
  with ``-fwrapv``, and ``-ffp-contract=off`` keeps float multiply-add
  sequences unfused (bit-parity with NumPy's separate ops).
"""

from __future__ import annotations

from dataclasses import dataclass
from string import Template

import numpy as np

from ..monoid import monoid as _monoid
from ..ops import BINARY_OPS, binary as _binary
from ..types import lookup_type

__all__ = [
    "KernelSpec",
    "spec_for",
    "spec_supported",
    "c_source",
    "py_source",
    "CTYPES",
    "SUPPORTED_ADDS",
    "SUPPORTED_MULTS",
]

# value-type name -> C type (indices are always int64_t)
CTYPES: dict[str, str] = {
    "BOOL": "uint8_t",
    "INT8": "int8_t",
    "INT16": "int16_t",
    "INT32": "int32_t",
    "INT64": "int64_t",
    "UINT8": "uint8_t",
    "UINT16": "uint16_t",
    "UINT32": "uint32_t",
    "UINT64": "uint64_t",
    "FP32": "float",
    "FP64": "double",
}

# binary ops: name -> (C format, Python format) over operands {x}, {y};
# {T} is the C type the op yields (MT for a multiply, VT for a fold).
# NaN-propagating MIN/MAX match np.minimum/np.maximum; the x != x test is
# isnan and constant-folds away for integer types.
_MULTS: dict[str, tuple[str, str]] = {
    "FIRST": ("({x})", "({x})"),
    "SECOND": ("({y})", "({y})"),
    "PLUS": ("({x} + {y})", "({x} + {y})"),
    "MINUS": ("({x} - {y})", "({x} - {y})"),
    "TIMES": ("({x} * {y})", "({x} * {y})"),
    "MIN": (
        "(({x} < {y} || {x} != {x}) ? {x} : {y})",
        "({x} if ({x} < {y} or {x} != {x}) else {y})",
    ),
    "MAX": (
        "(({x} > {y} || {x} != {x}) ? {x} : {y})",
        "({x} if ({x} > {y} or {x} != {x}) else {y})",
    ),
    "LAND": (
        "(({T})(({x} != 0) && ({y} != 0)))",
        "(({x} != 0) and ({y} != 0))",
    ),
    "LOR": (
        "(({T})(({x} != 0) || ({y} != 0)))",
        "(({x} != 0) or ({y} != 0))",
    ),
    "ONEB": ("(({T})1)", "(1)"),
}

# BOOL overrides: np.add on bools is OR, np.multiply is AND.
_BOOL_MULTS: dict[str, tuple[str, str]] = {
    "PLUS": ("(({T})({x} || {y}))", "({x} or {y})"),
    "TIMES": ("(({T})({x} && {y}))", "({x} and {y})"),
    "MIN": ("(({T})({x} && {y}))", "({x} and {y})"),
    "MAX": ("(({T})({x} || {y}))", "({x} or {y})"),
}

# multiplies that are the same function over BOOL as over any domain
_ANY_DOMAIN_MULTS = ("FIRST", "SECOND", "LAND", "LOR", "ONEB")

# add monoids: the scalar fold a = ADD(a, x), same format slots.  ANY
# keeps its first term.
_ADDS: dict[str, tuple[str, str]] = {
    "PLUS": _MULTS["PLUS"],
    "TIMES": _MULTS["TIMES"],
    "MIN": _MULTS["MIN"],
    "MAX": _MULTS["MAX"],
    "LOR": _MULTS["LOR"],
    "LAND": _MULTS["LAND"],
    "ANY": ("({x})", "({x})"),
}

_BOOL_ADDS: dict[str, tuple[str, str]] = {
    **_BOOL_MULTS,
    "LOR": ("(({T})({x} || {y}))", "({x} or {y})"),
    "LAND": ("(({T})({x} && {y}))", "({x} and {y})"),
    "ANY": _ADDS["ANY"],
}

SUPPORTED_ADDS = tuple(_ADDS)
SUPPORTED_MULTS = tuple(_MULTS) + tuple(
    name for name, op in BINARY_OPS.items() if op.positional is not None)

# positional kind (its "1" suffix stripped) -> the loop variable that
# holds it: in mxm (i, k, j), in a matrix-first mxv (output m, inner k)
# and in a vector-first vxm — the mapping of mxv._vec_positional
_POSITIONAL: dict[str, tuple[str, str, str]] = {
    "firsti": ("i", "m", "k"),
    "firstj": ("k", "k", "0"),
    "secondi": ("k", "k", "k"),
    "secondj": ("j", "0", "m"),
}
_MXM, _MATRIX_FIRST, _VECTOR_FIRST = range(3)


def _is_float(type_name: str) -> bool:
    return type_name in ("FP32", "FP64")


def _cast(lang: str, expr: str, src: str | None, dst: str) -> str:
    """``expr`` (of type ``src``; None: unknown) converted to ``dst``
    with NumPy's ``astype`` rules: to BOOL is ``!= 0``."""
    if src == dst:
        return expr
    if dst == "BOOL":
        return (f"((uint8_t)(({expr}) != 0))" if lang == "c"
                else f"(({expr}) != 0)")
    if lang == "c":
        return f"(({CTYPES[dst]})({expr}))"
    return f"np.{np.dtype(lookup_type(dst).np_dtype).name}({expr})"


@dataclass(frozen=True)
class KernelSpec:
    """One code-generation point: (add monoid, multiply op, A type,
    B type, output type)."""

    add_name: str
    mult_name: str
    a_type: str
    b_type: str
    out_type: str

    @property
    def key(self) -> tuple[str, str, str, str, str]:
        return (self.add_name, self.mult_name, self.a_type, self.b_type,
                self.out_type)

    @property
    def np_dtype(self) -> np.dtype:
        """The output (and fold) dtype."""
        return lookup_type(self.out_type).np_dtype

    @property
    def a_dtype(self) -> np.dtype:
        return lookup_type(self.a_type).np_dtype

    @property
    def b_dtype(self) -> np.dtype:
        return lookup_type(self.b_type).np_dtype

    @property
    def positional(self) -> str | None:
        return _binary(self.mult_name).positional

    @property
    def mult_type(self) -> str:
        """The domain NumPy's multiply computes in (INT64 for a
        positional one): the dtype its ufunc yields for these operands."""
        mult = _binary(self.mult_name)
        if mult.positional is not None:
            return "INT64"
        z = mult.ufunc(np.empty(0, self.a_dtype), np.empty(0, self.b_dtype))
        return lookup_type(z.dtype).name

    def terminal(self):
        """The annihilator as a numpy scalar, or None."""
        return _monoid(self.add_name).terminal(lookup_type(self.out_type))

    @property
    def stops_early(self) -> bool:
        """Whether a fold can stop early: a terminal monoid, or ANY."""
        return self.add_name == "ANY" or self.terminal() is not None

    def formats(self) -> tuple | None:
        """``(multiply format | None if positional, fold format)``, each a
        (C, Python) pair, or None when the class has no template."""
        if not all(t in CTYPES for t in (self.a_type, self.b_type,
                                         self.out_type)):
            return None
        m, name, out = self.mult_type, self.mult_name, self.out_type
        mult = None
        if self.positional is None:
            if m == "BOOL" and name not in _ANY_DOMAIN_MULTS:
                mult = _BOOL_MULTS.get(name)
            else:
                mult = _MULTS.get(name)
            if mult is None:
                return None
        if _is_float(m) and not (_is_float(out) or out == "BOOL"):
            return None
        if out == "BOOL":
            add = _BOOL_ADDS.get(self.add_name)
        elif self.add_name in ("LOR", "LAND") and not (
                m == "BOOL" or name == "ONEB"):
            return None
        else:
            add = _ADDS.get(self.add_name)
        if add is None:
            return None
        return mult, add

    def product(self, lang: str, x: str, y: str, where: int) -> str:
        """The product of operands ``x`` (A type) and ``y`` (B type) as
        an output-type expression; ``where`` names the loop whose index
        variables a positional multiply reads."""
        mult, _ = self.formats()
        out = self.out_type
        kind = self.positional
        if kind is not None:
            base = _POSITIONAL[kind.rstrip("1")][where]
            expr = f"({base} + 1)" if kind.endswith("1") else base
            m = "INT64"
        else:
            m = self.mult_type
            expr = mult[lang == "py"].format(
                x=_cast(lang, x, self.a_type, m),
                y=_cast(lang, y, self.b_type, m), T="MT")
        # numba types a variable once: the Python product is always cast
        return _cast(lang, expr, m if lang == "c" else None, out)

    def fold(self, lang: str) -> str:
        """``ADD(acc, prod)`` in the output type."""
        _, add = self.formats()
        expr = add[lang == "py"].format(x="acc", y="prod", T="VT")
        if lang == "py" and self.add_name in ("LOR", "LAND"):
            expr = _cast(lang, expr, None, self.out_type)
        return expr

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return ".".join(self.key)


def spec_supported(add_name: str, mult_name: str, a_type: str, b_type: str,
                   out_type: str) -> bool:
    """Whether a (monoid, multiply, A type, B type, output type) class
    has a kernel template."""
    if add_name not in SUPPORTED_ADDS or mult_name not in SUPPORTED_MULTS:
        return False
    spec = KernelSpec(add_name, mult_name, a_type, b_type, out_type)
    return spec.formats() is not None


def spec_for(semiring, a_type, b_type, out_type) -> KernelSpec | None:
    """The spec serving ``semiring`` over operands typed ``a_type`` and
    ``b_type`` into ``out_type``, or None."""
    add, mult = semiring.add, semiring.mult
    types = (a_type, b_type, out_type)
    if not (add.builtin and mult.builtin and all(t.builtin for t in types)):
        return None
    names = tuple(t.name for t in types)
    if not spec_supported(add.name, mult.name, *names):
        return None
    return KernelSpec(add.name, mult.name, *names)


def _c_terminal_literal(value, type_name: str) -> str:
    if value is None:
        return "0"
    if type_name == "BOOL":
        return "1" if value else "0"
    if type_name in ("FP32", "FP64"):
        f = float(value)
        if np.isinf(f):
            return "INFINITY" if f > 0 else "(-INFINITY)"
        return float(f).hex()  # C99 hexfloat, exact
    v = int(value)
    if v == -(2**63):
        return "(-9223372036854775807LL - 1)"
    if type_name.startswith("UINT"):
        return f"{v}ULL"
    return f"{v}LL"


def _term_hit(spec: KernelSpec, lang: str) -> str:
    """The early-exit test on ``acc``: the annihilator, or always for ANY
    (keep-first is terminal on the first term)."""
    if spec.add_name == "ANY":
        return "1" if lang == "c" else "True"
    if spec.terminal() is None:
        return "0" if lang == "c" else "False"
    return "(acc) == TERM" if lang == "c" else "acc == term"


# --------------------------------------------------------------------------
# C source
# --------------------------------------------------------------------------

_C_TEMPLATE = Template(r"""/* generated kernel set: ${SPEC} */
#include <stdint.h>
#include <math.h>

typedef ${A_CTYPE} AT;   /* first operand */
typedef ${B_CTYPE} BT;   /* second operand */
typedef ${M_CTYPE} MT;   /* the domain the multiply computes in */
typedef ${OUT_CTYPE} VT; /* output: products are cast to it and folded in it */

#define TERM ((VT)${TERM_LIT})
/* early exit: the fold reached its annihilator (ANY: any first term) */
#define TERM_HIT(acc) (${TERM_HIT})

/* sort (idx, val) pairs in [lo, hi] by idx: quicksort with insertion tail */
static void sortpairs(int64_t *idx, VT *val, int64_t lo, int64_t hi)
{
    while (hi - lo > 24) {
        int64_t mid = lo + ((hi - lo) >> 1);
        int64_t a = idx[lo], b = idx[mid], c = idx[hi];
        int64_t pv = a < b ? (b < c ? b : (a < c ? c : a))
                           : (a < c ? a : (b < c ? c : b));
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (idx[i] < pv) i++;
            while (idx[j] > pv) j--;
            if (i <= j) {
                int64_t ti = idx[i]; idx[i] = idx[j]; idx[j] = ti;
                VT tv = val[i]; val[i] = val[j]; val[j] = tv;
                i++; j--;
            }
        }
        if (j - lo < hi - i) { sortpairs(idx, val, lo, j); lo = i; }
        else                 { sortpairs(idx, val, i, hi); hi = j; }
    }
    for (int64_t s = lo + 1; s <= hi; s++) {
        int64_t ki = idx[s]; VT kv = val[s];
        int64_t t = s - 1;
        while (t >= lo && idx[t] > ki) {
            idx[t + 1] = idx[t]; val[t + 1] = val[t]; t--;
        }
        idx[t + 1] = ki; val[t + 1] = kv;
    }
}

/* Gustavson symbolic phase: distinct output columns per row in a block.
   mark must arrive filled with a value < row_lo (the caller uses -1). */
int64_t gb_spgemm_count(
    int64_t row_lo, int64_t row_hi,
    const int64_t *ap, const int64_t *aj,
    const int64_t *bp, const int64_t *bj,
    int64_t *mark)
{
    int64_t total = 0;
    for (int64_t i = row_lo; i < row_hi; i++) {
        for (int64_t p = ap[i]; p < ap[i + 1]; p++) {
            int64_t k = aj[p];
            for (int64_t q = bp[k]; q < bp[k + 1]; q++) {
                int64_t j = bj[q];
                if (mark[j] != i) { mark[j] = i; total++; }
            }
        }
    }
    return total;
}

/* Gustavson numeric phase: SPA accumulation in A-row entry order (the
   same fold order as the vectorized engine's stable sort + reduceat),
   output sorted by column within each row. */
int64_t gb_spgemm_fill(
    int64_t row_lo, int64_t row_hi,
    const int64_t *ap, const int64_t *aj, const AT *ax,
    const int64_t *bp, const int64_t *bj, const BT *bx,
    int64_t *mark, int64_t *slot,
    int64_t *ci, int64_t *cj, VT *cx)
{
    int64_t nz = 0;
    for (int64_t i = row_lo; i < row_hi; i++) {
        int64_t row_start = nz;
        for (int64_t p = ap[i]; p < ap[i + 1]; p++) {
            int64_t k = aj[p];
            AT av = ax[p];
            for (int64_t q = bp[k]; q < bp[k + 1]; q++) {
                int64_t j = bj[q];
                VT prod = ${PROD_GUSTAVSON};
                if (mark[j] != i) {
                    mark[j] = i;
                    slot[j] = nz;
                    cj[nz] = j;
                    cx[nz] = prod;
                    nz++;
                } else {
                    int64_t s = slot[j];
                    VT acc = cx[s];
                    cx[s] = ${ADD_ACC_PROD};
                }
            }
        }
        if (nz - row_start > 1)
            sortpairs(cj, cx, row_start, nz - 1);
        for (int64_t s = row_start; s < nz; s++) ci[s] = i;
    }
    return nz;
}

/* dot products for an explicit (i, j) list: sorted-intersection scan
   with per-element terminal early exit.
   stats: [terminated, nonempty, scanned, depth_at_exit_sum] */
void gb_dot(
    int64_t n,
    const int64_t *as, const int64_t *ae,
    const int64_t *bs, const int64_t *be,
    const int64_t *ci, const int64_t *cj,
    const int64_t *aj, const AT *ax,
    const int64_t *bj, const BT *bx,
    uint8_t *keep, VT *out, int64_t *stats)
{
    for (int64_t p = 0; p < n; p++) {
        const int64_t i = ci[p], j = cj[p];
        int64_t pa = as[p], pb = bs[p];
        const int64_t ea = ae[p], eb = be[p];
        VT acc = (VT)0;
        int have = 0;
        int64_t depth = 0;
        while (pa < ea && pb < eb) {
            int64_t ka = aj[pa], kb = bj[pb];
            if (ka < kb) pa++;
            else if (kb < ka) pb++;
            else {
                const int64_t k = ka;
                VT prod = ${PROD_DOT};
                if (have) { acc = ${ADD_ACC_PROD}; }
                else      { acc = prod; have = 1; }
                depth++;
                if (TERM_HIT(acc)) { stats[0]++; stats[3] += depth; break; }
                pa++; pb++;
            }
        }
        stats[2] += depth;
        if (have) { stats[1]++; keep[p] = 1; out[p] = acc; }
    }
}

${PUSH_MF}
${PUSH_VF}
/* SpMSpV push: scatter each frontier entry k through its matrix column
   (the store's major axis is the vector's dimension).  mark arrives
   filled with -1; output is sorted by index on exit. */
int64_t gb_push(
    int64_t nu, const int64_t *ui, const void *ux,
    const int64_t *ap, const int64_t *aj, const void *ax,
    int matrix_first,
    int64_t *mark,
    int64_t *oi, VT *ov)
{
    if (matrix_first)
        return push_mf(nu, ui, (const BT *)ux, ap, aj, (const AT *)ax,
                       mark, oi, ov);
    return push_vf(nu, ui, (const AT *)ux, ap, aj, (const BT *)ax,
                   mark, oi, ov);
}

${PULL_MF}
${PULL_VF}
/* masked SpMV pull: one dot per requested output row m against the
   dense vector, skipping absent entries, terminal early exit per row.
   stats layout matches gb_dot. */
int64_t gb_pull(
    int64_t nr, const int64_t *rows,
    const int64_t *ap, const int64_t *aj, const void *ax,
    const void *ud, const uint8_t *up,
    int matrix_first,
    int64_t *oi, VT *ov, int64_t *stats)
{
    if (matrix_first)
        return pull_mf(nr, rows, ap, aj, (const AT *)ax, (const BT *)ud, up,
                       oi, ov, stats);
    return pull_vf(nr, rows, ap, aj, (const BT *)ax, (const AT *)ud, up,
                   oi, ov, stats);
}
""")

_C_PUSH = Template(r"""static int64_t push_${VARIANT}(
    int64_t nu, const int64_t *ui, const ${VEC_T} *ux,
    const int64_t *ap, const int64_t *aj, const ${MAT_T} *ax,
    int64_t *mark, int64_t *oi, VT *ov)
{
    int64_t nz = 0;
    for (int64_t t = 0; t < nu; t++) {
        const int64_t k = ui[t];
        const ${VEC_T} uv = ux[t];
        for (int64_t p = ap[k]; p < ap[k + 1]; p++) {
            const int64_t m = aj[p];
            VT prod = ${PROD};
            if (mark[m] < 0) {
                mark[m] = nz;
                oi[nz] = m;
                ov[nz] = prod;
                nz++;
            } else {
                int64_t s = mark[m];
                VT acc = ov[s];
                ov[s] = ${ADD_ACC_PROD};
            }
        }
    }
    if (nz > 1)
        sortpairs(oi, ov, 0, nz - 1);
    return nz;
}
""")

_C_PULL = Template(r"""static int64_t pull_${VARIANT}(
    int64_t nr, const int64_t *rows,
    const int64_t *ap, const int64_t *aj, const ${MAT_T} *ax,
    const ${VEC_T} *ud, const uint8_t *up,
    int64_t *oi, VT *ov, int64_t *stats)
{
    int64_t nz = 0;
    for (int64_t t = 0; t < nr; t++) {
        const int64_t m = rows[t];
        VT acc = (VT)0;
        int have = 0;
        int64_t depth = 0;
        for (int64_t p = ap[m]; p < ap[m + 1]; p++) {
            const int64_t k = aj[p];
            if (!up[k]) continue;
            const ${VEC_T} uv = ud[k];
            VT prod = ${PROD};
            if (have) { acc = ${ADD_ACC_PROD}; }
            else      { acc = prod; have = 1; }
            depth++;
            if (TERM_HIT(acc)) { stats[0]++; stats[3] += depth; break; }
        }
        stats[2] += depth;
        if (have) { stats[1]++; oi[nz] = m; ov[nz] = acc; nz++; }
    }
    return nz;
}
""")


def c_source(spec: KernelSpec) -> str:
    """Render the C kernels for one spec."""
    fold = spec.fold("c")

    def vector_kernels(template):
        # the matrix is mxv's first operand and vxm's second
        return (
            template.substitute(
                VARIANT="mf", MAT_T="AT", VEC_T="BT", ADD_ACC_PROD=fold,
                PROD=spec.product("c", "ax[p]", "uv", _MATRIX_FIRST)),
            template.substitute(
                VARIANT="vf", MAT_T="BT", VEC_T="AT", ADD_ACC_PROD=fold,
                PROD=spec.product("c", "uv", "ax[p]", _VECTOR_FIRST)),
        )

    push_mf, push_vf = vector_kernels(_C_PUSH)
    pull_mf, pull_vf = vector_kernels(_C_PULL)
    return _C_TEMPLATE.substitute(
        SPEC=str(spec),
        A_CTYPE=CTYPES[spec.a_type],
        B_CTYPE=CTYPES[spec.b_type],
        M_CTYPE=CTYPES[spec.mult_type],
        OUT_CTYPE=CTYPES[spec.out_type],
        TERM_LIT=_c_terminal_literal(spec.terminal(), spec.out_type),
        TERM_HIT=_term_hit(spec, "c"),
        PROD_GUSTAVSON=spec.product("c", "av", "bx[q]", _MXM),
        PROD_DOT=spec.product("c", "ax[pa]", "bx[pb]", _MXM),
        ADD_ACC_PROD=fold,
        PUSH_MF=push_mf, PUSH_VF=push_vf,
        PULL_MF=pull_mf, PULL_VF=pull_vf,
    )


# --------------------------------------------------------------------------
# Python source (numba-jittable; also runs interpreted)
# --------------------------------------------------------------------------

_PY_TEMPLATE = Template(r'''# generated kernel set: ${SPEC}
import numpy as np


def sortpairs(idx, val, lo, hi):
    while hi - lo > 24:
        mid = lo + ((hi - lo) >> 1)
        a = idx[lo]; b = idx[mid]; c = idx[hi]
        if a < b:
            pv = b if b < c else (c if a < c else a)
        else:
            pv = a if a < c else (c if b < c else b)
        i = lo; j = hi
        while i <= j:
            while idx[i] < pv:
                i += 1
            while idx[j] > pv:
                j -= 1
            if i <= j:
                ti = idx[i]; idx[i] = idx[j]; idx[j] = ti
                tv = val[i]; val[i] = val[j]; val[j] = tv
                i += 1; j -= 1
        if j - lo < hi - i:
            sortpairs(idx, val, lo, j); lo = i
        else:
            sortpairs(idx, val, i, hi); hi = j
    for s in range(lo + 1, hi + 1):
        ki = idx[s]; kv = val[s]
        t = s - 1
        while t >= lo and idx[t] > ki:
            idx[t + 1] = idx[t]; val[t + 1] = val[t]; t -= 1
        idx[t + 1] = ki; val[t + 1] = kv


def gb_spgemm_count(row_lo, row_hi, ap, aj, bp, bj, mark):
    total = 0
    for i in range(row_lo, row_hi):
        for p in range(ap[i], ap[i + 1]):
            k = aj[p]
            for q in range(bp[k], bp[k + 1]):
                j = bj[q]
                if mark[j] != i:
                    mark[j] = i
                    total += 1
    return total


def gb_spgemm_fill(row_lo, row_hi, ap, aj, ax, bp, bj, bx,
                   mark, slot, ci, cj, cx):
    nz = 0
    for i in range(row_lo, row_hi):
        row_start = nz
        for p in range(ap[i], ap[i + 1]):
            k = aj[p]
            av = ax[p]
            for q in range(bp[k], bp[k + 1]):
                j = bj[q]
                prod = ${PROD_GUSTAVSON}
                if mark[j] != i:
                    mark[j] = i
                    slot[j] = nz
                    cj[nz] = j
                    cx[nz] = prod
                    nz += 1
                else:
                    s = slot[j]
                    acc = cx[s]
                    cx[s] = ${ADD_ACC_PROD}
        if nz - row_start > 1:
            sortpairs(cj, cx, row_start, nz - 1)
        for s in range(row_start, nz):
            ci[s] = i
    return nz


def gb_dot(n, a_s, ae, bs, be, ci, cj, aj, ax, bj, bx, keep, out,
           term, stats):
    for p in range(n):
        i = ci[p]; j = cj[p]
        pa = a_s[p]; pb = bs[p]
        ea = ae[p]; eb = be[p]
        acc = out[p]
        have = False
        depth = 0
        while pa < ea and pb < eb:
            ka = aj[pa]; kb = bj[pb]
            if ka < kb:
                pa += 1
            elif kb < ka:
                pb += 1
            else:
                k = ka
                prod = ${PROD_DOT}
                if have:
                    acc = ${ADD_ACC_PROD}
                else:
                    acc = prod
                    have = True
                depth += 1
                if ${TERM_HIT}:
                    stats[0] += 1
                    stats[3] += depth
                    break
                pa += 1; pb += 1
        stats[2] += depth
        if have:
            stats[1] += 1
            keep[p] = True
            out[p] = acc


def gb_push(nu, ui, ux, ap, aj, ax, matrix_first, mark, oi, ov):
    nz = 0
    for t in range(nu):
        k = ui[t]
        uv = ux[t]
        for p in range(ap[k], ap[k + 1]):
            m = aj[p]
            prod = ${PROD_MF} if matrix_first else ${PROD_VF}
            if mark[m] < 0:
                mark[m] = nz
                oi[nz] = m
                ov[nz] = prod
                nz += 1
            else:
                s = mark[m]
                acc = ov[s]
                ov[s] = ${ADD_ACC_PROD}
    if nz > 1:
        sortpairs(oi, ov, 0, nz - 1)
    return nz


def gb_pull(nr, rows, ap, aj, ax, ud, up, matrix_first,
            oi, ov, term, stats):
    nz = 0
    for t in range(nr):
        m = rows[t]
        acc = term
        have = False
        depth = 0
        for p in range(ap[m], ap[m + 1]):
            k = aj[p]
            if not up[k]:
                continue
            uv = ud[k]
            prod = ${PROD_MF} if matrix_first else ${PROD_VF}
            if have:
                acc = ${ADD_ACC_PROD}
            else:
                acc = prod
                have = True
            depth += 1
            if ${TERM_HIT}:
                stats[0] += 1
                stats[3] += depth
                break
        stats[2] += depth
        if have:
            stats[1] += 1
            oi[nz] = m
            ov[nz] = acc
            nz += 1
    return nz
''')


def py_source(spec: KernelSpec) -> str:
    """Render the numba-jittable Python kernels for one spec."""
    return _PY_TEMPLATE.substitute(
        SPEC=str(spec),
        TERM_HIT=_term_hit(spec, "py"),
        PROD_GUSTAVSON=spec.product("py", "av", "bx[q]", _MXM),
        PROD_DOT=spec.product("py", "ax[pa]", "bx[pb]", _MXM),
        PROD_MF=spec.product("py", "ax[p]", "uv", _MATRIX_FIRST),
        PROD_VF=spec.product("py", "uv", "ax[p]", _VECTOR_FIRST),
        ADD_ACC_PROD=spec.fold("py"),
    )
