"""Kernel template library for the compiled tier.

The paper credits SuiteSparse's speed to *code-generated* semiring
kernels: 960 monomorphic inner loops, one per (monoid, multiply, type)
combination, with terminal-monoid early exit compiled into the hot loop.
This module is the template half of our analogue: given a
:class:`KernelSpec` — ``(add monoid, multiply op, value type)`` — it
renders the same six kernels in two source languages:

* **C** (:func:`c_source`) — compiled by the ``cc`` toolchain into a
  shared library and called through ctypes (the call releases the GIL,
  so row blocks run truly parallel on the PR-5 worker pool);
* **Python** (:func:`py_source`) — the *same algorithms* as typed scalar
  loops, consumed either by ``numba.njit`` (the ``numba`` toolchain,
  ``pip install .[compiled]``) or executed as plain Python (the
  ``python`` toolchain: slow, but it lets the template logic be parity-
  tested in environments with neither numba nor a C compiler).

The six kernels per spec:

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
    per *element*, not per 64-element block like the vectorized engine.
``push`` / ``pull``
    SpMSpV scatter and masked SpMV dot kernels for mxv/vxm, sharing the
    SPA and early-exit machinery.
``segfold``
    The same strict left fold over pre-sorted segments: the tiled
    kernels fold their stripes with it, so a tiled product and its
    in-memory twin are bit-identical floats included.

Semantics notes (all mirrored from the NumPy operator tables in
:mod:`repro.graphblas.ops` / :mod:`repro.graphblas.monoid`):

* MIN/MAX use NumPy's NaN-propagating comparison (``x if x < y or
  isnan(x) else y``); ``x != x`` is the portable isnan spelling.
* BOOL stores as one byte of 0/1; PLUS degenerates to OR and TIMES/MIN
  to AND, exactly as ``np.add``/``np.multiply`` do on bools.
* LOR/LAND monoids are offered for BOOL only — on wider types the
  vectorized engine's single-product segments skip the bool
  normalization, a corner this tier declines rather than reproduces.
* Signed overflow must wrap to match NumPy: the cc toolchain compiles
  with ``-fwrapv``, and ``-ffp-contract=off`` keeps float multiply-add
  sequences unfused (bit-parity with NumPy's separate ops).
"""

from __future__ import annotations

from dataclasses import dataclass
from string import Template

import numpy as np

from ..monoid import monoid as _monoid
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

# multiply ops: name -> (C format, Python format) over operands {x}, {y}.
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
        "((VT)(({x} != 0) && ({y} != 0)))",
        "(({x} != 0) and ({y} != 0))",
    ),
    "LOR": (
        "((VT)(({x} != 0) || ({y} != 0)))",
        "(({x} != 0) or ({y} != 0))",
    ),
    "ONEB": ("((VT)1)", "(True)"),
}

# BOOL overrides: np.add on bools is OR, np.multiply is AND.
_BOOL_MULTS: dict[str, tuple[str, str]] = {
    "PLUS": ("((VT)({x} || {y}))", "({x} or {y})"),
    "TIMES": ("((VT)({x} && {y}))", "({x} and {y})"),
    "MIN": ("((VT)({x} && {y}))", "({x} and {y})"),
    "MAX": ("((VT)({x} || {y}))", "({x} or {y})"),
    "ONEB": ("((VT)1)", "(True)"),
}

# add monoids: the scalar fold a = ADD(a, x), same format slots.
_ADDS: dict[str, tuple[str, str]] = {
    "PLUS": _MULTS["PLUS"],
    "TIMES": _MULTS["TIMES"],
    "MIN": _MULTS["MIN"],
    "MAX": _MULTS["MAX"],
}

_BOOL_ADDS: dict[str, tuple[str, str]] = {
    "PLUS": _BOOL_MULTS["PLUS"],
    "TIMES": _BOOL_MULTS["TIMES"],
    "MIN": _BOOL_MULTS["MIN"],
    "MAX": _BOOL_MULTS["MAX"],
    "LOR": ("((VT)({x} || {y}))", "({x} or {y})"),
    "LAND": ("((VT)({x} && {y}))", "({x} and {y})"),
}

SUPPORTED_ADDS = ("PLUS", "TIMES", "MIN", "MAX", "LOR", "LAND")
SUPPORTED_MULTS = tuple(_MULTS)

_BOOL_ONLY_MULTS = ("FIRST", "SECOND", "PLUS", "TIMES", "MIN", "MAX",
                    "LAND", "LOR", "ONEB")


def _mult_fmt(name: str, type_name: str) -> tuple[str, str] | None:
    if type_name == "BOOL":
        if name in _BOOL_MULTS:
            return _BOOL_MULTS[name]
        if name in ("FIRST", "SECOND", "LAND", "LOR"):
            return _MULTS[name]
        return None
    return _MULTS.get(name)


def _add_fmt(name: str, type_name: str) -> tuple[str, str] | None:
    if type_name == "BOOL":
        return _BOOL_ADDS.get(name)
    return _ADDS.get(name)


def spec_supported(add_name: str, mult_name: str, type_name: str) -> bool:
    """Whether a (monoid, multiply, type) triple has a kernel template."""
    if type_name not in CTYPES:
        return False
    if type_name == "BOOL" and mult_name not in _BOOL_ONLY_MULTS:
        return False
    return (
        _add_fmt(add_name, type_name) is not None
        and _mult_fmt(mult_name, type_name) is not None
    )


@dataclass(frozen=True)
class KernelSpec:
    """One code-generation point: (add monoid, multiply op, value type)."""

    add_name: str
    mult_name: str
    type_name: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.add_name, self.mult_name, self.type_name)

    @property
    def np_dtype(self) -> np.dtype:
        return lookup_type(self.type_name).np_dtype

    def terminal(self):
        """The annihilator as a numpy scalar, or None."""
        return _monoid(self.add_name).terminal(lookup_type(self.type_name))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.add_name}.{self.mult_name}.{self.type_name}"


def spec_for(semiring, out_type) -> KernelSpec | None:
    """The spec serving ``semiring`` over ``out_type``, or None."""
    add, mult = semiring.add, semiring.mult
    if not (add.builtin and mult.builtin and out_type.builtin):
        return None
    if mult.positional is not None:
        return None
    if not spec_supported(add.name, mult.name, out_type.name):
        return None
    return KernelSpec(add.name, mult.name, out_type.name)


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


# --------------------------------------------------------------------------
# C source
# --------------------------------------------------------------------------

_C_TEMPLATE = Template(r"""/* generated kernel set: ${SPEC} */
#include <stdint.h>
#include <math.h>

typedef ${CTYPE} VT;

#define HAS_TERM ${HAS_TERM}
#define TERM ((VT)${TERM_LIT})

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
    const int64_t *ap, const int64_t *aj, const VT *ax,
    const int64_t *bp, const int64_t *bj, const VT *bx,
    int64_t *mark, int64_t *slot,
    int64_t *ci, int64_t *cj, VT *cx)
{
    int64_t nz = 0;
    for (int64_t i = row_lo; i < row_hi; i++) {
        int64_t row_start = nz;
        for (int64_t p = ap[i]; p < ap[i + 1]; p++) {
            int64_t k = aj[p];
            VT av = ax[p];
            for (int64_t q = bp[k]; q < bp[k + 1]; q++) {
                int64_t j = bj[q];
                VT prod = ${MULT_AV_BQ};
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
    const int64_t *aj, const VT *ax,
    const int64_t *bj, const VT *bx,
    uint8_t *keep, VT *out, int64_t *stats)
{
    for (int64_t p = 0; p < n; p++) {
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
                VT prod = ${MULT_AXPA_BXPB};
                if (have) { acc = ${ADD_ACC_PROD}; }
                else      { acc = prod; have = 1; }
                depth++;
#if HAS_TERM
                if (acc == TERM) { stats[0]++; stats[3] += depth; break; }
#endif
                pa++; pb++;
            }
        }
        stats[2] += depth;
        if (have) { stats[1]++; keep[p] = 1; out[p] = acc; }
    }
}

/* SpMSpV push: scatter each frontier entry through its matrix column
   (the store's major axis is the vector's dimension).  mark arrives
   filled with -1; output is sorted by index on exit. */
int64_t gb_push(
    int64_t nu, const int64_t *ui, const VT *ux,
    const int64_t *ap, const int64_t *aj, const VT *ax,
    int matrix_first,
    int64_t *mark,
    int64_t *oi, VT *ov)
{
    int64_t nz = 0;
    for (int64_t t = 0; t < nu; t++) {
        int64_t k = ui[t];
        VT uv = ux[t];
        for (int64_t p = ap[k]; p < ap[k + 1]; p++) {
            int64_t j = aj[p];
            VT prod = matrix_first ? ${MULT_AXP_UV} : ${MULT_UV_AXP};
            if (mark[j] < 0) {
                mark[j] = nz;
                oi[nz] = j;
                ov[nz] = prod;
                nz++;
            } else {
                int64_t s = mark[j];
                VT acc = ov[s];
                ov[s] = ${ADD_ACC_PROD};
            }
        }
    }
    if (nz > 1)
        sortpairs(oi, ov, 0, nz - 1);
    return nz;
}

/* masked SpMV pull: one dot per requested output row against the dense
   vector, skipping absent entries, terminal early exit per row.
   stats layout matches gb_dot. */
int64_t gb_pull(
    int64_t nr, const int64_t *rows,
    const int64_t *ap, const int64_t *aj, const VT *ax,
    const VT *ud, const uint8_t *up,
    int matrix_first,
    int64_t *oi, VT *ov, int64_t *stats)
{
    int64_t nz = 0;
    for (int64_t t = 0; t < nr; t++) {
        int64_t i = rows[t];
        VT acc = (VT)0;
        int have = 0;
        int64_t depth = 0;
        for (int64_t p = ap[i]; p < ap[i + 1]; p++) {
            int64_t j = aj[p];
            if (!up[j]) continue;
            VT uv = ud[j];
            VT prod = matrix_first ? ${MULT_AXP_UV} : ${MULT_UV_AXP};
            if (have) { acc = ${ADD_ACC_PROD}; }
            else      { acc = prod; have = 1; }
            depth++;
#if HAS_TERM
            if (acc == TERM) { stats[0]++; stats[3] += depth; break; }
#endif
        }
        stats[2] += depth;
        if (have) { stats[1]++; oi[nz] = i; ov[nz] = acc; nz++; }
    }
    return nz;
}

/* sequential segmented fold: out[s] = x[starts[s]] + ... + x[end - 1],
   strictly left to right — the order the SPA kernels accumulate in, so
   partial products folded here in ascending inner index are bit-
   identical to the same product computed by gb_spgemm_fill/push/pull. */
void gb_segfold(
    int64_t nseg, const int64_t *starts, int64_t n,
    const VT *x, VT *out)
{
    for (int64_t s = 0; s < nseg; s++) {
        const int64_t end = s + 1 < nseg ? starts[s + 1] : n;
        VT acc = x[starts[s]];
        for (int64_t p = starts[s] + 1; p < end; p++) {
            VT prod = x[p];
            acc = ${ADD_ACC_PROD};
        }
        out[s] = acc;
    }
}
""")


def c_source(spec: KernelSpec) -> str:
    """Render the five C kernels for one spec."""
    c_mult, _ = _mult_fmt(spec.mult_name, spec.type_name)
    c_add, _ = _add_fmt(spec.add_name, spec.type_name)
    term = spec.terminal()
    return _C_TEMPLATE.substitute(
        SPEC=str(spec),
        CTYPE=CTYPES[spec.type_name],
        HAS_TERM="1" if term is not None else "0",
        TERM_LIT=_c_terminal_literal(term, spec.type_name),
        MULT_AV_BQ=c_mult.format(x="av", y="bx[q]"),
        MULT_AXPA_BXPB=c_mult.format(x="ax[pa]", y="bx[pb]"),
        MULT_AXP_UV=c_mult.format(x="ax[p]", y="uv"),
        MULT_UV_AXP=c_mult.format(x="uv", y="ax[p]"),
        ADD_ACC_PROD=c_add.format(x="acc", y="prod"),
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
                prod = ${MULT_AV_BQ}
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


def gb_dot(n, a_s, ae, bs, be, aj, ax, bj, bx, keep, out,
           has_term, term, stats):
    for p in range(n):
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
                prod = ${MULT_AXPA_BXPB}
                if have:
                    acc = ${ADD_ACC_PROD}
                else:
                    acc = prod
                    have = True
                depth += 1
                if has_term and acc == term:
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
            j = aj[p]
            prod = ${MULT_AXP_UV} if matrix_first else ${MULT_UV_AXP}
            if mark[j] < 0:
                mark[j] = nz
                oi[nz] = j
                ov[nz] = prod
                nz += 1
            else:
                s = mark[j]
                acc = ov[s]
                ov[s] = ${ADD_ACC_PROD}
    if nz > 1:
        sortpairs(oi, ov, 0, nz - 1)
    return nz


def gb_pull(nr, rows, ap, aj, ax, ud, up, matrix_first,
            oi, ov, has_term, term, stats):
    nz = 0
    for t in range(nr):
        i = rows[t]
        acc = term
        have = False
        depth = 0
        for p in range(ap[i], ap[i + 1]):
            j = aj[p]
            if not up[j]:
                continue
            uv = ud[j]
            prod = ${MULT_AXP_UV} if matrix_first else ${MULT_UV_AXP}
            if have:
                acc = ${ADD_ACC_PROD}
            else:
                acc = prod
                have = True
            depth += 1
            if has_term and acc == term:
                stats[0] += 1
                stats[3] += depth
                break
        stats[2] += depth
        if have:
            stats[1] += 1
            oi[nz] = i
            ov[nz] = acc
            nz += 1
    return nz


def gb_segfold(nseg, starts, n, x, out):
    for s in range(nseg):
        end = starts[s + 1] if s + 1 < nseg else n
        acc = x[starts[s]]
        for p in range(starts[s] + 1, end):
            prod = x[p]
            acc = ${ADD_ACC_PROD}
        out[s] = acc
''')


def py_source(spec: KernelSpec) -> str:
    """Render the numba-jittable Python kernels for one spec."""
    _, py_mult = _mult_fmt(spec.mult_name, spec.type_name)
    _, py_add = _add_fmt(spec.add_name, spec.type_name)
    return _PY_TEMPLATE.substitute(
        SPEC=str(spec),
        MULT_AV_BQ=py_mult.format(x="av", y="bx[q]"),
        MULT_AXPA_BXPB=py_mult.format(x="ax[pa]", y="bx[pb]"),
        MULT_AXP_UV=py_mult.format(x="ax[p]", y="uv"),
        MULT_UV_AXP=py_mult.format(x="uv", y="ax[p]"),
        ADD_ACC_PROD=py_add.format(x="acc", y="prod"),
    )
