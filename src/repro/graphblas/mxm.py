"""Sparse matrix-matrix multiply over a semiring: three methods.

The paper (section II.A) describes SuiteSparse's code-generated kernels:
**Gustavson's method** (row-wise saxpy), a **dot-product method** (with
no-mask / mask / complemented-mask variants), and a **heap-based method**
(k-way merge), expanding over all built-in semirings.  It also describes the
*early-exit* prototype: with a terminal monoid (OR's ``true``, AND's
``false``, MIN/MAX extrema) a dot product stops as soon as the terminal
value appears — the enabler for direction-optimized BFS.

All three methods are implemented here over row/col-oriented
:class:`~repro.graphblas.formats.SparseStore` views and are checked against
each other (and the dense reference) by the test suite.  Method choice:

* ``gustavson`` — vectorized expansion of all partial products, chunked to
  bound intermediate memory; the general-purpose workhorse.
* ``dot`` — computes only requested output positions; the clear winner when
  a sparse mask limits the output (e.g. masked triangle counting), and the
  home of the early-exit optimization.
* ``heap`` — literal k-way ordered merge per output row; fidelity
  implementation of the third SuiteSparse method.
* ``auto`` — dot when a (non-complemented) mask is present and selective,
  else Gustavson.

Positional multiply operators (FIRSTI/SECONDJ/...) substitute
coordinates for values: on the NumPy path through Gustavson's
coordinate expansion, on the compiled path in Gustavson and dot alike.

Gustavson and dot each have two kernels behind the same method policy,
fault point and governor polls: the compiled scalar loops of
:mod:`repro.graphblas.compiled` (a SPA per output row; per-element
terminal early exit), which run whenever the plan's
:func:`~repro.graphblas.compiled.select` returned a kernel set, and
otherwise the vectorized NumPy one, which applies the semiring's own
operators (``mult.apply``, ``add.reduce_segments``/``reduce_array``)
and sorts and groups partial products with
:func:`~repro.graphblas.formats.coo_sort_fold`.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from . import engine, faults, governor, telemetry
from .compiled import store_args
from .errors import InvalidValue
from .formats import SparseStore, coo_sort_fold
from .ops import BinaryOp
from .semiring import Semiring
from .types import Type

__all__ = ["mxm_coo", "resolve_method", "dot_candidates", "MXM_METHODS"]

_INDEX = np.int64

# Cap on the number of expanded partial products held at once (per chunk).
# Chosen by the ablation in benchmarks/bench_ablation_design.py: small
# chunks keep the expansion buffers cache-resident (up to ~1.5x faster on
# skewed graphs) while costing nothing on uniform ones.
GUSTAVSON_CHUNK_FLOPS = 1 << 16

MXM_METHODS = ("auto", "gustavson", "dot", "heap", "tiled")


def _gather_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[k], ends[k])`` for all k, vectorized."""
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=_INDEX)
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    return np.arange(total, dtype=_INDEX) - offsets + np.repeat(starts, lens)


def _positional_values(
    mult: BinaryOp,
    i: np.ndarray,
    k: np.ndarray,
    j: np.ndarray,
) -> np.ndarray:
    """Coordinate-valued multiply: z = f(i, k, j) per partial product."""
    kind = mult.positional
    if kind == "firsti":
        return i.astype(np.int64)
    if kind == "firsti1":
        return i.astype(np.int64) + 1
    if kind in ("firstj", "secondi"):
        return k.astype(np.int64)
    if kind == "secondj":
        return j.astype(np.int64)
    if kind == "secondj1":
        return j.astype(np.int64) + 1
    raise InvalidValue(f"unknown positional kind {kind!r}")


def resolve_method(
    method: str,
    semiring: Semiring,
    mask_coords,
    mask_complement: bool,
    a_rows: SparseStore,
    b_rows: SparseStore,
    kernels=None,
) -> str:
    """Resolve a requested SpGEMM method to the concrete kernel to run.

    The one method policy shared by every backend (the NumPy kernels
    and the compiled tier both route through here, so their
    ``spgemm.method`` telemetry and governor poll points are identical):
    ``tiled`` degrades to the bit-identical in-memory Gustavson, ``auto``
    picks dot exactly when a usable (non-complemented) mask hint exists,
    positional products force NumPy's coordinate expansion (Gustavson)
    unless compiled ``kernels`` run them, whose dot loop holds (i, k, j).
    """
    requested = method
    if method == "tiled":
        # the dispatcher serves "tiled" via repro.graphblas.tiled; when a
        # plan reaches the in-memory kernel anyway (direct call, degraded
        # backend) Gustavson is the bit-identical equivalent
        method = "gustavson"
    if method == "auto":
        if mask_coords is not None and not mask_complement:
            method = "dot"
        else:
            method = "gustavson"
    if semiring.mult.positional and method != "gustavson" and kernels is None:
        method = "gustavson"  # positional products need coordinate expansion
    if telemetry.ENABLED:
        telemetry.decision(
            "spgemm.method",
            method=method,
            requested=requested,
            masked=mask_coords is not None,
            a_nvals=a_rows.nvals,
            b_nvals=b_rows.nvals,
        )
    if governor.ACTIVE:
        # SpGEMM method boundary: last cooperative cancellation point
        # before the expansion kernels allocate their working set.
        governor.poll()
    return method


def mxm_coo(
    a_rows: SparseStore,
    b_rows: SparseStore,
    semiring: Semiring,
    out_type: Type,
    method: str = "auto",
    mask_coords: tuple[np.ndarray, np.ndarray] | None = None,
    mask_complement: bool = False,
    nthreads: int | None = None,
    kernels=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C = A (+).(x) B on row-oriented stores; returns sorted COO arrays.

    ``mask_coords`` — when given, only those output coordinates need be
    computed (the structural part of the output mask); the caller still
    applies the full mask/accum write step afterwards, so producing extra
    entries would be legal but wasteful.  With ``mask_complement`` the hint
    is the set of coordinates *not* wanted; the dot method cannot use a
    complemented hint directly, but Gustavson can drop them post hoc.

    ``nthreads`` — the descriptor's ``GxB_NTHREADS`` request; caps the
    engine's row-blocked parallelism for this call.

    ``kernels`` — the plan's compiled kernel set, when
    :func:`~repro.graphblas.compiled.select` chose one: Gustavson and dot
    then run its scalar loops (each operand in its own type, the result
    in ``out_type``).
    """
    if a_rows.n_minor != b_rows.n_major:
        raise InvalidValue(
            f"inner dimensions differ: {a_rows.n_minor} vs {b_rows.n_major}"
        )
    if method not in MXM_METHODS:
        raise InvalidValue(f"unknown mxm method {method!r}")
    if faults.ENABLED:
        faults.trip("spgemm.flop")
    method = resolve_method(
        method, semiring, mask_coords, mask_complement, a_rows, b_rows,
        kernels=kernels,
    )

    if method == "gustavson":
        if kernels is not None:
            r, c, v = _compiled_gustavson(kernels, a_rows, b_rows, out_type,
                                          nthreads)
        else:
            r, c, v = _mxm_gustavson(a_rows, b_rows, semiring, out_type,
                                     nthreads)
        if mask_coords is not None:
            from .coords import coords_in

            sel = coords_in(r, c, *mask_coords)
            if mask_complement:
                sel = ~sel
            r, c, v = r[sel], c[sel], v[sel]
        return r, c, v
    if method == "dot":
        if kernels is not None:
            return _compiled_dot(kernels, a_rows, b_rows, out_type,
                                 mask_coords, mask_complement)
        return _mxm_dot(a_rows, b_rows, semiring, out_type, mask_coords, mask_complement)
    return _mxm_heap(a_rows, b_rows, semiring, out_type, mask_coords, mask_complement)


def _empty_coo(dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (np.empty(0, dtype=_INDEX), np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=dtype))


# --------------------------------------------------------------------------
# Gustavson: saxpy expansion
# --------------------------------------------------------------------------

def _mxm_gustavson(
    a_rows: SparseStore,
    b_rows: SparseStore,
    semiring: Semiring,
    out_type: Type,
    nthreads: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ar, ac, av = a_rows.to_coo()
    if ar.size == 0 or b_rows.nvals == 0:
        return _empty_coo(out_type.np_dtype)
    starts, ends = b_rows.major_ranges(ac)
    lens = ends - starts
    flops = np.cumsum(lens)
    total = int(flops[-1])
    if telemetry.ENABLED:
        telemetry.tally("mxm", flops=total)
    if total == 0:
        return _empty_coo(out_type.np_dtype)

    # Row blocks for the shared thread pool, when the expansion is big
    # enough to amortize the handoff; each in-flight block holds one
    # chunk's expansion buffers.
    workers = engine.admit_blocks(
        "mxm", total, engine.MIN_PARALLEL_FLOPS, nthreads,
        lambda _: GUSTAVSON_CHUNK_FLOPS * (48 + out_type.np_dtype.itemsize),
        semiring, out_type)
    blocks = _row_blocks(ar, flops, workers) if workers > 1 else [(0, ar.size)]
    block_args = (ar, ac, av, b_rows.minor, b_rows.values, starts, ends, lens,
                  flops, semiring, out_type, (a_rows.n_major, b_rows.n_minor))
    if len(blocks) > 1:
        def timed(lo, hi):
            t0 = time.perf_counter()
            res = _gustavson_block(lo, hi, *block_args)
            return res, t0, time.perf_counter()

        results = engine.run_blocks(timed, blocks, len(blocks))
        if telemetry.ENABLED:
            for idx, ((_, t0, t1), (lo, hi)) in enumerate(zip(results, blocks)):
                telemetry.span_at(
                    "engine.block", t0, t1, op="mxm", block=idx, rows=hi - lo
                )
        pieces = [res for res, _, _ in results]
    else:
        pieces = [_gustavson_block(0, ar.size, *block_args)]

    out_r = [arr for piece in pieces for arr in piece[0]]
    out_c = [arr for piece in pieces for arr in piece[1]]
    out_v = [arr for piece in pieces for arr in piece[2]]
    return (
        np.concatenate(out_r),
        np.concatenate(out_c),
        np.concatenate(out_v),
    )


def _gustavson_block(
    lo_end: int,
    hi_end: int,
    ar, ac, av, b_minor, b_values, starts, ends, lens, flops,
    semiring: Semiring,
    out_type: Type,
    shape,
):
    """Expand A entries ``[lo_end, hi_end)``; both bounds lie on A-row
    boundaries, so per-block outputs concatenate sorted and deduplicated
    (each output row is produced wholly inside one block)."""
    mult = semiring.mult
    positional = mult.positional is not None

    def fold(vals, seg):  # combine duplicates with the add monoid
        return semiring.add.reduce_segments(vals, seg, out_type)

    out_r: list[np.ndarray] = []
    out_c: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    # chunk the entries so each expansion stays below the flop cap, cutting
    # only at row boundaries of A so per-chunk results concatenate sorted
    lo = lo_end
    while lo < hi_end:
        base = flops[lo - 1] if lo else 0
        hi = int(np.searchsorted(flops, base + GUSTAVSON_CHUNK_FLOPS))
        hi = min(max(hi, lo + 1), hi_end)
        if hi < hi_end:  # extend to finish the current A row
            row = ar[hi - 1]
            while hi < hi_end and ar[hi] == row:
                hi += 1
        chunk = slice(lo, hi)
        gather = _gather_ranges(starts[chunk], ends[chunk])
        reps = lens[chunk]
        i = np.repeat(ar[chunk], reps)
        j = b_minor[gather]
        if positional:
            k = np.repeat(ac[chunk], reps)
            vals = _positional_values(mult, i, k, j)
        else:
            vals = mult.apply(np.repeat(av[chunk], reps), b_values[gather])
        i, j, vals = coo_sort_fold(i, j, vals, *shape, out_type, fold)
        out_r.append(i)
        out_c.append(j)
        out_v.append(vals)
        lo = hi
    return out_r, out_c, out_v


def _row_blocks(ar: np.ndarray, flops: np.ndarray, nblocks: int):
    """Split ``[0, ar.size)`` into up to ``nblocks`` flop-balanced spans,
    cutting only at A-row boundaries (a row split across blocks would emit
    its output entries twice)."""
    total = int(flops[-1])
    cuts = [0]
    for k in range(1, nblocks):
        hi = int(np.searchsorted(flops, (total * k) // nblocks))
        if hi <= cuts[-1]:
            continue
        while hi < ar.size and ar[hi] == ar[hi - 1]:
            hi += 1
        if hi > cuts[-1] and hi < ar.size:
            cuts.append(hi)
    cuts.append(ar.size)
    return [(cuts[m], cuts[m + 1]) for m in range(len(cuts) - 1)]


def _compiled_gustavson(kern, a_rows, b_rows, out_type, nthreads):
    """Gustavson on the compiled two-phase SPA kernels, in flop-balanced
    row blocks on the engine pool (the foreign call releases the GIL).
    Each operand is passed in its own type; the kernel casts."""
    dt = out_type.np_dtype
    a = store_args(a_rows, kern.spec.a_dtype)
    b = store_args(b_rows, kern.spec.b_dtype)
    if a.minor.size == 0 or b.minor.size == 0:
        return _empty_coo(dt)
    ent_flops = b.indptr[a.minor + 1] - b.indptr[a.minor]
    total = int(ent_flops.sum())
    if telemetry.ENABLED:
        telemetry.tally("mxm", flops=total)
    if total == 0:
        return _empty_coo(dt)
    n_rows, n_minor = a.indptr.size - 1, int(b_rows.n_minor)

    # per block: SPA mark+slot, plus its share of the output
    workers = engine.admit_blocks(
        "mxm", total, engine.MIN_PARALLEL_FLOPS, nthreads,
        lambda req: n_minor * 16 + (total // req + 1) * (16 + dt.itemsize))
    blocks = [(0, n_rows)]
    if workers > 1:
        cum = np.zeros(a.minor.size + 1, dtype=_INDEX)
        np.cumsum(ent_flops, out=cum[1:])
        blocks = _flop_row_blocks(cum[a.indptr], workers)

    def run_block(lo, hi):
        t0 = time.perf_counter()
        mark = np.full(n_minor, -1, dtype=_INDEX)
        n = kern.spgemm_count(lo, hi, a, b, mark)
        mark.fill(-1)
        slot = np.empty(n_minor, dtype=_INDEX)
        ci = np.empty(n, dtype=_INDEX)
        cj = np.empty(n, dtype=_INDEX)
        cx = np.empty(n, dtype=dt)
        kern.spgemm_fill(lo, hi, a, b, mark, slot, ci, cj, cx)
        return (ci, cj, cx), t0, time.perf_counter()

    if len(blocks) == 1:
        return run_block(*blocks[0])[0]
    results = engine.run_blocks(run_block, blocks, len(blocks))
    if telemetry.ENABLED:
        for idx, ((lo, hi), (_, t0, t1)) in enumerate(zip(blocks, results)):
            telemetry.span_at(
                "engine.block", t0, t1, op="mxm", block=idx, rows=hi - lo
            )
    return tuple(
        np.concatenate([r[0][k] for r in results]) for k in range(3)
    )


def _flop_row_blocks(row_cum: np.ndarray, workers: int) -> list[tuple[int, int]]:
    """Cut rows into ≤ ``workers`` spans of roughly equal flops.

    ``row_cum[i]`` is the flop count of all rows before ``i`` (length
    n_rows + 1, monotone).  Cuts land on row boundaries, so each block's
    SPA is self-contained and concatenated results equal serial output.
    """
    n = row_cum.size - 1
    total = int(row_cum[-1])
    if n <= 1 or total == 0:
        return [(0, n)]
    targets = (np.arange(1, workers) * total) // workers
    cuts = np.searchsorted(row_cum, targets, side="left")
    bounds = sorted({0, n, *(int(c) for c in cuts if 0 <= c <= n)})
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# --------------------------------------------------------------------------
# Dot-product method (masked / unmasked / complemented-mask variants)
# --------------------------------------------------------------------------

# Scan the intersection in blocks; with a terminal monoid, stop at the first
# block whose running reduction hits the annihilator (the "early exit").
_EARLY_EXIT_BLOCK = 64


def dot_candidates(
    a_rows: SparseStore,
    b_cols: SparseStore,
    mask_coords,
    mask_complement: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate (i, j) output coordinates for the dot method.

    A non-complemented mask *is* the candidate list (the fused-mask
    payoff); otherwise every (nonempty A row) x (nonempty B col) pair is
    a candidate, minus the masked-out set when the mask is complemented.
    Row-major sorted, like the mask coordinate contract.  Shared by the
    NumPy kernel and the compiled tier so both enumerate (and
    therefore early-exit over) exactly the same dots.
    """
    if mask_coords is None or mask_complement:
        arows = (
            a_rows.h
            if a_rows.hyper
            else np.flatnonzero(np.diff(a_rows.indptr)).astype(_INDEX)
        )
        bcols = (
            b_cols.h
            if b_cols.hyper
            else np.flatnonzero(np.diff(b_cols.indptr)).astype(_INDEX)
        )
        out_i = np.repeat(arows, bcols.size)
        out_j = np.tile(bcols, arows.size)
        if mask_coords is not None:
            from .coords import coords_in

            drop = coords_in(out_i, out_j, *mask_coords)
            out_i, out_j = out_i[~drop], out_j[~drop]
        return out_i, out_j
    return mask_coords


def _mxm_dot(
    a_rows: SparseStore,
    b_rows: SparseStore,
    semiring: Semiring,
    out_type: Type,
    mask_coords,
    mask_complement: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    b_cols = b_rows.with_orientation(b_rows.orientation.flipped)
    out_i, out_j = dot_candidates(a_rows, b_cols, mask_coords, mask_complement)
    if out_i.size == 0:
        return _empty_coo(out_type.np_dtype)

    a_start, a_end = a_rows.major_ranges(out_i)
    b_start, b_end = b_cols.major_ranges(out_j)
    if telemetry.ENABLED:
        # the dot method's work is bounded by the scanned list lengths
        telemetry.tally(
            "mxm", flops=int((a_end - a_start).sum() + (b_end - b_start).sum())
        )

    add = semiring.add
    mult = semiring.mult
    terminal = add.terminal(out_type)
    a_minor = a_rows.minor
    a_vals = a_rows.values
    b_minor = b_cols.minor
    b_vals = b_cols.values

    keep = np.zeros(out_i.size, dtype=bool)
    out_vals = np.empty(out_i.size, dtype=out_type.np_dtype)
    early_exits = 0
    early_eligible = 0

    for p in range(out_i.size):
        asl = slice(a_start[p], a_end[p])
        bsl = slice(b_start[p], b_end[p])
        ai = a_minor[asl]
        bi = b_minor[bsl]
        if ai.size == 0 or bi.size == 0:
            continue
        # sorted intersection: positions of common inner indices
        pos = np.searchsorted(bi, ai)
        pos_c = np.minimum(pos, bi.size - 1)
        hit = bi[pos_c] == ai
        if not hit.any():
            continue
        av = a_vals[asl][hit]
        bv = b_vals[bsl][pos[hit]]
        if terminal is not None and av.size > _EARLY_EXIT_BLOCK:
            early_eligible += 1
            acc = None
            done = False
            for lo in range(0, av.size, _EARLY_EXIT_BLOCK):
                blk = mult.apply(
                    av[lo : lo + _EARLY_EXIT_BLOCK],
                    bv[lo : lo + _EARLY_EXIT_BLOCK],
                )
                blk_red = add.reduce_array(blk, out_type)
                acc = blk_red if acc is None else out_type.cast_array(
                    add.op.apply(acc, blk_red)).item()
                if acc == terminal:  # early exit: annihilator reached
                    done = True
                    break
            out_vals[p] = acc
            keep[p] = True
            early_exits += done
        else:
            out_vals[p] = add.reduce_array(mult.apply(av, bv), out_type)
            keep[p] = True

    if telemetry.ENABLED and early_eligible:
        telemetry.decision(
            "mxm.early_exit",
            terminated=early_exits,
            eligible=early_eligible,
            dots=int(out_i.size),
        )
    out_i, out_j, out_vals = out_i[keep], out_j[keep], out_vals[keep]
    order = np.lexsort((out_j, out_i))
    return out_i[order], out_j[order], out_vals[order]


def _compiled_dot(kern, a_rows, b_rows, out_type, mask_coords,
                  mask_complement):
    """The dot method on the compiled sorted-intersection kernel, which
    stops each dot at the first annihilator (per element, not per
    block).  The candidate coordinates ride along for positional
    multiplies."""
    dt = out_type.np_dtype
    spec = kern.spec
    b_cols = b_rows.with_orientation(b_rows.orientation.flipped)
    out_i, out_j = dot_candidates(a_rows, b_cols, mask_coords, mask_complement)
    if out_i.size == 0:
        return _empty_coo(dt)
    a_start, a_end = a_rows.major_ranges(out_i)
    b_start, b_end = b_cols.major_ranges(out_j)
    if telemetry.ENABLED:
        telemetry.tally(
            "mxm", flops=int((a_end - a_start).sum() + (b_end - b_start).sum())
        )
    keep = np.zeros(out_i.size, dtype=np.uint8)
    out = np.zeros(out_i.size, dtype=dt)
    stats = np.zeros(4, dtype=_INDEX)
    idx = np.ascontiguousarray
    kern.dot(
        idx(a_start, dtype=_INDEX), idx(a_end, dtype=_INDEX),
        idx(b_start, dtype=_INDEX), idx(b_end, dtype=_INDEX),
        idx(out_i, dtype=_INDEX), idx(out_j, dtype=_INDEX),
        idx(a_rows.minor, dtype=_INDEX),
        idx(a_rows.values, dtype=spec.a_dtype),
        idx(b_cols.minor, dtype=_INDEX),
        idx(b_cols.values, dtype=spec.b_dtype),
        keep, out, stats,
    )
    if telemetry.ENABLED and kern.has_terminal:
        telemetry.decision(
            "mxm.early_exit",
            terminated=int(stats[0]),
            eligible=int(stats[1]),
            dots=int(out_i.size),
            scanned=int(stats[2]),
            depth_sum=int(stats[3]),
        )
    kb = keep.view(np.bool_)
    # candidates are row-major sorted, so the filtered result is too
    return out_i[kb], out_j[kb], out[kb]


# --------------------------------------------------------------------------
# Heap method: literal k-way merge per output row
# --------------------------------------------------------------------------

def _mxm_heap(
    a_rows: SparseStore,
    b_rows: SparseStore,
    semiring: Semiring,
    out_type: Type,
    mask_coords,
    mask_complement: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    add = semiring.add
    mult = semiring.mult
    out_r: list[int] = []
    out_c: list[int] = []
    out_v: list = []

    a_full = a_rows.to_full_pointer()
    indptr = a_full.indptr
    for i in range(a_full.n_major):
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        if lo == hi:
            continue
        ks = a_full.minor[lo:hi]
        avs = a_full.values[lo:hi]
        bs, be = b_rows.major_ranges(ks)
        # heap of (col_index, source_row_position, cursor) — merge the rows
        # of B selected by A(i,:) in column order
        heap: list[tuple[int, int, int]] = []
        for s in range(ks.size):
            if bs[s] < be[s]:
                heapq.heappush(heap, (int(b_rows.minor[bs[s]]), s, int(bs[s])))
        cur_col = -1
        acc = None
        while heap:
            col, s, cursor = heapq.heappop(heap)
            prod = mult.fn(avs[s], b_rows.values[cursor])
            if col != cur_col:
                if acc is not None:
                    out_r.append(i)
                    out_c.append(cur_col)
                    out_v.append(acc)
                cur_col = col
                acc = prod
            else:
                acc = add.op.fn(acc, prod)
            cursor += 1
            if cursor < be[s]:
                heapq.heappush(heap, (int(b_rows.minor[cursor]), s, cursor))
        if acc is not None:
            out_r.append(i)
            out_c.append(cur_col)
            out_v.append(acc)

    r = np.asarray(out_r, dtype=_INDEX)
    c = np.asarray(out_c, dtype=_INDEX)
    v = out_type.cast_array(np.asarray(out_v)) if out_v else np.empty(
        0, dtype=out_type.np_dtype
    )
    if mask_coords is not None:
        from .coords import coords_in

        sel = coords_in(r, c, *mask_coords)
        if mask_complement:
            sel = ~sel
        r, c, v = r[sel], c[sel], v[sel]
    return r, c, v
