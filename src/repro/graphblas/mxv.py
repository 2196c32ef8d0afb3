"""Sparse matrix-vector multiply: push, pull, and direction optimization.

Section II.E of the paper describes GraphBLAST's key optimization,
direction-optimized traversal (Beamer et al.'s push-pull), implemented
*inside* ``GrB_mxv``:

* **push** — sparse-matrix sparse-vector product (SpMSpV, Gustavson's
  method): scatter from the entries of the sparse input vector through the
  matrix stored so its *inner* dimension is the major axis.  Work is
  proportional to the frontier's outgoing edges.
* **pull** — dot-product SpMV against the dense form of the input vector,
  reading the matrix by its *outer* dimension.  With an output mask, only
  the admitted output positions are computed.  Work is proportional to the
  edges incident on the unvisited set.
* **auto** — the GraphBLAST rule reproduced literally: if the vector's
  density crossed above the threshold, switch to pull; if below, switch to
  push; otherwise *keep the direction used last iteration* (hysteresis,
  held in :class:`DirectionOptimizer`).

The same two kernels serve both ``mxv`` (A's columns indexed by u) and
``vxm`` (A's rows indexed by u) — the caller passes the appropriately
oriented store and sets ``matrix_first`` for the multiply argument order.
Each direction runs either vectorized NumPy or, when the plan's
:func:`~repro.graphblas.compiled.select` chose a kernel set, its compiled
scalar loop (pull with per-row terminal early exit) — behind the same
fault point.
"""

from __future__ import annotations

import time

import numpy as np

from . import engine, faults, telemetry
from .compiled import store_args
from .errors import InvalidValue
from .formats import SparseStore, group_starts
from .mxm import _gather_ranges
from .semiring import Semiring
from .types import Type

__all__ = [
    "spmspv_push",
    "spmv_pull",
    "choose_direction",
    "DirectionOptimizer",
    "DEFAULT_SWITCH_THRESHOLD",
    "get_switch_threshold",
    "set_switch_threshold",
]

_INDEX = np.int64

# GraphBLAST switches push<->pull when frontier density crosses a threshold;
# its default is a small constant fraction of the vertices.
DEFAULT_SWITCH_THRESHOLD = 0.03

# The live knob behind every "auto" direction choice.  Settable (see
# set_switch_threshold) so telemetry experiments can sweep the switch point
# without monkey-patching; DEFAULT_SWITCH_THRESHOLD records the shipped value.
SWITCH_THRESHOLD = DEFAULT_SWITCH_THRESHOLD


def get_switch_threshold() -> float:
    """The current push<->pull density threshold used by ``method="auto"``."""
    return SWITCH_THRESHOLD


def set_switch_threshold(value: float) -> float:
    """Set the push<->pull density threshold; returns the previous value.

    Applies to every subsequent ``mxv``/``vxm`` with ``method="auto"`` and
    to :class:`DirectionOptimizer` instances created without an explicit
    threshold.  Values must lie strictly between 0 and 1; restore the
    shipped default with ``set_switch_threshold(DEFAULT_SWITCH_THRESHOLD)``.
    """
    global SWITCH_THRESHOLD
    value = float(value)
    if not 0 < value < 1:
        raise InvalidValue("switch threshold must be in (0, 1)")
    prev = SWITCH_THRESHOLD
    SWITCH_THRESHOLD = value
    return prev


def _vec_positional(kind: str, k: np.ndarray, m: np.ndarray, matrix_first: bool):
    """Positional multiply for matrix-vector products.

    ``k`` is the inner (vector) index of each partial product, ``m`` the
    output index.  With ``matrix_first`` (mxv: A(i,k) x u(k)): FIRSTI = m,
    FIRSTJ = SECONDI = k, SECONDJ = 0.  Otherwise (vxm: u(k) x A(k,j)):
    FIRSTI = SECONDI = k, FIRSTJ = 0, SECONDJ = m.
    """
    if kind in ("secondi", "secondi1"):
        base = k
    elif kind in ("firsti", "firsti1"):
        base = m if matrix_first else k
    elif kind in ("firstj", "firstj1"):
        base = k if matrix_first else np.zeros_like(k)
    elif kind in ("secondj", "secondj1"):
        base = np.zeros_like(k) if matrix_first else m
    else:
        raise InvalidValue(f"unknown positional kind {kind!r}")
    out = base.astype(np.int64)
    return out + 1 if kind.endswith("1") else out


def spmspv_push(
    a_by_inner: SparseStore,
    u_idx: np.ndarray,
    u_vals: np.ndarray,
    semiring: Semiring,
    out_type: Type,
    matrix_first: bool = True,
    kernels=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Push traversal: scatter from each entry of the sparse vector.

    ``a_by_inner`` must be oriented with the vector's dimension as its major
    axis (CSC for mxv, CSR for vxm).  Returns (indices, values) sorted.
    ``kernels`` is the plan's compiled kernel set, if one was selected.
    """
    if faults.ENABLED:
        faults.trip("mxv.push")
    if a_by_inner.n_major != 0 and u_idx.size:
        if int(u_idx.max()) >= a_by_inner.n_major:
            raise InvalidValue("vector index outside matrix inner dimension")
    if kernels is not None:
        return _compiled_push(kernels, a_by_inner, u_idx, u_vals, out_type,
                              matrix_first)
    starts, ends = a_by_inner.major_ranges(u_idx)
    lens = ends - starts
    gather = _gather_ranges(starts, ends)
    if telemetry.ENABLED:
        telemetry.tally("mxv", flops=int(gather.size))
    if gather.size == 0:
        return np.empty(0, dtype=_INDEX), np.empty(0, dtype=out_type.np_dtype)
    out_idx = a_by_inner.minor[gather]
    mult = semiring.mult
    if mult.positional is not None:
        k = np.repeat(u_idx, lens)
        vals = _vec_positional(mult.positional, k, out_idx, matrix_first)
    else:
        a_v = a_by_inner.values[gather]
        u_v = np.repeat(u_vals, lens)
        vals = mult.apply(a_v, u_v) if matrix_first else mult.apply(u_v, a_v)

    order = np.argsort(out_idx, kind="stable")
    out_idx, vals = out_idx[order], vals[order]
    seg = group_starts(out_idx)
    if seg.size != out_idx.size:
        vals = semiring.add.reduce_segments(vals, seg, out_type)
        out_idx = out_idx[seg]
    else:
        vals = out_type.cast_array(vals)
    return out_idx, vals


def _empty_vec(dtype) -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=_INDEX), np.empty(0, dtype=dtype)


def _trimmed(oi, ov, nz):
    """The first ``nz`` outputs, copied only when the buffers are larger
    (so an over-allocated scratch buffer is not kept alive)."""
    if nz == oi.size:
        return oi, ov
    return oi[:nz].copy(), ov[:nz].copy()


def _operand_dtypes(kern, matrix_first):
    """(matrix, vector) value dtypes: each operand keeps its own type,
    and the matrix is mxv's first operand but vxm's second."""
    spec = kern.spec
    if matrix_first:
        return spec.a_dtype, spec.b_dtype
    return spec.b_dtype, spec.a_dtype


def _compiled_push(kern, store, u_idx, u_vals, out_type, matrix_first):
    dt = out_type.np_dtype
    if u_idx.size == 0 or store.nvals == 0:
        if telemetry.ENABLED:
            telemetry.tally("mxv", flops=0)
        return _empty_vec(dt)
    mat_dt, vec_dt = _operand_dtypes(kern, matrix_first)
    a = store_args(store, mat_dt)
    ui = np.ascontiguousarray(u_idx, dtype=_INDEX)
    ux = np.ascontiguousarray(u_vals, dtype=vec_dt)
    flops = int((a.indptr[ui + 1] - a.indptr[ui]).sum())
    if telemetry.ENABLED:
        telemetry.tally("mxv", flops=flops)
    if flops == 0:
        return _empty_vec(dt)
    n_out = int(store.n_minor)
    cap = min(n_out, flops)
    mark = np.full(n_out, -1, dtype=_INDEX)
    oi = np.empty(cap, dtype=_INDEX)
    ov = np.empty(cap, dtype=dt)
    nz = kern.push(ui, ux, a, matrix_first, mark, oi, ov)
    return _trimmed(oi, ov, nz)


def _compiled_pull(kern, store, u_dense, u_present, out_type, matrix_first,
                   outer_hint):
    dt = out_type.np_dtype
    if store.nvals == 0:
        if telemetry.ENABLED:
            telemetry.tally("mxv", flops=0)
        return _empty_vec(dt)
    mat_dt, vec_dt = _operand_dtypes(kern, matrix_first)
    a = store_args(store, mat_dt)
    rows = (
        a.rows() if outer_hint is None
        else np.ascontiguousarray(outer_hint, dtype=_INDEX)
    )
    if rows.size == 0:
        return _empty_vec(dt)
    if telemetry.ENABLED:
        telemetry.tally(
            "mxv", flops=int((a.indptr[rows + 1] - a.indptr[rows]).sum()))
    oi = np.empty(rows.size, dtype=_INDEX)
    ov = np.empty(rows.size, dtype=dt)
    stats = np.zeros(4, dtype=_INDEX)
    nz = kern.pull(rows, a, np.ascontiguousarray(u_dense, dtype=vec_dt),
                   np.ascontiguousarray(u_present, dtype=np.bool_),
                   matrix_first, oi, ov, stats)
    if telemetry.ENABLED and kern.has_terminal:
        telemetry.decision(
            "mxv.early_exit",
            terminated=int(stats[0]),
            eligible=int(stats[1]),
            dots=int(rows.size),
            scanned=int(stats[2]),
            depth_sum=int(stats[3]),
        )
    return _trimmed(oi, ov, nz)


def _major_blocks(major: np.ndarray, nblocks: int) -> list[tuple[int, int]]:
    """Cut ``major`` (sorted) into up to ``nblocks`` contiguous spans.

    Every cut lands on a major-index boundary, so per-segment reductions in
    one block never see partial products belonging to another block and the
    concatenated block results equal the serial result bit for bit.
    """
    cuts = [0]
    for k in range(1, nblocks):
        pos = (major.size * k) // nblocks
        while 0 < pos < major.size and major[pos] == major[pos - 1]:
            pos += 1
        if cuts[-1] < pos < major.size:
            cuts.append(pos)
    cuts.append(major.size)
    return [(cuts[t], cuts[t + 1]) for t in range(len(cuts) - 1)]


def _pull_block(lo: int, hi: int, major, vals, add, out_type):
    """Segment-reduce one major-aligned span of pull partial products."""
    m = major[lo:hi]
    seg = group_starts(m)
    return m[seg], add.reduce_segments(vals[lo:hi], seg, out_type)


def spmv_pull(
    a_by_outer: SparseStore,
    u_dense: np.ndarray,
    u_present: np.ndarray,
    semiring: Semiring,
    out_type: Type,
    matrix_first: bool = True,
    outer_hint: np.ndarray | None = None,
    nthreads: int | None = None,
    kernels=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pull traversal: per-output-position dot against the densified vector.

    ``a_by_outer`` is oriented with the *output* dimension major (CSR for
    mxv, CSC for vxm).  ``outer_hint`` (sorted) restricts computation to
    those output positions — the pull-side payoff of an output mask.
    Returns (indices, values) sorted.  ``kernels`` is the plan's compiled
    kernel set, if one was selected.
    """
    if faults.ENABLED:
        faults.trip("mxv.pull")
    if kernels is not None:
        return _compiled_pull(kernels, a_by_outer, u_dense, u_present,
                              out_type, matrix_first, outer_hint)
    mult = semiring.mult
    if outer_hint is not None:
        starts, ends = a_by_outer.major_ranges(outer_hint)
        lens = ends - starts
        gather = _gather_ranges(starts, ends)
        major = np.repeat(outer_hint, lens)
        minor = a_by_outer.minor[gather]
        a_vals = a_by_outer.values[gather]
    else:
        major, minor, a_vals = a_by_outer.to_coo()

    if major.size == 0:
        return np.empty(0, dtype=_INDEX), np.empty(0, dtype=out_type.np_dtype)
    sel = u_present[minor]
    major, minor, a_vals = major[sel], minor[sel], a_vals[sel]
    if telemetry.ENABLED:
        telemetry.tally("mxv", flops=int(major.size))
    if major.size == 0:
        return np.empty(0, dtype=_INDEX), np.empty(0, dtype=out_type.np_dtype)

    if mult.positional is not None:
        vals = _vec_positional(mult.positional, minor, major, matrix_first)
    else:
        u_v = u_dense[minor]
        vals = mult.apply(a_vals, u_v) if matrix_first else mult.apply(u_v, a_vals)

    add = semiring.add
    workers = engine.admit_blocks(
        "mxv", major.size, engine.MIN_PARALLEL_ENTRIES, nthreads,
        lambda req: (major.size // req + 1) * (16 + out_type.np_dtype.itemsize),
        semiring, out_type)
    blocks = _major_blocks(major, workers) if workers > 1 else []
    if len(blocks) > 1:
        def timed(lo, hi):
            t0 = time.perf_counter()
            res = _pull_block(lo, hi, major, vals, add, out_type)
            return res, t0, time.perf_counter()

        results = engine.run_blocks(timed, blocks, len(blocks))
        if telemetry.ENABLED:
            for idx, ((lo, hi), (_, t0, t1)) in enumerate(zip(blocks, results)):
                telemetry.span_at(
                    "engine.block", t0, t1, op="mxv", block=idx, entries=hi - lo
                )
        out_idx = np.concatenate([r[0] for r, _, _ in results])
        out_vals = np.concatenate([r[1] for r, _, _ in results])
        return out_idx, out_vals
    return _pull_block(0, major.size, major, vals, add, out_type)


def choose_direction(method: str, u, optimizer, *, op_name: str) -> str:
    """Resolve a matvec plan's method to ``push`` or ``pull``.

    The one direction-choice policy shared by every kernel backend
    (optimized and compiled both route through here, so their
    ``mxv.direction`` telemetry and hysteresis state are identical):
    ``tiled`` degrades to the bit-identical in-memory ``pull``;
    ``auto`` applies the GraphBLAST density rule — through the plan's
    :class:`DirectionOptimizer` when the caller is iterating, the
    module threshold otherwise; explicit directions pass through.
    """
    if method == "tiled":
        method = "pull"
    if method == "auto":
        density = u.nvals / u.size
        threshold = (
            optimizer.threshold
            if optimizer is not None
            else get_switch_threshold()
        )
        if optimizer is not None:
            method = optimizer.choose(density)
        else:
            method = "push" if density <= threshold else "pull"
        if telemetry.ENABLED:
            telemetry.decision(
                "mxv.direction",
                op=op_name,
                direction=method,
                density=density,
                threshold=threshold,
                frontier_nvals=u.nvals,
                size=u.size,
                hysteresis=optimizer is not None,
            )
    elif telemetry.ENABLED:
        telemetry.decision(
            "mxv.direction",
            op=op_name,
            direction=method,
            forced=True,
            frontier_nvals=u.nvals,
            size=u.size,
        )
    return method


class DirectionOptimizer:
    """Push/pull chooser with GraphBLAST's hysteresis rule (section II.E).

    "In each iteration of an mxv, the backend checks whether the vector
    sparsity has crossed a threshold k.  If it has gone above, switch from
    push to pull.  If below, switch from pull to push.  Otherwise use the
    traversal of the previous iteration."
    """

    def __init__(self, threshold: float | None = None):
        if threshold is None:
            threshold = SWITCH_THRESHOLD
        if not 0 < threshold < 1:
            raise InvalidValue("threshold must be in (0, 1)")
        self.threshold = threshold
        self.direction = "push"
        self._prev_density: float | None = None
        self.history: list[str] = []

    def choose(self, density: float) -> str:
        prev = self._prev_density
        if prev is None:
            self.direction = "push" if density <= self.threshold else "pull"
        elif prev <= self.threshold < density:
            self.direction = "pull"  # crossed above: switch to pull
        elif density <= self.threshold < prev:
            self.direction = "push"  # crossed below: switch to push
        # else: keep previous direction
        self._prev_density = density
        self.history.append(self.direction)
        return self.direction
