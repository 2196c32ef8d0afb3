"""The sparse production engine, behind the :class:`KernelBackend` protocol.

This is the kernel half of what used to be the monolithic
``operations.py``: CSR/CSC/hypersparse SpGEMM with masked Gustavson/dot
selection, push/pull direction-optimized mxv, vectorized eWise merges via
sorted-coordinate matching, and segment-folded reductions.  ``mxm``,
``mxv`` and ``vxm`` run the compiled kernels whenever
:func:`repro.graphblas.compiled.select` returns a kernel set for the
plan, and the NumPy kernels otherwise.  ``plan.chosen`` records which
tier ran, and the SpGEMM method or push/pull direction.
Every method consumes a resolved :class:`~repro.graphblas.plan.OpPlan`
and finishes through the shared accum-then-mask write step in
:mod:`repro.graphblas.mask`.
"""

from __future__ import annotations

import importlib

import numpy as np

# the package re-exports the ``mxv`` *function*, shadowing the submodule
# attribute — fetch the module itself so monkeypatched thresholds are seen
_mxv_mod = importlib.import_module(".mxv", __package__.rsplit(".", 1)[0])

from .. import compiled, engine, governor, telemetry
from ..coords import coords_in, idx_in, match_coo, match_idx
from ..descriptor import Descriptor
from ..formats import Orientation
from ..mask import mask_true_coords, mask_true_idx, write_matrix, write_vector
from ..matrix import Matrix
from ..mxm import _gather_ranges, mxm_coo, pick_method
from ..mxv import spmspv_push, spmv_pull
from ..types import BOOL
from ..vector import Vector
from . import KernelBackend

_INDEX = np.int64


def _matrix_coo(A: Matrix, transposed: bool):
    rows, cols, vals = A.extract_tuples()
    if transposed:
        rows, cols = cols, rows
    return rows, cols, vals


def _coo_sorted(A: Matrix, transposed: bool) -> bool:
    """Whether ``_matrix_coo(A, transposed)`` came out row-major sorted
    and unique: the store read in its own orientation (a ROW store as
    is, a COL store transposed)."""
    return (A._store.orientation is Orientation.ROW) != transposed


def _expand_selection(sel: np.ndarray, entry_ids: np.ndarray):
    """Map original indices through a (possibly duplicated) selection list.

    Returns (entry_positions, output_indices): for every occurrence of
    ``entry_ids[p]`` in ``sel``, one pair (p, position-in-sel).
    """
    order = np.argsort(sel, kind="stable")
    sorted_sel = sel[order]
    lo = np.searchsorted(sorted_sel, entry_ids, "left")
    hi = np.searchsorted(sorted_sel, entry_ids, "right")
    reps = hi - lo
    gather = _gather_ranges(lo, hi)
    out_pos = order[gather]
    entry_sel = np.repeat(np.arange(entry_ids.size, dtype=_INDEX), reps)
    return entry_sel, out_pos.astype(_INDEX)


def _position_map(sel: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Map original indices to their position in unique ``sel`` (-1 if absent)."""
    if sel.size == 0 or ids.size == 0:
        return np.full(ids.size, -1, dtype=_INDEX)
    order = np.argsort(sel, kind="stable")
    sorted_sel = sel[order]
    pos = np.searchsorted(sorted_sel, ids)
    pos_c = np.minimum(pos, sel.size - 1)
    hit = sorted_sel[pos_c] == ids
    out = np.full(ids.size, -1, dtype=_INDEX)
    out[hit] = order[pos_c[hit]]
    return out


def _region_z(C: Matrix, mapped, region_rows, region_cols, accum):
    """Assemble Z for assign: region-replacement or accum-union with C."""
    mr, mc, mv = mapped
    cr, cc, cv = C.extract_tuples()
    if accum is None:
        in_region = np.isin(cr, region_rows) & np.isin(cc, region_cols)
        keep = ~in_region
        zr = np.concatenate([cr[keep], mr])
        zc = np.concatenate([cc[keep], mc])
        zv = np.concatenate([cv[keep], C.dtype.cast_array(mv)])
        return zr, zc, zv
    ia, ib, oc, om = match_coo(cr, cc, mr, mc)
    both = accum.apply(cv[ia], mv[ib], C.dtype)
    zr = np.concatenate([cr[ia], cr[oc], mr[om]])
    zc = np.concatenate([cc[ia], cc[oc], mc[om]])
    zv = np.concatenate([both, cv[oc], C.dtype.cast_array(mv[om])])
    return zr, zc, zv


class OptimizedBackend(KernelBackend):
    """The default sparse engine."""

    name = "optimized"

    # -- mxm / mxv / vxm ----------------------------------------------------

    def mxm(self, plan):
        A, B = plan.args
        C, d, sr = plan.out, plan.desc, plan.operator
        a_rows = A.by_col().transposed() if d.transpose_a else A.by_row()
        mask_hint = None
        if plan.mask is not None and not d.complement_mask:
            mask_hint = mask_true_coords(plan.mask, d)
        kernels = compiled.select(plan)
        method = plan.chosen["method"] = pick_method(
            plan.params["method"], sr, mask_hint is not None, False, kernels)
        # build only the view of B the method reads: its columns for dot
        # (free for a transposed B), its rows otherwise
        if method == "dot":
            b = B.by_row().transposed() if d.transpose_b else B.by_col()
        else:
            b = B.by_col().transposed() if d.transpose_b else B.by_row()
        tr, tc, tv = mxm_coo(
            a_rows,
            b,
            sr,
            plan.out_type,
            method=method,
            mask_coords=mask_hint,
            mask_complement=False,
            nthreads=d.nthreads,
            kernels=kernels,
        )
        return write_matrix(
            C,
            tr,
            tc,
            tv,
            mask=plan.mask,
            accum=plan.accum,
            desc=d,
            # mxm_coo's output is sorted-unique on every path, so the
            # rebuild may trust it and skip its sort pass
            sorted_unique=True,
        )

    def _matvec(self, plan):
        p = plan.params
        is_mxv = p["is_mxv"]
        A, u = plan.args if is_mxv else (plan.args[1], plan.args[0])
        w, d, sr = plan.out, plan.desc, plan.operator
        transposed = p["transposed"]
        method = _mxv_mod.choose_direction(
            p["method"], u, p["optimizer"], plan.chosen)

        # direction boundary: poll before the push/pull kernel runs
        governor.poll()
        kernels = compiled.select(plan)
        if method == "push":
            store = A.by_row() if transposed else A.by_col()
            u_idx, u_vals = u.extract_tuples()
            ti, tv = spmspv_push(
                store, u_idx, u_vals, sr, plan.out_type, matrix_first=is_mxv,
                kernels=kernels,
            )
        else:
            store = A.by_col().transposed() if transposed else A.by_row()
            # only the rows the mask admits are computed: its true set,
            # or with a complemented mask everything else (BFS's pull
            # skips the visited set); write_vector still applies the mask
            hint = mask_true_idx(plan.mask, d)
            if hint is not None and d.complement_mask:
                admitted = np.ones(store.n_major, dtype=bool)
                admitted[hint] = False
                hint = np.flatnonzero(admitted)
            ti, tv = spmv_pull(
                store,
                u.to_dense(),
                u.pattern(),
                sr,
                plan.out_type,
                matrix_first=is_mxv,
                outer_hint=hint,
                nthreads=d.nthreads,
                kernels=kernels,
            )
        return write_vector(w, ti, tv, mask=plan.mask, accum=plan.accum, desc=d)

    mxv = _matvec
    vxm = _matvec

    # -- element-wise -------------------------------------------------------

    def ewise_add(self, plan):
        A, B = plan.args
        C, d, op, out_type = plan.out, plan.desc, plan.operator, plan.out_type
        if plan.params["is_vector"]:
            ai, av = A.extract_tuples()
            bi, bv = B.extract_tuples()
            ia, ib, oa, ob = match_idx(ai, bi)
            both = op.apply(av[ia], bv[ib], out_type)
            ti = np.concatenate([ai[ia], ai[oa], bi[ob]])
            tv = np.concatenate(
                [both, out_type.cast_array(av[oa]), out_type.cast_array(bv[ob])]
            )
            order = np.argsort(ti, kind="stable")
            return write_vector(
                C, ti[order], tv[order], mask=plan.mask, accum=plan.accum, desc=d
            )
        ar, ac, av = _matrix_coo(A, d.transpose_a)
        br, bc, bv = _matrix_coo(B, d.transpose_b)
        ia, ib, oa, ob = match_coo(ar, ac, br, bc)
        both = op.apply(av[ia], bv[ib], out_type)
        tr = np.concatenate([ar[ia], ar[oa], br[ob]])
        tc = np.concatenate([ac[ia], ac[oa], bc[ob]])
        tv = np.concatenate(
            [both, out_type.cast_array(av[oa]), out_type.cast_array(bv[ob])]
        )
        return write_matrix(C, tr, tc, tv, mask=plan.mask, accum=plan.accum, desc=d)

    def ewise_mult(self, plan):
        A, B = plan.args
        C, d, op, out_type = plan.out, plan.desc, plan.operator, plan.out_type
        if plan.params["is_vector"]:
            ai, av = A.extract_tuples()
            bi, bv = B.extract_tuples()
            ia, ib, _, _ = match_idx(ai, bi)
            tv = op.apply(av[ia], bv[ib], out_type)
            return write_vector(
                C, ai[ia], tv, mask=plan.mask, accum=plan.accum, desc=d
            )
        ar, ac, av = _matrix_coo(A, d.transpose_a)
        br, bc, bv = _matrix_coo(B, d.transpose_b)
        ia, ib, _, _ = match_coo(ar, ac, br, bc)
        tv = op.apply(av[ia], bv[ib], out_type)
        return write_matrix(
            C, ar[ia], ac[ia], tv, mask=plan.mask, accum=plan.accum, desc=d
        )

    # -- apply / select -----------------------------------------------------

    def apply(self, plan):
        (A,) = plan.args
        C, d, p, out_type = plan.out, plan.desc, plan.params, plan.out_type
        if p["is_vector"]:
            ti, tv_in = A.extract_tuples()
            rows, cols = ti, np.zeros_like(ti)
        else:
            rows, cols, tv_in = _matrix_coo(A, d.transpose_a)

        kind = p["kind"]
        if kind == "indexunary":
            iu = plan.operator
            thunk = p["thunk"] if p["thunk"] is not None else 0
            tv = out_type.cast_array(iu.apply(tv_in, rows, cols, thunk))
        elif kind == "bind1st":
            left = np.asarray(p["left"])
            tv = plan.operator.apply(
                np.broadcast_to(left, tv_in.shape), tv_in, out_type
            )
        elif kind == "bind2nd":
            right = np.asarray(p["right"])
            tv = plan.operator.apply(
                tv_in, np.broadcast_to(right, tv_in.shape), out_type
            )
        else:
            tv = plan.operator.apply(tv_in, out_type)

        if p["is_vector"]:
            return write_vector(C, rows, tv, mask=plan.mask, accum=plan.accum, desc=d)
        return write_matrix(
            C, rows, cols, tv, mask=plan.mask, accum=plan.accum, desc=d,
            sorted_unique=_coo_sorted(A, d.transpose_a),
        )

    def select(self, plan):
        (A,) = plan.args
        C, d, iu, thunk = plan.out, plan.desc, plan.operator, plan.params["thunk"]
        if plan.params["is_vector"]:
            ti, tv = A.extract_tuples()
            keep = BOOL.cast_array(iu.apply(tv, ti, np.zeros_like(ti), thunk))
            return write_vector(
                C, ti[keep], tv[keep], mask=plan.mask, accum=plan.accum, desc=d
            )
        rows, cols, vals = _matrix_coo(A, d.transpose_a)
        keep = BOOL.cast_array(iu.apply(vals, rows, cols, thunk))
        return write_matrix(
            C, rows[keep], cols[keep], vals[keep],
            mask=plan.mask, accum=plan.accum, desc=d,
            sorted_unique=_coo_sorted(A, d.transpose_a),
        )

    # -- reduce -------------------------------------------------------------

    def reduce_rowwise(self, plan):
        (A,) = plan.args
        w, d, mon = plan.out, plan.desc, plan.operator
        store = A.by_col() if d.transpose_a else A.by_row()
        counts = np.diff(store.indptr)
        nonempty = counts > 0
        ids = store.h if store.hyper else np.arange(store.n_major, dtype=_INDEX)
        ti = ids[nonempty]
        starts = store.indptr[:-1][nonempty]
        tv = mon.reduce_segments(store.values, starts, A.dtype)
        return write_vector(w, ti, tv, mask=plan.mask, accum=plan.accum, desc=d)

    def reduce_scalar(self, plan):
        (A,) = plan.args
        mon = plan.operator
        if isinstance(A, Vector):
            _, vals = A.extract_tuples()
        else:
            _, _, vals = A.extract_tuples()
        dtype = A.dtype
        out = mon.reduce_array(vals, dtype)
        accum, init = plan.accum, plan.params["init"]
        if accum is not None and init is not None:
            out = accum.apply(np.asarray(init), np.asarray(out), dtype)
            out = out.item() if dtype.builtin else out
        return out

    # -- transpose / extract ------------------------------------------------

    def transpose(self, plan):
        (A,) = plan.args
        C = plan.out
        if (
            engine.DUAL_FORMAT
            and plan.params["transposed"]
            and plan.mask is None
            and plan.accum is None
            and C is not A
            and C.dtype == A.dtype
        ):
            A.wait()
            store = A._store
            if store.hyper == C._store.hyper:
                # Both orientations of A^T are O(1) views: the primary store
                # transposed, and the (cached or newly built) twin transposed.
                # Install the one matching C's current orientation as C's
                # store; the other becomes C's twin, so a later pull-phase
                # mxv on C converts nothing.
                twin = A._oriented(store.orientation.flipped)
                t_primary = store.transposed()
                t_twin = twin.transposed()
                if t_primary.orientation == C._store.orientation:
                    new_store, new_alt = t_primary, t_twin
                else:
                    new_store, new_alt = t_twin, t_primary
                C._store = new_store
                C._alt = new_alt
                C._pend_i, C._pend_j, C._pend_v, C._pend_del = [], [], [], []
                C._epoch += 1
                C._alt_epoch = C._epoch
                if telemetry.ENABLED:
                    telemetry.decision(
                        "engine.transpose",
                        fast_path=True,
                        nvals=int(store.nvals),
                    )
                return C
        rows, cols, vals = _matrix_coo(A, plan.params["transposed"])
        return write_matrix(
            C, rows, cols, vals,
            mask=plan.mask, accum=plan.accum, desc=plan.desc,
        )

    def extract(self, plan):
        (A,) = plan.args
        C, d, p = plan.out, plan.desc, plan.params
        kind = p["kind"]
        if kind == "vector":
            ai, av = A.extract_tuples()
            entry_sel, out_pos = _expand_selection(p["I"], ai)
            ti, tv = out_pos, av[entry_sel]
            order = np.argsort(ti, kind="stable")
            return write_vector(
                C, ti[order], tv[order], mask=plan.mask, accum=plan.accum, desc=d
            )
        if kind == "col":
            rows, cols, vals = _matrix_coo(A, d.transpose_a)
            in_col = cols == p["j"]
            entry_sel, out_pos = _expand_selection(p["I"], rows[in_col])
            tv = vals[in_col][entry_sel]
            order = np.argsort(out_pos, kind="stable")
            return write_vector(
                C, out_pos[order], tv[order], mask=plan.mask, accum=plan.accum, desc=d
            )
        rows, cols, vals = _matrix_coo(A, d.transpose_a)
        r_sel, r_out = _expand_selection(p["I"], rows)
        cols2, vals2 = cols[r_sel], vals[r_sel]
        c_sel, c_out = _expand_selection(p["J"], cols2)
        return write_matrix(
            C, r_out[c_sel], c_out, vals2[c_sel],
            mask=plan.mask, accum=plan.accum, desc=d,
        )

    # -- assign / subassign -------------------------------------------------

    def assign(self, plan):
        (A,) = plan.args
        C, d, p, mask, accum = plan.out, plan.desc, plan.params, plan.mask, plan.accum

        if p.get("masked_fill"):
            if isinstance(C, Vector):
                mi = mask_true_idx(mask, d)
                ci, cv = C.extract_tuples()
                keep = ~idx_in(ci, mi)
                zi = np.concatenate([ci[keep], mi])
                zv = np.concatenate(
                    [cv[keep],
                     C.dtype.cast_array(np.broadcast_to(np.asarray(A), mi.shape))]
                )
                order = np.argsort(zi, kind="stable")
                return write_vector(
                    C, zi[order], zv[order], mask=None, accum=None, desc=d
                )
            mr, mc = mask_true_coords(mask, d)
            cr, cc, cv = C.extract_tuples()
            keep = ~coords_in(cr, cc, mr, mc)
            zr = np.concatenate([cr[keep], mr])
            zc = np.concatenate([cc[keep], mc])
            zv = np.concatenate(
                [cv[keep],
                 C.dtype.cast_array(np.broadcast_to(np.asarray(A), mr.shape))]
            )
            return write_matrix(C, zr, zc, zv, mask=None, accum=None, desc=d)

        if isinstance(C, Vector):
            I_res = p["I"]
            if isinstance(A, Vector):
                ai, av = A.extract_tuples()
                mi, mv = I_res[ai], av
            else:  # scalar fill
                mi, mv = I_res, np.broadcast_to(np.asarray(A), I_res.shape)
            ci, cv = C.extract_tuples()
            if accum is None:
                keep = ~np.isin(ci, I_res)
                zi = np.concatenate([ci[keep], mi])
                zv = np.concatenate([cv[keep], C.dtype.cast_array(mv)])
            else:
                order = np.argsort(mi, kind="stable")
                mi, mv = mi[order], np.asarray(mv)[order]
                ia, ib, oc, om = match_idx(ci, mi)
                both = accum.apply(cv[ia], mv[ib], C.dtype)
                zi = np.concatenate([ci[ia], ci[oc], mi[om]])
                zv = np.concatenate([both, cv[oc], C.dtype.cast_array(mv[om])])
            order = np.argsort(zi, kind="stable")
            return write_vector(C, zi[order], zv[order], mask=mask, accum=None, desc=d)

        I_res, J_res = p["I"], p["J"]
        if isinstance(A, Matrix):
            ar, ac, av = _matrix_coo(A, d.transpose_a)
            mapped = (I_res[ar], J_res[ac], av)
        elif isinstance(A, Vector):
            # row/column assign: C(i, J) = u or C(I, j) = u
            ai, av = A.extract_tuples()
            if I_res.size == 1 and A.size == J_res.size:
                mapped = (np.full(ai.size, I_res[0], dtype=_INDEX), J_res[ai], av)
            else:
                mapped = (I_res[ai], np.full(ai.size, J_res[0], dtype=_INDEX), av)
        else:  # scalar fill of the whole region
            grid_r = np.repeat(I_res, J_res.size)
            grid_c = np.tile(J_res, I_res.size)
            mapped = (grid_r, grid_c, np.broadcast_to(np.asarray(A), grid_r.shape))

        zr, zc, zv = _region_z(C, mapped, I_res, J_res, accum)
        return write_matrix(C, zr, zc, zv, mask=mask, accum=None, desc=d)

    def subassign(self, plan):
        (A,) = plan.args
        C, d, p, mask, accum = plan.out, plan.desc, plan.params, plan.mask, plan.accum

        if isinstance(C, Vector):
            I_res = p["I"]
            # region view of C, in region coordinates
            order = np.argsort(I_res, kind="stable")
            ci, cv = C.extract_tuples()
            pos = np.searchsorted(I_res[order], ci)
            pos_c = np.minimum(pos, I_res.size - 1)
            inside = (
                (I_res[order][pos_c] == ci) if I_res.size else np.zeros(ci.size, bool)
            )
            region = Vector(C.dtype, max(int(I_res.size), 1))
            reg_idx = order[pos_c[inside]]
            rorder = np.argsort(reg_idx, kind="stable")
            region.build(reg_idx[rorder], cv[inside][rorder], dup=None)
            # the operand in region coordinates
            if isinstance(A, Vector):
                ti, tv = A.extract_tuples()
            else:
                ti = np.arange(I_res.size, dtype=_INDEX)
                tv = np.broadcast_to(np.asarray(A), ti.shape)
            write_vector(region, ti, tv, mask=mask, accum=accum, desc=d)
            # splice the region back
            ri, rv = region.extract_tuples()
            zi = np.concatenate([ci[~inside], I_res[ri]])
            zv = np.concatenate([cv[~inside], rv])
            zorder = np.argsort(zi, kind="stable")
            return write_vector(
                C, zi[zorder], zv[zorder], mask=None, accum=None, desc=Descriptor()
            )

        I_res, J_res = p["I"], p["J"]
        cr, cc, cv = C.extract_tuples()
        rmap = _position_map(I_res, cr)
        cmap = _position_map(J_res, cc)
        inside = (rmap >= 0) & (cmap >= 0)
        region = Matrix(C.dtype, max(int(I_res.size), 1), max(int(J_res.size), 1))
        region.build(rmap[inside], cmap[inside], cv[inside], dup=None)

        if isinstance(A, Matrix):
            tr, tc, tv = _matrix_coo(A, d.transpose_a)
        elif isinstance(A, Vector):
            ai, av = A.extract_tuples()
            if I_res.size == 1 and A.size == J_res.size:
                tr, tc, tv = np.zeros(ai.size, dtype=_INDEX), ai, av
            else:
                tr, tc, tv = ai, np.zeros(ai.size, dtype=_INDEX), av
        else:
            tr = np.repeat(np.arange(I_res.size, dtype=_INDEX), J_res.size)
            tc = np.tile(np.arange(J_res.size, dtype=_INDEX), I_res.size)
            tv = np.broadcast_to(np.asarray(A), tr.shape)
        write_matrix(region, tr, tc, tv, mask=mask, accum=accum, desc=d)

        rr, rc, rv = region.extract_tuples()
        zr = np.concatenate([cr[~inside], I_res[rr]])
        zc = np.concatenate([cc[~inside], J_res[rc]])
        zv = np.concatenate([cv[~inside], rv])
        return write_matrix(C, zr, zc, zv, mask=None, accum=None, desc=Descriptor())

    # -- kronecker ----------------------------------------------------------

    def kronecker(self, plan):
        A, B = plan.args
        C, d, bop, out_type = plan.out, plan.desc, plan.operator, plan.out_type
        nrb, ncb = (B.ncols, B.nrows) if d.transpose_b else (B.nrows, B.ncols)
        ar, ac, av = _matrix_coo(A, d.transpose_a)
        br, bc, bv = _matrix_coo(B, d.transpose_b)
        tr = (np.repeat(ar, br.size) * nrb + np.tile(br, ar.size)).astype(_INDEX)
        tc = (np.repeat(ac, bc.size) * ncb + np.tile(bc, ac.size)).astype(_INDEX)
        tv = bop.apply(np.repeat(av, bv.size), np.tile(bv, av.size), out_type)
        return write_matrix(C, tr, tc, tv, mask=plan.mask, accum=plan.accum, desc=d)
