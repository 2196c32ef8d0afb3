"""The spec's output-write step: ``C<M> (+)= T`` with replace.

Every GraphBLAS operation ends identically (C API section 2.5): the
operation's intermediate result ``T`` is merged into the output ``C``
through the optional accumulator, and the (optionally complemented,
optionally structural) mask plus the REPLACE descriptor decide which
positions of ``C`` survive.  Implementing this *once* and funnelling every
operation through it is what makes the mask/accum algebra consistent across
the whole API — and it is where conformance tests hammer hardest.

The merge rules:

* no accum:  ``Z = T``;
* accum ⊕:   ``Z(i,j) = C(i,j) ⊕ T(i,j)`` where both exist, else whichever
  exists;

then

* ``C_out(i,j) = Z(i,j)``  where the mask admits (i,j) and Z has an entry;
* ``C_out(i,j) = C(i,j)``  where the mask rejects (i,j), REPLACE is off, and
  C has an entry;
* absent otherwise.
"""

from __future__ import annotations

import numpy as np

from .coords import coords_in, idx_in, match_coo, match_idx
from .descriptor import Descriptor
from .errors import DimensionMismatch, DomainMismatch
from .matrix import Matrix
from .ops import BinaryOp
from .types import BOOL
from .vector import Vector

__all__ = ["write_matrix", "write_vector", "mask_true_coords", "mask_true_idx"]

_INDEX = np.int64


def mask_true_coords(mask: Matrix | None, desc: Descriptor):
    """The mask's admitted coordinate set (before complementing), or None.

    With a *structural* mask every stored entry admits; otherwise only
    entries whose value casts to True.
    """
    if mask is None:
        return None
    mr, mc, mv = mask.extract_tuples()
    if not desc.structural_mask:
        keep = BOOL.cast_array(mv)
        mr, mc = mr[keep], mc[keep]
    return mr, mc


def mask_true_idx(mask: Vector | None, desc: Descriptor):
    if mask is None:
        return None
    mi, mv = mask.extract_tuples()
    if not desc.structural_mask:
        keep = BOOL.cast_array(mv)
        mi = mi[keep]
    return mi


def write_matrix(
    C: Matrix,
    T_rows: np.ndarray,
    T_cols: np.ndarray,
    T_vals: np.ndarray,
    mask: Matrix | None = None,
    accum: BinaryOp | None = None,
    desc: Descriptor = Descriptor(),
    sorted_unique: bool = False,
) -> Matrix:
    """Merge an operation result ``T`` (COO form) into ``C`` in place.

    ``sorted_unique`` — caller asserts ``T`` is row-major sorted with no
    duplicate coordinates; lets a ``C = T`` overwrite, masked with
    REPLACE or not masked at all, skip the rebuild's sort/dedup pass.
    Ignored whenever an accumulator or a kept-C merge could disturb the
    ordering.
    """
    if mask is not None and mask.shape != C.shape:
        raise DimensionMismatch(
            f"mask shape {mask.shape} != output shape {C.shape}"
        )
    if accum is not None and accum.positional:
        raise DomainMismatch("positional ops cannot be accumulators")
    T_rows = np.asarray(T_rows, dtype=_INDEX)
    T_cols = np.asarray(T_cols, dtype=_INDEX)
    T_vals = np.asarray(T_vals)

    if accum is None:
        zr, zc, zv = T_rows, T_cols, C.dtype.cast_array(T_vals)
    else:
        cr, cc, cv = C.extract_tuples()
        ia, ib, only_c, only_t = match_coo(cr, cc, T_rows, T_cols)
        both = accum.apply(cv[ia], T_vals[ib], C.dtype)
        zr = np.concatenate([cr[ia], cr[only_c], T_rows[only_t]])
        zc = np.concatenate([cc[ia], cc[only_c], T_cols[only_t]])
        zv = np.concatenate(
            [both, cv[only_c], C.dtype.cast_array(T_vals[only_t])]
        )

    mt = mask_true_coords(mask, desc)
    if mt is None:
        out_r, out_c, out_v = zr, zc, zv
    else:
        mr, mc = mt
        admit_z = coords_in(zr, zc, mr, mc)
        if desc.complement_mask:
            admit_z = ~admit_z
        out_r, out_c, out_v = zr[admit_z], zc[admit_z], zv[admit_z]
        if not desc.replace:
            cr, cc, cv = C.extract_tuples()
            in_mask = coords_in(cr, cc, mr, mc)
            if desc.complement_mask:
                in_mask = ~in_mask
            keep = ~in_mask  # C entries outside the (effective) mask survive
            if np.any(keep):
                out_r = np.concatenate([out_r, cr[keep]])
                out_c = np.concatenate([out_c, cc[keep]])
                out_v = np.concatenate([out_v, cv[keep]])

    replaced = Matrix(C.dtype, C.nrows, C.ncols)
    replaced.build(
        out_r,
        out_c,
        out_v,
        dup=None,
        # the hint survives the paths that leave T's ordering intact: no
        # accum merge, and no mask or a REPLACE one (filtering a sorted
        # list keeps it sorted; only the keep-C concat breaks the order)
        assume_sorted_unique=(sorted_unique and accum is None
                              and (mt is None or desc.replace)),
    )
    # adopt the rebuilt store in place, preserving C's format preference
    fmt = C.format
    C._store = replaced._store
    C._pend_i, C._pend_j = [], []
    C._pend_v, C._pend_del = [], []
    C._alt = None
    if fmt != C.format:
        C.set_format(fmt)
    return C


def write_vector(
    w: Vector,
    T_idx: np.ndarray,
    T_vals: np.ndarray,
    mask: Vector | None = None,
    accum: BinaryOp | None = None,
    desc: Descriptor = Descriptor(),
) -> Vector:
    """Merge an operation result ``t`` (sparse 1-D form) into ``w`` in place.

    ``T_idx`` must be sorted and duplicate-free.
    """
    if mask is not None and mask.size != w.size:
        raise DimensionMismatch(f"mask size {mask.size} != output size {w.size}")
    if accum is not None and accum.positional:
        raise DomainMismatch("positional ops cannot be accumulators")
    T_idx = np.asarray(T_idx, dtype=_INDEX)
    T_vals = np.asarray(T_vals)

    if accum is None:
        zi, zv = T_idx, w.dtype.cast_array(T_vals)
    else:
        wi, wv = w.extract_tuples()
        ia, ib, only_w, only_t = match_idx(wi, T_idx)
        both = accum.apply(wv[ia], T_vals[ib], w.dtype)
        zi = np.concatenate([wi[ia], wi[only_w], T_idx[only_t]])
        zv = np.concatenate([both, wv[only_w], w.dtype.cast_array(T_vals[only_t])])
        order = np.argsort(zi, kind="stable")
        zi, zv = zi[order], zv[order]

    mt = mask_true_idx(mask, desc)
    if mt is not None:
        admit_z = idx_in(zi, mt)
        if desc.complement_mask:
            admit_z = ~admit_z
        out_i, out_v = zi[admit_z], zv[admit_z]
        if not desc.replace:
            wi, wv = w.extract_tuples()
            in_mask = idx_in(wi, mt)
            if desc.complement_mask:
                in_mask = ~in_mask
            keep = ~in_mask
            if np.any(keep):
                out_i = np.concatenate([out_i, wi[keep]])
                out_v = np.concatenate([out_v, wv[keep]])
    else:
        out_i, out_v = zi, zv

    replaced = Vector(w.dtype, w.size)
    replaced.build(out_i, out_v, dup=None)
    w.indices = replaced.indices
    w.values = replaced.values
    w._pend_i, w._pend_v, w._pend_del = [], [], []
    return w
