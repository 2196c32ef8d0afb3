"""Vectorized sorted-coordinate set algebra.

Every GraphBLAS operation ultimately manipulates sets of (row, col) entry
coordinates: eWiseMult is set intersection, eWiseAdd is set union, masking
is membership selection, accumulation is a value-merging union.  This module
implements those primitives on COO arrays with NumPy merges.

Within each input the coordinate pairs must be unique (GraphBLAS objects
never hold duplicates once assembled); matches across two inputs are then
exactly the adjacent duplicates after a stable sort of the concatenation.
The sort runs on one int64 key ``r * width + c`` per coordinate; two
inputs that are each already sorted form two presorted runs, which the
stable (run-merging) argsort combines in linear time.  Coordinates from
hypersparse matrices so large that the key would overflow fall back to a
lexsort of the index pair, with the same result and order.
"""

from __future__ import annotations

import numpy as np

from .formats import _composite_key

__all__ = ["match_coo", "match_idx", "coords_in", "idx_in"]

_INDEX = np.int64


def match_coo(
    ra: np.ndarray,
    ca: np.ndarray,
    rb: np.ndarray,
    cb: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Match two duplicate-free coordinate lists.

    Returns ``(ia, ib, only_a, only_b)``:

    * ``ia``/``ib`` — positions in A and B of the common coordinates, paired
      and ordered by coordinate;
    * ``only_a``/``only_b`` — positions of coordinates present on one side
      only, ordered by coordinate.
    """
    na, nb = ra.size, rb.size
    if na == 0 or nb == 0:
        empty = np.empty(0, dtype=_INDEX)
        return empty, empty, _coord_order(ra, ca), _coord_order(rb, cb)
    r = np.concatenate([ra, rb])
    c = np.concatenate([ca, cb])
    key = _coord_key(r, c)
    if key is None:
        order = np.lexsort((c, r))  # stable: A entries precede matching B entries
        rs, cs = r[order], c[order]
        dup = (rs[1:] == rs[:-1]) & (cs[1:] == cs[:-1])
    else:
        order = np.argsort(key, kind="stable")
        ks = key[order]
        dup = ks[1:] == ks[:-1]
    ia = order[:-1][dup]  # the A side of each matched pair
    ib = order[1:][dup] - na  # the B side
    matched = np.zeros(na + nb, dtype=bool)
    matched[ia] = True
    matched[ib + na] = True
    lone = order[~matched[order]]
    only_a = lone[lone < na]
    only_b = lone[lone >= na] - na
    return ia.astype(_INDEX), ib.astype(_INDEX), only_a.astype(_INDEX), only_b.astype(_INDEX)


def _coord_key(r: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """``r * width + c`` (``width`` = largest column + 1) as one int64 key
    ordered like (r, c), or None when it could overflow int64."""
    return _composite_key(r, c, int(r.max()) + 1, int(c.max()) + 1)


def _coord_order(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    if r.size == 0:
        return np.empty(0, dtype=_INDEX)
    key = _coord_key(r, c)
    if key is None:
        return np.lexsort((c, r)).astype(_INDEX)
    return np.argsort(key, kind="stable").astype(_INDEX)


def match_idx(
    ia_idx: np.ndarray, ib_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """1-D (vector) analogue of :func:`match_coo` on sorted-unique indices."""
    na, nb = ia_idx.size, ib_idx.size
    if na == 0 or nb == 0:
        empty = np.empty(0, dtype=_INDEX)
        return (
            empty,
            empty,
            np.arange(na, dtype=_INDEX),
            np.arange(nb, dtype=_INDEX),
        )
    # both inputs sorted: intersect with searchsorted
    pos = np.searchsorted(ib_idx, ia_idx)
    pos_c = np.minimum(pos, nb - 1)
    hit = ib_idx[pos_c] == ia_idx
    ia = np.flatnonzero(hit).astype(_INDEX)
    ib = pos[hit].astype(_INDEX)
    only_a = np.flatnonzero(~hit).astype(_INDEX)
    in_b = np.zeros(nb, dtype=bool)
    in_b[ib] = True
    only_b = np.flatnonzero(~in_b).astype(_INDEX)
    return ia, ib, only_a, only_b


def coords_in(
    r: np.ndarray,
    c: np.ndarray,
    qr: np.ndarray,
    qc: np.ndarray,
) -> np.ndarray:
    """Boolean mask: which (r, c) pairs appear in the (qr, qc) set."""
    ia, _, _, _ = match_coo(r, c, qr, qc)
    out = np.zeros(r.size, dtype=bool)
    out[ia] = True
    return out


def idx_in(i: np.ndarray, qi: np.ndarray) -> np.ndarray:
    """Boolean mask: which sorted-unique indices appear in sorted ``qi``."""
    if i.size == 0 or qi.size == 0:
        return np.zeros(i.size, dtype=bool)
    pos = np.minimum(np.searchsorted(qi, i), qi.size - 1)
    return qi[pos] == i
