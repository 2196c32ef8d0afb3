"""Property tests for the coordinate matcher behind eWise, masks and assign.

``coords.match_coo`` sorts one int64 key ``r * width + c`` and falls back
to a lexsort of the index pair when that key would overflow.  Both must
return exactly what a plain lexsort of the concatenation returns —
matched pairs and one-sided positions, in coordinate order — whether the
inputs arrive sorted or not, empty or not, small or near 2**62.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphblas import Matrix, coords
from repro.graphblas import operations as ops
from repro.graphblas.descriptor import Descriptor

# a small pool makes matches between the two sides likely
_small = st.tuples(st.integers(0, 6), st.integers(0, 6))
# near 2**62 the composite key overflows int64: the lexsort fallback runs
_huge = st.tuples(st.integers(2**62 - 4, 2**62), st.integers(0, 2**62))


def _side(pair):
    return st.lists(pair, unique=True, max_size=24)


def _sides():
    return st.one_of(
        st.tuples(_side(_small), _side(_small)),
        st.tuples(_side(st.one_of(_small, _huge)),
                  _side(st.one_of(_small, _huge))),
    )


def _arrays(coords_list, sort):
    if sort:
        coords_list = sorted(coords_list)
    r = np.array([p[0] for p in coords_list], dtype=np.int64)
    c = np.array([p[1] for p in coords_list], dtype=np.int64)
    return r, c


def _reference(ra, ca, rb, cb):
    """The lexsort formulation, kept here as the oracle."""
    na = ra.size
    r = np.concatenate([ra, rb])
    c = np.concatenate([ca, cb])
    order = np.lexsort((c, r))
    rs, cs = r[order], c[order]
    dup = (rs[1:] == rs[:-1]) & (cs[1:] == cs[:-1])
    ia = order[:-1][dup]
    ib = order[1:][dup] - na
    matched = np.zeros(r.size, dtype=bool)
    matched[ia] = True
    matched[ib + na] = True
    lone = order[~matched[order]]
    return ia, ib, lone[lone < na], lone[lone >= na] - na


@settings(max_examples=300, deadline=None)
@given(_sides(), st.booleans(), st.booleans())
def test_match_coo_equals_lexsort_reference(sides, sort_a, sort_b):
    ra, ca = _arrays(sides[0], sort_a)
    rb, cb = _arrays(sides[1], sort_b)
    got = coords.match_coo(ra, ca, rb, cb)
    want = _reference(ra, ca, rb, cb)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


@settings(max_examples=200, deadline=None)
@given(_sides(), st.booleans(), st.booleans())
def test_coords_in_is_membership(sides, sort_a, sort_b):
    r, c = _arrays(sides[0], sort_a)
    qr, qc = _arrays(sides[1], sort_b)
    q = set(zip(qr.tolist(), qc.tolist()))
    want = np.array([p in q for p in zip(r.tolist(), c.tolist())], dtype=bool)
    np.testing.assert_array_equal(coords.coords_in(r, c, qr, qc), want)


def test_masked_replace_mxm_store_equals_from_coo():
    """A masked REPLACE write keeps the product's sorted hint: the store it
    builds is the one ``from_coo`` builds from the same tuples."""
    rng = np.random.default_rng(3)
    n = 40
    A = Matrix.from_coo(rng.integers(0, n, 300), rng.integers(0, n, 300),
                        1.0, nrows=n, ncols=n, dup="SECOND")
    M = Matrix.from_coo(rng.integers(0, n, 200), rng.integers(0, n, 200),
                        1.0, nrows=n, ncols=n, dup="SECOND")
    for method in ("dot", "gustavson"):
        C = Matrix("FP64", n, n)
        ops.mxm(C, A, A, "PLUS_TIMES", mask=M, method=method,
                desc=Descriptor(replace=True, structural_mask=True))
        r, c, v = C.extract_tuples()
        ref = Matrix.from_coo(r, c, v, nrows=n, ncols=n, dtype="FP64")
        got, want = C._store, ref._store
        assert (got.orientation, got.hyper) == (want.orientation, want.hyper)
        for name in ("indptr", "minor", "values"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
        if got.hyper:
            np.testing.assert_array_equal(got.h, want.h)
        got.check_valid()
