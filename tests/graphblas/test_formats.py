"""Storage formats: CSR/CSC/hypersparse conversions and memory accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphblas import FP64, INT64, Matrix
from repro.graphblas.errors import InvalidObject, InvalidValue
from repro.graphblas.formats import Orientation, SparseStore, group_starts, reduce_by_segments
from repro.graphblas.ops import binary


def make_store(rows, cols, vals, nr, nc, orientation=Orientation.ROW, hyper=False):
    major = rows if orientation is Orientation.ROW else cols
    minor = cols if orientation is Orientation.ROW else rows
    n_major = nr if orientation is Orientation.ROW else nc
    n_minor = nc if orientation is Orientation.ROW else nr
    return SparseStore.from_coo(
        orientation,
        n_major,
        n_minor,
        np.asarray(major, dtype=np.int64),
        np.asarray(minor, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
        FP64,
        hyper=hyper,
    )


class TestFromCoo:
    def test_basic_csr(self):
        s = make_store([0, 0, 2], [1, 3, 0], [1.0, 2.0, 3.0], 3, 4)
        s.check_valid()
        assert s.nvals == 3
        assert s.indptr.tolist() == [0, 2, 2, 3]

    def test_unsorted_input_is_sorted(self):
        s = make_store([2, 0, 0], [0, 3, 1], [3.0, 2.0, 1.0], 3, 4)
        major, minor, vals = s.to_coo()
        assert major.tolist() == [0, 0, 2]
        assert minor.tolist() == [1, 3, 0]
        assert vals.tolist() == [1.0, 2.0, 3.0]

    def test_duplicates_folded_with_dup(self):
        s = SparseStore.from_coo(
            Orientation.ROW, 2, 2,
            np.array([0, 0, 0]), np.array([1, 1, 1]), np.array([1.0, 2.0, 3.0]),
            FP64, dup=binary("PLUS"),
        )
        assert s.nvals == 1 and s.values[0] == 6.0

    def test_duplicates_without_dup_raise(self):
        with pytest.raises(InvalidValue):
            SparseStore.from_coo(
                Orientation.ROW, 2, 2,
                np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]),
                FP64, dup=None,
            )

    def test_dup_order_matters_for_nonreorderable_op(self):
        # spec: duplicates fold in sequence order; MINUS is order-sensitive
        s = SparseStore.from_coo(
            Orientation.ROW, 1, 1,
            np.array([0, 0, 0]), np.array([0, 0, 0]), np.array([10.0, 3.0, 2.0]),
            FP64, dup=binary("MINUS"),
        )
        assert s.values[0] == 5.0  # (10 - 3) - 2


class TestHyper:
    def test_hyper_memory_is_o_of_e(self):
        """Paper II.A: hypersparse needs O(e), CSR needs O(n + e)."""
        n = 1_000_000
        s_full = make_store([5], [5], [1.0], n, n)
        s_hyper = s_full.to_hyper()
        assert s_full.nbytes > 8 * n  # pointer array dominates
        assert s_hyper.nbytes < 200
        assert s_hyper.nvals == s_full.nvals == 1

    def test_hyper_roundtrip(self):
        s = make_store([0, 5, 5, 9], [1, 0, 3, 9], [1, 2, 3, 4.0], 10, 10)
        h = s.to_hyper()
        h.check_valid()
        assert h.h.tolist() == [0, 5, 9]
        back = h.to_full_pointer()
        back.check_valid()
        assert np.array_equal(back.indptr, s.indptr)
        assert np.array_equal(back.minor, s.minor)

    def test_major_ranges_hyper_vs_full(self):
        s = make_store([0, 5, 5, 9], [1, 0, 3, 9], [1, 2, 3, 4.0], 10, 10)
        h = s.to_hyper()
        q = np.array([0, 1, 5, 9])
        fs, fe = s.major_ranges(q)
        hs, he = h.major_ranges(q)
        assert (fe - fs).tolist() == (he - hs).tolist() == [1, 0, 2, 1]

    def test_empty_hyper(self):
        s = SparseStore.empty(Orientation.ROW, 100, 100, FP64, hyper=True)
        s.check_valid()
        assert s.nvals == 0 and s.nvec == 0


class TestConversions:
    def test_orientation_flip_preserves_entries(self):
        s = make_store([0, 0, 2, 1], [1, 3, 0, 2], [1, 2, 3, 4.0], 3, 4)
        f = s.with_orientation(Orientation.COL)
        f.check_valid()
        assert f.orientation is Orientation.COL
        assert f.n_major == 4 and f.n_minor == 3
        # flip back and compare coordinate sets
        major, minor, vals = f.to_coo()
        pairs = sorted(zip(minor.tolist(), major.tolist(), vals.tolist()))
        orig_major, orig_minor, orig_vals = s.to_coo()
        orig = sorted(
            zip(orig_major.tolist(), orig_minor.tolist(), orig_vals.tolist())
        )
        assert pairs == orig

    def test_transposed_is_o1_view(self):
        s = make_store([0, 1], [1, 2], [1.0, 2.0], 3, 3)
        t = s.transposed()
        assert t.orientation is Orientation.COL
        assert t.minor is s.minor  # no copy

    def test_vector_counts(self):
        s = make_store([0, 0, 2], [1, 3, 0], [1, 2, 3.0], 4, 4)
        assert s.vector_counts().tolist() == [2, 0, 1, 0]
        assert s.to_hyper().vector_counts().tolist() == [2, 0, 1, 0]


class TestValidation:
    def test_corrupt_indptr_detected(self):
        s = make_store([0], [1], [1.0], 2, 2)
        s.indptr = np.array([0, 5, 1], dtype=np.int64)
        with pytest.raises(InvalidObject):
            s.check_valid()

    def test_out_of_range_minor_detected(self):
        s = make_store([0], [1], [1.0], 2, 2)
        s.minor = np.array([7], dtype=np.int64)
        with pytest.raises(InvalidObject):
            s.check_valid()


class TestHelpers:
    def test_group_starts(self):
        assert group_starts(np.array([1, 1, 2, 5, 5, 5])).tolist() == [0, 2, 3]
        assert group_starts(np.array([], dtype=np.int64)).tolist() == []

    def test_reduce_by_segments_binop(self):
        out = reduce_by_segments(
            binary("PLUS"), np.array([1.0, 2.0, 3.0]), np.array([0, 2]), FP64
        )
        assert out.tolist() == [3.0, 3.0]

    def test_reduce_by_segments_nonufunc_left_fold_order(self):
        # MINUS has no numpy ufunc here and is non-associative: the fold
        # must run strictly left-to-right within each segment.
        vals = np.array([10, 3, 2, 7, 100, 30, 5, 1], dtype=np.int64)
        starts = np.array([0, 3, 4])
        out = reduce_by_segments(binary("MINUS"), vals, starts, INT64)
        assert out.tolist() == [(10 - 3) - 2, 7, ((100 - 30) - 5) - 1]
        assert out.dtype == np.int64
        # RMINUS(x, y) = y - x distinguishes argument order as well
        out = reduce_by_segments(binary("RMINUS"), vals, starts, INT64)
        assert out.tolist() == [2 - (3 - 10), 7, 1 - (5 - (30 - 100))]

    def test_reduce_by_segments_nonufunc_ragged_segments(self):
        # segment lengths 1 and 4: short segments must stop folding early
        vals = np.array([9.0, 64.0, 2.0, 2.0, 2.0])
        out = reduce_by_segments(binary("DIV"), vals, np.array([0, 1]), FP64)
        assert out.tolist() == [9.0, 8.0]
        empty = reduce_by_segments(
            binary("MINUS"),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            INT64,
        )
        assert empty.size == 0 and empty.dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 7), st.integers(0, 7), st.floats(-5, 5, allow_nan=False)
        ),
        max_size=40,
    ),
    st.booleans(),
)
def test_property_coo_roundtrip(entries, hyper):
    """from_coo -> to_coo is the identity on deduplicated sorted entries."""
    seen = {}
    for r, c, v in entries:
        seen[(r, c)] = v
    if seen:
        rows, cols = map(np.asarray, zip(*sorted(seen)))
        vals = np.asarray([seen[k] for k in sorted(seen)])
    else:
        rows = cols = np.empty(0, dtype=np.int64)
        vals = np.empty(0)
    s = SparseStore.from_coo(
        Orientation.ROW, 8, 8, rows, cols, vals, FP64, hyper=hyper
    )
    s.check_valid()
    major, minor, got = s.to_coo()
    assert major.tolist() == list(rows)
    assert minor.tolist() == list(cols)
    assert got.tolist() == list(vals)
    assert s.nbytes == s.indptr.nbytes + s.minor.nbytes + s.values.nbytes + (
        s.h.nbytes if hyper else 0
    )


class TestSortedHint:
    """Matrix select/apply hand ``write_matrix`` the sorted-unique hint
    when they read a store in its own orientation; the store that comes
    out must be the one a full sort would have built."""

    @staticmethod
    def _random(fmt):
        rng = np.random.default_rng(5)
        r = rng.integers(0, 30, 200)
        c = rng.integers(0, 30, 200)
        A = Matrix.from_coo(r, c, rng.uniform(-1, 1, 200), nrows=30, ncols=30,
                            dup="FIRST")
        return A.set_format(fmt)

    @staticmethod
    def _same_store(C):
        r, c, v = C.extract_tuples()
        ref = Matrix.from_coo(r, c, v, nrows=C.nrows, ncols=C.ncols,
                              dtype=C.dtype)
        a, b = C._store, ref._store
        assert (a.orientation, a.hyper) == (b.orientation, b.hyper)
        for f in ("indptr", "minor", "values"):
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f))
        a.check_valid()

    @pytest.mark.parametrize("fmt", ["csr", "csc", "hypercsr"])
    @pytest.mark.parametrize("desc", [None, "T0"])
    def test_select_apply_match_from_coo(self, fmt, desc, monkeypatch):
        from repro.graphblas import operations as ops

        hints = []
        build = Matrix.build

        def spy(self, *a, assume_sorted_unique=False, **kw):
            hints.append(assume_sorted_unique)
            return build(self, *a, assume_sorted_unique=assume_sorted_unique, **kw)

        A = self._random(fmt)
        sel, app = Matrix(FP64, 30, 30), Matrix(FP64, 30, 30)
        monkeypatch.setattr(Matrix, "build", spy)
        ops.select(sel, A, "VALUEGT", 0.0, desc=desc)
        ops.apply(app, A, "AINV", desc=desc)
        monkeypatch.undo()
        # the hint is given exactly when the read was row-major already
        expect = (fmt != "csc") == (desc is None)
        assert hints == [expect, expect]
        self._same_store(sel)
        self._same_store(app)
