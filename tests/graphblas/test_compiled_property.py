"""Property-based parity: compiled kernels vs the dense spec reference.

Every example routes a Table-I workload through the differential engine,
which runs the optimized engine — so the JIT tier executes exactly the
kernel production dispatch picks (NumPy where the tier declines) — and
replays the result on the spec-literal dense mimic; any
pattern or value disagreement raises
:class:`~repro.graphblas.errors.BackendDivergence` and fails the test.

The sweep crosses all four storage formats with the four semirings the
tier compiles most often — ``PLUS_TIMES``, ``MIN_PLUS``, ``MAX_MIN``
over FP64/INT64 and ``LOR_LAND`` over BOOL — masked and unmasked, and
the edge shapes the generators are nudged toward: empty operands and
iso (single-valued) inputs.

The ``test_typed_*`` sweep covers the classes the section-V algorithms
issue: operand types drawn from {BOOL, INT64, FP64}², the semirings
``LOR_LAND``, ``MAX_SECOND``, ``MIN_SECOND``, ``PLUS_TIMES``,
``ANY_SECOND``, ``ANY_SECONDI`` and ``MIN_FIRSTI``, all four formats, no
mask / a valued mask / a complemented structural mask.  Each example runs
on the default backend with the toolchain on (it must run compiled) and
off (NumPy), and must be byte-equal to the ``reference`` backend; only
a NumPy float PLUS fold, whose tail ``reduceat`` adds pairwise, is held
to the summation error bound instead.

``TestOneFoldOrder`` pins the numerics contract on an RMAT hub graph
whose output entries fold hundreds of partial products: the default
``mxm`` is a strict ascending-k left fold (byte-equal to a Python
oracle), and the tiled kernels, the governed tiled route and
``mxv_tiled`` are byte-equal to the in-memory default — with the
compiled tier and, toolchain off, with NumPy on both sides — for float
PLUS folds, a mixed-type class and a keep-first ANY class.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.generators import rmat_graph
from repro.graphblas import Matrix, Vector, compiled, governor, tiled
from repro.graphblas import operations as ops
from repro.graphblas.backends.differential import DifferentialBackend
from repro.graphblas.descriptor import Descriptor
from repro.graphblas.semiring import semiring
from repro.graphblas.types import BOOL, FP64, INT64
from tests.helpers import kernel_tier

needs_tier = pytest.mark.skipif(
    not compiled.available(),
    reason="no compiled toolchain (numba or cc) available",
)

N = 7
FORMATS = ["csr", "csc", "hypercsr", "hypercsc"]
SEMIRINGS = [
    ("PLUS_TIMES", FP64),
    ("MIN_PLUS", FP64),
    ("MAX_MIN", INT64),
    ("LOR_LAND", BOOL),
]

coords = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1))


def _values(dtype):
    if dtype is BOOL:
        return st.booleans()
    if dtype is INT64:
        return st.integers(-20, 20)
    # -0.0 folds to 0.0: a signed zero would make MIN/MAX tie-breaks
    # differ between C's comparison and the reference's min()
    return st.floats(-8, 8, allow_nan=False,
                     allow_infinity=False).map(lambda v: v + 0.0)


@st.composite
def sparse_matrix(draw, dtype, fmt):
    # bias toward the edge shapes: empty and iso (one repeated value)
    shape = draw(st.sampled_from(["empty", "iso", "general", "general"]))
    if shape == "empty":
        entries = {}
    elif shape == "iso":
        keys = draw(st.lists(coords, max_size=20, unique=True))
        v = draw(_values(dtype))
        entries = {k: v for k in keys}
    else:
        entries = draw(st.dictionaries(coords, _values(dtype), max_size=25))
    if entries:
        r, c = map(np.asarray, zip(*entries))
        v = np.asarray(list(entries.values()), dtype=dtype.np_dtype)
    else:
        r = c = np.empty(0, dtype=np.int64)
        v = np.empty(0, dtype=dtype.np_dtype)
    A = Matrix.from_coo(r, c, v, nrows=N, ncols=N, dtype=dtype)
    A.set_format(fmt)
    return A


@st.composite
def sparse_vector(draw, dtype):
    entries = draw(
        st.dictionaries(st.integers(0, N - 1), _values(dtype), max_size=N))
    idx = np.asarray(sorted(entries), dtype=np.int64)
    vals = np.asarray([entries[i] for i in sorted(entries)],
                      dtype=dtype.np_dtype)
    return Vector.from_coo(idx, vals, size=N, dtype=dtype)


@st.composite
def maybe_mask_matrix(draw):
    if not draw(st.booleans()):
        return None
    keys = draw(st.lists(coords, min_size=1, max_size=25, unique=True))
    r, c = map(np.asarray, zip(*keys))
    v = np.ones(len(keys), dtype=np.bool_)
    return Matrix.from_coo(r, c, v, nrows=N, ncols=N, dtype=BOOL)


@st.composite
def maybe_mask_vector(draw):
    if not draw(st.booleans()):
        return None
    idx = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N,
                        unique=True))
    idx = np.asarray(sorted(idx), dtype=np.int64)
    return Vector.from_coo(idx, np.ones(idx.size, dtype=np.bool_),
                           size=N, dtype=BOOL)


def _fresh_backend():
    return DifferentialBackend()


@needs_tier
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("sr,dtype", SEMIRINGS, ids=lambda v: str(v))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mxm_matches_reference(fmt, sr, dtype, data):
    A = data.draw(sparse_matrix(dtype, fmt))
    B = data.draw(sparse_matrix(dtype, fmt))
    M = data.draw(maybe_mask_matrix())
    be = _fresh_backend()
    C = Matrix(dtype, N, N)
    ops.mxm(C, A, B, sr, mask=M, backend=be)  # divergence raises
    assert be.stats["verified"] == 1
    assert be.stats["divergences"] == 0


@needs_tier
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("sr,dtype", SEMIRINGS, ids=lambda v: str(v))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mxv_vxm_match_reference(fmt, sr, dtype, data):
    A = data.draw(sparse_matrix(dtype, fmt))
    u = data.draw(sparse_vector(dtype))
    m = data.draw(maybe_mask_vector())
    be = _fresh_backend()
    w = Vector(dtype, N)
    if data.draw(st.booleans()):
        ops.mxv(w, A, u, sr, mask=m, backend=be)
    else:
        ops.vxm(w, u, A, sr, mask=m, backend=be)
    assert be.stats["verified"] == 1
    assert be.stats["divergences"] == 0


@needs_tier
@pytest.mark.parametrize("sr,dtype", SEMIRINGS, ids=lambda v: str(v))
def test_empty_times_empty(sr, dtype):
    be = _fresh_backend()
    A = Matrix(dtype, N, N)
    B = Matrix(dtype, N, N)
    C = Matrix(dtype, N, N)
    ops.mxm(C, A, B, sr, backend=be)
    assert C.nvals == 0
    assert be.stats["divergences"] == 0


# --------------------------------------------------------------------------
# the section-V algorithms' own classes: typed operand slots, ANY, positional
# --------------------------------------------------------------------------

TYPES = [BOOL, INT64, FP64]
ALGORITHM_SEMIRINGS = ["LOR_LAND", "MAX_SECOND", "MIN_SECOND", "PLUS_TIMES",
                       "ANY_SECOND", "ANY_SECONDI", "MIN_FIRSTI"]
# no mask, a valued mask, a complemented structural mask
MASKS = {
    "none": None,
    "valued": Descriptor(),
    "complemented": Descriptor(complement_mask=True, structural_mask=True),
}


@st.composite
def valued_mask(draw, vector):
    """A BOOL mask whose stored values mix True and False."""
    if vector:
        keys = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N,
                             unique=True))
    else:
        keys = draw(st.lists(coords, min_size=1, max_size=25, unique=True))
    vals = np.asarray(draw(st.lists(st.booleans(), min_size=len(keys),
                                    max_size=len(keys))), dtype=np.bool_)
    if vector:
        order = np.argsort(keys)
        return Vector.from_coo(np.asarray(keys)[order], vals[order], size=N,
                               dtype=BOOL)
    r, c = map(np.asarray, zip(*keys))
    return Matrix.from_coo(r, c, vals, nrows=N, ncols=N, dtype=BOOL)


def _unsigned_zero(arrays):
    # a lone -0.0 product: NumPy's dot method reduces it with
    # np.add.reduce, which returns +0.0 (every other route keeps -0.0)
    return [a + 0.0 if a.dtype.kind == "f" else a for a in arrays]


def _magnitudes(X):
    """``X`` with every stored value replaced by its absolute value."""
    *keys, vals = X.extract_tuples()
    if isinstance(X, Matrix):
        return Matrix.from_coo(*keys, np.abs(vals), nrows=X.nrows,
                               ncols=X.ncols, dtype=X.dtype)
    return Vector.from_coo(*keys, np.abs(vals), size=X.size, dtype=X.dtype)


def _same_as_reference(run, want_kernel, sr):
    """Run ``run(backend)`` on the default backend and on ``reference``:
    byte-equal results (up to the sign of zero), and the default ran
    ``want_kernel``.

    One exception, float PLUS folds on the NumPy tier: ``reduceat`` adds
    a segment's tail pairwise where the reference folds left to right,
    so three or more terms may round differently.  Both orders lie within
    ``(n-1)·eps/2·Σ|terms|`` of the exact sum (n <= N terms), so they must
    agree to ``N·eps·Σ|terms|``; ``run(backend, magnitudes=True)`` yields
    ``Σ|terms|`` per entry.  The pattern and every other monoid stay
    byte-equal."""
    rep = obs.explain(run, None)
    assert rep.records[0]["kernel"] == want_kernel
    got = _unsigned_zero(rep.result.extract_tuples())
    want = _unsigned_zero(run("reference").extract_tuples())
    if want_kernel == "numpy" and sr.startswith("PLUS_") \
            and want[-1].dtype.kind == "f":
        _bytes_equal(got[:-1], want[:-1])
        assert got[-1].dtype == want[-1].dtype
        mag = run("reference", magnitudes=True).extract_tuples()[-1]
        bound = N * np.finfo(want[-1].dtype).eps * mag
        assert np.all(np.abs(got[-1] - want[-1]) <= bound)
    else:
        _bytes_equal(got, want)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kernel", ["compiled", "numpy"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_typed_mxm_matches_reference(kernel, fmt, data):
    sr = data.draw(st.sampled_from(ALGORITHM_SEMIRINGS))
    a_type, b_type = data.draw(st.sampled_from(TYPES)), \
        data.draw(st.sampled_from(TYPES))
    A = data.draw(sparse_matrix(a_type, fmt))
    B = data.draw(sparse_matrix(b_type, fmt))
    desc = MASKS[data.draw(st.sampled_from(sorted(MASKS)))]
    M = None if desc is None else data.draw(valued_mask(vector=False))
    out = semiring(sr).out_type(a_type, b_type)

    def run(backend, magnitudes=False):
        C = Matrix(out, N, N)
        X, Y = (_magnitudes(A), _magnitudes(B)) if magnitudes else (A, B)
        ops.mxm(C, X, Y, sr, mask=M, desc=desc, backend=backend)
        return C

    with kernel_tier(kernel):
        _same_as_reference(run, kernel, sr)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kernel", ["compiled", "numpy"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_typed_mxv_vxm_match_reference(kernel, fmt, data):
    sr = data.draw(st.sampled_from(ALGORITHM_SEMIRINGS))
    a_type, b_type = data.draw(st.sampled_from(TYPES)), \
        data.draw(st.sampled_from(TYPES))
    is_mxv = data.draw(st.booleans())
    A = data.draw(sparse_matrix(a_type if is_mxv else b_type, fmt))
    u = data.draw(sparse_vector(b_type if is_mxv else a_type))
    desc = MASKS[data.draw(st.sampled_from(sorted(MASKS)))]
    m = None if desc is None else data.draw(valued_mask(vector=True))
    method = data.draw(st.sampled_from(["push", "pull"]))
    out = semiring(sr).out_type(a_type, b_type)

    def run(backend, magnitudes=False):
        w = Vector(out, N)
        X, x = (_magnitudes(A), _magnitudes(u)) if magnitudes else (A, u)
        kw = {"mask": m, "desc": desc, "backend": backend, "method": method}
        if is_mxv:
            ops.mxv(w, X, x, sr, **kw)
        else:
            ops.vxm(w, x, X, sr, **kw)
        return w

    with kernel_tier(kernel):
        _same_as_reference(run, kernel, sr)


# --------------------------------------------------------------------------
# one fold order: in-memory, tiled and governed routes agree byte for byte
# --------------------------------------------------------------------------

def _bytes_equal(got, want) -> None:
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _left_fold_oracle(A: Matrix, B: Matrix, sr: str):
    """C = A*B (B on A's pattern) as strict ascending-k left folds of
    IEEE partial products, one Python float addition at a time; ANY keeps
    the first."""
    add, mult = sr.split("_")
    r, c, v = A.extract_tuples()  # row-major: row x is starts[x]:starts[x+1]
    w = B.extract_tuples()[2]
    starts = np.searchsorted(r, np.arange(A.nrows + 1))
    lens = starts[c + 1] - starts[c]  # each A(i,k) meets row k of B
    gather = np.concatenate([np.arange(starts[k], starts[k + 1]) for k in c])
    i, k, j = np.repeat(r, lens), np.repeat(c, lens), c[gather]
    prods = w[gather] if mult == "SECOND" else np.repeat(v, lens) * w[gather]
    order = np.lexsort((k, j, i))
    i, j, prods = i[order], j[order], prods[order]
    head = np.ones(i.size, dtype=bool)
    head[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
    seg = np.flatnonzero(head)
    out = np.empty(seg.size)
    bounds = np.append(seg, i.size).tolist()
    p = prods.astype(np.float64).tolist()
    for s in range(seg.size):
        acc = p[bounds[s]]
        for q in range(bounds[s] + 1, bounds[s + 1]):
            acc = acc if add == "ANY" else acc + p[q]
        out[s] = acc
    return i[seg], j[seg], out


@pytest.fixture(scope="module")
def hub_graph():
    """RMAT with hubs: A*A folds hundreds of partials into some entries."""
    G = rmat_graph(8, 16, seed=5)
    r, c, _ = G.A.extract_tuples()
    vals = np.random.default_rng(5).uniform(-1.0, 1.0, r.size)
    A = Matrix.from_coo(r, c, vals, nrows=G.A.nrows, ncols=G.A.ncols,
                        dtype=FP64)
    counts = Matrix(INT64, A.nrows, A.ncols)
    ops.mxm(counts, A, A, "PLUS_PAIR")
    assert counts.extract_tuples()[2].max() > 64  # segments >> 8 long
    return A


def _on_pattern(A, dtype, seed):
    """``A``'s pattern with values of ``dtype`` (BOOL: random truth)."""
    if dtype is FP64:
        return A
    r, c, _ = A.extract_tuples()
    vals = np.random.default_rng(seed).random(r.size) < 0.6
    return Matrix.from_coo(r, c, vals, nrows=A.nrows, ncols=A.ncols,
                           dtype=dtype)


@pytest.fixture(params=["auto", "off"])
def tier(request):
    """The default backend with the compiled tier (``auto``, skipped when
    no toolchain resolves) and without it (``off``: NumPy both sides)."""
    if request.param == "auto":
        compiled.reset()
        if not compiled.available():
            pytest.skip("no compiled toolchain (numba or cc) available")
    else:
        compiled.set_config(toolchain="off")
    yield request.param
    compiled.reset()


# (semiring, type of the second operand): float PLUS folds, a mixed-type
# class and a keep-first ANY class
@pytest.mark.parametrize("sr,b_type", [
    pytest.param("PLUS_TIMES", FP64, id="PLUS_TIMES"),
    pytest.param("PLUS_SECOND", FP64, id="PLUS_SECOND"),
    pytest.param("PLUS_TIMES", BOOL, id="PLUS_TIMES-FP64xBOOL"),
    pytest.param("ANY_SECOND", FP64, id="ANY_SECOND"),
])
class TestOneFoldOrder:
    def test_default_mxm_is_ascending_k_left_fold(self, hub_graph, tier, sr,
                                                  b_type):
        if tier == "off":
            pytest.skip("NumPy's reduceat may differ in the last ulp")
        A, B = hub_graph, _on_pattern(hub_graph, b_type, 6)
        C = Matrix(FP64, A.nrows, A.ncols)
        ops.mxm(C, A, B, sr)
        _bytes_equal(C.extract_tuples(), _left_fold_oracle(A, B, sr))

    def test_tiled_routes_match_in_memory(self, hub_graph, tier, sr, b_type,
                                          tmp_path):
        A, n = hub_graph, hub_graph.nrows
        B = _on_pattern(A, b_type, 6)
        want = Matrix(FP64, n, n)
        ops.mxm(want, A, B, sr)
        with tiled.SpillPool(budget=1 << 16, directory=tmp_path) as pool:
            A_t = tiled.TiledMatrix.from_matrix(A, 64, pool)
            B_t = A_t if B is A else tiled.TiledMatrix.from_matrix(B, 64, pool)
            got = tiled.mxm_tiled(A_t, B_t, sr).to_matrix()
        _bytes_equal(got.extract_tuples(), want.extract_tuples())
        governed = Matrix(FP64, n, n)
        with governor.ExecutionContext(memory_budget=1, spill_dir=tmp_path,
                                       spill_budget=1 << 16) as ctx:
            ops.mxm(governed, A, B, sr)
        assert ctx.stats["tiled"] == 1
        _bytes_equal(governed.extract_tuples(), want.extract_tuples())

    def test_mxv_tiled_matches_in_memory(self, hub_graph, tier, sr, b_type,
                                         tmp_path):
        A, n = hub_graph, hub_graph.nrows
        rng = np.random.default_rng(9)
        u = Vector.from_dense(rng.uniform(-1, 1, n) if b_type is FP64
                              else rng.random(n) < 0.6)
        for op in ("mxv", "vxm"):
            args = (A, u) if op == "mxv" else (u, A)
            out = semiring(sr).out_type(args[0].dtype, args[1].dtype)
            want = Vector(out, n)
            getattr(ops, op)(want, *args, sr)
            store = A.by_row() if op == "mxv" else A.by_col()
            with tiled.SpillPool(budget=1 << 16, directory=tmp_path) as pool:
                A_t = tiled.TiledMatrix.from_store(store, 64, pool,
                                                   dtype=A.dtype)
                got = tiled.mxv_tiled(A_t, u.to_dense(), u.pattern(), sr,
                                      out, matrix_first=op == "mxv")
            _bytes_equal(got, want.extract_tuples())
            governed = Vector(out, n)
            with governor.ExecutionContext(memory_budget=1,
                                           spill_dir=tmp_path,
                                           spill_budget=1 << 16) as ctx:
                getattr(ops, op)(governed, *args, sr)
            assert ctx.stats["tiled"] == 1
            _bytes_equal(governed.extract_tuples(), want.extract_tuples())
