"""Oracle helpers shared across the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.graphblas import Matrix, Vector, compiled


@contextlib.contextmanager
def kernel_tier(kernel: str):
    """Run the block on the ``compiled`` kernels (the resolved toolchain;
    skips the test without one) or on the ``numpy`` kernels (toolchain
    off)."""
    if kernel == "numpy":
        with compiled.toolchain_off():
            yield
        return
    compiled.reset()
    if not compiled.available():
        pytest.skip("no compiled toolchain available")
    yield


def random_matrix_np(rng, m, n, density=0.35, dtype=np.float64, low=1, high=9):
    """A random sparse matrix plus its dense-numpy twin (0 = absent)."""
    mask = rng.random((m, n)) < density
    if np.issubdtype(np.dtype(dtype), np.integer):
        dense = rng.integers(low, high + 1, (m, n)).astype(dtype)
    elif np.dtype(dtype) == np.bool_:
        dense = np.ones((m, n), dtype=bool)
    else:
        dense = rng.uniform(low, high, (m, n)).astype(dtype)
    dense = np.where(mask, dense, 0)
    r, c = np.nonzero(mask)
    A = Matrix.from_coo(r, c, dense[mask], nrows=m, ncols=n, dtype=dtype)
    return A, dense, mask


def random_vector_np(rng, n, density=0.4, dtype=np.float64):
    mask = rng.random(n) < density
    if np.issubdtype(np.dtype(dtype), np.integer):
        dense = rng.integers(1, 10, n).astype(dtype)
    elif np.dtype(dtype) == np.bool_:
        dense = np.ones(n, dtype=bool)
    else:
        dense = rng.uniform(1, 9, n).astype(dtype)
    dense = np.where(mask, dense, 0)
    (idx,) = np.nonzero(mask)
    v = Vector.from_coo(idx, dense[mask], size=n, dtype=dtype)
    return v, dense, mask


def assert_matrix_equals_dense(A: Matrix, dense: np.ndarray, mask: np.ndarray):
    """Value-and-pattern equality of a sparse matrix vs (dense, mask)."""
    assert np.array_equal(A.pattern(), mask), "pattern mismatch"
    got = A.to_dense()
    assert np.allclose(
        np.where(mask, got, 0), np.where(mask, dense, 0)
    ), "value mismatch"
