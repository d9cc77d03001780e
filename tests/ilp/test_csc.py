"""The door's own CSC (``highs_backend.CSC``) holds the entries, in the
order, that scipy.sparse gives: ``csc_array`` of a dense matrix, and
``kron(identity(k), a)`` for the pruning LPs' block diagonal."""

import numpy as np
import pytest
from scipy import sparse

from repro.ilp.highs_backend import CSC


def _matrices():
    rng = np.random.default_rng(0)
    for _ in range(200):
        rows, cols = rng.integers(0, 9, size=2)
        a = rng.integers(-3, 4, size=(rows, cols)) * (rng.random((rows, cols)) < 0.4)
        if rows > 1:
            a[rng.integers(rows)] = 0  # an empty row
        if cols > 1:
            a[:, rng.integers(cols)] = 0  # an empty column
        yield a if rng.random() < 0.5 else a.astype(float) / 2


def _arrays(csc):
    return csc.indptr, csc.indices, csc.data


def test_csc_of_a_dense_matrix_is_scipys():
    for a in _matrices():
        ours, theirs = CSC.of(a), sparse.csc_array(a)
        assert ours.rows == a.shape[0]
        assert ours.indptr.dtype == ours.indices.dtype == np.int32
        assert ours.data.dtype == np.float64
        for mine, scipys in zip(_arrays(ours), _arrays(theirs)):
            np.testing.assert_array_equal(mine, scipys)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_block_diagonal_is_scipys_kron(k):
    for a in _matrices():
        ours = CSC.of(a).block_diagonal(k)
        theirs = sparse.kron(sparse.identity(k), a, format="csc")
        assert ours.rows == theirs.shape[0]
        assert len(ours.indptr) == theirs.shape[1] + 1
        for mine, scipys in zip(_arrays(ours), _arrays(theirs)):
            np.testing.assert_array_equal(mine, scipys)
