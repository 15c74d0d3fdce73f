"""The private scipy loops the library calls equal scipy's public products.

``optim`` scatters gradients through ``csc_matvecs``, ``backbone`` propagates
through ``csr_matvecs`` and ``csc_matvecs`` into reused arrays, and ``graph``
builds similarity co-counts through ``csr_matmat`` and transposes the train
structure through ``csr_tocsc``; none is public scipy API.  A scipy that
renames one of them, or changes what it computes, fails here."""

import numpy as np
import pytest
import scipy.sparse as sp

from crossfuse.backbone import _csr_matvecs
from crossfuse.graph import _csr_matmat, _csr_tocsc
from crossfuse.optim import _csc_matvecs


def _random(shape, fmt, seed):
    return sp.random(*shape, density=0.4, format=fmt, random_state=seed)


@pytest.mark.parametrize("idx", [np.int32, np.int64])
@pytest.mark.parametrize("routine", ["csc_matvecs", "csr_matvecs", "csr_matmat", "csr_tocsc"])
def test_private_scipy_loop_equals_public_product(routine, idx):
    if routine.endswith("_matvecs"):
        A = _random((9, 13), routine[:3], 0)
        X = np.random.default_rng(1).standard_normal((13, 4))
        Y = np.zeros((9, 4))
        loop = _csc_matvecs if routine == "csc_matvecs" else _csr_matvecs
        loop(9, 13, 4, A.indptr.astype(idx), A.indices.astype(idx), A.data, X, Y)
        assert np.array_equal(Y, A @ X)
        return

    if routine == "csr_tocsc":
        A = _random((9, 13), "csr", 2)
        want = A.tocsc()
        indptr, indices, data = np.empty(14, idx), np.empty(A.nnz, idx), np.empty(A.nnz)
        _csr_tocsc(9, 13, A.indptr.astype(idx), A.indices.astype(idx), A.data,
                   indptr, indices, data)
        assert np.array_equal(indptr, want.indptr)
        assert np.array_equal(indices, want.indices)
        assert np.array_equal(data, want.data)
        return

    A, B = _random((9, 13), "csr", 2), _random((13, 11), "csr", 3)
    want = A @ B
    # an oversized buffer: the loop writes its nnz entries and nothing past them
    cap = 9 * 11 + 5
    indptr, indices, data = np.empty(10, idx), np.full(cap, -1, idx), np.full(cap, np.nan)
    _csr_matmat(9, 11, A.indptr.astype(idx), A.indices.astype(idx), A.data,
                B.indptr.astype(idx), B.indices.astype(idx), B.data, indptr, indices, data)
    nnz = indptr[-1]
    assert want.nnz and nnz == want.nnz
    assert np.array_equal(indptr, want.indptr)
    assert np.array_equal(indices[:nnz], want.indices)
    assert np.array_equal(data[:nnz], want.data)
    assert np.all(indices[nnz:] == -1) and np.all(np.isnan(data[nnz:]))
