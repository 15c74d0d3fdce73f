import struct
import zlib

import numpy as np
import pytest
import scipy.sparse as sp

from crossfuse.data import InteractionDataset
from crossfuse.synthetic import random_dataset


@pytest.fixture
def tiny_dataset() -> InteractionDataset:
    """6 users x 8 items, every user and item covered, all train."""
    users = [0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5]
    items = [0, 1, 2, 1, 3, 2, 4, 5, 6, 0, 7, 3, 5, 7]
    return InteractionDataset(
        n=6, m=8,
        users=np.array(users), items=np.array(items),
        ratings=np.ones(len(users)),
        split=np.zeros(len(users), dtype=np.int8),
    )


def old_graph_bytes(indptr, indices, values, shape) -> bytes:
    """A graph file in the retired CFGB layout (version 2): magic, version,
    rows, cols and nnz, the little-endian offsets, indices and values, then a
    CRC32."""
    body = (b"CFGB" + struct.pack("<I", 2)
            + struct.pack("<QQQ", shape[0], shape[1], len(indices))
            + np.asarray(indptr, "<i8").tobytes() + np.asarray(indices, "<i8").tobytes()
            + np.asarray(values, "<f8").tobytes())
    return body + struct.pack("<I", zlib.crc32(body))


def make_random_dataset(seed: int, n: int = 8, m: int = 12,
                        lo: int = 2, hi: int = 5) -> InteractionDataset:
    return random_dataset(np.random.default_rng(seed), n, m, lo, hi)


def with_explicit_ratings(ds: InteractionDataset) -> InteractionDataset:
    """The same interactions and split, rated 1 to 5."""
    ratings = np.random.default_rng(0).integers(1, 6, size=len(ds)).astype(np.float64)
    return InteractionDataset(ds.n, ds.m, ds.users, ds.items, ratings, ds.split)


def unsorted_rows(mat: sp.csr_matrix) -> sp.csr_matrix:
    """``mat`` with each row's entries stored in descending column order."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    order = np.lexsort((-mat.indices, rows))
    out = sp.csr_matrix((mat.data[order], mat.indices[order], mat.indptr), shape=mat.shape)
    assert not out.has_sorted_indices
    return out


def one_sided_zero(mat: sp.csr_matrix) -> sp.csr_matrix:
    """``mat`` plus an explicit zero at row 0's first unstored off-diagonal column."""
    col = np.setdiff1d(np.arange(1, mat.shape[1]), mat.indices[:mat.indptr[1]])[0]
    coo = mat.tocoo()
    return sp.csr_matrix((np.append(coo.data, 0.0), (np.append(coo.row, 0),
                                                      np.append(coo.col, col))), shape=mat.shape)


def split_truth(ds: InteractionDataset, tag: int) -> dict[int, set[int]]:
    """Each user's items in one split as a set, keyed by user in ascending
    order: the mapping form of ``ds.split_csr(tag)`` that
    ``evaluate.ranking_metrics`` takes."""
    indptr, indices = ds.split_csr(tag)
    return {u: set(indices[indptr[u]:indptr[u + 1]].tolist())
            for u in np.flatnonzero(np.diff(indptr)).tolist()}
