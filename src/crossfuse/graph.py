"""Sparse graph construction and storage.

Builds the user-item interaction matrix, the symmetrically normalized
bipartite adjacency (edge weight 1/sqrt(d_u * d_i)), and the thresholded
user-user / item-item similarity graphs, and reads and writes them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import store
from .data import TRAIN, DataError, InteractionDataset

log = logging.getLogger(__name__)

# Bound on one row block's co-count product in the similarity build (a
# float64 value and an int32 column per entry), counted as if every entry of
# the block were stored.  The block's scaling adds at most one float64 array
# of the same length.
_BLOCK_BYTES = 8 << 20


def interaction_matrix(ds: InteractionDataset, *, binarize: bool = False) -> sp.csr_matrix:
    """n x m rating matrix R over the train split (values 1 when ``binarize``)."""
    idx = ds.split_indices(TRAIN)
    vals = np.ones(len(idx)) if binarize else ds.ratings[idx]
    mat = sp.coo_matrix((vals, (ds.users[idx], ds.items[idx])), shape=(ds.n, ds.m))
    out = mat.tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def isolated_nodes(R: sp.spmatrix, axis: str = "rows") -> np.ndarray:
    """Indices of rows (or columns) with no stored interaction."""
    R = R.tocsr() if axis == "rows" else R.T.tocsr()
    counts = np.diff(R.indptr)
    return np.flatnonzero(counts == 0)


def check_similarity(epsilon: float, variant: str, key: str = "epsilon") -> None:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"{key} must lie in [0, 1], got {epsilon}")
    if variant not in ("cosine", "printed"):
        raise ValueError(f"unknown similarity variant {variant!r}")


@dataclass
class GraphConfig:
    """Similarity thresholds and variant of the user-user and item-item graphs."""

    epsilon_user: float = 0.3
    epsilon_item: float = 0.3
    similarity: str = "cosine"

    def validate(self) -> None:
        for key in ("epsilon_user", "epsilon_item"):
            check_similarity(getattr(self, key), self.similarity, key)


def build_similarity_graph(R: sp.spmatrix, axis: str = "rows", epsilon: float = 0.3,
                           variant: str = "cosine") -> sp.csr_matrix:
    """Thresholded similarity graph over R's rows (users) or columns (items).

    Off-diagonal entry (u, v) is the similarity between the binarized
    interaction vectors when it reaches ``epsilon``, else absent; the diagonal
    is exactly 1 for every node, including zero-interaction nodes which keep
    only the self-loop (logged).  The ``printed`` variant divides co-counts by
    the product of squared norms instead of the standard cosine denominator.
    """
    check_similarity(epsilon, variant)
    if axis not in ("rows", "columns"):
        raise ValueError("axis must be 'rows' or 'columns'")

    B = R.tocsr() if axis == "rows" else R.T.tocsr()
    B = B.astype(bool).astype(np.float64)
    size = B.shape[0]

    deg = np.asarray(B.sum(axis=1)).ravel()
    lonely = np.flatnonzero(deg == 0)
    if len(lonely):
        log.warning("similarity graph (%s): %d nodes with no interactions keep only a self-loop",
                    axis, len(lonely))

    norms = np.sqrt(deg)
    power = 1.0 if variant == "cosine" else 2.0
    inv = np.zeros(size)
    active = deg > 0
    inv[active] = 1.0 / norms[active] ** power

    # Upper-triangle edges, one row block at a time: block [lo, hi) meets only
    # the nodes after lo, and each co-count c is scaled as (inv[r] * c) *
    # inv[col], the order of D @ C @ D, so every kept value has the bits the
    # whole product gives it.
    BT = B.T.tocsr()
    step = max(1, _BLOCK_BYTES // (12 * max(size, 1)))
    rs, cs, vs = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        C = B[lo:hi] @ BT[:, lo + 1:]
        C.data *= np.repeat(inv[lo:hi], np.diff(C.indptr))
        C.data *= inv[lo + 1:][C.indices]
        at = np.flatnonzero(C.data >= epsilon)
        r = np.searchsorted(C.indptr, at, side="right") - 1 + lo
        c = C.indices[at] + (lo + 1)
        upper = c > r
        rs.append(r[upper])
        cs.append(c[upper])
        vs.append(np.minimum(C.data[at[upper]], 1.0))
    r, c, v = np.concatenate(rs), np.concatenate(cs), np.concatenate(vs)

    rows = np.concatenate([r, c, np.arange(size)])
    cols = np.concatenate([c, r, np.arange(size)])
    vals = np.concatenate([v, v, np.ones(size)])
    out = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    out.sort_indices()
    return out


def normalize_bipartite(ds: InteractionDataset) -> sp.csr_matrix:
    """Symmetric (n+m) x (n+m) adjacency with edge weights 1/sqrt(d_u * d_i).

    Users occupy rows [0, n), items rows [n, n+m).  No self-loops; isolated
    nodes keep empty rows (logged, permitted).
    """
    tr = ds.split_indices(TRAIN)
    u = ds.users[tr]
    i = ds.items[tr]
    du = np.bincount(u, minlength=ds.n)
    di = np.bincount(i, minlength=ds.m)

    idle = int((du == 0).sum() + (di == 0).sum())
    if idle:
        log.warning("normalized adjacency: %d isolated nodes have empty rows", idle)

    w = 1.0 / np.sqrt(du[u].astype(np.float64) * di[i].astype(np.float64))
    size = ds.n + ds.m
    rows = np.concatenate([u, ds.n + i])
    cols = np.concatenate([ds.n + i, u])
    vals = np.concatenate([w, w])
    out = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    out.sort_indices()
    return out


def check_csr(mat: sp.csr_matrix) -> None:
    """Assert the storage contract: sorted unique column indices per row, no
    stored zeros, finite values."""
    if not sp.issparse(mat) or mat.format != "csr":
        raise ValueError("expected a CSR matrix")
    if not np.all(np.isfinite(mat.data)):
        raise ValueError("matrix stores non-finite values")
    if np.any(mat.data == 0):
        raise ValueError("matrix stores explicit zeros")
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    bad = np.flatnonzero((rows[1:] == rows[:-1]) & (np.diff(mat.indices) <= 0))
    if len(bad):
        raise ValueError(f"row {rows[bad[0]]} has unsorted or duplicate column indices")


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------

def save_graph(path: str | Path, mat: sp.csr_matrix) -> None:
    """Write a CSR matrix as a :mod:`store` file: meta ``{"kind": "graph",
    "shape": [rows, cols]}`` and the arrays ``indptr`` and ``indices``
    (int64) and ``data`` (float64)."""
    mat = mat.tocsr()
    mat.sort_indices()
    store.save(path, store.ArrayFile(
        {"kind": "graph", "shape": list(mat.shape)},
        {"indptr": mat.indptr.astype(np.int64), "indices": mat.indices.astype(np.int64),
         "data": mat.data.astype(np.float64, copy=False)}))


def load_graph(path: str | Path) -> sp.csr_matrix:
    """Read a graph that ``save_graph`` wrote.  A file ``store.load`` rejects
    or that holds no graph, arrays that do not fit the shape, row offsets
    that do not run from 0 to nnz without decreasing, a column index outside
    the shape, or a matrix failing ``check_csr`` is a :class:`DataError`."""
    try:
        doc = store.load(path, "graph")
    except DataError as exc:
        raise DataError(f"{exc}; re-run `crossfuse prepare`") from exc
    shape = doc.meta.get("shape")
    if (doc.meta.get("kind") != "graph" or sorted(doc.arrays) != ["data", "indices", "indptr"]
            or not isinstance(shape, list) or len(shape) != 2
            or not all(type(s) is int and s >= 0 for s in shape)):
        raise DataError(f"{path}: not a graph file; re-run `crossfuse prepare`")
    rows, cols = shape
    indptr, indices, values = doc.arrays["indptr"], doc.arrays["indices"], doc.arrays["data"]
    if (indptr.shape != (rows + 1,) or indices.ndim != 1 or values.shape != indices.shape
            or (indptr.dtype, indices.dtype, values.dtype) != (np.int64, np.int64, np.float64)):
        raise DataError(f"{path}: graph arrays do not fit a {rows}x{cols} matrix")
    nnz = len(indices)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise DataError(f"{path}: row offsets do not run from 0 to {nnz} without decreasing")
    if nnz and (indices.min() < 0 or indices.max() >= cols):
        raise DataError(f"{path}: a column index lies outside [0, {cols})")
    mat = sp.csr_matrix((values, indices, indptr), shape=(rows, cols))
    try:
        check_csr(mat)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return mat
