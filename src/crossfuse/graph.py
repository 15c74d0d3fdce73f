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
# the numeric loop of scipy's own CSR product; not public scipy API
from scipy.sparse._sparsetools import csr_matmat as _csr_matmat

from . import store
from .data import TRAIN, DataError, InteractionDataset

log = logging.getLogger(__name__)

# Bound on one row block's co-counts in the similarity build (a float64 value
# and an int32 column per entry), counted as if every entry of the block were
# stored.  The build's one product buffer has exactly that size, so the
# product loop, which checks no capacity, can never write past it.  The
# block's scaling adds at most one float64 array of the same length.
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
    R = R.tocsr()
    counts = (np.diff(R.indptr) if axis == "rows"
              else np.bincount(R.indices, minlength=R.shape[1]))
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

    # R binarized; ``astype`` sums duplicates and sorts, so both R and its
    # transpose come out in canonical CSR form
    Rb = R.tocsr().astype(bool).astype(np.float64)
    B, BT = (Rb, Rb.T.tocsr()) if axis == "rows" else (Rb.T.tocsr(), Rb)
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
    # whole product gives it.  The co-counts come from the numeric pass of
    # scipy's product alone, into one buffer sized for the widest block as if
    # it were dense.  Its left operand is the block's rows of B, a view of
    # B's row offsets (the loop reads them only pairwise), with item j
    # renumbered 2j + 1.  Its right operand is B.T with item j's row split at
    # lo: row 2j holds the nodes up to lo, row 2j + 1 those after it, and
    # only the split moves from block to block.
    items = B.shape[1]
    step = max(1, _BLOCK_BYTES // (12 * max(size, 1)))
    width = min(step, size)
    bound = width * (size - 1)
    idx = np.int32 if max(bound, B.nnz, size, 2 * items + 1) < 2**31 else np.int64
    a_indptr, a_indices = B.indptr.astype(idx, copy=False), 2 * B.indices.astype(idx) + 1
    b_indptr, b_indices = np.empty(2 * items + 1, idx), BT.indices.astype(idx, copy=False)
    b_indptr[0::2] = BT.indptr
    # B.T's entries as sorted (item, node) keys, to find each block's splits
    starts = np.arange(items, dtype=np.int64) * size
    keys = np.repeat(starts, np.diff(BT.indptr)) + BT.indices
    c_indptr, c_indices, c_data = np.empty(width + 1, idx), np.empty(bound, idx), np.empty(bound)
    rs, cs, vs = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        b_indptr[1::2] = np.searchsorted(keys, starts + (lo + 1))
        _csr_matmat(hi - lo, size, a_indptr[lo:hi + 1], a_indices, B.data,
                    b_indptr, b_indices, BT.data, c_indptr, c_indices, c_data)
        indptr = c_indptr[:hi - lo + 1]
        nnz = indptr[-1]
        indices, data = c_indices[:nnz], c_data[:nnz]
        data *= np.repeat(inv[lo:hi], np.diff(indptr))
        data *= inv[indices]
        at = np.flatnonzero(data >= epsilon)
        r = np.searchsorted(indptr, at, side="right") - 1 + lo
        c = indices[at]
        upper = c > r
        rs.append(r[upper])
        cs.append(c[upper])
        vs.append(np.minimum(data[at[upper]], 1.0))
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
