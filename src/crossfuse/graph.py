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
# the numeric loops of scipy's own CSR product and CSR-to-CSC conversion;
# not public scipy API
from scipy.sparse._sparsetools import csr_matmat as _csr_matmat
from scipy.sparse._sparsetools import csr_tocsc as _csr_tocsc

from . import store
from .data import TRAIN, DataError, InteractionDataset

log = logging.getLogger(__name__)

# Bound on one row block's co-counts in the similarity build (a float64 value
# and an int32 column per entry), counted as if every entry of the block were
# stored.  The build's one product buffer has exactly that size, so the
# product loop, which checks no capacity, can never write past it.
_BLOCK_BYTES = 8 << 20
# Least number of row blocks in the similarity build.  A block also computes
# the lower triangle of its own rows and drops it, so a graph that fits one
# block still takes this many.  Over the desk graphs (200 and 300 nodes), 4
# blocks built 26-30% faster than one block; 3 blocks were 1-2% faster than
# 4, and 2, 5 and 6 blocks 2-6% slower.
_MIN_BLOCKS = 4
# Ends the message of every fault in a workspace product that prepare writes.
PREPARE_HINT = "; re-run `crossfuse prepare`"


def interaction_matrix(ds: InteractionDataset, *, binarize: bool = False) -> sp.csr_matrix:
    """n x m rating matrix R over the train split (values 1 when ``binarize``),
    read from the dataset's cached train CSR, ``ds.split_csr(TRAIN)``."""
    indptr, indices = ds.split_csr(TRAIN)
    if binarize:
        vals = np.ones(len(indices))
    else:
        # each rating at its pair's place in the CSR's (user, item) order
        idx = ds.split_indices(TRAIN)
        vals = ds.ratings[idx[np.argsort(ds.users[idx] * ds.m + ds.items[idx])]]
    idx_dtype = _index_dtype(len(indices), ds.n, ds.m)
    return _csr(vals, indices.astype(idx_dtype), indptr.astype(idx_dtype), (ds.n, ds.m))


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
    R is the train CSR ``interaction_matrix`` reads from ``ds.split_csr``, or
    any matrix of that shape: only where it stores a nonzero value counts.
    """
    check_similarity(epsilon, variant)
    if axis not in ("rows", "columns"):
        raise ValueError("axis must be 'rows' or 'columns'")

    # R's binary structure and its transpose as sorted index arrays: B holds
    # each node's items, BT each item's nodes.  Co-counts are sums of ones,
    # exact integers in float64.
    n_rows, n_cols = R.shape
    r_indptr, r_indices = _binary_structure(R)
    nnz = len(r_indices)
    size, items = (n_rows, n_cols) if axis == "rows" else (n_cols, n_rows)
    step = max(1, min(_BLOCK_BYTES // (12 * max(size, 1)), -(-size // _MIN_BLOCKS)))
    width = min(step, size)
    bound = width * (size - 1)
    idx = _index_dtype(bound, nnz, size, 2 * items + 1)
    r_indptr, r_indices = r_indptr.astype(idx, copy=False), r_indices.astype(idx, copy=False)
    ones = np.ones(nnz)
    t_indptr, t_indices = np.empty(n_cols + 1, idx), np.empty(nnz, idx)
    _csr_tocsc(n_rows, n_cols, r_indptr, r_indices, ones, t_indptr, t_indices, np.empty(nnz))
    (b_indptr, b_indices), (bt_indptr, bt_indices) = (
        ((r_indptr, r_indices), (t_indptr, t_indices)) if axis == "rows"
        else ((t_indptr, t_indices), (r_indptr, r_indices)))

    deg = np.diff(b_indptr)
    lonely = np.flatnonzero(deg == 0)
    if len(lonely):
        log.warning("similarity graph (%s): %d nodes with no interactions keep only a self-loop",
                    axis, len(lonely))

    norms = np.sqrt(deg)
    power = 1.0 if variant == "cosine" else 2.0
    inv = np.zeros(size)
    active = deg > 0
    inv[active] = 1.0 / norms[active] ** power
    # Only a co-count c >= epsilon / top**2 * (1 - 1e-9) is scaled and
    # tested: one below scales to at most epsilon * (1 - 1e-9) * (1 + u)**2
    # (u the unit roundoff), which is below epsilon.  At a floor of 1 or
    # less every co-count passes, and the block skips the test.
    top = inv.max(initial=0.0)
    floor = epsilon / top ** 2 * (1 - 1e-9) if top else 0.0

    # Upper-triangle edges, one row block at a time: block [lo, hi) meets only
    # the nodes after lo, and each kept co-count c is scaled as (inv[r] * c)
    # * inv[col], the order of D @ C @ D, so every kept value has the bits
    # the whole product gives it.  The co-counts come from the numeric pass
    # of scipy's product alone, into one buffer sized for the widest block as
    # if it were dense.  Its left operand is the block's rows of B, a view of
    # B's row offsets (the loop reads them only pairwise), with item j
    # renumbered 2j + 1.  Its right operand is BT with item j's row split at
    # lo: row 2j holds the nodes up to lo, row 2j + 1 those after it, and
    # only the split moves from block to block.
    odd = 2 * b_indices + 1
    split = np.empty(2 * items + 1, idx)
    split[0::2] = bt_indptr
    # BT's entries as sorted (item, node) keys, to find each block's splits
    starts = np.arange(items, dtype=np.int64) * size
    keys = np.repeat(starts, np.diff(bt_indptr)) + bt_indices
    c_indptr = np.empty(width + 1, idx)
    c_indices, c_data = np.empty(bound, idx), np.empty(bound)
    rs, cs, vs = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        split[1::2] = np.searchsorted(keys, starts + (lo + 1))
        _csr_matmat(hi - lo, size, b_indptr[lo:hi + 1], odd, ones,
                    split, bt_indices, ones, c_indptr, c_indices, c_data)
        indptr = c_indptr[:hi - lo + 1]
        if floor > 1.0:
            # find the rows of the co-counts that reach the floor alone
            at = np.flatnonzero(c_data[:indptr[-1]] >= floor)
            r = np.searchsorted(indptr, at, side="right") - 1 + lo
            upper = c_indices[at] > r
            at, r = at[upper], r[upper]
        else:
            # every co-count reaches the floor: one row per entry
            r = np.repeat(np.arange(lo, hi), np.diff(indptr))
            at = np.flatnonzero(c_indices[:indptr[-1]] > r)
            r = r[at]
        c = c_indices[at].astype(np.int64)
        v = (inv[r] * c_data[at]) * inv[c]
        keep = v >= epsilon
        rs.append(r[keep])
        cs.append(c[keep])
        vs.append(np.minimum(v[keep], 1.0))
    r, c, v = np.concatenate(rs), np.concatenate(cs), np.concatenate(vs)

    # Both triangles' edges and the unit diagonal, sorted once by their
    # (row, column) keys
    diag = np.arange(size)
    key = np.concatenate([r * size + c, c * size + r, diag * (size + 1)])
    order = np.argsort(key)
    key = key[order]
    out_idx = _index_dtype(len(key), size)
    indptr = np.zeros(size + 1, out_idx)
    np.cumsum(np.bincount(key // size, minlength=size), out=indptr[1:])
    indices = (key % size).astype(out_idx)
    data = np.concatenate([v, v, np.ones(size)])[order]
    return _csr(data, indices, indptr, (size, size))


def normalize_bipartite(ds: InteractionDataset) -> sp.csr_matrix:
    """Symmetric (n+m) x (n+m) adjacency with edge weights 1/sqrt(d_u * d_i).

    Users occupy rows [0, n), items rows [n, n+m).  No self-loops; isolated
    nodes keep empty rows (logged, permitted).  Read from the dataset's
    cached train CSR, ``ds.split_csr(TRAIN)``: the user rows are its items
    shifted by n, the item rows its transpose.
    """
    indptr, indices = ds.split_csr(TRAIN)
    n, m = ds.n, ds.m
    nnz = len(indices)
    du = np.diff(indptr)
    di = np.bincount(indices, minlength=m)

    idle = int((du == 0).sum() + (di == 0).sum())
    if idle:
        log.warning("normalized adjacency: %d isolated nodes have empty rows", idle)

    w = 1.0 / np.sqrt(np.repeat(du.astype(np.float64), du) * di.astype(np.float64)[indices])
    idx = _index_dtype(2 * nnz, n + m)
    out_indptr = np.empty(n + m + 1, idx)
    out_indices, out_data = np.empty(2 * nnz, idx), np.empty(2 * nnz)
    out_indptr[:n + 1] = indptr
    np.add(indices, n, out=out_indices[:nnz], casting="same_kind")
    out_data[:nnz] = w
    _csr_tocsc(n, m, indptr.astype(idx), indices.astype(idx), w,
               out_indptr[n:], out_indices[nnz:], out_data[nnz:])
    out_indptr[n:] += nnz
    return _csr(out_data, out_indices, out_indptr, (n + m, n + m))


def _index_dtype(*sizes: int) -> type:
    """int32 when every size fits it, else int64: scipy's choice for CSR
    index arrays."""
    return np.int32 if max(sizes) < 2**31 else np.int64


def _csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
         shape: tuple[int, int]) -> sp.csr_matrix:
    """A CSR matrix over arrays that are already canonical: sorted unique
    column indices per row."""
    out = sp.csr_matrix((data, indices, indptr), shape=shape)
    out.has_canonical_format = True
    return out


def _binary_structure(R: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """R's nonzero pattern as CSR ``indptr`` and ``indices``, sorted and
    unique per row: repeats count once, stored zeros not at all."""
    R = R.tocsr()
    nonzero = R.data != 0
    if R.has_canonical_format and nonzero.all():
        return R.indptr, R.indices
    n_rows, n_cols = R.shape
    rows = np.repeat(np.arange(n_rows), np.diff(R.indptr))[nonzero]
    keys = np.unique(rows * n_cols + R.indices[nonzero])
    indptr = np.zeros(n_rows + 1, np.int64)
    np.cumsum(np.bincount(keys // n_cols, minlength=n_rows), out=indptr[1:])
    return indptr, keys % n_cols


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


def check_graph(mat: sp.spmatrix, size: int, similarity: bool = False) -> sp.csr_matrix:
    """``mat`` as CSR with sorted rows (itself if they are), checked to be
    square over ``size`` nodes, to store every diagonal entry if a
    ``similarity`` graph, and to equal its transpose in storage, so a
    backward pass may multiply by it in place of its transpose, bit for bit;
    a :class:`ValueError` otherwise."""
    mat = mat.tocsr()
    if mat.shape != (size, size):
        raise ValueError(f"graph is {mat.shape[0]}x{mat.shape[1]}, expected the square "
                         f"{size}x{size}")
    if similarity and np.any(mat.diagonal() == 0):
        raise ValueError("similarity graph lacks a diagonal entry: its convolutions need "
                         "self-loops")
    if not mat.has_sorted_indices:
        mat = mat.sorted_indices()
    t = mat.T.tocsr()
    if not all(map(np.array_equal, (mat.indptr, mat.indices, mat.data),
                   (t.indptr, t.indices, t.data))):
        raise ValueError("graph is not symmetric")
    return mat


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
    the shape, or a matrix failing ``check_csr`` is a :class:`DataError`
    that names the file and asks for ``crossfuse prepare`` to be re-run."""
    try:
        doc = store.load(path, "graph")
    except DataError as exc:
        raise DataError(f"{exc}{PREPARE_HINT}") from exc
    try:
        return _graph_of(doc)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}{PREPARE_HINT}") from exc


def _graph_of(doc: store.ArrayFile) -> sp.csr_matrix:
    """The CSR matrix a graph file's contents hold; a :class:`ValueError`
    names the first fault."""
    shape = doc.meta.get("shape")
    if (doc.meta.get("kind") != "graph" or sorted(doc.arrays) != ["data", "indices", "indptr"]
            or not isinstance(shape, list) or len(shape) != 2
            or not all(type(s) is int and s >= 0 for s in shape)):
        raise ValueError("not a graph file")
    rows, cols = shape
    indptr, indices, values = doc.arrays["indptr"], doc.arrays["indices"], doc.arrays["data"]
    if (indptr.shape != (rows + 1,) or indices.ndim != 1 or values.shape != indices.shape
            or (indptr.dtype, indices.dtype, values.dtype) != (np.int64, np.int64, np.float64)):
        raise ValueError(f"graph arrays do not fit a {rows}x{cols} matrix")
    nnz = len(indices)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise ValueError(f"row offsets do not run from 0 to {nnz} without decreasing")
    if nnz and (indices.min() < 0 or indices.max() >= cols):
        raise ValueError(f"a column index lies outside [0, {cols})")
    mat = sp.csr_matrix((values, indices, indptr), shape=(rows, cols))
    check_csr(mat)
    return mat
