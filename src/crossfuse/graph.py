"""Sparse graph construction and propagation.

Builds the user-item interaction matrix, the symmetrically normalized
bipartite adjacency (edge weight 1/sqrt(d_u * d_i)), and the thresholded
user-user / item-item similarity graphs, plus the sparse-dense product used
by every convolution layer.
"""

from __future__ import annotations

import logging
import struct
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .data import TRAIN, DataError, InteractionDataset

log = logging.getLogger(__name__)

GRAPH_MAGIC = b"CFGB"
GRAPH_VERSION = 1


def interaction_matrix(ds: InteractionDataset, split: int = TRAIN,
                       binarize: bool = False) -> sp.csr_matrix:
    """n x m rating matrix R over one split (values 1 when ``binarize``)."""
    idx = ds.split_indices(split)
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


def check_similarity(epsilon: float, variant: str) -> None:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if variant not in ("cosine", "printed"):
        raise ValueError(f"unknown similarity variant {variant!r}")


def build_similarity_graph(R: sp.spmatrix, axis: str = "rows", epsilon: float = 0.3,
                           variant: str = "cosine",
                           max_neighbors: int | None = None) -> sp.csr_matrix:
    """Thresholded similarity graph over R's rows (users) or columns (items).

    Off-diagonal entry (u, v) is the similarity between the binarized
    interaction vectors when it reaches ``epsilon``, else absent; the diagonal
    is exactly 1 for every node, including zero-interaction nodes which keep
    only the self-loop (logged).  The ``printed`` variant divides co-counts by
    the product of squared norms instead of the standard cosine denominator.
    ``max_neighbors`` optionally caps each node's off-diagonal degree by
    keeping entries ranked in both endpoints' top lists, preserving symmetry.
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
    D = sp.diags(inv)
    S = (D @ (B @ B.T) @ D).tocsr()

    upper = sp.triu(S, k=1).tocoo()
    keep = upper.data >= epsilon
    r, c, v = upper.row[keep], upper.col[keep], np.minimum(upper.data[keep], 1.0)

    if max_neighbors is not None and len(v):
        r, c, v = _cap_neighbors(size, r, c, v, max_neighbors)

    rows = np.concatenate([r, c, np.arange(size)])
    cols = np.concatenate([c, r, np.arange(size)])
    vals = np.concatenate([v, v, np.ones(size)])
    out = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    out.sort_indices()
    return out


def _cap_neighbors(size, r, c, v, top):
    """Keep an edge only when it ranks in the top lists of both endpoints."""
    order = np.lexsort((np.minimum(r, c) * size + np.maximum(r, c), -v))
    rank = [0] * size
    keep = np.zeros(len(v), dtype=bool)
    for k in order:
        a, b = int(r[k]), int(c[k])
        if rank[a] < top and rank[b] < top:
            keep[k] = True
            rank[a] += 1
            rank[b] += 1
    return r[keep], c[keep], v[keep]


def normalize_bipartite(ds: InteractionDataset) -> sp.csr_matrix:
    """Symmetric (n+m) x (n+m) adjacency with edge weights 1/sqrt(d_u * d_i).

    Users occupy rows [0, n), items rows [n, n+m).  No self-loops; isolated
    nodes keep empty rows (logged, permitted).
    """
    tr = ds.split_indices(TRAIN)
    u = ds.users[tr]
    i = ds.items[tr]
    du = np.zeros(ds.n, dtype=np.int64)
    di = np.zeros(ds.m, dtype=np.int64)
    np.add.at(du, u, 1)
    np.add.at(di, i, 1)

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


def propagate(adj: sp.spmatrix, X: np.ndarray) -> np.ndarray:
    """One aggregation step: the sparse-dense product adj @ X."""
    X = np.asarray(X)
    if adj.shape[1] != X.shape[0]:
        raise ValueError(f"cannot propagate: adjacency has {adj.shape[1]} columns, "
                         f"features have {X.shape[0]} rows")
    return np.asarray(adj @ X)


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
# Binary persistence
# ---------------------------------------------------------------------------

def save_graph(path: str | Path, mat: sp.csr_matrix) -> None:
    """Write a CSR matrix as magic/version/shape header plus little-endian
    offsets, indices, and 64-bit values."""
    mat = mat.tocsr()
    mat.sort_indices()
    with open(path, "wb") as fh:
        fh.write(GRAPH_MAGIC)
        fh.write(struct.pack("<I", GRAPH_VERSION))
        fh.write(struct.pack("<QQQ", mat.shape[0], mat.shape[1], mat.nnz))
        fh.write(mat.indptr.astype("<i8").tobytes())
        fh.write(mat.indices.astype("<i8").tobytes())
        fh.write(mat.data.astype("<f8").tobytes())


def load_graph(path: str | Path) -> sp.csr_matrix:
    raw = Path(path).read_bytes()
    if len(raw) < 32 or raw[:4] != GRAPH_MAGIC:
        raise DataError(f"{path}: not a graph file")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != GRAPH_VERSION:
        raise DataError(f"{path}: unsupported graph format version {version}")
    rows, cols, nnz = struct.unpack("<QQQ", raw[8:32])
    if len(raw) != 32 + 8 * (rows + 1 + 2 * nnz):
        raise DataError(f"{path}: graph payload size mismatch")
    off = 32
    indptr = np.frombuffer(raw, dtype="<i8", count=rows + 1, offset=off).astype(np.int64)
    off += (rows + 1) * 8
    indices = np.frombuffer(raw, dtype="<i8", count=nnz, offset=off).astype(np.int64)
    off += nnz * 8
    values = np.frombuffer(raw, dtype="<f8", count=nnz, offset=off).astype(np.float64)
    return sp.csr_matrix((values, indices, indptr), shape=(rows, cols))
