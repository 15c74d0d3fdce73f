"""Graph feature extraction over the interaction graph.

A propagation-only backbone: layer-0 embeddings are repeatedly multiplied by
the normalized bipartite adjacency and the per-layer results are combined
with fixed layer weights.  The pairwise ranking loss pushes observed items
above sampled negatives; its feature-level gradient is pulled back through the
same propagation chain into the layer-0 table by ``LightGCN.backward``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
# the loops scipy's own CSR and CSC products run; not public scipy API
from scipy.sparse._sparsetools import csc_matvecs as _csc_matvecs
from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs

from .optim import Param, scatter_rows


@dataclass
class BackboneConfig:
    """Propagation depth, layer-combination weights, and ranking regularizer."""

    dim: int = 64
    num_layers: int = field(default=3, metadata={"key": "layers"})
    # length num_layers + 1; None = uniform; not settable from a config file
    alphas: np.ndarray | None = field(default=None, metadata={"key": None})
    lambda_reg: float = 1e-4

    def resolved_alphas(self) -> np.ndarray:
        if self.alphas is None:
            return np.full(self.num_layers + 1, 1.0 / (self.num_layers + 1))
        a = np.asarray(self.alphas, dtype=np.float64)
        if a.shape != (self.num_layers + 1,):
            raise ValueError(f"alphas must have length {self.num_layers + 1}, got {a.shape}")
        return a

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.num_layers < 0:
            raise ValueError("num_layers must be >= 0")
        if self.lambda_reg < 0:
            raise ValueError("lambda_reg must be >= 0")
        self.resolved_alphas()


def init_embeddings(count: int, dim: int, seed: int) -> Param:
    """Fresh layer-0 table with entries drawn from a normal(0, 0.01) distribution."""
    if count < 1 or dim < 1:
        raise ValueError("count and dim must be >= 1")
    rng = np.random.default_rng(seed)
    return Param(rng.normal(0.0, 0.01, size=(count, dim)), "embeddings")


@dataclass
class GraphFeatures:
    """Combined propagation output, split into user and item rows."""

    values: np.ndarray
    num_users: int

    @property
    def users(self) -> np.ndarray:
        return self.values[:self.num_users]

    @property
    def items(self) -> np.ndarray:
        return self.values[self.num_users:]


@dataclass(frozen=True)
class RowBlock:
    """Sorted node indices and the adjacency's rows at them, ``adj[rows]``:
    sliced once per batch and read by both of its propagation passes."""

    rows: np.ndarray
    adj: sp.csr_matrix


class LightGCN:
    """Parameter-free propagation: features = sum_k alpha_k * adj^k @ E0.

    The adjacency must be symmetric (the normalized bipartite graph is), so
    the backward pass multiplies by ``adj`` itself in place of its transpose.
    Both passes propagate through two work arrays kept between calls, so a
    step allocates no node-sized product; what they return is a new array.
    ``release_work`` frees the arrays once training is done with them.
    """

    def __init__(self, adj: sp.csr_matrix, num_users: int, cfg: BackboneConfig):
        cfg.validate()
        if adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if not 0 < num_users < adj.shape[0]:
            raise ValueError("num_users must split the adjacency into two non-empty blocks")
        self.adj = adj.tocsr()
        if (self.adj != self.adj.T).nnz:
            raise ValueError("adjacency must be symmetric")
        self.row_nnz = np.diff(self.adj.indptr)
        self.num_users = num_users
        self.cfg = cfg
        self.alphas = cfg.resolved_alphas()
        self._work: tuple[np.ndarray, ...] = ()

    def _work_arrays(self, dim: int) -> tuple[np.ndarray, ...]:
        """Two (nodes, dim) arrays: layer k's product goes into ``work[k % 2]``
        and its weighted term into the other, whose product layer k has read."""
        if not self._work or self._work[0].shape[1] != dim:
            self._work = (np.empty((self.adj.shape[0], dim)), np.empty((self.adj.shape[0], dim)))
        return self._work

    def release_work(self) -> None:
        """Drop the work arrays; the next pass allocates them again."""
        self._work = ()

    def row_block(self, rows: np.ndarray) -> RowBlock:
        """The adjacency's rows at the sorted node indices ``rows``."""
        return RowBlock(rows, self.adj[rows])

    def forward(self, table: Param, block: RowBlock | None = None) -> GraphFeatures:
        """Combined features at every node, or only at the node indices
        ``block.rows``; ``num_users`` then counts the user rows among them.

        With ``block``, layers 0 to L-1 still propagate over every node and
        the last layer is ``block.adj @ cur``.  Each of its rows sums the same
        terms in the same order as the full product's row, so the result is
        bit for bit the full features at ``block.rows``."""
        if table.value.shape[0] != self.adj.shape[0]:
            raise ValueError(f"embedding table has {table.value.shape[0]} rows, adjacency "
                             f"expects {self.adj.shape[0]}")
        take = slice(None) if block is None else block.rows
        layers = self.cfg.num_layers
        cur = table.value
        values = self.alphas[0] * cur[take]
        work = self._work_arrays(cur.shape[1]) if layers else ()
        for k in range(1, layers + 1):
            last = k == layers
            cur = _spmm(block.adj if last and block is not None else self.adj, cur,
                        work[k % 2])
            term = work[(k + 1) % 2][:len(values)]
            np.multiply(self.alphas[k], cur if last else cur[take], out=term)
            values += term
        num_users = (self.num_users if block is None
                     else int(np.searchsorted(block.rows, self.num_users)))
        return GraphFeatures(values=values, num_users=num_users)

    def backward(self, d_features: np.ndarray, block: RowBlock | None = None) -> np.ndarray:
        """Pull a gradient on the combined features back to the layer-0 table
        via the transpose chain sum_k alpha_k (adj^T)^k, with adj^T = adj.

        With ``block``, ``d_features`` is the gradient at the node indices
        ``block.rows`` and zero elsewhere, and the first product is
        ``block.adj.T @ d_features``.  Scipy's CSC loop visits the columns in
        ascending order, so each output row adds the full product's terms in
        the same order, less its +0.0 terms; a sum that starts at +0.0 is never
        -0.0, so those terms change no bit."""
        if block is None:
            out = self.alphas[0] * d_features
            first = self.adj
        else:
            out = np.full((self.adj.shape[0], d_features.shape[1]), self.alphas[0] * 0.0)
            out[block.rows] = self.alphas[0] * d_features
            first = block.adj.T
        cur = d_features
        work = self._work_arrays(out.shape[1]) if self.cfg.num_layers else ()
        for k in range(1, self.cfg.num_layers + 1):
            cur = _spmm(first if k == 1 else self.adj, cur, work[k % 2])
            out += np.multiply(self.alphas[k], cur, out=work[(k + 1) % 2])
        return out


def _spmm(mat: sp.spmatrix, x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``mat @ x`` for a CSR or CSC ``mat``, written into the leading rows of
    ``work`` and returned as that view.  It runs the loop and the zero start
    scipy's own product runs, so the bits are ``mat @ x``'s."""
    out = work[:mat.shape[0]]
    out.fill(0.0)
    matvecs = _csr_matvecs if mat.format == "csr" else _csc_matvecs
    matvecs(mat.shape[0], mat.shape[1], x.shape[1], mat.indptr, mat.indices, mat.data,
            np.ascontiguousarray(x).ravel(), out.ravel())
    return out


def log_sigmoid_loss(x: np.ndarray) -> np.ndarray:
    """-ln(sigmoid(x)), evaluated stably as softplus(-x)."""
    return np.logaddexp(0.0, -x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bpr_loss_and_feature_grad(users_feat: np.ndarray, items_feat: np.ndarray,
                              batch) -> tuple[float, np.ndarray, np.ndarray]:
    """Pairwise ranking loss over the batch columns (int64 users, positives
    and negatives) and its gradient with respect to the combined features
    (no regularizer)."""
    u, ip, ineg = batch
    gu = users_feat[u]
    gp = items_feat[ip]
    gn = items_feat[ineg]
    x = np.einsum("ij,ij->i", gu, gp - gn)
    loss = float(log_sigmoid_loss(x).sum())

    c = sigmoid(x) - 1.0  # d(-ln sigma(x))/dx
    dU = scatter_rows(u, len(users_feat), c[:, None] * (gp - gn))
    cg = c[:, None] * gu
    # positives first, then negatives: the order each item's rows are summed in
    dV = scatter_rows(np.concatenate([ip, ineg]), len(items_feat), np.concatenate([cg, -cg]))
    return loss, dU, dV

