"""Attribute-side feature extraction with hand-written gradients.

A reducing MLP (affine, batch normalization, rectifier; final layer affine
only) maps wide one-hot attribute vectors to the embedding dimension, then a
K-layer convolution stack over the thresholded similarity graph refines them.
The architecture is small and fixed, so the reverse pass is written out by
hand: every block caches what its backward needs during a train-mode forward.
Eval-mode forwards use running statistics, cache nothing, and are reentrant.

Categorical attribute rows repeat heavily (a handful of age/occupation
combinations cover every user), so the MLP runs on the distinct rows of its
input only and gathers its output back to every node; its batch norms weight
each distinct row by how often it occurs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .data import DataError
from .optim import Param


def save_dense_matrix(path, mat: np.ndarray) -> None:
    """Dense real matrix file: rows and dim as little-endian u64, then
    row-major little-endian 64-bit reals.  Externally computed feature
    matrices in this format can stand in for this module's output."""
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<QQ", mat.shape[0], mat.shape[1]))
        fh.write(mat.astype("<f8").tobytes())


def load_dense_matrix(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise DataError(f"{path}: truncated matrix file")
    rows, dim = struct.unpack("<QQ", raw[:16])
    if len(raw) != 16 + rows * dim * 8:
        raise DataError(f"{path}: matrix payload size mismatch")
    data = np.frombuffer(raw, dtype="<f8", offset=16)
    return data.reshape(rows, dim).astype(np.float64)


def _indicator(index: np.ndarray, size: int) -> sp.csr_matrix:
    """(size, len(index)) 0/1 matrix whose product with a (len(index), d)
    array sums the rows sharing an index, adding them in their original order
    exactly as ``np.add.at`` does."""
    order = np.argsort(index, kind="stable")
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=size), out=indptr[1:])
    return sp.csr_matrix((np.ones(len(index)), order, indptr), shape=(size, len(index)))


@dataclass(frozen=True)
class DistinctRows:
    """An attribute matrix as its distinct rows plus the map back to all rows.

    ``values[inverse]`` is the original matrix; ``counts`` holds how many
    original rows each distinct row stands for, and ``scatter @ d`` sums a
    per-row array over each distinct row's occurrences."""

    values: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray
    scatter: sp.csr_matrix


def distinct_rows(x: np.ndarray) -> DistinctRows:
    """Group the rows of ``x``; done once per input, not per forward."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-d attribute matrix")
    values, inverse, counts = np.unique(x, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    return DistinctRows(values, inverse, counts.astype(np.float64),
                        _indicator(inverse, len(values)))


class Affine:
    """y = x @ W + b."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str):
        scale = np.sqrt(2.0 / in_dim)
        self.w = Param(rng.normal(0.0, scale, size=(in_dim, out_dim)), f"{name}.w")
        self.b = Param(np.zeros(out_dim), f"{name}.b")
        self._x = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if train:
            self._x = x
        return x @ self.w.value + self.b.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        self.w.grad += x.T @ dy
        self.b.grad += dy.sum(axis=0)
        return dy @ self.w.value.T

    def params(self):
        return [self.w, self.b]


class BatchNorm:
    """Per-feature normalization; batch statistics in train mode, running
    statistics in eval mode.  Variance is the biased (1/N) estimate in both
    the normalization and the running update.

    With ``counts`` each input row stands for ``counts[k]`` identical rows of
    the batch: the moments are count-weighted, and backward takes and returns
    gradients summed over each row's copies."""

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5, name: str = "bn"):
        self.gamma = Param(np.ones(dim), f"{name}.gamma")
        self.beta = Param(np.zeros(dim), f"{name}.beta")
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.momentum = momentum
        self.eps = eps
        self._cache = None

    def forward(self, x: np.ndarray, train: bool,
                counts: np.ndarray | None = None) -> np.ndarray:
        if train:
            n = x.shape[0] if counts is None else counts.sum()
            if n < 2:
                raise ValueError("batch normalization needs at least 2 rows in train mode")
            mu = np.average(x, axis=0, weights=counts)
            var = np.average(np.square(x - mu), axis=0, weights=counts)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mu
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mu = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv_std
        if train:
            self._cache = (xhat, inv_std, counts)
        return self.gamma.value * xhat + self.beta.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, inv_std, counts = self._cache
        if counts is None:
            n, c = xhat.shape[0], 1.0
        else:
            n, c = counts.sum(), counts[:, None]
        self.gamma.grad += (dy * xhat).sum(axis=0)
        self.beta.grad += dy.sum(axis=0)
        dxhat = dy * self.gamma.value
        return (inv_std / n) * (n * dxhat - c * dxhat.sum(axis=0)
                                - c * xhat * (dxhat * xhat).sum(axis=0))

    def params(self):
        return [self.gamma, self.beta]


class Relu:
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if train:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask

    def params(self):
        return []


class AuxEncoder:
    """Reducing MLP: (affine, batch-norm, rectifier) x (L-1), then affine.

    ``layer_dims`` chains from the one-hot width down to the embedding
    dimension; with a single entry pair the encoder collapses to one affine
    map with no normalization or activation.

    The blocks run on the distinct input rows only (see :class:`DistinctRows`),
    so the cost scales with distinct attribute rows, not with nodes.
    """

    def __init__(self, layer_dims, rng: np.random.Generator,
                 bn_momentum: float = 0.1, bn_eps: float = 1e-5, name: str = "mlp"):
        dims = list(layer_dims)
        if len(dims) < 2:
            raise ValueError("layer_dims needs at least input and output sizes")
        self.layer_dims = dims
        self.blocks: list = []
        for l in range(len(dims) - 2):
            self.blocks.append(Affine(dims[l], dims[l + 1], rng, f"{name}.{l}"))
            self.blocks.append(BatchNorm(dims[l + 1], bn_momentum, bn_eps, f"{name}.{l}"))
            self.blocks.append(Relu())
        self.blocks.append(Affine(dims[-2], dims[-1], rng, f"{name}.{len(dims) - 2}"))
        self._rows: DistinctRows | None = None

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def forward(self, x: np.ndarray | DistinctRows, mode: str = "train") -> np.ndarray:
        """Output for every row of ``x``; a plain matrix is grouped here, so
        callers that run many forwards on one input group it once with
        :func:`distinct_rows` and pass that instead."""
        train = _check_mode(mode)
        rows = x if isinstance(x, DistinctRows) else distinct_rows(x)
        if rows.values.shape[1] != self.in_dim:
            raise ValueError(f"encoder expects width {self.in_dim}, got {rows.values.shape[1]}")
        if train:
            self._rows = rows
        h = rows.values
        for block in self.blocks:
            if isinstance(block, BatchNorm):
                h = block.forward(h, train, rows.counts)
            else:
                h = block.forward(h, train)
        return h[rows.inverse]

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients from the per-row output gradient;
        returns the gradient with respect to the distinct input rows."""
        d = self._rows.scatter @ d_out
        for block in reversed(self.blocks):
            d = block.backward(d)
        return d

    def params(self):
        out = []
        for block in self.blocks:
            out.extend(block.params())
        return out

    def batch_norms(self) -> list[BatchNorm]:
        return [b for b in self.blocks if isinstance(b, BatchNorm)]


class AuxGcnStack:
    """K convolution layers over a similarity graph with unit self-loops.

    Each layer aggregates neighbor features weighted by the stored
    similarities and applies an affine + batch-norm + rectifier transform;
    every layer maps dim -> dim.  K = 0 passes features through unchanged.
    """

    def __init__(self, dim: int, num_layers: int, rng: np.random.Generator,
                 bn_momentum: float = 0.1, bn_eps: float = 1e-5, name: str = "gcn"):
        if num_layers < 0:
            raise ValueError("num_layers must be >= 0")
        self.dim = dim
        self.num_layers = num_layers
        self.layers = []
        for k in range(num_layers):
            self.layers.append((Affine(dim, dim, rng, f"{name}.{k}"),
                                BatchNorm(dim, bn_momentum, bn_eps, f"{name}.{k}"),
                                Relu()))
        self._sim = None

    def forward(self, sim: sp.spmatrix, h: np.ndarray, mode: str = "train") -> np.ndarray:
        train = _check_mode(mode)
        if sim.shape[0] != sim.shape[1] or sim.shape[0] != h.shape[0]:
            raise ValueError("similarity graph must be square over the feature rows")
        if self.num_layers > 0 and np.any(sim.diagonal() == 0):
            raise ValueError("similarity graph must carry self-loops on the diagonal")
        if h.shape[1] != self.dim:
            raise ValueError(f"stack expects width {self.dim}, got {h.shape[1]}")
        sim = sim.tocsr()
        if train:
            self._sim = sim
        for affine, bn, relu in self.layers:
            h = np.asarray(sim @ h)
            h = relu.forward(bn.forward(affine.forward(h, train), train), train)
        return h

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        sim_t = self._sim.T.tocsr() if self._sim is not None else None
        d = d_out
        for affine, bn, relu in reversed(self.layers):
            d = affine.backward(bn.backward(relu.backward(d)))
            d = np.asarray(sim_t @ d)
        return d

    def params(self):
        out = []
        for affine, bn, _ in self.layers:
            out.extend(affine.params())
            out.extend(bn.params())
        return out

    def batch_norms(self) -> list[BatchNorm]:
        return [bn for _, bn, _ in self.layers]


def _check_mode(mode: str) -> bool:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    return mode == "train"


class AuxiliaryExtractor:
    """One side (users or items) of the attribute pipeline: MLP then GCN."""

    def __init__(self, encoder: AuxEncoder, gcn: AuxGcnStack):
        if encoder.out_dim != gcn.dim:
            raise ValueError("encoder output width must match the convolution stack")
        self.encoder = encoder
        self.gcn = gcn
        self.output: np.ndarray | None = None

    def forward(self, x: np.ndarray | DistinctRows, sim: sp.spmatrix,
                mode: str = "train") -> np.ndarray:
        a = self.gcn.forward(sim, self.encoder.forward(x, mode), mode)
        if mode == "train":
            self.output = a
        return a

    def backward(self, d_a: np.ndarray) -> None:
        self.encoder.backward(self.gcn.backward(d_a))

    def params(self):
        return self.encoder.params() + self.gcn.params()

    def zero_grad(self) -> None:
        for p in self.params():
            p.zero_grad()

    def state_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        """Named parameter and running-statistic arrays for persistence."""
        out = {f"{prefix}.{p.name}": p.value for p in self.params()}
        for j, bn in enumerate(self.encoder.batch_norms() + self.gcn.batch_norms()):
            out[f"{prefix}.bn{j}.running_mean"] = bn.running_mean
            out[f"{prefix}.bn{j}.running_var"] = bn.running_var
        return out

    def load_state_arrays(self, prefix: str, arrays: dict[str, np.ndarray]) -> None:
        for p in self.params():
            p.value[...] = arrays[f"{prefix}.{p.name}"]
        for j, bn in enumerate(self.encoder.batch_norms() + self.gcn.batch_norms()):
            bn.running_mean = arrays[f"{prefix}.bn{j}.running_mean"].copy()
            bn.running_var = arrays[f"{prefix}.bn{j}.running_var"].copy()


def build_extractor(in_dim: int, dim: int, hidden, gcn_layers: int,
                    rng: np.random.Generator, bn_momentum: float = 0.1,
                    bn_eps: float = 1e-5, name: str = "aux") -> AuxiliaryExtractor:
    """Standard two-part extractor; ``hidden`` lists the MLP's interior widths."""
    dims = [in_dim, *hidden, dim]
    enc = AuxEncoder(dims, rng, bn_momentum, bn_eps, name=f"{name}.mlp")
    stack = AuxGcnStack(dim, gcn_layers, rng, bn_momentum, bn_eps, name=f"{name}.gcn")
    return AuxiliaryExtractor(enc, stack)


def _as_scored_pairs(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("batch must be (B, 3) rows of (user, item, rating)")
    if arr.shape[0] == 0:
        raise ValueError("empty batch")
    return arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2]


def squared_score_loss(a_users: np.ndarray, a_items: np.ndarray,
                       batch) -> tuple[float, np.ndarray, np.ndarray]:
    """Sum of squared gaps between feature dot products and ratings, with its
    gradient at the feature level."""
    u, i, r = _as_scored_pairs(batch)
    au = a_users[u]
    ai = a_items[i]
    e = np.einsum("ij,ij->i", au, ai) - r
    loss = float(np.sum(e * e))
    dAu = _indicator(u, len(a_users)) @ ((2.0 * e)[:, None] * ai)
    dAv = _indicator(i, len(a_items)) @ ((2.0 * e)[:, None] * au)
    return loss, dAu, dAv


def stage1_loss_and_grad(user_net: AuxiliaryExtractor, item_net: AuxiliaryExtractor,
                         batch) -> float:
    """Squared-error objective over the batch; backpropagates through both
    extractors into every parameter's gradient buffer.  Requires a preceding
    train-mode forward on each side."""
    if user_net.output is None or item_net.output is None:
        raise ValueError("run a train-mode forward before computing gradients")
    loss, dAu, dAv = squared_score_loss(user_net.output, item_net.output, batch)
    user_net.backward(dAu)
    item_net.backward(dAv)
    return loss
