"""Attribute-side feature extraction with hand-written gradients.

A reducing MLP maps wide one-hot attribute vectors to the embedding
dimension, then a K-layer convolution stack over the thresholded similarity
graph refines them.  Each hidden layer of both is a :class:`Dense` block
(affine, count-weighted batch normalization, rectifier); the MLP ends in an
affine map.  The reverse pass is written out by hand: every block caches
what its backward needs during a train-mode forward (``train=True``), and
:meth:`AuxiliaryExtractor.release_work` drops those caches once training is
done with them.  Eval-mode forwards (``train=False``) use running
statistics, cache nothing, and are reentrant.

Categorical attribute rows repeat heavily (a handful of age/occupation
combinations cover every user), so the MLP runs on the distinct rows of its
input only; its batch norms weight each distinct row by how often it occurs.
Likewise the convolutions run on node classes (see :func:`node_classes`):
nodes the similarity graph leaves with only a self-loop keep identical
features through every layer when they share an attribute row, so each such
group is computed once and the output is gathered back to every node at the
end.  The similarity graph is symmetric, as LightGCN's adjacency is, so the
backward multiplies by the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import store
from .data import AttributeField
from .graph import check_graph
from .optim import Param, scatter_rows


def save_dense_matrix(path, mat: np.ndarray, fields: Sequence[AttributeField]) -> None:
    """Write a real matrix as a :mod:`store` file: meta ``{"kind": "matrix",
    "fields": [...]}`` and the float64 array ``values``.  ``fields`` are an
    attribute matrix's one-hot fields, each kept as its name and categories,
    and empty for a feature matrix.  Externally computed feature matrices
    written here can stand in for this module's output."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    meta = {"kind": "matrix",
            "fields": [{"name": f.name, "categories": list(f.categories)} for f in fields]}
    store.save(path, store.ArrayFile(meta, {"values": mat}))


@dataclass(frozen=True)
class DistinctRows:
    """An attribute matrix as its distinct rows plus the map back to all rows.

    ``values[inverse]`` is the original matrix (one row per node class, in
    :class:`NodeClasses`), and ``counts`` holds how many nodes each distinct
    row stands for."""

    values: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray


def distinct_rows(x: np.ndarray) -> DistinctRows:
    """Group the rows of ``x``; done once per input, not per forward."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-d attribute matrix")
    values, inverse, counts = np.unique(x, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    return DistinctRows(values, inverse, counts.astype(np.float64))


@dataclass(frozen=True)
class NodeClasses:
    """The nodes of one side grouped into classes whose features agree at
    every convolution layer.

    ``rows`` gives each class its distinct attribute row (counts stay per
    node, so the encoder is unchanged); ``sim`` is the similarity graph over
    classes; ``counts`` holds each class's size and ``inverse`` maps nodes
    to classes."""

    rows: DistinctRows
    sim: sp.csr_matrix
    counts: np.ndarray
    inverse: np.ndarray


def node_classes(x: np.ndarray, sim: sp.spmatrix) -> NodeClasses:
    """Group the nodes of ``x`` over the similarity graph ``sim``; done once
    per input, not per forward.

    This is where a graph enters stage 1, and the one place it is checked,
    by :func:`graph.check_graph`: ``sim`` must be square over the rows of
    ``x``, equal in storage to its transpose once its rows are sorted, and
    store every diagonal entry (a :class:`ValueError` otherwise).  The
    classes are built from the sorted rows.

    A node whose row of ``sim`` stores only its diagonal is isolated: it
    aggregates nothing but itself, so its features stay a function of its
    attribute row and diagonal value through every layer.  Isolated nodes
    sharing both form one class; every other node is a class of its own.
    Classes are numbered by their first node.  The class graph is the
    first node's row of ``sim`` with its columns relabelled to classes, so
    ``sim @ h`` over classes adds the same terms in the same order as over
    nodes.  No node links to an isolated one, so the class graph keeps the
    sorted rows and the symmetry of ``sim``: it is its own transpose."""
    rows = distinct_rows(x)
    n = len(rows.inverse)
    sim = check_graph(sim, n, similarity=True)
    lone = np.flatnonzero(np.diff(sim.indptr) == 1)
    iso = lone[sim.indices[sim.indptr[lone]] == lone]
    key = np.column_stack([rows.inverse[iso], sim.diagonal()[iso]])
    _, first, group = np.unique(key, axis=0, return_index=True, return_inverse=True)
    rep = np.arange(n)
    rep[iso] = iso[first][group.reshape(-1)]
    reps, inverse = np.unique(rep, return_inverse=True)
    sub = sim[reps]
    class_sim = sp.csr_matrix((sub.data, inverse[sub.indices], sub.indptr),
                              shape=(len(reps), len(reps)))
    class_rows = DistinctRows(rows.values, rows.inverse[reps], rows.counts)
    return NodeClasses(class_rows, class_sim, np.bincount(inverse).astype(np.float64),
                       inverse)


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
    the normalization and the running update, with momentum 0.1 and eps 1e-5.

    Input row k stands for ``counts[k]`` identical rows of the batch: the
    moments are count-weighted, and backward takes and returns gradients
    summed over each row's copies."""

    def __init__(self, dim: int, name: str = "bn"):
        self.gamma = Param(np.ones(dim), f"{name}.gamma")
        self.beta = Param(np.zeros(dim), f"{name}.beta")
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.momentum = 0.1
        self.eps = 1e-5
        self._cache = None

    def forward(self, x: np.ndarray, train: bool, counts: np.ndarray) -> np.ndarray:
        if train:
            n = counts.sum()
            if n < 2:
                raise ValueError("batch normalization needs at least 2 rows in train mode")
            # the arithmetic np.average runs, without its per-call checks;
            # counts are integer class sizes, so n is exact in any order
            mu = (x * counts[:, None]).sum(axis=0) / n
            var = (np.square(x - mu) * counts[:, None]).sum(axis=0) / n
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
        n, c = counts.sum(), counts[:, None]
        self.gamma.grad += (dy * xhat).sum(axis=0)
        self.beta.grad += dy.sum(axis=0)
        dxhat = dy * self.gamma.value
        return (inv_std / n) * (n * dxhat - c * dxhat.sum(axis=0)
                                - c * xhat * (dxhat * xhat).sum(axis=0))

    def params(self):
        return [self.gamma, self.beta]


class Dense:
    """Affine map, count-weighted batch norm, rectifier; both parts take ``name``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str):
        self.affine = Affine(in_dim, out_dim, rng, name)
        self.bn = BatchNorm(out_dim, name)
        self._mask = None

    def forward(self, x: np.ndarray, train: bool, counts: np.ndarray) -> np.ndarray:
        y = self.bn.forward(self.affine.forward(x, train), train, counts)
        if train:
            self._mask = y > 0
        return np.maximum(y, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return self.affine.backward(self.bn.backward(dy * self._mask))

    def params(self):
        return self.affine.params() + self.bn.params()


class AuxEncoder:
    """Reducing MLP: a :class:`Dense` layer per interior width, then affine.

    ``layer_dims`` chains from the one-hot width down to the embedding
    dimension; with a single entry pair the encoder collapses to one affine
    map with no normalization or activation.

    The layers run on the distinct input rows only (see :class:`DistinctRows`),
    so the cost scales with distinct attribute rows, not with nodes.
    """

    def __init__(self, layer_dims, rng: np.random.Generator, name: str = "mlp"):
        dims = list(layer_dims)
        if len(dims) < 2:
            raise ValueError("layer_dims needs at least input and output sizes")
        self.hidden = [Dense(dims[l], dims[l + 1], rng, f"{name}.{l}")
                       for l in range(len(dims) - 2)]
        self.out = Affine(dims[-2], dims[-1], rng, f"{name}.{len(dims) - 2}")
        self._rows: DistinctRows | None = None

    def forward(self, rows: DistinctRows, *, train: bool) -> np.ndarray:
        """Output for every row of the matrix ``rows`` groups (see
        :func:`distinct_rows`, run once per input, not per forward)."""
        if train:
            self._rows = rows
        h = rows.values
        for layer in self.hidden:
            h = layer.forward(h, train, rows.counts)
        return self.out.forward(h, train)[rows.inverse]

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients from the per-row output gradient;
        returns the gradient with respect to the distinct input rows."""
        d = self.out.backward(scatter_rows(self._rows.inverse, len(self._rows.values), d_out))
        for layer in reversed(self.hidden):
            d = layer.backward(d)
        return d

    def params(self):
        return [p for layer in self.hidden for p in layer.params()] + self.out.params()

    def batch_norms(self) -> list[BatchNorm]:
        return [layer.bn for layer in self.hidden]


class AuxGcnStack:
    """K dim -> dim :class:`Dense` layers, each on the aggregate ``sim @ h``
    of neighbor features weighted by the stored similarities; K = 0 passes
    features through unchanged.  The graph is symmetric (see
    :func:`node_classes`), so the backward multiplies by the graph itself.

    The rows are node classes (see :class:`NodeClasses`): row k stands for
    ``counts[k]`` nodes in the batch norms, and counts of ones make them plain
    nodes.
    """

    def __init__(self, dim: int, num_layers: int, rng: np.random.Generator, name: str = "gcn"):
        if num_layers < 0:
            raise ValueError("num_layers must be >= 0")
        self.layers = [Dense(dim, dim, rng, f"{name}.{k}") for k in range(num_layers)]
        self._sim = None

    def forward(self, sim: sp.csr_matrix, h: np.ndarray, counts: np.ndarray, *,
                train: bool) -> np.ndarray:
        if train:
            self._sim = sim
        for layer in self.layers:
            h = layer.forward(sim @ h, train, counts)
        return h

    def backward(self, d: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            d = self._sim @ layer.backward(d)
        return d

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def batch_norms(self) -> list[BatchNorm]:
        return [layer.bn for layer in self.layers]


class AuxiliaryExtractor:
    """One side (users or items) of the attribute pipeline: MLP then GCN.

    A train-mode forward keeps only what its backward reads: each layer's
    cache and the node classes it ran on, not its output."""

    def __init__(self, encoder: AuxEncoder, gcn: AuxGcnStack):
        self.encoder = encoder
        self.gcn = gcn
        self._classes: NodeClasses | None = None

    def forward(self, classes: NodeClasses, *, train: bool) -> np.ndarray:
        """Features for every node of ``classes`` (see :func:`node_classes`,
        run once per input, not per forward)."""
        h = self.encoder.forward(classes.rows, train=train)
        a = self.gcn.forward(classes.sim, h, classes.counts, train=train)[classes.inverse]
        if train:
            self._classes = classes
        return a

    def backward(self, d_a: np.ndarray) -> None:
        d_classes = scatter_rows(self._classes.inverse, len(self._classes.counts), d_a)
        self.encoder.backward(self.gcn.backward(d_classes))

    def release_work(self) -> None:
        """Drop what the last train-mode forward cached for its backward; the
        next train-mode forward caches it again."""
        for layer in self.encoder.hidden + self.gcn.layers:
            layer.affine._x = layer.bn._cache = layer._mask = None
        self.encoder.out._x = None
        self.encoder._rows = self.gcn._sim = self._classes = None

    def params(self):
        return self.encoder.params() + self.gcn.params()


@dataclass
class AuxnetConfig:
    """Interior MLP widths and similarity-GCN depth of both extractors.  An
    empty ``hidden`` leaves the encoder one affine map."""

    hidden: list[int] = field(default_factory=lambda: [256])
    gcn_layers: int = 2

    def validate(self) -> None:
        if self.gcn_layers < 0:
            raise ValueError(f"gcn_layers must be >= 0, got {self.gcn_layers}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")


def build_extractor(in_dim: int, dim: int, hidden, gcn_layers: int,
                    rng: np.random.Generator, name: str = "aux") -> AuxiliaryExtractor:
    """Standard two-part extractor; ``hidden`` lists the MLP's interior widths."""
    dims = [in_dim, *hidden, dim]
    enc = AuxEncoder(dims, rng, name=f"{name}.mlp")
    stack = AuxGcnStack(dim, gcn_layers, rng, name=f"{name}.gcn")
    return AuxiliaryExtractor(enc, stack)


def squared_score_loss(a_users: np.ndarray, a_items: np.ndarray,
                       batch) -> tuple[float, np.ndarray, np.ndarray]:
    """Sum of squared gaps between feature dot products and ratings over the
    batch columns (int64 users, int64 items, float64 ratings), with its
    gradient at the feature level.  Stage 1 trains the attribute features on
    it, and stage 2's squared-error graph loss is the same function."""
    u, i, r = batch
    au = a_users[u]
    ai = a_items[i]
    e = np.einsum("ij,ij->i", au, ai) - r
    loss = float(np.sum(e * e))
    dAu = scatter_rows(u, len(a_users), (2.0 * e)[:, None] * ai)
    dAv = scatter_rows(i, len(a_items), (2.0 * e)[:, None] * au)
    return loss, dAu, dAv


def stage1_loss_and_grad(user_net: AuxiliaryExtractor, item_net: AuxiliaryExtractor,
                         user_classes: NodeClasses, item_classes: NodeClasses,
                         batch) -> float:
    """One stage-1 step: a train-mode forward of each extractor on its node
    classes, the squared-error objective over the batch, and the backward
    pass through both extractors into every parameter's gradient buffer.
    Returns the loss."""
    a_users = user_net.forward(user_classes, train=True)
    a_items = item_net.forward(item_classes, train=True)
    loss, dAu, dAv = squared_score_loss(a_users, a_items, batch)
    user_net.backward(dAu)
    item_net.backward(dAv)
    return loss
