"""Feature fusion through interaction-score agreement.

Given graph features g and frozen auxiliary features a, three scores are
computed per pair: r_a = a_u.a_i, r_c1 = g_u.a_i, r_c2 = a_u.g_i.  Fusion
minimizes (r_a - r_c1)^2 and (r_a - r_c2)^2 so the two feature spaces agree
on predictions instead of coordinates; no new parameters are introduced.
The module also carries the concatenation and (weighted) summation baseline
losses and the one stage-2 objective and step every variant trains through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .auxnet import squared_score_loss
from .backbone import LightGCN, bpr_loss_and_feature_grad
from .optim import Param, scatter_rows

VARIANTS = ("cross", "concat", "plain-sum", "weighted-sum", "none")
# the baselines: they train on rated batches and score with the auxiliary
# features, so their checkpoints keep a copy of them
AUX_SCORED = ("concat", "plain-sum", "weighted-sum")


@dataclass
class FusionConfig:
    """Fusion variant, loss weights, and the stage-2 graph-loss flavor.

    The cross terms cover the batch's first two columns, its (user, item)
    pairs: the observed positives under ``graph_loss = "bpr"``, and every
    rated pair under ``"mse"``, the zero-rated padded negatives of implicit
    data included.  The baselines (concat, plain-sum, weighted-sum) always
    train on rated batches and ignore ``graph_loss``.
    """

    variant: str = "cross"
    lambda1: float = 0.05
    lambda2: float = 0.001
    graph_loss: str = "bpr"  # bpr | mse

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown fusion variant {self.variant!r}")
        if self.graph_loss not in ("bpr", "mse"):
            raise ValueError(f"graph_loss must be 'bpr' or 'mse', got {self.graph_loss!r}")
        if not (np.isfinite(self.lambda1) and np.isfinite(self.lambda2)):
            raise ValueError("fusion weights must be finite")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("fusion weights must be >= 0")

    @property
    def active(self) -> bool:
        return self.variant != "none"

    @property
    def rated(self) -> bool:
        """Whether batches are (user, item, rating) columns rather than
        (user, positive, negative) columns."""
        return self.variant in AUX_SCORED or self.graph_loss == "mse"


# ---------------------------------------------------------------------------
# Scores and losses
# ---------------------------------------------------------------------------

def cross_fusion_loss(g_users: np.ndarray, g_items: np.ndarray, a_users: np.ndarray,
                      a_items: np.ndarray, batch, cfg: FusionConfig
                      ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Score-agreement losses over the (user, item) pairs of the batch's
    first two columns.

    Returns (L_c1, L_c2, dG_users, dG_items) where the gradients are of
    lambda1 * L_c1 + lambda2 * L_c2 and flow only into the graph features;
    the auxiliary features are a fixed stage-1 product.
    """
    if g_users.shape[1] != a_users.shape[1]:
        raise ValueError("graph and auxiliary features must share the same dimension")
    u, i = batch[0], batch[1]
    gu, gi = g_users[u], g_items[i]
    au, ai = a_users[u], a_items[i]
    r_a = np.einsum("ij,ij->i", au, ai)
    r_c1 = np.einsum("ij,ij->i", gu, ai)
    r_c2 = np.einsum("ij,ij->i", au, gi)
    l1 = float(np.sum((r_a - r_c1) ** 2))
    l2 = float(np.sum((r_a - r_c2) ** 2))

    dGu = (scatter_rows(u, len(g_users), (2.0 * cfg.lambda1 * (r_c1 - r_a))[:, None] * ai)
           if cfg.lambda1 else np.zeros_like(g_users))
    dGv = (scatter_rows(i, len(g_items), (2.0 * cfg.lambda2 * (r_c2 - r_a))[:, None] * au)
           if cfg.lambda2 else np.zeros_like(g_items))
    return l1, l2, dGu, dGv


def effective_features(variant: str, g_users: np.ndarray, g_items: np.ndarray,
                       a_users: np.ndarray | None, a_items: np.ndarray | None,
                       weights=None) -> tuple[np.ndarray, np.ndarray]:
    """User/item matrices whose dot product is the variant's prediction score.

    Cross fusion (and no fusion) scores with the graph features alone; the
    ``AUX_SCORED`` baselines score with their fused predictor, expressed here as augmented or
    transformed feature matrices so one ranking routine serves every variant.
    Weighted summation scores with its trained ``weights`` (W1, W2, W3, W4)
    and refuses to score without them.
    """
    if variant not in AUX_SCORED:
        return g_users, g_items
    if a_users is None or a_items is None:
        raise ValueError(f"variant {variant!r} needs auxiliary features to score")
    if variant == "concat":
        return (np.concatenate([g_users, a_users], axis=1),
                np.concatenate([g_items, a_items], axis=1))
    if variant == "plain-sum":
        return g_users + a_users, g_items + a_items
    w1, w2, w3, w4 = _required_weights(weights)  # weighted-sum
    return a_users @ w1.T + g_users @ w2.T, a_items @ w3.T + g_items @ w4.T


def _required_weights(weights):
    if weights is None:
        raise ValueError("weighted summation needs its four weight matrices "
                         "(W1, W2, W3, W4)")
    return weights


def concat_fusion_loss(g_users, g_items, a_users, a_items, batch
                       ) -> tuple[float, np.ndarray, np.ndarray]:
    """Baseline: predict with the sum of both dot products, squared error.

    Equivalent to scoring with concatenated [g; a] vectors.  Gradients flow
    only into the graph features.
    """
    u, i, r = batch
    e = (np.einsum("ij,ij->i", a_users[u], a_items[i])
         + np.einsum("ij,ij->i", g_users[u], g_items[i]) - r)
    loss = float(np.sum(e * e))
    dGu = scatter_rows(u, len(g_users), (2.0 * e)[:, None] * g_items[i])
    dGv = scatter_rows(i, len(g_items), (2.0 * e)[:, None] * g_users[u])
    return loss, dGu, dGv


def weighted_sum_fusion_loss(g_users, g_items, a_users, a_items, batch, weights
                             ) -> tuple[float, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Baseline: squared error of (W1 a_u + W2 g_u) . (W3 a_i + W4 g_i).

    Returns the loss, feature-level gradients for the graph features, and the
    four weight-matrix gradients.
    """
    w1, w2, w3, w4 = weights
    d = g_users.shape[1]
    for w in weights:
        if w.shape != (d, d):
            raise ValueError("weight matrices must be (dim, dim)")
    u, i, r = batch
    pu = a_users[u] @ w1.T + g_users[u] @ w2.T
    qi = a_items[i] @ w3.T + g_items[i] @ w4.T
    e = np.einsum("ij,ij->i", pu, qi) - r
    loss = float(np.sum(e * e))

    coef = (2.0 * e)[:, None]
    dGu = scatter_rows(u, len(g_users), (coef * qi) @ w2)
    dGv = scatter_rows(i, len(g_items), (coef * pu) @ w4)
    dW1 = (coef * qi).T @ a_users[u]
    dW2 = (coef * qi).T @ g_users[u]
    dW3 = (coef * pu).T @ a_items[i]
    dW4 = (coef * pu).T @ g_items[i]
    return loss, dGu, dGv, [dW1, dW2, dW3, dW4]


# ---------------------------------------------------------------------------
# The stage-2 objective and step
# ---------------------------------------------------------------------------

def feature_objective(g_users: np.ndarray, g_items: np.ndarray,
                      a_users: np.ndarray | None, a_items: np.ndarray | None,
                      batch, cfg: FusionConfig, weights=None
                      ) -> tuple[float, np.ndarray, np.ndarray, list[np.ndarray]]:
    """The configured variant's stage-2 objective at the feature level.

    Returns (loss, dG_users, dG_items, dW): the graph loss plus the fusion
    terms, their gradients with respect to the graph features, and the
    weight-matrix gradients (empty except for weighted summation).  The
    ``batch`` columns are (user, positive, negative) for the pairwise graph
    loss and (user, item, rating) when ``cfg.rated``.  The auxiliary features
    never receive gradient.
    """
    variant = cfg.variant
    if variant != "none" and (a_users is None or a_items is None):
        raise ValueError("fusion requires the stage-1 auxiliary features")
    if variant != "none" and a_users.shape[1] != g_users.shape[1]:
        raise ValueError("auxiliary and graph feature dimensions differ")

    if variant == "concat":
        loss, dU, dV = concat_fusion_loss(g_users, g_items, a_users, a_items, batch)
        return loss, dU, dV, []
    if variant == "plain-sum":
        # the sum's gradient is the graph features' gradient: a is a constant
        loss, dU, dV = squared_score_loss(g_users + a_users, g_items + a_items, batch)
        return loss, dU, dV, []
    if variant == "weighted-sum":
        return weighted_sum_fusion_loss(g_users, g_items, a_users, a_items, batch,
                                        _required_weights(weights))
    if variant not in ("cross", "none"):
        raise ValueError(f"unknown fusion variant {variant!r}")

    if cfg.graph_loss == "mse":
        loss, dU, dV = squared_score_loss(g_users, g_items, batch)
    else:
        loss, dU, dV = bpr_loss_and_feature_grad(g_users, g_items, batch)
    if variant == "cross" and (cfg.lambda1 or cfg.lambda2):
        l1, l2, cU, cV = cross_fusion_loss(g_users, g_items, a_users, a_items, batch, cfg)
        loss += cfg.lambda1 * l1 + cfg.lambda2 * l2
        dU = dU + cU
        dV = dV + cV
    return loss, dU, dV, []


def _batch_rows(model: LightGCN, batch, rated: bool):
    """The adjacency's row block at the sorted node rows a batch reads, and
    the batch with its user and item columns replaced by their positions
    among the user and the item rows.

    Restricting the outermost products costs a row slice and this mapping per
    batch, a fixed cost that only a large skipped share repays, so the rows
    are used only when they hold at most half of the adjacency's nonzeros.
    Otherwise, for a batch with no rows, and for a batch whose node indices
    are out of range (the full path then raises its usual error), this
    returns ``(None, batch)``."""
    n, size = model.num_users, model.adj.shape[0]
    # one contiguous row per id column keeps each pass over the indices contiguous
    nodes = np.stack(batch[:2] if rated else batch)
    nodes[1:] += n
    if not nodes.size or nodes.min() < 0 or nodes.max() >= size:
        return None, batch
    mask = np.zeros(size, dtype=bool)
    mask[nodes] = True
    if (2 * int(model.row_nnz[mask].sum()) > model.adj.nnz
            or nodes[0].max() >= n or nodes[1:].min() < n):
        return None, batch
    rows = np.flatnonzero(mask)
    local = np.searchsorted(rows, nodes)
    local[1:] -= np.searchsorted(rows, n)
    return model.row_block(rows), ((*local, batch[2]) if rated else tuple(local))


def fused_objective_grad(model: LightGCN, table: Param,
                         a_users: np.ndarray | None, a_items: np.ndarray | None,
                         batch, cfg: FusionConfig,
                         w_params: list[Param] | None = None) -> float:
    """One stage-2 step for every variant: the forward pass, the feature-level
    objective, the backward pass through the propagation into the layer-0
    table, and the squared-norm regularizer on that table.

    The objective reads only the node rows the batch names, so when
    ``_batch_rows`` picks them both passes run on their one row block alone
    (``LightGCN.forward`` and ``backward`` with ``block``) and the objective
    runs on |rows|-row feature matrices; every result is bit for bit the full
    passes'.  Weighted summation reads its matrices from ``w_params`` and
    accumulates their gradients there.  Returns the total loss.
    """
    weights = tuple(p.value for p in w_params) if w_params else None
    block, batch = _batch_rows(model, batch, cfg.rated)
    feats = model.forward(table, block)
    if block is not None:
        if a_users is not None:
            a_users = a_users[block.rows[:feats.num_users]]
        if a_items is not None:
            a_items = a_items[block.rows[feats.num_users:] - model.num_users]
    loss, dU, dV, dW = feature_objective(feats.users, feats.items, a_users, a_items,
                                         batch, cfg, weights)
    for p, g in zip(w_params or [], dW):
        p.grad += g
    table.grad += model.backward(np.concatenate([dU, dV], axis=0), block)
    lam = model.cfg.lambda_reg
    if lam:
        loss += lam * float(np.sum(table.value ** 2))
        table.grad += 2.0 * lam * table.value
    return loss

