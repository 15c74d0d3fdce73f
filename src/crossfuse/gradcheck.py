"""Numeric and closed-form gradient verification.

Runs every training loss on a small random instance, drawn through the
library's own small-dataset generator and negative sampler, and compares the
implemented backward passes against (a) central finite differences and
(b) the closed-form update directions coded here, which share no code with
the vectorized backward passes.  The command-line ``verify-gradients``
subcommand drives this suite and fails the process if any check exceeds its
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import auxnet, fusion, synthetic
from .backbone import BackboneConfig, LightGCN
from .data import InteractionDataset, sample_negatives
from .graph import build_similarity_graph, interaction_matrix, normalize_bipartite
from .optim import Param

FD_TOL = 1e-5
EXACT_TOL = 1e-10


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def central_difference(f, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of ``x``, with
    step 1e-6.

    ``x`` is mutated in place during probing and restored afterwards, so the
    closure may read it by reference.
    """
    h = 1e-6
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for k in range(flat.size):
        keep = flat[k]
        flat[k] = keep + h
        up = f()
        flat[k] = keep - h
        down = f()
        flat[k] = keep
        g[k] = (up - down) / (2.0 * h)
    return grad


def max_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Elementwise |a-b| / max(1, |a|, |b|), reduced to the worst entry."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def max_abs_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.asarray(a).size else 0.0


# ---------------------------------------------------------------------------
# Random instance
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    ds: InteractionDataset
    adj: sp.csr_matrix
    sim_u: sp.csr_matrix
    sim_v: sp.csr_matrix
    g_users: np.ndarray
    g_items: np.ndarray
    a_users: np.ndarray
    a_items: np.ndarray
    rated: tuple[np.ndarray, np.ndarray, np.ndarray]   # columns u, i, r
    ranked: tuple[np.ndarray, np.ndarray, np.ndarray]  # columns u, i_pos, i_neg

    @property
    def features(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The arrays (g_users, g_items, a_users, a_items) themselves."""
        return self.g_users, self.g_items, self.a_users, self.a_items


def random_instance(seed: int) -> Instance:
    """A dense-enough random problem over 8 users, 12 items and 4 feature
    dimensions, with every index covered; the ranked batch's negatives are
    the generator's last draws."""
    n, m, d = 8, 12, 4
    rng = np.random.default_rng(seed)
    ds = synthetic.random_dataset(rng, n, m, 2, 5)
    R = interaction_matrix(ds, binarize=True)
    adj = normalize_bipartite(ds)
    sim_u = build_similarity_graph(R, "rows", epsilon=0.1)
    sim_v = build_similarity_graph(R, "columns", epsilon=0.1)

    g_users = rng.normal(size=(n, d))
    g_items = rng.normal(size=(m, d))
    a_users = rng.normal(size=(n, d))
    a_items = rng.normal(size=(m, d))

    users, items = ds.users, ds.items
    rated = (users, items, rng.uniform(0.0, 1.0, size=len(users)))
    ranked = (users, items, sample_negatives(ds, users, rng))
    return Instance(ds, adj, sim_u, sim_v, g_users, g_items, a_users, a_items,
                    rated, ranked)


# ---------------------------------------------------------------------------
# Closed-form gradients (independent verification route)
# ---------------------------------------------------------------------------
# Each function below evaluates the published update direction literally: a
# scalar weight per batch pair times a feature vector, summed pair by pair in
# batch order.  They share no code with the vectorized backward passes they
# are compared against.

def _per_pair(g_users, g_items, batch, pair):
    """Gradients with respect to ``g_users`` and ``g_items``: walking the
    batch pairs (u, j, r) in batch order, ``pair(u, j, r)`` returns the two
    vectors the pair adds to user row u and to item row j."""
    dGu = np.zeros_like(g_users)
    dGv = np.zeros_like(g_items)
    for u, j, r in zip(*batch):
        to_user, to_item = pair(int(u), int(j), float(r))
        dGu[u] += to_user
        dGv[j] += to_item
    return dGu, dGv


def mse_grad_analytic(g_users, g_items, batch):
    """d/dg of the squared-error loss of g_u.g_j against the rating:
    sum_j 2(g_u.g_j - r) g_j.  The same form checks the stage-1 auxiliary
    features and the stage-2 graph features."""
    def pair(u, j, r):
        w = 2.0 * (g_users[u] @ g_items[j] - r)
        return w * g_items[j], w * g_users[u]
    return _per_pair(g_users, g_items, batch, pair)


def fused_mse_grad_analytic(g_users, g_items, a_users, a_items, batch,
                            lambda1: float, lambda2: float):
    """Update direction of the full squared-error objective: each neighbor
    contributes w_g * g_j + w_c * a_j, mixing both feature spaces."""
    def pair(u, j, r):
        w_g = 2.0 * (g_users[u] @ g_items[j] - r)
        r_a = a_users[u] @ a_items[j]
        w_cu = 2.0 * lambda1 * (g_users[u] @ a_items[j] - r_a)
        w_cj = 2.0 * lambda2 * (a_users[u] @ g_items[j] - r_a)
        return w_g * g_items[j] + w_cu * a_items[j], w_g * g_users[u] + w_cj * a_users[u]
    return _per_pair(g_users, g_items, batch, pair)


def concat_grad_analytic(g_users, g_items, a_users, a_items, batch):
    """Concatenation baseline: the weight sees both scores but only g_j is
    ever added to the update."""
    def pair(u, j, r):
        w = 2.0 * (a_users[u] @ a_items[j] + g_users[u] @ g_items[j] - r)
        return w * g_items[j], w * g_users[u]
    return _per_pair(g_users, g_items, batch, pair)


def weighted_sum_grad_analytic(g_users, g_items, a_users, a_items, batch, weights):
    """Summation baseline: a fixed W2^T / W4^T mixing of both feature spaces."""
    w1, w2, w3, w4 = weights

    def pair(u, j, r):
        pu = w1 @ a_users[u] + w2 @ g_users[u]
        qj = w3 @ a_items[j] + w4 @ g_items[j]
        w = 2.0 * (pu @ qj - r)
        return w * (w2.T @ qj), w * (w4.T @ pu)
    return _per_pair(g_users, g_items, batch, pair)


# ---------------------------------------------------------------------------
# Check runners
# ---------------------------------------------------------------------------

def _fd(name: str, loss, probes) -> CheckResult:
    """Each (array, gradient) of ``probes``: the gradient against central
    differences of ``loss`` over the array, reduced to the worst relative
    error.  ``np.max`` keeps a NaN error, which then fails the tolerance."""
    errors = [max_rel_error(grad, central_difference(loss, x)) for x, grad in probes]
    return CheckResult(name, float(np.max(errors)), FD_TOL)


def _feature_fd(name: str, inst: Instance, objective, weights=()) -> CheckResult:
    """``objective()`` -> (loss, dG_users, dG_items, weight gradients) of a
    feature-level loss, checked over both graph-feature matrices and
    ``weights``."""
    _, dGu, dGv, dW = objective()
    return _fd(name, lambda: objective()[0],
               [(inst.g_users, dGu), (inst.g_items, dGv), *zip(weights, dW)])


def _step_fd(name: str, inst: Instance, rng, lambda_reg: float,
             fcfg: fusion.FusionConfig) -> CheckResult:
    """``fused_objective_grad`` on the ranked batch: its layer-0 table
    gradient against central differences of the ranking loss, plus the cross
    terms when the variant is cross, plus the regularizer."""
    d = inst.g_users.shape[1]
    model = LightGCN(inst.adj, inst.ds.n, BackboneConfig(dim=d, num_layers=2,
                                                         lambda_reg=lambda_reg))
    table = Param(rng.normal(size=(inst.ds.n + inst.ds.m, d)))
    aux = (inst.a_users, inst.a_items) if fcfg.active else (None, None)
    fusion.fused_objective_grad(model, table, *aux, inst.ranked, fcfg)

    def loss():
        f = model.forward(table)
        u, ip, ineg = inst.ranked
        x = np.einsum("ij,ij->i", f.users[u], f.items[ip] - f.items[ineg])
        total = float(np.logaddexp(0.0, -x).sum())
        if fcfg.active:
            l1, l2, _, _ = fusion.cross_fusion_loss(f.users, f.items, *aux,
                                                    inst.ranked[:2], fcfg)
            total += fcfg.lambda1 * l1 + fcfg.lambda2 * l2
        return total + lambda_reg * float(np.sum(table.value ** 2))

    return _fd(name, loss, [(table.value, table.grad)])


def _stage1_fd(name: str, inst: Instance, rng, x_u: np.ndarray, x_v: np.ndarray,
               sim_u: sp.csr_matrix, sim_v: sp.csr_matrix) -> CheckResult:
    """Every stage-1 parameter gradient against central differences, for the
    given attribute rows and similarity graphs."""
    d = inst.g_users.shape[1]
    x_u, x_v = auxnet.node_classes(x_u, sim_u), auxnet.node_classes(x_v, sim_v)
    user_net = auxnet.build_extractor(x_u.rows.values.shape[1], d, hidden=[5], gcn_layers=1,
                                      rng=rng, name="u")
    item_net = auxnet.build_extractor(x_v.rows.values.shape[1], d, hidden=[5], gcn_layers=1,
                                      rng=rng, name="v")

    auxnet.stage1_loss_and_grad(user_net, item_net, x_u, x_v, inst.rated)

    def loss():
        au = user_net.forward(x_u, train=True)
        av = item_net.forward(x_v, train=True)
        val, _, _ = auxnet.squared_score_loss(au, av, inst.rated)
        return val

    return _fd(name, loss, [(p.value, p.grad) for p in user_net.params() + item_net.params()])


def _exact(name: str, got, want) -> CheckResult:
    """A backward pass's (loss, dG_users, dG_items, ...) against a closed
    form's (dG_users, dG_items), reduced to the worst absolute difference."""
    errors = [max_abs_error(g, w) for g, w in zip(got[1:3], want)]
    return CheckResult(name, float(np.max(errors)), EXACT_TOL)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def _check_bpr_embedding_grad(inst: Instance, rng) -> CheckResult:
    return _step_fd("ranking loss: embedding gradient vs finite differences", inst, rng,
                    0.01, fusion.FusionConfig(variant="none"))


def _check_fused_objective_grad(inst: Instance, rng) -> CheckResult:
    return _step_fd("combined objective: embedding gradient vs finite differences", inst, rng,
                    0.005, fusion.FusionConfig(variant="cross", lambda1=0.4, lambda2=0.2))


def _check_cross_fusion_grad(inst: Instance, rng) -> CheckResult:
    cfg = fusion.FusionConfig(variant="cross", lambda1=0.7, lambda2=0.3)

    def objective():
        l1, l2, dGu, dGv = fusion.cross_fusion_loss(*inst.features, inst.rated[:2], cfg)
        return cfg.lambda1 * l1 + cfg.lambda2 * l2, dGu, dGv, []

    return _feature_fd("score-agreement loss: graph-feature gradient vs finite differences",
                       inst, objective)


def _check_concat_grad(inst: Instance, rng) -> CheckResult:
    return _feature_fd("concatenation loss: graph-feature gradient vs finite differences",
                       inst, lambda: (*fusion.concat_fusion_loss(*inst.features, inst.rated), []))


def _check_weighted_sum_grad(inst: Instance, rng) -> CheckResult:
    d = inst.g_users.shape[1]
    weights = tuple(rng.normal(size=(d, d)) for _ in range(4))
    return _feature_fd(
        "weighted-summation loss: feature and weight gradients vs finite differences", inst,
        lambda: fusion.weighted_sum_fusion_loss(*inst.features, inst.rated, weights), weights)


def _check_stage1_param_grads(inst: Instance, rng) -> CheckResult:
    x_u = rng.normal(size=(inst.ds.n, 6))
    x_v = rng.normal(size=(inst.ds.m, 6))
    return _stage1_fd("attribute-pipeline loss: all parameter gradients vs finite differences",
                      inst, rng, x_u, x_v, inst.sim_u, inst.sim_v)


def _repeated_one_hot(count: int, rng) -> np.ndarray:
    """Two one-hot fields of 3 categories each, with the category pair drawn
    from 4 fixed pairs, so any ``count`` > 4 rows repeat.  The last two rows
    are equal."""
    pairs = np.array([[0, 0], [0, 1], [1, 2], [2, 0]])[rng.integers(0, 4, size=count)]
    pairs[-1] = pairs[-2]
    x = np.zeros((count, 6))
    x[np.arange(count), pairs[:, 0]] = 1.0
    x[np.arange(count), 3 + pairs[:, 1]] = 1.0
    return x


def _isolate_tail(sim: sp.csr_matrix) -> sp.csr_matrix:
    """``sim`` with its second half of nodes cut down to their self-loops, so
    that those nodes are isolated and merge into node classes wherever their
    attribute rows agree."""
    keep = sim.shape[0] // 2
    coo = sim.tocoo()
    kept = (coo.row == coo.col) | ((coo.row < keep) & (coo.col < keep))
    return sp.csr_matrix((coo.data[kept], (coo.row[kept], coo.col[kept])), shape=sim.shape)


def _check_stage1_repeated_rows(inst: Instance, rng) -> CheckResult:
    x_u = _repeated_one_hot(inst.ds.n, rng)
    x_v = _repeated_one_hot(inst.ds.m, rng)
    return _stage1_fd("attribute-pipeline loss on repeated one-hot rows and merged node "
                      "classes: all parameter gradients vs finite differences", inst, rng,
                      x_u, x_v, _isolate_tail(inst.sim_u), _isolate_tail(inst.sim_v))


def _check_closed_forms(inst: Instance, rng) -> list[CheckResult]:
    lam1, lam2 = 0.35, 0.15
    feats, rated = inst.features, inst.rated
    g, a = feats[:2], feats[2:]
    mse_cfg = fusion.FusionConfig(variant="cross", lambda1=lam1, lambda2=lam2, graph_loss="mse")
    weights = tuple(rng.normal(size=(4, 4)) for _ in range(4))
    return [
        _exact("auxiliary squared-error update direction: closed form vs backward",
               auxnet.squared_score_loss(*a, rated), mse_grad_analytic(*a, rated)),
        _exact("graph squared-error update direction: closed form vs backward",
               auxnet.squared_score_loss(*g, rated), mse_grad_analytic(*g, rated)),
        _exact("fused squared-error update direction: closed form vs backward",
               fusion.feature_objective(*feats, rated, mse_cfg),
               fused_mse_grad_analytic(*feats, rated, lam1, lam2)),
        _exact("concatenation update direction: closed form vs backward",
               fusion.concat_fusion_loss(*feats, rated), concat_grad_analytic(*feats, rated)),
        _exact("weighted-summation update direction: closed form vs backward",
               fusion.weighted_sum_fusion_loss(*feats, rated, weights),
               weighted_sum_grad_analytic(*feats, rated, weights)),
    ]


def run_suite(seed: int = 0) -> list[CheckResult]:
    """Run every gradient check on one random instance.  Each check draws
    its own inputs from a generator seeded by ``seed`` and the check's name,
    so adding or removing a check leaves the others' inputs unchanged."""
    inst = random_instance(seed)

    def rng(check) -> np.random.Generator:
        return np.random.default_rng([seed, *check.__name__.encode()])

    results = [check(inst, rng(check)) for check in (
        _check_bpr_embedding_grad, _check_cross_fusion_grad, _check_stage1_param_grads,
        _check_fused_objective_grad, _check_concat_grad, _check_weighted_sum_grad,
        _check_stage1_repeated_rows)]
    results.extend(_check_closed_forms(inst, rng(_check_closed_forms)))
    return results
