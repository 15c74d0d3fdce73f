"""Numeric and closed-form gradient verification.

Runs every training loss on a small random instance and compares the
implemented backward passes against (a) central finite differences and
(b) the independently coded closed-form update directions.  The command-line
``verify-gradients`` subcommand drives this suite and fails the process if
any check exceeds its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import auxnet, fusion
from .backbone import BackboneConfig, LightGCN
from .data import InteractionDataset
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


def central_difference(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of ``x``.

    ``x`` is mutated in place during probing and restored afterwards, so the
    closure may read it by reference.
    """
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


def random_instance(seed: int) -> Instance:
    """A dense-enough random problem over 8 users, 12 items and 4 feature
    dimensions, with every index guaranteed coverage."""
    n, m, d = 8, 12, 4
    rng = np.random.default_rng(seed)
    users, items = [], []
    seen = set()
    for u in range(n):
        for i in rng.choice(m, size=rng.integers(2, 5), replace=False):
            users.append(u)
            items.append(int(i))
            seen.add((u, int(i)))
    for i in range(m):  # every item needs one interaction for degree > 0
        if not any(ii == i for ii in items):
            u = int(rng.integers(0, n))
            if (u, i) not in seen:
                users.append(u)
                items.append(i)
                seen.add((u, i))
    users = np.array(users)
    items = np.array(items)
    ds = InteractionDataset(n, m, users, items, np.ones(len(users)),
                            np.zeros(len(users), dtype=np.int8))
    R = interaction_matrix(ds, binarize=True)
    adj = normalize_bipartite(ds)
    sim_u = build_similarity_graph(R, "rows", epsilon=0.1)
    sim_v = build_similarity_graph(R, "columns", epsilon=0.1)

    g_users = rng.normal(size=(n, d))
    g_items = rng.normal(size=(m, d))
    a_users = rng.normal(size=(n, d))
    a_items = rng.normal(size=(m, d))

    rated = (users, items, rng.uniform(0.0, 1.0, size=len(users)))
    negs = []
    for u in users:
        pool = np.setdiff1d(np.arange(m), ds.train_items(int(u)))
        negs.append(int(rng.choice(pool)) if len(pool) else int(rng.integers(m)))
    ranked = (users, items, np.array(negs))
    return Instance(ds, adj, sim_u, sim_v, g_users, g_items, a_users, a_items,
                    rated, ranked)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def _check_bpr_embedding_grad(inst: Instance, rng) -> CheckResult:
    cfg = BackboneConfig(dim=inst.g_users.shape[1], num_layers=2, lambda_reg=0.01)
    model = LightGCN(inst.adj, inst.ds.n, cfg)
    table = Param(rng.normal(size=(inst.ds.n + inst.ds.m, cfg.dim)))
    fusion.fused_objective_grad(model, table, None, None, inst.ranked,
                                fusion.FusionConfig(variant="none"))

    def loss():
        f = model.forward(table)
        u, ip, ineg = inst.ranked
        x = np.einsum("ij,ij->i", f.users[u], f.items[ip] - f.items[ineg])
        return float(np.logaddexp(0.0, -x).sum()) + cfg.lambda_reg * float(np.sum(table.value ** 2))

    fd = central_difference(loss, table.value)
    return CheckResult("ranking loss: embedding gradient vs finite differences",
                       max_rel_error(table.grad, fd), FD_TOL)


def _check_cross_fusion_grad(inst: Instance, rng) -> CheckResult:
    cfg = fusion.FusionConfig(variant="cross", lambda1=0.7, lambda2=0.3)
    pairs = inst.rated[:2]
    _, _, dGu, dGv = fusion.cross_fusion_loss(inst.g_users, inst.g_items,
                                              inst.a_users, inst.a_items, pairs, cfg)

    def loss():
        l1, l2, _, _ = fusion.cross_fusion_loss(inst.g_users, inst.g_items,
                                                inst.a_users, inst.a_items, pairs, cfg)
        return cfg.lambda1 * l1 + cfg.lambda2 * l2

    err = max(max_rel_error(dGu, central_difference(loss, inst.g_users)),
              max_rel_error(dGv, central_difference(loss, inst.g_items)))
    return CheckResult("score-agreement loss: graph-feature gradient vs finite differences",
                       err, FD_TOL)


def _stage1_fd_error(inst: Instance, rng, x_u: np.ndarray, x_v: np.ndarray,
                     sim_u: sp.csr_matrix, sim_v: sp.csr_matrix) -> float:
    """Worst relative error of every stage-1 parameter gradient against
    central differences, for the given attribute rows and similarity graphs."""
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

    worst = 0.0
    for p in user_net.params() + item_net.params():
        fd = central_difference(loss, p.value)
        worst = max(worst, max_rel_error(p.grad, fd))
    return worst


def _check_stage1_param_grads(inst: Instance, rng) -> CheckResult:
    x_u = rng.normal(size=(inst.ds.n, 6))
    x_v = rng.normal(size=(inst.ds.m, 6))
    return CheckResult("attribute-pipeline loss: all parameter gradients vs finite differences",
                       _stage1_fd_error(inst, rng, x_u, x_v, inst.sim_u, inst.sim_v), FD_TOL)


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
    err = _stage1_fd_error(inst, rng, x_u, x_v, _isolate_tail(inst.sim_u),
                           _isolate_tail(inst.sim_v))
    return CheckResult("attribute-pipeline loss on repeated one-hot rows and merged node "
                       "classes: all parameter gradients vs finite differences", err, FD_TOL)


def _check_fused_objective_grad(inst: Instance, rng) -> CheckResult:
    d = inst.g_users.shape[1]
    cfg = BackboneConfig(dim=d, num_layers=2, lambda_reg=0.005)
    model = LightGCN(inst.adj, inst.ds.n, cfg)
    table = Param(rng.normal(size=(inst.ds.n + inst.ds.m, d)))
    fcfg = fusion.FusionConfig(variant="cross", lambda1=0.4, lambda2=0.2)
    fusion.fused_objective_grad(model, table, inst.a_users, inst.a_items, inst.ranked, fcfg)

    def loss():
        f = model.forward(table)
        u, ip, ineg = inst.ranked
        x = np.einsum("ij,ij->i", f.users[u], f.items[ip] - f.items[ineg])
        total = float(np.logaddexp(0.0, -x).sum())
        l1, l2, _, _ = fusion.cross_fusion_loss(f.users, f.items, inst.a_users,
                                                inst.a_items, inst.ranked[:2], fcfg)
        total += fcfg.lambda1 * l1 + fcfg.lambda2 * l2
        return total + cfg.lambda_reg * float(np.sum(table.value ** 2))

    fd = central_difference(loss, table.value)
    return CheckResult("combined objective: embedding gradient vs finite differences",
                       max_rel_error(table.grad, fd), FD_TOL)


def _check_concat_grad(inst: Instance, rng) -> CheckResult:
    _, dGu, dGv = fusion.concat_fusion_loss(inst.g_users, inst.g_items,
                                            inst.a_users, inst.a_items, inst.rated)

    def loss():
        val, _, _ = fusion.concat_fusion_loss(inst.g_users, inst.g_items,
                                              inst.a_users, inst.a_items, inst.rated)
        return val

    err = max(max_rel_error(dGu, central_difference(loss, inst.g_users)),
              max_rel_error(dGv, central_difference(loss, inst.g_items)))
    return CheckResult("concatenation loss: graph-feature gradient vs finite differences",
                       err, FD_TOL)


def _check_weighted_sum_grad(inst: Instance, rng) -> CheckResult:
    d = inst.g_users.shape[1]
    weights = tuple(rng.normal(size=(d, d)) for _ in range(4))
    _, dGu, dGv, dW = fusion.weighted_sum_fusion_loss(inst.g_users, inst.g_items,
                                                      inst.a_users, inst.a_items,
                                                      inst.rated, weights)

    def loss():
        val, _, _, _ = fusion.weighted_sum_fusion_loss(inst.g_users, inst.g_items,
                                                       inst.a_users, inst.a_items,
                                                       inst.rated, weights)
        return val

    err = max(max_rel_error(dGu, central_difference(loss, inst.g_users)),
              max_rel_error(dGv, central_difference(loss, inst.g_items)))
    for k in range(4):
        err = max(err, max_rel_error(dW[k], central_difference(loss, weights[k])))
    return CheckResult("weighted-summation loss: feature and weight gradients vs finite differences",
                       err, FD_TOL)


def _check_closed_forms(inst: Instance, rng) -> list[CheckResult]:
    lam1, lam2 = 0.35, 0.15
    out = []

    _, dAu, dAv = auxnet.squared_score_loss(inst.a_users, inst.a_items, inst.rated)
    eAu, eAv = fusion.mse_grad_analytic(inst.a_users, inst.a_items, inst.rated)
    out.append(CheckResult("auxiliary squared-error update direction: closed form vs backward",
                           max(max_abs_error(dAu, eAu), max_abs_error(dAv, eAv)), EXACT_TOL))

    _, dGu, dGv = auxnet.squared_score_loss(inst.g_users, inst.g_items, inst.rated)
    eGu, eGv = fusion.mse_grad_analytic(inst.g_users, inst.g_items, inst.rated)
    out.append(CheckResult("graph squared-error update direction: closed form vs backward",
                           max(max_abs_error(dGu, eGu), max_abs_error(dGv, eGv)), EXACT_TOL))

    mse_cfg = fusion.FusionConfig(variant="cross", lambda1=lam1, lambda2=lam2, graph_loss="mse")
    _, dGu, dGv, _ = fusion.feature_objective(inst.g_users, inst.g_items, inst.a_users,
                                              inst.a_items, inst.rated, mse_cfg)
    eGu, eGv = fusion.fused_mse_grad_analytic(inst.g_users, inst.g_items, inst.a_users,
                                              inst.a_items, inst.rated, lam1, lam2)
    out.append(CheckResult("fused squared-error update direction: closed form vs backward",
                           max(max_abs_error(dGu, eGu), max_abs_error(dGv, eGv)), EXACT_TOL))

    _, dGu, dGv = fusion.concat_fusion_loss(inst.g_users, inst.g_items, inst.a_users,
                                            inst.a_items, inst.rated)
    eGu, eGv = fusion.concat_grad_analytic(inst.g_users, inst.g_items, inst.a_users,
                                           inst.a_items, inst.rated)
    out.append(CheckResult("concatenation update direction: closed form vs backward",
                           max(max_abs_error(dGu, eGu), max_abs_error(dGv, eGv)), EXACT_TOL))

    weights = tuple(rng.normal(size=(4, 4)) for _ in range(4))
    _, dGu, dGv, _ = fusion.weighted_sum_fusion_loss(inst.g_users, inst.g_items, inst.a_users,
                                                     inst.a_items, inst.rated, weights)
    eGu, eGv = fusion.weighted_sum_grad_analytic(inst.g_users, inst.g_items, inst.a_users,
                                                 inst.a_items, inst.rated, weights)
    out.append(CheckResult("weighted-summation update direction: closed form vs backward",
                           max(max_abs_error(dGu, eGu), max_abs_error(dGv, eGv)), EXACT_TOL))
    return out


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
