import numpy as np
import pytest

from conftest import make_random_dataset
from crossfuse.auxnet import squared_score_loss
from crossfuse.backbone import BackboneConfig, LightGCN
from crossfuse.fusion import (FusionConfig, concat_fusion_loss, cross_fusion_loss,
                              effective_features, feature_objective, fused_objective_grad,
                              weighted_sum_fusion_loss)
from crossfuse.gradcheck import central_difference, fused_mse_grad_analytic, max_rel_error
from crossfuse.graph import normalize_bipartite
from crossfuse.optim import Param


@pytest.fixture
def small_world():
    rng = np.random.default_rng(0)
    n, m, d = 6, 9, 4
    g_u, g_v = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    a_u, a_v = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    u = np.arange(n)
    batch = (u, (u * 2 + 1) % m, (u % 3) / 2)
    return g_u, g_v, a_u, a_v, batch


PAIR = (np.array([0]), np.array([0]))


def _one_pair(g_u, g_i, a_u, a_i):
    """(L_c1, L_c2, dG_u, dG_i) of one user-item pair at unit weights."""
    l1, l2, dGu, dGv = cross_fusion_loss(g_u[None], g_i[None], a_u[None], a_i[None],
                                         PAIR, FusionConfig(lambda1=1.0, lambda2=1.0))
    return l1, l2, dGu[0], dGv[0]


class TestCrossScores:
    """The scores r_a = a_u.a_i, r_c1 = g_u.a_i and r_c2 = a_u.g_i, read
    through the cross terms (r_a - r_c)^2 and their gradients 2(r_c - r_a)."""

    def test_substitution_makes_all_equal(self):
        g = np.array([1.0, 2.0, -1.0])
        h = np.array([0.5, 0.0, 2.0])
        l1, l2, dGu, dGv = _one_pair(g, h, g, h)
        assert l1 == l2 == 0.0
        assert not dGu.any() and not dGv.any()

    def test_orthogonal_cross_score(self):
        # g_u is orthogonal to a_i, so r_c1 = 0 and L_c1 = r_a^2 with r_a = 2
        a_i = np.array([0.0, 1.0])
        l1, _, dGu, _ = _one_pair(np.array([1.0, 0.0]), np.zeros(2), np.array([0.0, 2.0]), a_i)
        assert l1 == 4.0
        assert np.array_equal(dGu, -4.0 * a_i)

    def test_hand_dot_product(self):
        # graph features at zero: both cross scores vanish and r_a = 3 - 2 = 1
        l1, l2, _, _ = _one_pair(np.zeros(2), np.zeros(2),
                                 np.array([1.0, 2.0]), np.array([3.0, -1.0]))
        assert l1 == pytest.approx(1.0)
        assert l2 == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _one_pair(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2))

    def test_bilinearity(self):
        rng = np.random.default_rng(1)
        g_u, g_i, a_u, a_i = rng.normal(size=(4, 5))
        r_a, r_c1 = a_u @ a_i, g_u @ a_i
        base = _one_pair(g_u, g_i, a_u, a_i)
        scaled = _one_pair(3.0 * g_u, g_i, a_u, a_i)
        assert base[0] == pytest.approx((r_a - r_c1) ** 2)
        assert scaled[0] == pytest.approx((r_a - 3.0 * r_c1) ** 2)
        assert scaled[1] == base[1]


class TestCrossFusionLoss:
    def test_equal_features_zero_loss(self, small_world):
        g_u, g_v, _, _, batch = small_world
        cfg = FusionConfig(lambda1=1.0, lambda2=1.0)
        l1, l2, dGu, dGv = cross_fusion_loss(g_u, g_v, g_u, g_v, batch[:2], cfg)
        assert l1 == pytest.approx(0.0)
        assert l2 == pytest.approx(0.0)
        assert np.allclose(dGu, 0) and np.allclose(dGv, 0)

    def test_hand_computed_pair(self):
        g_u = np.array([[1.0, 0.0]])
        a_u = np.array([[0.0, 1.0]])
        a_v = np.array([[1.0, 1.0]])
        g_v = np.array([[2.0, 0.0]])
        cfg = FusionConfig(lambda1=1.0, lambda2=1.0)
        l1, l2, _, _ = cross_fusion_loss(g_u, g_v, a_u, a_v, PAIR, cfg)
        assert l1 == pytest.approx(0.0)  # r_a = 1, r_c1 = 1
        assert l2 == pytest.approx(1.0)  # r_c2 = 2

    def test_gradients_never_touch_auxiliary(self, small_world):
        g_u, g_v, a_u, a_v, batch = small_world
        a_u_before, a_v_before = a_u.tobytes(), a_v.tobytes()
        cfg = FusionConfig(lambda1=0.6, lambda2=0.4)
        cross_fusion_loss(g_u, g_v, a_u, a_v, batch[:2], cfg)
        assert a_u.tobytes() == a_u_before
        assert a_v.tobytes() == a_v_before

    def test_loss_nonnegative_and_zero_iff_equal_scores(self, small_world):
        g_u, g_v, a_u, a_v, batch = small_world
        cfg = FusionConfig(lambda1=1.0, lambda2=1.0)
        l1, l2, _, _ = cross_fusion_loss(g_u, g_v, a_u, a_v, batch[:2], cfg)
        assert l1 > 0 and l2 > 0

    def test_dimension_mismatch(self, small_world):
        g_u, g_v, a_u, a_v, batch = small_world
        cfg = FusionConfig()
        with pytest.raises(ValueError):
            cross_fusion_loss(g_u, g_v, a_u[:, :2], a_v[:, :2], batch[:2], cfg)

    def test_introduces_no_parameters(self, small_world):
        g_u, g_v, a_u, a_v, batch = small_world
        for variant in ("cross", "concat", "plain-sum"):
            cfg = FusionConfig(variant=variant, graph_loss="mse")
            assert feature_objective(g_u, g_v, a_u, a_v, batch, cfg)[3] == []
        cfg = FusionConfig(variant="weighted-sum")
        identity = tuple(np.eye(4) for _ in range(4))
        dW = feature_objective(g_u, g_v, a_u, a_v, batch, cfg, identity)[3]
        assert [w.shape for w in dW] == [(4, 4)] * 4


class TestFusedObjective:
    def _setup(self, seed=0):
        ds = make_random_dataset(seed, n=6, m=8)
        adj = normalize_bipartite(ds)
        cfg = BackboneConfig(dim=3, num_layers=2, lambda_reg=0.01)
        model = LightGCN(adj, ds.n, cfg)
        rng = np.random.default_rng(seed)
        table = Param(rng.normal(size=(adj.shape[0], 3)))
        a_u = rng.normal(size=(ds.n, 3))
        a_v = rng.normal(size=(ds.m, 3))
        batch = []
        for u in range(ds.n):
            pos = ds.train_items(u)
            neg = [i for i in range(ds.m) if i not in set(pos.tolist())]
            batch.append([u, int(pos[0]), neg[0]])
        return ds, model, table, a_u, a_v, tuple(np.array(batch).T)

    def test_zero_weights_bit_identical_to_plain_ranking_loss(self):
        ds, model, table, a_u, a_v, batch = self._setup()
        fcfg = FusionConfig(variant="cross", lambda1=0.0, lambda2=0.0)

        table.grad[...] = 0.0
        fused = fused_objective_grad(model, table, a_u, a_v, batch, fcfg)
        fused_grad = table.grad.copy()

        table.grad[...] = 0.0
        plain = fused_objective_grad(model, table, None, None, batch,
                                     FusionConfig(variant="none"))
        assert fused == plain
        assert np.array_equal(fused_grad, table.grad)

    def test_fusion_requires_auxiliary(self):
        ds, model, table, _, _, batch = self._setup()
        fcfg = FusionConfig(variant="cross", lambda1=0.1, lambda2=0.1)
        with pytest.raises(ValueError, match="stage-1"):
            fused_objective_grad(model, table, None, None, batch, fcfg)

    def test_none_variant_needs_no_auxiliary(self):
        ds, model, table, _, _, batch = self._setup()
        table.grad[...] = 0.0
        loss = fused_objective_grad(model, table, None, None, batch,
                                    FusionConfig(variant="none"))
        assert np.isfinite(loss)

    def test_mse_feature_gradient_matches_closed_form(self, small_world):
        g_u, g_v, a_u, a_v, batch = small_world
        lam1, lam2 = 0.3, 0.7
        cfg = FusionConfig(variant="cross", lambda1=lam1, lambda2=lam2, graph_loss="mse")
        _, dGu, dGv, _ = feature_objective(g_u, g_v, a_u, a_v, batch, cfg)
        eGu, eGv = fused_mse_grad_analytic(g_u, g_v, a_u, a_v, batch, lam1, lam2)
        assert np.max(np.abs(dGu - eGu)) <= 1e-10
        assert np.max(np.abs(dGv - eGv)) <= 1e-10

    @pytest.mark.parametrize("variant, graph_loss", [
        ("cross", "bpr"), ("cross", "mse"), ("none", "bpr"), ("concat", "bpr"),
        ("plain-sum", "bpr"), ("weighted-sum", "bpr")])
    def test_step_gradients_match_finite_differences(self, variant, graph_loss):
        ds, model, table, a_u, a_v, ranked = self._setup(seed=3)
        cfg = FusionConfig(variant=variant, lambda1=0.4, lambda2=0.7, graph_loss=graph_loss)
        rng = np.random.default_rng(5)
        # rated columns: each positive with a rating, then its negative rated zero
        users, pos, neg = ranked
        rated = (np.concatenate([users, users]), np.concatenate([pos, neg]),
                 np.concatenate([rng.uniform(0.5, 1.0, size=len(users)), np.zeros(len(users))]))
        batch = rated if cfg.rated else ranked
        w_params = ([Param(np.eye(3) + 0.3 * rng.normal(size=(3, 3))) for _ in range(4)]
                    if variant == "weighted-sum" else None)

        def dot(x, y):
            return np.einsum("ij,ij->i", x, y)

        def loss():
            """The objective written out directly, independent of the library."""
            f = model.forward(table)
            gu, gv = f.users, f.items
            u, i, third = batch
            if variant == "concat":
                total = np.sum((dot(a_u[u], a_v[i]) + dot(gu[u], gv[i]) - third) ** 2)
            elif variant in ("plain-sum", "weighted-sum"):
                w1, w2, w3, w4 = ([p.value for p in w_params] if w_params
                                  else [np.eye(3)] * 4)
                pu = a_u[u] @ w1.T + gu[u] @ w2.T
                qi = a_v[i] @ w3.T + gv[i] @ w4.T
                total = np.sum((dot(pu, qi) - third) ** 2)
            elif graph_loss == "mse":
                total = np.sum((dot(gu[u], gv[i]) - third) ** 2)
            else:
                total = np.sum(np.logaddexp(0.0, -dot(gu[u], gv[i] - gv[third.astype(int)])))
            if variant == "cross":
                r_a = dot(a_u[u], a_v[i])
                total += cfg.lambda1 * np.sum((r_a - dot(gu[u], a_v[i])) ** 2)
                total += cfg.lambda2 * np.sum((r_a - dot(a_u[u], gv[i])) ** 2)
            return float(total) + model.cfg.lambda_reg * float(np.sum(table.value ** 2))

        table.grad[...] = 0.0
        got = fused_objective_grad(model, table, a_u, a_v, batch, cfg, w_params)
        assert got == pytest.approx(loss(), rel=1e-12)
        assert max_rel_error(table.grad, central_difference(loss, table.value)) <= 1e-5
        for p in w_params or []:
            assert max_rel_error(p.grad, central_difference(loss, p.value)) <= 1e-5

    @pytest.mark.parametrize("variant", ["cross", "none", "concat", "plain-sum",
                                         "weighted-sum"])
    def test_empty_batch_takes_only_the_regularizer(self, variant):
        ds, model, table, a_u, a_v, _ = self._setup(seed=3)
        cfg = FusionConfig(variant=variant, lambda1=0.4, lambda2=0.7)
        w_params = ([Param(np.eye(3)) for _ in range(4)] if variant == "weighted-sum"
                    else None)
        empty = np.zeros(0, dtype=np.int64)
        table.grad[...] = 0.0
        loss = fused_objective_grad(model, table, a_u, a_v, (empty, empty, empty), cfg,
                                    w_params)
        lam = model.cfg.lambda_reg
        assert loss == lam * float(np.sum(table.value ** 2))
        assert np.array_equal(table.grad, 2.0 * lam * table.value)
        assert not any(p.grad.any() for p in w_params or [])

    def test_best_reported_weights_are_the_defaults(self):
        cfg = FusionConfig()
        assert cfg.lambda1 == pytest.approx(0.05)
        assert cfg.lambda2 == pytest.approx(0.001)


class TestBaselineLosses:
    def test_concat_reduces_to_plain_mse_when_aux_zero(self, small_world):
        g_u, g_v, _, _, batch = small_world
        z_u, z_v = np.zeros_like(g_u), np.zeros_like(g_v)
        loss, _, _ = concat_fusion_loss(g_u, g_v, z_u, z_v, batch)
        mse, _, _ = squared_score_loss(g_u, g_v, batch)
        assert loss == pytest.approx(mse)

    def test_concat_exact_fit(self):
        a_u = np.array([[1.0, 0.0]])
        a_v = np.array([[1.0, 0.0]])
        g_u = np.array([[0.0, 1.0]])
        g_v = np.array([[0.0, 1.0]])
        loss, _, _ = concat_fusion_loss(g_u, g_v, a_u, a_v, (*PAIR, np.array([2.0])))
        assert loss == pytest.approx(0.0)

    def test_weighted_sum_zero_weights_loss_is_rating_norm(self, small_world):
        g_u, g_v, a_u, a_v, batch = small_world
        zero = tuple(np.zeros((4, 4)) for _ in range(4))
        loss, _, _, _ = weighted_sum_fusion_loss(g_u, g_v, a_u, a_v, batch, zero)
        assert loss == pytest.approx(float(np.sum(batch[2] ** 2)))

    def test_weighted_sum_identity_zero_aux_is_mse(self, small_world):
        g_u, g_v, _, _, batch = small_world
        z_u, z_v = np.zeros_like(g_u), np.zeros_like(g_v)
        loss, _, _, _ = weighted_sum_fusion_loss(g_u, g_v, z_u, z_v, batch,
                                                 tuple(np.eye(4) for _ in range(4)))
        mse, _, _ = squared_score_loss(g_u, g_v, batch)
        assert loss == pytest.approx(mse)

    def test_weight_shape_mismatch(self, small_world):
        g_u, g_v, a_u, a_v, batch = small_world
        bad = tuple(np.eye(3) for _ in range(4))
        with pytest.raises(ValueError):
            weighted_sum_fusion_loss(g_u, g_v, a_u, a_v, batch, bad)

    def test_weighted_sum_without_its_matrices_is_refused(self, small_world):
        """Scoring or training weighted summation without its trained
        matrices would silently use some other model's scores."""
        g_u, g_v, a_u, a_v, batch = small_world
        with pytest.raises(ValueError, match=r"four weight matrices \(W1, W2, W3, W4\)"):
            effective_features("weighted-sum", g_u, g_v, a_u, a_v)
        with pytest.raises(ValueError, match=r"four weight matrices \(W1, W2, W3, W4\)"):
            feature_objective(g_u, g_v, a_u, a_v, batch, FusionConfig(variant="weighted-sum"))

    def test_effective_features_score_equivalence(self, small_world):
        g_u, g_v, a_u, a_v, batch = small_world
        rng = np.random.default_rng(3)
        weights = tuple(rng.normal(size=(4, 4)) for _ in range(4))
        u, i, r = batch
        for variant in ("concat", "plain-sum", "weighted-sum"):
            eu, ev = effective_features(variant, g_u, g_v, a_u, a_v, weights)
            scores = np.einsum("ij,ij->i", eu[u], ev[i])
            if variant == "concat":
                expect = np.einsum("ij,ij->i", g_u[u], g_v[i]) + np.einsum(
                    "ij,ij->i", a_u[u], a_v[i])
            elif variant == "plain-sum":
                expect = np.einsum("ij,ij->i", g_u[u] + a_u[u], g_v[i] + a_v[i])
            else:
                pu = a_u[u] @ weights[0].T + g_u[u] @ weights[1].T
                qi = a_v[i] @ weights[2].T + g_v[i] @ weights[3].T
                expect = np.einsum("ij,ij->i", pu, qi)
            assert np.allclose(scores, expect)
