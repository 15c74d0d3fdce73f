import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_dataset
from crossfuse.backbone import (BackboneConfig, LightGCN, bpr_loss_and_feature_grad,
                                init_embeddings, log_sigmoid_loss, sigmoid)
from crossfuse.data import InteractionDataset
from crossfuse.fusion import FusionConfig, fused_objective_grad
from crossfuse.graph import normalize_bipartite
from crossfuse.optim import Param


def dense_combined(adj, e0, alphas):
    """Independent oracle: sum_k alpha_k * A^k @ E0 via dense matrix powers."""
    A = adj.toarray()
    out = alphas[0] * e0
    power = np.eye(A.shape[0])
    for k in range(1, len(alphas)):
        power = A @ power
        out = out + alphas[k] * (power @ e0)
    return out


class TestInitEmbeddings:
    def test_shape(self):
        table = init_embeddings(5, 4, seed=0)
        assert table.value.shape == (5, 4)
        assert table.grad.shape == (5, 4)

    def test_deterministic(self):
        a = init_embeddings(7, 3, seed=11)
        b = init_embeddings(7, 3, seed=11)
        assert np.array_equal(a.value, b.value)

    def test_distribution(self):
        table = init_embeddings(2500, 40, seed=1)  # 1e5 entries
        flat = table.value.ravel()
        assert abs(flat.mean()) <= 3 * 0.01 / math.sqrt(flat.size)
        assert abs(flat.std() - 0.01) <= 0.05 * 0.01

    def test_bad_args(self):
        with pytest.raises(ValueError):
            init_embeddings(0, 4, seed=0)


class TestLightGCNForward:
    def test_zero_layers_scales_input(self, tiny_dataset):
        adj = normalize_bipartite(tiny_dataset)
        cfg = BackboneConfig(dim=3, num_layers=0, alphas=np.array([0.5]))
        model = LightGCN(adj, tiny_dataset.n, cfg)
        table = init_embeddings(adj.shape[0], 3, seed=0)
        feats = model.forward(table)
        assert np.allclose(feats.values, 0.5 * table.value)

    def test_single_pair_hand_propagation(self):
        ds = make_random_dataset(0, n=1, m=1, lo=1, hi=2)
        adj = normalize_bipartite(ds)
        cfg = BackboneConfig(dim=2, num_layers=1, alphas=np.array([0.5, 0.5]))
        model = LightGCN(adj, 1, cfg)
        table = Param(np.array([[2.0, 0.0], [0.0, 4.0]]))
        feats = model.forward(table)
        assert np.allclose(feats.users[0], 0.5 * np.array([2.0, 0.0]) + 0.5 * np.array([0.0, 4.0]))

    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    def test_matches_dense_power_oracle(self, layers):
        ds = make_random_dataset(layers, n=8, m=12)
        adj = normalize_bipartite(ds)
        cfg = BackboneConfig(dim=5, num_layers=layers)
        model = LightGCN(adj, ds.n, cfg)
        table = init_embeddings(adj.shape[0], 5, seed=layers)
        feats = model.forward(table)
        oracle = dense_combined(adj, table.value, cfg.resolved_alphas())
        assert np.max(np.abs(feats.values - oracle)) <= 1e-10

    def test_forward_linear_in_input(self, tiny_dataset):
        adj = normalize_bipartite(tiny_dataset)
        cfg = BackboneConfig(dim=4, num_layers=2)
        model = LightGCN(adj, tiny_dataset.n, cfg)
        rng = np.random.default_rng(3)
        e0 = rng.normal(size=(adj.shape[0], 4))
        a = model.forward(Param(e0)).values
        b = model.forward(Param(2.5 * e0)).values
        assert np.max(np.abs(b - 2.5 * a)) <= 1e-12

    def test_backward_matches_dense_transpose_chain(self, tiny_dataset):
        adj = normalize_bipartite(tiny_dataset)
        cfg = BackboneConfig(dim=3, num_layers=3)
        model = LightGCN(adj, tiny_dataset.n, cfg)
        rng = np.random.default_rng(8)
        dG = rng.normal(size=(adj.shape[0], 3))
        alphas = cfg.resolved_alphas()
        A = adj.toarray()
        oracle = alphas[0] * dG
        power = np.eye(A.shape[0])
        for k in range(1, len(alphas)):
            power = A.T @ power
            oracle = oracle + alphas[k] * (power @ dG)
        assert np.max(np.abs(model.backward(dG) - oracle)) <= 1e-10

    def test_asymmetric_adjacency_rejected(self, tiny_dataset):
        adj = normalize_bipartite(tiny_dataset).tolil()
        adj[0, tiny_dataset.n] *= 2.0
        with pytest.raises(ValueError, match="symmetric"):
            LightGCN(adj.tocsr(), tiny_dataset.n, BackboneConfig(dim=2, num_layers=1))


class TestWorkArrays:
    """Both passes run their products through the model's reused work
    arrays: the bits are those of scipy's own products, and no result a
    caller holds changes on a later call."""

    @staticmethod
    def _scipy_passes(model, e0, d, rows):
        """forward at ``rows`` and backward from the gradient ``d`` at
        ``rows``, through scipy's ``@`` on freshly allocated products."""
        a, adj, block = model.alphas, model.adj, model.adj[rows]
        values, cur = a[0] * e0[rows], e0
        for k in range(1, len(a)):
            cur = adj @ cur if k < len(a) - 1 else block @ cur
            values += a[k] * (cur[rows] if k < len(a) - 1 else cur)
        out = np.full(e0.shape, a[0] * 0.0)
        out[rows] = a[0] * d
        cur = d
        for k in range(1, len(a)):
            cur = (block.T if k == 1 else adj) @ cur
            out += a[k] * cur
        return values, out

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_bits_of_scipy_products_and_no_aliasing(self, layers):
        ds = make_random_dataset(layers, n=8, m=12)
        model = LightGCN(normalize_bipartite(ds), ds.n, BackboneConfig(dim=4, num_layers=layers))
        rng = np.random.default_rng(layers)
        size = model.adj.shape[0]
        kept = []
        for dim, rows in ((4, np.arange(size)), (4, np.arange(0, size, 3)), (6, np.arange(size)),
                          (4, np.array([1, ds.n + 2]))):
            table = Param(rng.normal(size=(size, dim)))
            d = rng.normal(size=(len(rows), dim))
            block = None if len(rows) == size else model.row_block(rows)
            feats, grad = model.forward(table, block), model.backward(d, block)
            want = self._scipy_passes(model, table.value, d, rows)
            assert _bits(feats.values) == _bits(want[0])
            assert _bits(grad) == _bits(want[1])
            kept.append((feats.values, feats.values.copy(), grad, grad.copy()))
        for values, values_then, grad, grad_then in kept:
            assert _bits(values) == _bits(values_then)
            assert _bits(grad) == _bits(grad_then)


def triple(user: int, pos: int, neg: int):
    """One (user, positive, negative) triple as batch columns."""
    return np.array([user]), np.array([pos]), np.array([neg])


class TestBprLoss:
    def test_equal_scores_give_ln2(self, tiny_dataset):
        adj = normalize_bipartite(tiny_dataset)
        cfg = BackboneConfig(dim=2, num_layers=0, alphas=np.array([1.0]), lambda_reg=0.0)
        model = LightGCN(adj, tiny_dataset.n, cfg)
        table = Param(np.zeros((adj.shape[0], 2)))
        loss = fused_objective_grad(model, table, None, None, triple(0, 1, 2),
                                    FusionConfig(variant="none"))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_widening_margin_decreases_loss(self):
        users = np.array([[1.0, 0.0]])
        for a, b in [(0.1, 0.5), (0.5, 1.5), (1.5, 4.0)]:
            items = np.array([[a, 0.0], [0.0, 0.0]])
            l_small, _, _ = bpr_loss_and_feature_grad(users, items, triple(0, 0, 1))
            items2 = np.array([[b, 0.0], [0.0, 0.0]])
            l_big, _, _ = bpr_loss_and_feature_grad(users, items2, triple(0, 0, 1))
            assert l_big < l_small

    def test_gradient_matches_finite_differences(self):
        ds = make_random_dataset(4, n=6, m=8)
        adj = normalize_bipartite(ds)
        cfg = BackboneConfig(dim=3, num_layers=2, lambda_reg=0.02)
        model = LightGCN(adj, ds.n, cfg)
        rng = np.random.default_rng(0)
        table = Param(rng.normal(size=(adj.shape[0], 3)))
        batch = []
        for u in range(ds.n):
            pos = ds.train_items(u)
            neg = [i for i in range(ds.m) if i not in set(pos.tolist())]
            batch.append([u, int(pos[0]), neg[0]])
        batch = tuple(np.array(batch).T)

        table.grad[...] = 0.0
        fused_objective_grad(model, table, None, None, batch, FusionConfig(variant="none"))

        def loss():
            f = model.forward(table)
            x = np.einsum("ij,ij->i", f.users[batch[0]],
                          f.items[batch[1]] - f.items[batch[2]])
            return float(np.logaddexp(0, -x).sum()) + cfg.lambda_reg * np.sum(table.value ** 2)

        h = 1e-6
        flat = table.value.ravel()
        for k in rng.choice(flat.size, size=12, replace=False):
            keep = flat[k]
            flat[k] = keep + h
            up = loss()
            flat[k] = keep - h
            down = loss()
            flat[k] = keep
            fd = (up - down) / (2 * h)
            got = table.grad.ravel()[k]
            assert abs(got - fd) / max(1.0, abs(got), abs(fd)) <= 1e-5

    def test_empty_batch_gives_zero_loss_and_gradients(self):
        empty = np.zeros(0, dtype=np.int64)
        loss, dU, dV = bpr_loss_and_feature_grad(np.ones((2, 2)), np.ones((2, 2)),
                                                 (empty, empty, empty))
        assert loss == 0.0
        assert dU.shape == dV.shape == (2, 2) and not dU.any() and not dV.any()

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-30, 30), st.floats(0, 1))
    def test_loss_always_positive(self, margin, lam):
        users = np.array([[1.0]])
        items = np.array([[margin], [0.0]])
        loss, _, _ = bpr_loss_and_feature_grad(users, items, triple(0, 0, 1))
        assert loss + lam * 1.0 > 0

    def test_stable_for_large_margins(self):
        assert log_sigmoid_loss(np.array([800.0]))[0] == 0.0
        assert np.isfinite(log_sigmoid_loss(np.array([-800.0]))[0])
        assert sigmoid(np.array([-800.0]))[0] == 0.0


class TestMatrixFactorizationReduction:
    def test_alpha_one_zero_ranks_like_raw_embeddings(self, tiny_dataset):
        adj = normalize_bipartite(tiny_dataset)
        cfg = BackboneConfig(dim=4, num_layers=2, alphas=np.array([1.0, 0.0, 0.0]))
        model = LightGCN(adj, tiny_dataset.n, cfg)
        table = init_embeddings(adj.shape[0], 4, seed=2)
        feats = model.forward(table)
        assert np.allclose(feats.values, table.value)
        raw_users = table.value[:tiny_dataset.n]
        raw_items = table.value[tiny_dataset.n:]
        for u in range(tiny_dataset.n):
            a = np.argsort(-(feats.items @ feats.users[u]), kind="stable")
            b = np.argsort(-(raw_items @ raw_users[u]), kind="stable")
            assert np.array_equal(a, b)


def _bits(arr: np.ndarray) -> tuple:
    """Shape, dtype and bytes: equal only when every entry, sign of zero
    included, is the same."""
    return arr.shape, arr.dtype, arr.tobytes()


class TestRestrictedPropagation:
    """``forward`` and ``backward`` on ``row_block(rows)`` against the full
    passes, bit for bit: the restricted products add the same nonzero terms
    in the same order, and a partial sum that starts at +0.0 is never -0.0,
    so the +0.0 terms they skip change nothing."""

    @staticmethod
    def _world(seed, layers, n=8, m=12, alphas=None):
        ds = make_random_dataset(seed, n=n, m=m)
        adj = normalize_bipartite(ds)
        model = LightGCN(adj, ds.n, BackboneConfig(dim=4, num_layers=layers, alphas=alphas))
        rng = np.random.default_rng(seed)
        return model, Param(rng.normal(size=(adj.shape[0], 4))), rng

    def _check(self, model, table, rows, d_rows):
        full = model.forward(table)
        block = model.row_block(rows)
        got = model.forward(table, block)
        assert _bits(got.values) == _bits(full.values[rows])
        assert got.num_users == int(np.sum(rows < model.num_users))
        assert _bits(got.users) == _bits(full.users[rows[rows < model.num_users]])
        d_full = np.zeros((model.adj.shape[0], d_rows.shape[1]))
        d_full[rows] = d_rows
        assert _bits(model.backward(d_rows, block)) == _bits(model.backward(d_full))

    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("which", ["all", "one-user", "one-item", "users", "items",
                                       "alternate"])
    def test_row_sets(self, layers, which):
        model, table, rng = self._world(layers, layers)
        size, n = model.adj.shape[0], model.num_users
        rows = {"all": np.arange(size), "one-user": np.array([3]),
                "one-item": np.array([n + 5]), "users": np.arange(n),
                "items": np.arange(n, size), "alternate": np.arange(0, size, 2)}[which]
        self._check(model, table, rows, rng.normal(size=(len(rows), 4)))

    def test_empty_rows_and_negative_alphas(self):
        # an isolated node has an empty row; a negative alpha_0 makes the rows
        # outside the set -0.0 in the full backward, and so in the restricted one
        ds = InteractionDataset(n=3, m=4, users=np.array([0, 0, 1]),
                                items=np.array([0, 1, 1]), ratings=np.ones(3),
                                split=np.zeros(3, dtype=np.int8))
        model = LightGCN(normalize_bipartite(ds), ds.n,
                         BackboneConfig(dim=2, num_layers=2, alphas=np.array([-0.5, 1.0, 0.25])))
        table = Param(np.arange(14.0).reshape(7, 2) - 6.0)
        for rows in (np.array([2]), np.array([1, 2, 5, 6]), np.array([0, 3])):
            self._check(model, table, rows, np.ones((len(rows), 2)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), layers=st.integers(0, 3),
           n=st.integers(1, 9), m=st.integers(4, 11), data=st.data())
    def test_property_any_row_set(self, seed, layers, n, m, data):
        rng = np.random.default_rng(seed)
        alphas = rng.normal(size=layers + 1)
        model, table, rng = self._world(seed, layers, n=n, m=m, alphas=alphas)
        size = model.adj.shape[0]
        picked = data.draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size))
        rows = np.array(sorted(picked))
        d_rows = rng.normal(size=(len(rows), 4))
        d_rows[rng.random(d_rows.shape) < 0.2] = 0.0
        self._check(model, table, rows, d_rows)
