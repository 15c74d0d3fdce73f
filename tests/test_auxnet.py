import numpy as np
import pytest
import scipy.sparse as sp

from crossfuse.auxnet import (Affine, AuxEncoder, AuxGcnStack, BatchNorm, build_extractor,
                              distinct_rows, load_dense_matrix, save_dense_matrix,
                              squared_score_loss, stage1_loss_and_grad)
from crossfuse.backbone import bpr_loss_and_feature_grad, sigmoid
from crossfuse.data import DataError


def loop_graph(weights: np.ndarray) -> sp.csr_matrix:
    """Similarity-like graph: given off-diagonal weights, unit self-loops."""
    size = weights.shape[0]
    return sp.csr_matrix(weights + np.eye(size))


class TestEncoder:
    def test_single_layer_is_plain_affine(self):
        rng = np.random.default_rng(0)
        enc = AuxEncoder([5, 3], rng)
        x = rng.normal(size=(4, 5))
        out = enc.forward(x, "eval")
        w, b = enc.blocks[0].w.value, enc.blocks[0].b.value
        assert np.allclose(out, x @ w + b)

    def test_zero_weights_collapse_to_final_bias(self):
        rng = np.random.default_rng(1)
        enc = AuxEncoder([4, 6, 2], rng)
        for block in enc.blocks:
            if isinstance(block, Affine):
                block.w.value[...] = 0.0
        enc.blocks[-1].b.value[...] = np.array([3.0, -1.0])
        out = enc.forward(np.ones((5, 4)), "eval")
        assert np.allclose(out, [3.0, -1.0])

    def test_eval_with_batch_stats_matches_train_output(self):
        rng = np.random.default_rng(2)
        enc = AuxEncoder([6, 5, 3], rng)
        x = rng.normal(size=(10, 6))
        train_out = enc.forward(x, "train")
        # force running statistics to the batch statistics the train pass used
        h = x @ enc.blocks[0].w.value + enc.blocks[0].b.value
        bn = enc.blocks[1]
        bn.running_mean = h.mean(axis=0)
        bn.running_var = h.var(axis=0)
        eval_out = enc.forward(x, "eval")
        assert np.max(np.abs(train_out - eval_out)) <= 1e-10

    def test_batch_of_one_rejected_in_train_mode(self):
        enc = AuxEncoder([4, 4, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least 2 rows"):
            enc.forward(np.ones((1, 4)), "train")

    def test_width_mismatch_rejected(self):
        enc = AuxEncoder([4, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            enc.forward(np.ones((3, 5)), "eval")

    def test_eval_mode_deterministic_and_batch_independent(self):
        rng = np.random.default_rng(3)
        enc = AuxEncoder([5, 4, 3], rng)
        enc.forward(rng.normal(size=(8, 5)), "train")  # sets running stats
        x = rng.normal(size=(6, 5))
        one = enc.forward(x, "eval")
        again = np.vstack([enc.forward(x[:3], "eval"), enc.forward(x[3:], "eval")])
        assert np.allclose(one, again)

    def test_hidden_activations_non_negative(self):
        rng = np.random.default_rng(4)
        enc = AuxEncoder([6, 5, 4, 2], rng)
        x = rng.normal(size=(9, 6))
        enc.forward(x, "train")
        # final affine input is the last rectifier output, cached by Affine
        assert np.all(enc.blocks[-1]._x >= 0)

    def test_running_variance_stays_positive(self):
        rng = np.random.default_rng(5)
        enc = AuxEncoder([4, 3, 2], rng)
        for _ in range(20):
            enc.forward(rng.normal(size=(6, 4)), "train")
        for bn in enc.batch_norms():
            assert np.all(bn.running_var > 0)


def repeated_one_hot(rng, rows: int, pairs: int) -> np.ndarray:
    """Two one-hot fields of 4 categories each, with the category pair drawn
    from ``pairs`` fixed ones, so rows repeat whenever rows > pairs."""
    pool = rng.integers(0, 4, size=(pairs, 2))[rng.integers(0, pairs, size=rows)]
    x = np.zeros((rows, 8))
    x[np.arange(rows), pool[:, 0]] = 1.0
    x[np.arange(rows), 4 + pool[:, 1]] = 1.0
    return x


def reference_encoder_forward(enc: AuxEncoder, x: np.ndarray):
    """Train-mode forward over every row, as the encoder computed before it
    grouped rows: batch moments from ``mean``/``var`` over all N rows."""
    cache = []
    h = x
    for block in enc.blocks:
        if isinstance(block, Affine):
            cache.append(h)
            h = h @ block.w.value + block.b.value
        elif isinstance(block, BatchNorm):
            mu, var = h.mean(axis=0), h.var(axis=0)
            block.running_mean = (1 - block.momentum) * block.running_mean + block.momentum * mu
            block.running_var = (1 - block.momentum) * block.running_var + block.momentum * var
            inv_std = 1.0 / np.sqrt(var + block.eps)
            xhat = (h - mu) * inv_std
            cache.append((xhat, inv_std))
            h = block.gamma.value * xhat + block.beta.value
        else:
            cache.append(h > 0)
            h = np.maximum(h, 0.0)
    return h, cache


def reference_encoder_backward(enc: AuxEncoder, cache, d: np.ndarray) -> None:
    for block, saved in zip(reversed(enc.blocks), reversed(cache)):
        if isinstance(block, Affine):
            block.w.grad += saved.T @ d
            block.b.grad += d.sum(axis=0)
            d = d @ block.w.value.T
        elif isinstance(block, BatchNorm):
            xhat, inv_std = saved
            n = xhat.shape[0]
            block.gamma.grad += (d * xhat).sum(axis=0)
            block.beta.grad += d.sum(axis=0)
            dxhat = d * block.gamma.value
            d = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0)
                                 - xhat * (dxhat * xhat).sum(axis=0))
        else:
            d = d * saved


class TestDistinctRows:
    def test_grouping_reconstructs_and_scatters_like_add_at(self):
        rng = np.random.default_rng(0)
        x = repeated_one_hot(rng, 30, 4)
        rows = distinct_rows(x)
        assert len(rows.values) <= 4
        assert np.array_equal(rows.values[rows.inverse], x)
        assert np.array_equal(rows.counts, np.bincount(rows.inverse))
        d = rng.normal(size=(30, 3))
        expect = np.zeros((len(rows.values), 3))
        np.add.at(expect, rows.inverse, d)
        assert np.array_equal(rows.scatter @ d, expect)

    @pytest.mark.parametrize("repeated", [True, False])
    def test_one_step_matches_per_row_reference(self, repeated):
        rng = np.random.default_rng(11)
        n, m, d = 40, 30, 4
        if repeated:
            x_u, x_v = repeated_one_hot(rng, n, 5), repeated_one_hot(rng, m, 3)
            assert len(distinct_rows(x_u).values) < n and len(distinct_rows(x_v).values) < m
        else:
            x_u, x_v = rng.normal(size=(n, 8)), rng.normal(size=(m, 8))
        off = np.triu((rng.random((n, n)) < 0.1) * rng.random((n, n)), 1)
        sim_u = loop_graph(off + off.T)
        sim_v = loop_graph(np.zeros((m, m)))
        batch = np.column_stack([rng.integers(0, n, 60), rng.integers(0, m, 60),
                                 rng.random(60)])

        def nets():
            r = np.random.default_rng(5)
            return (build_extractor(8, d, [6, 5], 1, r, name="u"),
                    build_extractor(8, d, [6, 5], 1, r, name="v"))

        user_net, item_net = nets()
        user_net.forward(x_u, sim_u, "train")
        item_net.forward(x_v, sim_v, "train")
        stage1_loss_and_grad(user_net, item_net, batch)

        ref_u, ref_v = nets()
        sides = []
        for net, x, sim in ((ref_u, x_u, sim_u), (ref_v, x_v, sim_v)):
            h, cache = reference_encoder_forward(net.encoder, x)
            net.output = net.gcn.forward(sim, h, "train")
            sides.append((net, cache))
        _, dAu, dAv = squared_score_loss(ref_u.output, ref_v.output, batch)
        for (net, cache), d_a in zip(sides, (dAu, dAv)):
            reference_encoder_backward(net.encoder, cache, net.gcn.backward(d_a))

        for got, ref in ((user_net, ref_u), (item_net, ref_v)):
            assert np.max(np.abs(got.output - ref.output)) <= 1e-10
            scale = max(np.max(np.abs(p.grad)) for p in ref.params())
            for p, q in zip(got.params(), ref.params()):
                assert np.max(np.abs(p.grad - q.grad)) <= 1e-10 * scale, p.name
            for bn, bn_ref in zip(got.encoder.batch_norms() + got.gcn.batch_norms(),
                                  ref.encoder.batch_norms() + ref.gcn.batch_norms()):
                assert np.max(np.abs(bn.running_mean - bn_ref.running_mean)) <= 1e-12
                assert np.max(np.abs(bn.running_var - bn_ref.running_var)) <= 1e-12

    def test_identical_rows_count_toward_batch_size(self):
        enc = AuxEncoder([4, 3, 2], np.random.default_rng(0))
        out = enc.forward(np.ones((3, 4)), "train")
        assert out.shape == (3, 2)
        assert np.array_equal(out[0], out[2])


class TestGcnStack:
    def test_self_loop_only_node(self):
        rng = np.random.default_rng(0)
        stack = AuxGcnStack(3, 1, rng)
        sim = loop_graph(np.zeros((4, 4)))
        h = rng.normal(size=(4, 3))
        out = stack.forward(sim, h, "train")
        # node 0 aggregates only itself: output equals the transform of its own feature
        affine, bn, relu = stack.layers[0]
        expect = relu.forward(bn.forward(affine.forward(h, True), True), True)
        assert np.allclose(out[0], expect[0])

    def test_identity_transform_hand_aggregation(self):
        rng = np.random.default_rng(1)
        stack = AuxGcnStack(2, 1, rng, bn_eps=0.0)
        affine, bn, relu = stack.layers[0]
        affine.w.value[...] = np.eye(2)
        affine.b.value[...] = 0.0
        off = np.zeros((2, 2))
        off[0, 1] = off[1, 0] = 0.25
        sim = loop_graph(off)
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = stack.forward(sim, h, "eval")  # running stats are identity at init
        assert np.allclose(out[0], h[0] + 0.25 * h[1])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        off = (rng.random((15, 15)) < 0.2) * rng.random((15, 15))
        off = np.triu(off, 1)
        off = off + off.T
        sim = loop_graph(off)
        stack = AuxGcnStack(4, 2, rng)
        h = rng.normal(size=(15, 4))
        out = stack.forward(sim, h, "train")
        dense = sim.toarray()
        cur = h
        for affine, bn, relu in stack.layers:
            agg = dense @ cur
            z = agg @ affine.w.value + affine.b.value
            mu, var = z.mean(0), z.var(0)
            zh = (z - mu) / np.sqrt(var + bn.eps)
            cur = np.maximum(bn.gamma.value * zh + bn.beta.value, 0.0)
        assert np.max(np.abs(out - cur)) <= 1e-10

    def test_zero_layers_pass_through(self):
        stack = AuxGcnStack(3, 0, np.random.default_rng(0))
        h = np.random.default_rng(1).normal(size=(5, 3))
        out = stack.forward(loop_graph(np.zeros((5, 5))), h, "train")
        assert out is h

    def test_missing_self_loops_rejected(self):
        stack = AuxGcnStack(2, 1, np.random.default_rng(0))
        sim = sp.csr_matrix(np.array([[1.0, 0.2], [0.2, 0.0]]))
        with pytest.raises(ValueError, match="self-loops"):
            stack.forward(sim, np.ones((2, 2)), "train")


class TestStage1Loss:
    def test_exact_fit_gives_zero(self):
        a_u = np.array([[1.0, 0.0]])
        a_v = np.array([[1.0, 0.0]])
        loss, dAu, dAv = squared_score_loss(a_u, a_v, [[0, 0, 1.0]])
        assert loss == 0.0
        assert np.all(dAu == 0) and np.all(dAv == 0)

    def test_hand_computed_pair(self):
        a_u = np.array([[1.0, 2.0]])
        a_v = np.array([[3.0, -1.0]])
        loss, _, _ = squared_score_loss(a_u, a_v, [[0, 0, 0.0]])
        assert loss == pytest.approx(1.0)  # (3 - 2 - 0)^2

    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        n, m, d = 6, 6, 3
        x_u = rng.normal(size=(n, 5))
        x_v = rng.normal(size=(m, 4))
        sim_u = loop_graph(np.triu((rng.random((n, n)) < 0.3) * rng.random((n, n)), 1))
        sim_u = sp.csr_matrix(sim_u + sp.triu(sim_u, 1).T)
        sim_v = loop_graph(np.zeros((m, m)))
        user_net = build_extractor(5, d, [4], 1, rng, name="u")
        item_net = build_extractor(4, d, [4], 1, rng, name="v")
        batch = np.array([[u, (u + 1) % m, float(u % 2)] for u in range(n)])

        user_net.forward(x_u, sim_u, "train")
        item_net.forward(x_v, sim_v, "train")
        user_net.zero_grad()
        item_net.zero_grad()
        stage1_loss_and_grad(user_net, item_net, batch)

        def loss():
            au = user_net.forward(x_u, sim_u, "train")
            av = item_net.forward(x_v, sim_v, "train")
            val, _, _ = squared_score_loss(au, av, batch)
            return val

        h = 1e-6
        for p in user_net.params() + item_net.params():
            flat = p.value.ravel()
            idx = np.random.default_rng(0).choice(flat.size, size=min(6, flat.size),
                                                  replace=False)
            for k in idx:
                keep = flat[k]
                flat[k] = keep + h
                up = loss()
                flat[k] = keep - h
                down = loss()
                flat[k] = keep
                fd = (up - down) / (2 * h)
                got = p.grad.ravel()[k]
                assert abs(got - fd) / max(1.0, abs(got), abs(fd)) <= 1e-5, p.name

    def test_backward_without_forward_rejected(self):
        rng = np.random.default_rng(0)
        a = build_extractor(3, 2, [3], 0, rng)
        b = build_extractor(3, 2, [3], 0, rng)
        with pytest.raises(ValueError, match="forward"):
            stage1_loss_and_grad(a, b, [[0, 0, 1.0]])

    def test_gradient_scatter_equals_add_at(self):
        rng = np.random.default_rng(3)
        a_u, a_v = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        batch = np.column_stack([rng.integers(0, 5, 200), rng.integers(0, 4, 200),
                                 rng.random(200)])
        _, dAu, dAv = squared_score_loss(a_u, a_v, batch)
        u, i = batch[:, 0].astype(np.int64), batch[:, 1].astype(np.int64)
        e = np.einsum("ij,ij->i", a_u[u], a_v[i]) - batch[:, 2]
        expect_u, expect_v = np.zeros_like(a_u), np.zeros_like(a_v)
        np.add.at(expect_u, u, (2.0 * e)[:, None] * a_v[i])
        np.add.at(expect_v, i, (2.0 * e)[:, None] * a_u[u])
        assert np.array_equal(dAu, expect_u)
        assert np.array_equal(dAv, expect_v)

        # the pairwise loss: item 2 is a positive and a negative, and its
        # rows are summed positives first, then negatives
        g_u, g_v = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        triples = np.array([[0, 2, 1], [3, 0, 2], [0, 2, 3], [4, 1, 2], [3, 3, 0]])
        u, ip, ineg = triples.T
        _, dGu, dGv = bpr_loss_and_feature_grad(g_u, g_v, triples)
        c = sigmoid(np.einsum("ij,ij->i", g_u[u], g_v[ip] - g_v[ineg])) - 1.0
        expect_u, expect_v = np.zeros_like(g_u), np.zeros_like(g_v)
        np.add.at(expect_u, u, c[:, None] * (g_v[ip] - g_v[ineg]))
        np.add.at(expect_v, ip, c[:, None] * g_u[u])
        np.add.at(expect_v, ineg, -c[:, None] * g_u[u])
        assert np.array_equal(dGu, expect_u)
        assert np.array_equal(dGv, expect_v)

        # users 0, 2 and 5-7 and items 0 and 3 never occur: their rows stay zero
        a_u, a_v = rng.normal(size=(8, 3)), rng.normal(size=(4, 3))
        batch = np.column_stack([rng.choice([1, 3, 4], 50), rng.choice([1, 2], 50),
                                 rng.random(50)])
        _, dAu, dAv = squared_score_loss(a_u, a_v, batch)
        u, i = batch[:, 0].astype(np.int64), batch[:, 1].astype(np.int64)
        e = np.einsum("ij,ij->i", a_u[u], a_v[i]) - batch[:, 2]
        expect_u, expect_v = np.zeros_like(a_u), np.zeros_like(a_v)
        np.add.at(expect_u, u, (2.0 * e)[:, None] * a_v[i])
        np.add.at(expect_v, i, (2.0 * e)[:, None] * a_u[u])
        assert np.array_equal(dAu, expect_u)
        assert np.array_equal(dAv, expect_v)
        assert not dAu[[0, 2, 5, 6, 7]].any() and not dAv[[0, 3]].any()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            squared_score_loss(np.ones((2, 2)), np.ones((2, 2)), np.zeros((0, 3)))


class TestExtractor:
    def test_zero_conv_layers_returns_encoder_output(self):
        rng = np.random.default_rng(1)
        net = build_extractor(6, 3, [5], 0, rng)
        x = rng.normal(size=(7, 6))
        sim = loop_graph(np.zeros((7, 7)))
        a = net.forward(x, sim, "eval")
        a_prime = net.encoder.forward(x, "eval")
        assert np.array_equal(a, a_prime)

    def test_state_arrays_roundtrip(self):
        rng = np.random.default_rng(2)
        net = build_extractor(4, 2, [3], 1, rng)
        x = rng.normal(size=(5, 4))
        sim = loop_graph(np.zeros((5, 5)))
        net.forward(x, sim, "train")
        state = {k: v.copy() for k, v in net.state_arrays("side").items()}
        fresh = build_extractor(4, 2, [3], 1, np.random.default_rng(99))
        fresh.load_state_arrays("side", state)
        assert np.allclose(net.forward(x, sim, "eval"), fresh.forward(x, sim, "eval"))


class TestDenseMatrixFile:
    def test_roundtrip(self, tmp_path):
        mat = np.random.default_rng(0).normal(size=(6, 4))
        path = tmp_path / "feat.mat"
        save_dense_matrix(path, mat)
        back = load_dense_matrix(path)
        assert np.array_equal(mat, back)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.mat"
        save_dense_matrix(path, np.ones((3, 3)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DataError, match="size mismatch"):
            load_dense_matrix(path)
