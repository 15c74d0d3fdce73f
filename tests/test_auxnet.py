import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_sided_zero, unsorted_rows
from crossfuse import store
from crossfuse.auxnet import (AuxEncoder, AuxGcnStack, BatchNorm, build_extractor,
                              distinct_rows, node_classes, save_dense_matrix,
                              squared_score_loss, stage1_loss_and_grad)
from crossfuse.backbone import bpr_loss_and_feature_grad, sigmoid
from crossfuse.data import DataError, make_fields
from crossfuse.optim import scatter_rows


def loop_graph(weights: np.ndarray) -> sp.csr_matrix:
    """Similarity-like graph: given off-diagonal weights, unit self-loops."""
    size = weights.shape[0]
    return sp.csr_matrix(weights + np.eye(size))


class TestEncoder:
    def test_single_layer_is_plain_affine(self):
        rng = np.random.default_rng(0)
        enc = AuxEncoder([5, 3], rng)
        x = rng.normal(size=(4, 5))
        out = enc.forward(distinct_rows(x), train=False)
        w, b = enc.out.w.value, enc.out.b.value
        assert np.allclose(out, x @ w + b)

    def test_zero_weights_collapse_to_final_bias(self):
        rng = np.random.default_rng(1)
        enc = AuxEncoder([4, 6, 2], rng)
        for affine in [layer.affine for layer in enc.hidden] + [enc.out]:
            affine.w.value[...] = 0.0
        enc.out.b.value[...] = np.array([3.0, -1.0])
        out = enc.forward(distinct_rows(np.ones((5, 4))), train=False)
        assert np.allclose(out, [3.0, -1.0])

    def test_eval_with_batch_stats_matches_train_output(self):
        rng = np.random.default_rng(2)
        enc = AuxEncoder([6, 5, 3], rng)
        x = rng.normal(size=(10, 6))
        train_out = enc.forward(distinct_rows(x), train=True)
        # force running statistics to the batch statistics the train pass used
        h = x @ enc.hidden[0].affine.w.value + enc.hidden[0].affine.b.value
        bn = enc.hidden[0].bn
        bn.running_mean = h.mean(axis=0)
        bn.running_var = h.var(axis=0)
        eval_out = enc.forward(distinct_rows(x), train=False)
        assert np.max(np.abs(train_out - eval_out)) <= 1e-10

    def test_batch_of_one_rejected_in_train_mode(self):
        enc = AuxEncoder([4, 4, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least 2 rows"):
            enc.forward(distinct_rows(np.ones((1, 4))), train=True)

    def test_width_mismatch_rejected(self):
        enc = AuxEncoder([4, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            enc.forward(distinct_rows(np.ones((3, 5))), train=False)

    def test_eval_mode_deterministic_and_batch_independent(self):
        rng = np.random.default_rng(3)
        enc = AuxEncoder([5, 4, 3], rng)
        enc.forward(distinct_rows(rng.normal(size=(8, 5))), train=True)  # sets running stats
        x = rng.normal(size=(6, 5))
        one = enc.forward(distinct_rows(x), train=False)
        again = np.vstack([enc.forward(distinct_rows(x[:3]), train=False),
                           enc.forward(distinct_rows(x[3:]), train=False)])
        assert np.allclose(one, again)

    def test_hidden_activations_non_negative(self):
        rng = np.random.default_rng(4)
        enc = AuxEncoder([6, 5, 4, 2], rng)
        x = rng.normal(size=(9, 6))
        enc.forward(distinct_rows(x), train=True)
        # final affine input is the last rectifier output, cached by Affine
        assert np.all(enc.out._x >= 0)

    def test_running_variance_stays_positive(self):
        rng = np.random.default_rng(5)
        enc = AuxEncoder([4, 3, 2], rng)
        for _ in range(20):
            enc.forward(distinct_rows(rng.normal(size=(6, 4))), train=True)
        for bn in enc.batch_norms():
            assert np.all(bn.running_var > 0)


class TestBatchNorm:
    @pytest.mark.parametrize("weighted", [False, True], ids=["rows", "counts"])
    @pytest.mark.parametrize("seed", range(5))
    def test_moments_are_np_average_bytes(self, weighted, seed):
        rng = np.random.default_rng(seed)
        rows, dim = rng.integers(2, 40), rng.integers(1, 40)
        x = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-3, 4, size=dim)
        counts = rng.integers(1, 6, size=rows).astype(np.float64) if weighted else None
        bn = BatchNorm(dim)
        bn.momentum = 1.0
        bn.forward(x, True, np.ones(rows) if counts is None else counts)
        mu = np.average(x, axis=0, weights=counts)
        var = np.average(np.square(x - mu), axis=0, weights=counts)
        assert bn.running_mean.tobytes() == mu.tobytes()
        assert bn.running_var.tobytes() == var.tobytes()


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
    for affine, bn in ((layer.affine, layer.bn) for layer in enc.hidden):
        x_in = h
        h = h @ affine.w.value + affine.b.value
        mu, var = h.mean(axis=0), h.var(axis=0)
        bn.running_mean = (1 - bn.momentum) * bn.running_mean + bn.momentum * mu
        bn.running_var = (1 - bn.momentum) * bn.running_var + bn.momentum * var
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        xhat = (h - mu) * inv_std
        h = bn.gamma.value * xhat + bn.beta.value
        cache.append((x_in, xhat, inv_std, h > 0))
        h = np.maximum(h, 0.0)
    cache.append(h)
    return h @ enc.out.w.value + enc.out.b.value, cache


def reference_encoder_backward(enc: AuxEncoder, cache, d: np.ndarray) -> None:
    enc.out.w.grad += cache[-1].T @ d
    enc.out.b.grad += d.sum(axis=0)
    d = d @ enc.out.w.value.T
    for layer, (x_in, xhat, inv_std, mask) in zip(reversed(enc.hidden), reversed(cache[:-1])):
        affine, bn = layer.affine, layer.bn
        d = d * mask
        n = xhat.shape[0]
        bn.gamma.grad += (d * xhat).sum(axis=0)
        bn.beta.grad += d.sum(axis=0)
        dxhat = d * bn.gamma.value
        d = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0)
                             - xhat * (dxhat * xhat).sum(axis=0))
        affine.w.grad += x_in.T @ d
        affine.b.grad += d.sum(axis=0)
        d = d @ affine.w.value.T


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
        assert np.array_equal(scatter_rows(rows.inverse, len(rows.values), d), expect)

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
        batch = (rng.integers(0, n, 60), rng.integers(0, m, 60), rng.random(60))

        def nets():
            r = np.random.default_rng(5)
            return (build_extractor(8, d, [6, 5], 1, r, name="u"),
                    build_extractor(8, d, [6, 5], 1, r, name="v"))

        classes = node_classes(x_u, sim_u), node_classes(x_v, sim_v)
        user_net, item_net = nets()
        stage1_loss_and_grad(user_net, item_net, *classes, batch)
        # the step keeps no output: the same train forward on fresh copies
        outputs = [net.forward(c, train=True) for net, c in zip(nets(), classes)]

        ref_u, ref_v = nets()
        sides, ref_outputs = [], []
        for net, x, sim in ((ref_u, x_u, sim_u), (ref_v, x_v, sim_v)):
            h, cache = reference_encoder_forward(net.encoder, x)
            ref_outputs.append(net.gcn.forward(sim, h, np.ones(len(x)), train=True))
            sides.append((net, cache))
        _, dAu, dAv = squared_score_loss(*ref_outputs, batch)
        for (net, cache), d_a in zip(sides, (dAu, dAv)):
            reference_encoder_backward(net.encoder, cache, net.gcn.backward(d_a))

        for got, ref, out, ref_out in zip((user_net, item_net), (ref_u, ref_v), outputs,
                                          ref_outputs):
            assert np.max(np.abs(out - ref_out)) <= 1e-10
            scale = max(np.max(np.abs(p.grad)) for p in ref.params())
            for p, q in zip(got.params(), ref.params()):
                assert np.max(np.abs(p.grad - q.grad)) <= 1e-10 * scale, p.name
            for bn, bn_ref in zip(got.encoder.batch_norms() + got.gcn.batch_norms(),
                                  ref.encoder.batch_norms() + ref.gcn.batch_norms()):
                assert np.max(np.abs(bn.running_mean - bn_ref.running_mean)) <= 1e-12
                assert np.max(np.abs(bn.running_var - bn_ref.running_var)) <= 1e-12

    def test_identical_rows_count_toward_batch_size(self):
        enc = AuxEncoder([4, 3, 2], np.random.default_rng(0))
        out = enc.forward(distinct_rows(np.ones((3, 4))), train=True)
        assert out.shape == (3, 2)
        assert np.array_equal(out[0], out[2])


def reference_gcn_forward(stack: AuxGcnStack, sim: sp.csr_matrix, h: np.ndarray):
    """Train-mode forward over every node, as the stack computed before it
    ran on node classes: batch moments from ``mean``/``var`` over all N nodes."""
    cache = []
    for affine, bn in ((layer.affine, layer.bn) for layer in stack.layers):
        agg = np.asarray(sim @ h)
        z = agg @ affine.w.value + affine.b.value
        mu, var = z.mean(axis=0), z.var(axis=0)
        bn.running_mean = (1 - bn.momentum) * bn.running_mean + bn.momentum * mu
        bn.running_var = (1 - bn.momentum) * bn.running_var + bn.momentum * var
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        xhat = (z - mu) * inv_std
        y = bn.gamma.value * xhat + bn.beta.value
        cache.append((agg, xhat, inv_std, y > 0))
        h = np.maximum(y, 0.0)
    return h, cache


def reference_gcn_backward(stack: AuxGcnStack, sim: sp.csr_matrix, cache,
                           d: np.ndarray) -> np.ndarray:
    sim_t = sim.T.tocsr()
    for layer, (agg, xhat, inv_std, mask) in zip(reversed(stack.layers), reversed(cache)):
        affine, bn = layer.affine, layer.bn
        d = d * mask
        n = xhat.shape[0]
        bn.gamma.grad += (d * xhat).sum(axis=0)
        bn.beta.grad += d.sum(axis=0)
        dxhat = d * bn.gamma.value
        d = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        affine.w.grad += agg.T @ d
        affine.b.grad += d.sum(axis=0)
        d = np.asarray(sim_t @ (d @ affine.w.value.T))
    return d


def reference_gcn_eval(stack: AuxGcnStack, sim: sp.csr_matrix, h: np.ndarray) -> np.ndarray:
    for affine, bn in ((layer.affine, layer.bn) for layer in stack.layers):
        z = np.asarray(sim @ h) @ affine.w.value + affine.b.value
        xhat = (z - bn.running_mean) * (1.0 / np.sqrt(bn.running_var + bn.eps))
        h = np.maximum(bn.gamma.value * xhat + bn.beta.value, 0.0)
    return h


def graph_from(n: int, edges, diagonal) -> sp.csr_matrix:
    """CSR graph with the given ``(row, col, value)`` off-diagonal entries
    and diagonal, rows stored in column order."""
    rows = [r for r, _, _ in edges] + list(range(n))
    cols = [c for _, c, _ in edges] + list(range(n))
    vals = [v for _, _, v in edges] + list(diagonal)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def assert_classes_match_per_node(x: np.ndarray, sim: sp.csr_matrix, layers: int,
                                  seed: int = 0) -> None:
    """One train forward and backward on node classes against the per-node
    reference, then the aggregation alone and an eval forward, exactly."""
    n, width, d = x.shape[0], x.shape[1], 4
    classes = node_classes(x, sim)

    # class structure: numbered by first node; merged nodes are isolated and
    # share attribute row and diagonal value
    reps = np.array([np.flatnonzero(classes.inverse == c)[0] for c in range(len(classes.counts))])
    assert np.all(np.diff(reps) > 0)
    assert np.array_equal(classes.counts, np.bincount(classes.inverse))
    for c in np.flatnonzero(classes.counts > 1):
        members = np.flatnonzero(classes.inverse == c)
        for i in members:
            assert sim[i].nnz == 1 and sim[i, i] == sim[members[0], members[0]]
            assert np.array_equal(x[i], x[members[0]])

    # aggregation alone: bit-identical to the node graph's
    h = np.random.default_rng(seed).normal(size=(len(classes.counts), d))
    assert np.array_equal(np.asarray(classes.sim @ h)[classes.inverse],
                          np.asarray(sim @ h[classes.inverse]))

    def net():
        # batch-norm shifts away from zero, as training leaves them: with
        # beta = 0 a node whose feature equals the batch mean sits on the
        # rectifier's kink, where either path's rounding picks the subgradient
        rng = np.random.default_rng(seed)
        out = build_extractor(width, d, [5], layers, rng, name="s")
        for bn in out.encoder.batch_norms() + out.gcn.batch_norms():
            bn.gamma.value[...] = rng.uniform(0.5, 1.5, size=bn.gamma.value.shape)
            bn.beta.value[...] = rng.normal(0.0, 0.5, size=bn.beta.value.shape)
        return out

    got, ref = net(), net()
    d_a = np.random.default_rng(seed + 1).normal(size=(n, d))
    out = got.forward(classes, train=True)
    got.backward(d_a)

    # The per-node GCN runs in long double.  Identical isolated nodes have
    # zero batch variance, where each batch norm scales the rounding of its
    # per-node terms by 1/sqrt(eps), about 316, before they cancel in the
    # sum the class path takes exactly; the encoder gradient is therefore
    # summed per distinct row in long double as well, rounded once and
    # handed to the encoder on each row's first node.
    ld = np.longdouble
    h_nodes = ref.encoder.forward(distinct_rows(x), train=True)
    expect, cache = reference_gcn_forward(ref.gcn, sim.astype(ld), h_nodes.astype(ld))
    d_nodes = reference_gcn_backward(ref.gcn, sim.astype(ld), cache, d_a.astype(ld))
    rows = distinct_rows(x)
    d_sums = np.zeros((len(rows.values), d), dtype=ld)
    np.add.at(d_sums, rows.inverse, d_nodes)
    d_rows = np.zeros((n, d))
    d_rows[np.unique(rows.inverse, return_index=True)[1]] = d_sums
    ref.encoder.backward(d_rows)

    assert np.max(np.abs(out - expect)) <= 1e-10
    scale = max(np.max(np.abs(p.grad)) for p in ref.params())
    for p, q in zip(got.params(), ref.params()):
        assert np.max(np.abs(p.grad - q.grad)) <= 1e-10 * scale, p.name
    for bn, bn_ref in zip(got.gcn.batch_norms(), ref.gcn.batch_norms()):
        assert np.max(np.abs(bn.running_mean - bn_ref.running_mean)) <= 1e-12
        assert np.max(np.abs(bn.running_var - bn_ref.running_var)) <= 1e-12

    # eval mode: the per-node reference with the same parameters and statistics.
    # A single class makes each affine map a one-row product, which BLAS
    # computes with its matrix-vector kernel and rounds differently from the
    # matrix-matrix kernel the nodes go through; any other class count is exact.
    expect = reference_gcn_eval(got.gcn, sim, got.encoder.forward(distinct_rows(x), train=False))
    out = got.forward(classes, train=False)
    if len(classes.counts) > 1 or layers == 0:
        assert np.array_equal(out, expect)
    else:
        assert np.max(np.abs(out - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))


class TestNodeClasses:
    # 10 nodes, attribute rows from three patterns: nodes 4-9 store only their
    # diagonal unless a case adds edges to them
    PATTERNS = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])
    X = PATTERNS[[0, 1, 2, 0, 1, 1, 2, 1, 0, 1]]
    LINKED = [(0, 1, 0.5), (1, 0, 0.5), (1, 2, 0.4), (2, 1, 0.4), (2, 3, 0.7), (3, 2, 0.7)]

    def test_isolated_nodes_sharing_a_row_merge(self):
        sim = graph_from(10, self.LINKED, np.ones(10))
        classes = node_classes(self.X, sim)
        # nodes 4, 7, 9 share row 1; nodes 5, 6, 8 have rows 1, 2, 0
        assert classes.inverse.tolist() == [0, 1, 2, 3, 4, 4, 5, 4, 6, 4]
        assert classes.counts.tolist() == [1, 1, 1, 1, 4, 1, 1]
        for layers in (1, 2):
            assert_classes_match_per_node(self.X, sim, layers)

    def test_different_diagonal_values_do_not_merge(self):
        diagonal = np.ones(10)
        diagonal[[7, 9]] = 0.5
        sim = graph_from(10, self.LINKED, diagonal)
        classes = node_classes(self.X, sim)
        assert classes.inverse.tolist() == [0, 1, 2, 3, 4, 4, 5, 6, 7, 6]
        assert_classes_match_per_node(self.X, sim, 2)

    def test_asymmetric_graph(self):
        # nodes 0 and 3 read isolated nodes 5 to 9, which do not read them
        # back; then one edge whose two directions store different values
        edges = self.LINKED + [(0, 6, 0.3), (0, 7, 0.6), (0, 9, 0.8), (3, 5, 0.9),
                               (3, 8, 0.2)]
        uneven = [(0, 1, 0.5), (1, 0, 0.25)] + self.LINKED[2:]
        linked = graph_from(10, self.LINKED, np.ones(10))
        for sim in (graph_from(10, edges, np.ones(10)), graph_from(10, uneven, np.ones(10)),
                    one_sided_zero(linked)):
            with pytest.raises(ValueError, match="symmetric"):
                node_classes(self.X, sim)
        # stored with unsorted rows, the graph gives the sorted one's classes
        got, want = node_classes(self.X, unsorted_rows(linked)), node_classes(self.X, linked)
        assert np.array_equal(got.inverse, want.inverse)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got.sim, name), getattr(want.sim, name))

    def test_no_isolated_nodes(self):
        edges = [(i, (i + 1) % 10, 0.5) for i in range(10)]
        edges += [((i + 1) % 10, i, 0.5) for i in range(10)]
        sim = graph_from(10, edges, np.ones(10))
        classes = node_classes(self.X, sim)
        assert classes.inverse.tolist() == list(range(10))
        assert (classes.sim != sim).nnz == 0
        assert_classes_match_per_node(self.X, sim, 2)

    def test_all_nodes_isolated(self):
        sim = graph_from(10, [], np.ones(10))
        classes = node_classes(self.X, sim)
        assert classes.inverse.tolist() == [0, 1, 2, 0, 1, 1, 2, 1, 0, 1]
        assert_classes_match_per_node(self.X, sim, 2)

    def test_identical_isolated_nodes_at_zero_variance(self):
        # three copies of one row and no edges: one class, zero batch
        # variance in every batch norm, and an exactly zero encoder gradient
        # on the class path
        sim = graph_from(3, [], np.ones(3))
        assert node_classes(self.PATTERNS[[0, 0, 0]], sim).counts.tolist() == [3]
        assert_classes_match_per_node(self.PATTERNS[[0, 0, 0]], sim, 2)

    def test_zero_layers(self):
        sim = graph_from(10, self.LINKED, np.ones(10))
        assert_classes_match_per_node(self.X, sim, 0)

    def test_shape_mismatch_rejected(self):
        sim = graph_from(9, self.LINKED, np.ones(9))
        for bad in (sim, unsorted_rows(sim), one_sided_zero(sim)):
            with pytest.raises(ValueError, match="square"):
                node_classes(self.X, bad)

    def test_missing_self_loops_rejected(self):
        sim = graph_from(10, self.LINKED, np.ones(10)).tolil()
        sim[3, 3] = 0.0  # drops the stored entry
        sim = sim.tocsr()
        for bad in (sim, unsorted_rows(sim), one_sided_zero(sim)):
            with pytest.raises(ValueError, match="self-loops"):
                node_classes(self.X, bad)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_node_reference_on_random_graphs(self, data):
        n = data.draw(st.integers(2, 12), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = self.PATTERNS[rng.integers(0, data.draw(st.integers(1, 3)), size=n)]
        density = data.draw(st.sampled_from([0.0, 0.1, 0.3]))
        edges = [(r, c, float(rng.uniform(0.1, 1.0))) for r in range(n)
                 for c in range(r + 1, n) if rng.random() < density]
        edges += [(c, r, v) for r, c, v in edges]
        diagonal = rng.choice([1.0, 0.5], size=n)
        sim = graph_from(n, edges, diagonal)
        assert_classes_match_per_node(x, sim, data.draw(st.integers(0, 2)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_class_graph_is_its_own_transpose(self, data):
        # symmetric graphs whose isolated nodes share rows and diagonal
        # values, so some merge: the class graph stays symmetric with sorted
        # rows, and the backward's product by it is the product by its
        # transpose, bit for bit
        n = data.draw(st.integers(2, 16), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = self.PATTERNS[rng.integers(0, data.draw(st.integers(1, 3)), size=n)]
        linked = np.flatnonzero(rng.random(n) < data.draw(st.sampled_from([0.0, 0.3, 0.7])))
        edges = [(r, c, float(rng.uniform(0.1, 1.0))) for k, r in enumerate(linked)
                 for c in linked[k + 1:] if rng.random() < 0.5]
        edges += [(c, r, v) for r, c, v in edges]
        classes = node_classes(x, graph_from(n, edges, rng.choice([1.0, 0.5], size=n)))
        sim, sim_t = classes.sim, classes.sim.T.tocsr()
        rows = np.repeat(np.arange(sim.shape[0]), np.diff(sim.indptr))
        assert np.all((np.diff(rows) > 0) | (np.diff(sim.indices) > 0))
        for a, b in ((sim.indptr, sim_t.indptr), (sim.indices, sim_t.indices),
                     (sim.data, sim_t.data)):
            assert np.array_equal(a, b)

        layers = data.draw(st.integers(1, 3), label="layers")
        h = rng.normal(size=(len(classes.counts), 4))
        d_out = rng.normal(size=h.shape)
        got, ref = (AuxGcnStack(4, layers, np.random.default_rng(0)) for _ in range(2))
        for stack in (got, ref):
            stack.forward(sim, h, classes.counts, train=True)
        d = d_out
        for layer in reversed(ref.layers):
            d = sim_t @ layer.backward(d)
        assert np.array_equal(got.backward(d_out), d)
        for p, q in zip(got.params(), ref.params()):
            assert np.array_equal(p.grad, q.grad), p.name


class TestGcnStack:
    def test_self_loop_only_node(self):
        rng = np.random.default_rng(0)
        stack = AuxGcnStack(3, 1, rng)
        sim = loop_graph(np.zeros((4, 4)))
        h = rng.normal(size=(4, 3))
        out = stack.forward(sim, h, np.ones(4), train=True)
        # node 0 aggregates only itself: output equals the transform of its own feature
        expect = stack.layers[0].forward(h, True, np.ones(4))
        assert np.allclose(out[0], expect[0])

    def test_identity_transform_hand_aggregation(self):
        rng = np.random.default_rng(1)
        stack = AuxGcnStack(2, 1, rng)
        affine, bn = stack.layers[0].affine, stack.layers[0].bn
        bn.eps = 0.0
        affine.w.value[...] = np.eye(2)
        affine.b.value[...] = 0.0
        off = np.zeros((2, 2))
        off[0, 1] = off[1, 0] = 0.25
        sim = loop_graph(off)
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = stack.forward(sim, h, np.ones(2), train=False)  # running stats are identity at init
        assert np.allclose(out[0], h[0] + 0.25 * h[1])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        off = (rng.random((15, 15)) < 0.2) * rng.random((15, 15))
        off = np.triu(off, 1)
        off = off + off.T
        sim = loop_graph(off)
        stack = AuxGcnStack(4, 2, rng)
        h = rng.normal(size=(15, 4))
        out = stack.forward(sim, h, np.ones(15), train=True)
        dense = sim.toarray()
        cur = h
        for affine, bn in ((layer.affine, layer.bn) for layer in stack.layers):
            agg = dense @ cur
            z = agg @ affine.w.value + affine.b.value
            mu, var = z.mean(0), z.var(0)
            zh = (z - mu) / np.sqrt(var + bn.eps)
            cur = np.maximum(bn.gamma.value * zh + bn.beta.value, 0.0)
        assert np.max(np.abs(out - cur)) <= 1e-10

    def test_zero_layers_pass_through(self):
        stack = AuxGcnStack(3, 0, np.random.default_rng(0))
        h = np.random.default_rng(1).normal(size=(5, 3))
        out = stack.forward(loop_graph(np.zeros((5, 5))), h, np.ones(5), train=True)
        assert out is h


def rated(user: int, item: int, rating: float):
    """One (user, item, rating) triple as batch columns."""
    return np.array([user]), np.array([item]), np.array([rating])


class TestStage1Loss:
    def test_exact_fit_gives_zero(self):
        a_u = np.array([[1.0, 0.0]])
        a_v = np.array([[1.0, 0.0]])
        loss, dAu, dAv = squared_score_loss(a_u, a_v, rated(0, 0, 1.0))
        assert loss == 0.0
        assert np.all(dAu == 0) and np.all(dAv == 0)

    def test_hand_computed_pair(self):
        a_u = np.array([[1.0, 2.0]])
        a_v = np.array([[3.0, -1.0]])
        loss, _, _ = squared_score_loss(a_u, a_v, rated(0, 0, 0.0))
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
        users = np.arange(n)
        batch = (users, (users + 1) % m, (users % 2).astype(np.float64))
        x_u, x_v = node_classes(x_u, sim_u), node_classes(x_v, sim_v)

        stage1_loss_and_grad(user_net, item_net, x_u, x_v, batch)

        def loss():
            au = user_net.forward(x_u, train=True)
            av = item_net.forward(x_v, train=True)
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

    def test_gradient_scatter_equals_add_at(self):
        rng = np.random.default_rng(3)
        a_u, a_v = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        batch = (rng.integers(0, 5, 200), rng.integers(0, 4, 200), rng.random(200))
        _, dAu, dAv = squared_score_loss(a_u, a_v, batch)
        u, i, r = batch
        e = np.einsum("ij,ij->i", a_u[u], a_v[i]) - r
        expect_u, expect_v = np.zeros_like(a_u), np.zeros_like(a_v)
        np.add.at(expect_u, u, (2.0 * e)[:, None] * a_v[i])
        np.add.at(expect_v, i, (2.0 * e)[:, None] * a_u[u])
        assert np.array_equal(dAu, expect_u)
        assert np.array_equal(dAv, expect_v)

        # the pairwise loss: item 2 is a positive and a negative, and its
        # rows are summed positives first, then negatives
        g_u, g_v = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        triples = tuple(np.array([[0, 2, 1], [3, 0, 2], [0, 2, 3], [4, 1, 2], [3, 3, 0]]).T)
        u, ip, ineg = triples
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
        batch = (rng.choice([1, 3, 4], 50), rng.choice([1, 2], 50), rng.random(50))
        _, dAu, dAv = squared_score_loss(a_u, a_v, batch)
        u, i, r = batch
        e = np.einsum("ij,ij->i", a_u[u], a_v[i]) - r
        expect_u, expect_v = np.zeros_like(a_u), np.zeros_like(a_v)
        np.add.at(expect_u, u, (2.0 * e)[:, None] * a_v[i])
        np.add.at(expect_v, i, (2.0 * e)[:, None] * a_u[u])
        assert np.array_equal(dAu, expect_u)
        assert np.array_equal(dAv, expect_v)
        assert not dAu[[0, 2, 5, 6, 7]].any() and not dAv[[0, 3]].any()

    def test_empty_batch_gives_zero_loss_and_gradients(self):
        empty = np.zeros(0, dtype=np.int64)
        loss, dAu, dAv = squared_score_loss(np.ones((2, 2)), np.ones((2, 2)),
                                            (empty, empty, np.zeros(0)))
        assert loss == 0.0
        assert dAu.shape == dAv.shape == (2, 2) and not dAu.any() and not dAv.any()


class TestExtractor:
    def test_zero_conv_layers_returns_encoder_output(self):
        rng = np.random.default_rng(1)
        net = build_extractor(6, 3, [5], 0, rng)
        x = rng.normal(size=(7, 6))
        sim = loop_graph(np.zeros((7, 7)))
        a = net.forward(node_classes(x, sim), train=False)
        a_prime = net.encoder.forward(distinct_rows(x), train=False)
        assert np.array_equal(a, a_prime)


class TestDenseMatrixFile:
    def test_roundtrip(self, tmp_path):
        mat = np.random.default_rng(0).normal(size=(6, 4))
        path = tmp_path / "feat.mat"
        save_dense_matrix(path, mat, make_fields(["a", "b"], [["x"], ["y", ""]]))
        back = store.load(path, "matrix")
        assert back.meta == {"kind": "matrix", "fields": [
            {"name": "a", "categories": ["x"]}, {"name": "b", "categories": ["y", ""]}]}
        assert list(back.arrays) == ["values"] and np.array_equal(mat, back.arrays["values"])

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.mat"
        save_dense_matrix(path, np.ones((3, 3)), [])
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DataError, match="checksum mismatch"):
            store.load(path, "matrix")
