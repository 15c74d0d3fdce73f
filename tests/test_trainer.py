import numpy as np
import pytest

from conftest import split_truth
from crossfuse import auxnet, fusion, store, synthetic, trainer
from crossfuse.backbone import BackboneConfig, LightGCN, init_embeddings
from crossfuse.data import TRAIN, VALIDATION, DataError, InteractionDataset, split_dataset
from crossfuse.evaluate import ranking_metrics, recommend_all
from crossfuse.graph import build_similarity_graph, interaction_matrix, normalize_bipartite
from crossfuse.optim import Adam, Param
from crossfuse.store import ArrayFile
from crossfuse.trainer import (DivergenceError, PipelineOrderError, TrainConfig,
                               pack_stage2_state, train_stage1, train_stage2,
                               unpack_stage2_state)

D = 8


def make_world(seed=0, users=20, items=30):
    data = synthetic.generate(num_users=users, num_items=items, num_categories=3,
                              seed=seed, interactions_per_user=(6, 12))
    ds = split_dataset(data.dataset, (0.7, 0.1, 0.2), seed=seed)
    R = interaction_matrix(ds, binarize=True)
    sim_u = build_similarity_graph(R, "rows", 0.2)
    sim_v = build_similarity_graph(R, "columns", 0.2)
    adj = normalize_bipartite(ds)
    return data, ds, sim_u, sim_v, adj


def make_nets(data, seed=0):
    rng = np.random.default_rng(seed)
    user_net = auxnet.build_extractor(data.user_features.dim, D, [8], 1, rng, name="u")
    item_net = auxnet.build_extractor(data.item_features.dim, D, [8], 1, rng, name="v")
    return user_net, item_net


def quick_cfg(**kw):
    base = dict(eta1=0.01, eta2=0.01, epochs=4, batch_size=256, seed=0, patience=None)
    base.update(kw)
    return TrainConfig(**base)


class TestOptimizers:
    def test_zero_learning_rate_is_identity(self):
        p = Param(np.array([1.0, -2.0, 3.0]))
        opt = Adam([p], 0.0)
        p.grad[...] = np.array([5.0, -1.0, 0.5])
        before = p.value.copy()
        opt.step()
        assert np.array_equal(p.value, before)

    def test_adam_state_roundtrip(self):
        p = Param(np.array([1.0, 2.0]))
        opt = Adam([p], 0.1)
        for _ in range(3):
            p.grad[...] = np.array([0.5, -0.5])
            opt.step()
        meta, tensors = opt.state(), opt.state_tensors()
        q = Param(p.value.copy())
        opt2 = Adam([q], 0.1)
        opt2.load_state(meta, {k: v.copy() for k, v in tensors.items()})
        p.grad[...] = np.array([1.0, 1.0])
        q.grad[...] = np.array([1.0, 1.0])
        opt.step()
        opt2.step()
        assert np.array_equal(p.value, q.value)

    def test_adam_step_matches_its_expression(self):
        # the update as one expression per moment, with numpy temporaries
        rng = np.random.default_rng(0)
        shapes = [(300, 8), (8,), (4, 5)]
        params = [Param(rng.normal(size=s)) for s in shapes]
        opt = Adam(params, 0.01)
        values = [p.value.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        b1, b2, eps = opt.beta1, opt.beta2, opt.eps
        for t in range(1, 201):
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for k, p in enumerate(params):
                g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.value.shape)
                p.grad[...] = g
                m[k] *= b1
                m[k] += (1.0 - b1) * g
                v[k] *= b2
                v[k] += (1.0 - b2) * np.square(g)
                values[k] -= 0.01 * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
            opt.step()
        for k, p in enumerate(params):
            assert np.array_equal(p.value, values[k])
            assert np.array_equal(opt.m[k], m[k])
            assert np.array_equal(opt.v[k], v[k])
        assert sorted(opt.state_tensors()) == ["m0", "m1", "m2", "v0", "v1", "v2"]


class TestFlatBuffers:
    """Adam adopts its parameters: each value and gradient is a view of the
    optimizer's flat buffers for as long as it trains."""

    @staticmethod
    def recording_adam(monkeypatch) -> list[Adam]:
        made = []

        class Recorded(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(trainer, "Adam", Recorded)
        return made

    @staticmethod
    def assert_adopted(opt: Adam, params: list[Param]) -> None:
        assert opt.params == params
        for p in params:
            assert np.shares_memory(p.value, opt._value), p.name
            assert np.shares_memory(p.grad, opt._grad), p.name
        tensors = opt.state_tensors()
        assert sorted(tensors) == sorted(f"{k}{i}" for k in "mv" for i in range(len(params)))
        for i, p in enumerate(params):
            assert tensors[f"m{i}"].shape == tensors[f"v{i}"].shape == p.value.shape

    def test_stage1_trains_views_and_zeroes_one_buffer(self, monkeypatch):
        data, ds, sim_u, sim_v, _ = make_world()
        user_net, item_net = make_nets(data)
        made = self.recording_adam(monkeypatch)
        # a parameter has no zeroing of its own: only Adam's flat buffer is zeroed
        assert not hasattr(Param, "zero_grad")
        train_stage1(ds, user_net, item_net, data.user_features.values,
                     data.item_features.values, sim_u, sim_v, quick_cfg(epochs=2))
        (opt,) = made
        self.assert_adopted(opt, user_net.params() + item_net.params())

    def test_weighted_sum_stage2_trains_views(self, monkeypatch):
        data, ds, sim_u, sim_v, adj = make_world()
        user_net, item_net = make_nets(data)
        s1 = train_stage1(ds, user_net, item_net, data.user_features.values,
                          data.item_features.values, sim_u, sim_v, quick_cfg(epochs=2))
        made = self.recording_adam(monkeypatch)
        table = init_embeddings(ds.n + ds.m, D, seed=0)
        res = train_stage2(ds, adj, table, s1.user_features, s1.item_features,
                           BackboneConfig(dim=D, num_layers=1), quick_cfg(epochs=2),
                           fusion.FusionConfig(variant="weighted-sum"))
        (opt,) = made
        assert len(opt.params) == 5 and opt.params[0] is res.table is table
        self.assert_adopted(opt, opt.params)
        for w, p in zip(res.fusion_weights, opt.params[1:]):
            assert w is p.value


class TestStage1:
    def test_loss_descends_on_fittable_instance(self):
        data, ds, sim_u, sim_v, _ = make_world()
        user_net, item_net = make_nets(data)
        res = train_stage1(ds, user_net, item_net, data.user_features.values,
                           data.item_features.values, sim_u, sim_v,
                           quick_cfg(epochs=10))
        assert res.log.records[-1].loss < res.log.records[0].loss

    def test_epoch_count_in_log(self):
        data, ds, sim_u, sim_v, _ = make_world()
        user_net, item_net = make_nets(data)
        res = train_stage1(ds, user_net, item_net, data.user_features.values,
                           data.item_features.values, sim_u, sim_v, quick_cfg(epochs=3))
        assert len(res.log.records) == 3
        assert [r.epoch for r in res.log.records] == [1, 2, 3]

    def test_same_seed_identical_output(self):
        outs = []
        for _ in range(2):
            data, ds, sim_u, sim_v, _ = make_world()
            user_net, item_net = make_nets(data)
            res = train_stage1(ds, user_net, item_net, data.user_features.values,
                               data.item_features.values, sim_u, sim_v, quick_cfg())
            outs.append(res.user_features)
        assert np.array_equal(outs[0], outs[1])

    def test_divergent_run_aborts_with_epoch(self):
        data, ds, sim_u, sim_v, _ = make_world()
        # purely affine extractors so an absurd rate genuinely diverges: Adam
        # moves each value by about the rate per step, so 1e200 overflows
        rng = np.random.default_rng(0)
        user_net = auxnet.build_extractor(data.user_features.dim, D, [], 0, rng)
        item_net = auxnet.build_extractor(data.item_features.dim, D, [], 0, rng)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            train_stage1(ds, user_net, item_net, data.user_features.values,
                         data.item_features.values, sim_u, sim_v,
                         quick_cfg(eta1=1e200, epochs=60))
        assert err.value.stage == 1
        assert err.value.epoch >= 1

    def test_outputs_are_read_only(self):
        data, ds, sim_u, sim_v, _ = make_world()
        user_net, item_net = make_nets(data)
        res = train_stage1(ds, user_net, item_net, data.user_features.values,
                           data.item_features.values, sim_u, sim_v, quick_cfg())
        with pytest.raises(ValueError):
            res.user_features[0, 0] = 1.0


class TestStage2:
    def _stage1(self, seed=0):
        data, ds, sim_u, sim_v, adj = make_world(seed)
        user_net, item_net = make_nets(data, seed)
        s1 = train_stage1(ds, user_net, item_net, data.user_features.values,
                          data.item_features.values, sim_u, sim_v,
                          quick_cfg(epochs=6, seed=seed))
        return data, ds, adj, s1

    def test_auxiliary_bytes_identical_after_training(self):
        data, ds, adj, s1 = self._stage1()
        before_u = s1.user_features.tobytes()
        before_v = s1.item_features.tobytes()
        table = init_embeddings(ds.n + ds.m, D, seed=0)
        train_stage2(ds, adj, table, s1.user_features, s1.item_features,
                     BackboneConfig(dim=D, num_layers=1),
                     quick_cfg(), fusion.FusionConfig(variant="cross", lambda1=0.5,
                                                      lambda2=0.5))
        assert s1.user_features.tobytes() == before_u
        assert s1.item_features.tobytes() == before_v

    def test_zero_weights_equal_plain_backbone_run(self):
        data, ds, adj, s1 = self._stage1()
        bcfg = BackboneConfig(dim=D, num_layers=1)

        t1 = init_embeddings(ds.n + ds.m, D, seed=1)
        zero = train_stage2(ds, adj, t1, s1.user_features, s1.item_features,
                            bcfg, quick_cfg(), fusion.FusionConfig(variant="cross",
                                                                   lambda1=0.0,
                                                                   lambda2=0.0))
        t2 = init_embeddings(ds.n + ds.m, D, seed=1)
        plain = train_stage2(ds, adj, t2, None, None, bcfg, quick_cfg(),
                             fusion.FusionConfig(variant="none"))
        assert np.array_equal(zero.table.value, plain.table.value)
        assert zero.state.best_metric == plain.state.best_metric

    def test_ordering_enforced(self):
        data, ds, adj, _ = self._stage1()
        table = init_embeddings(ds.n + ds.m, D, seed=0)
        with pytest.raises(PipelineOrderError):
            train_stage2(ds, adj, table, None, None, BackboneConfig(dim=D, num_layers=1),
                         quick_cfg(), fusion.FusionConfig(variant="cross", lambda1=0.1,
                                                          lambda2=0.1))

    def test_dimension_mismatch_rejected(self):
        data, ds, adj, s1 = self._stage1()
        table = init_embeddings(ds.n + ds.m, 4, seed=0)
        with pytest.raises(ValueError, match="dim"):
            train_stage2(ds, adj, table, s1.user_features, s1.item_features,
                         BackboneConfig(dim=4, num_layers=1), quick_cfg(),
                         fusion.FusionConfig(variant="cross", lambda1=0.1, lambda2=0.1))

    def test_log_is_pure_function_of_inputs(self):
        runs = []
        for _ in range(2):
            data, ds, adj, s1 = self._stage1()
            table = init_embeddings(ds.n + ds.m, D, seed=5)
            res = train_stage2(ds, adj, table, s1.user_features, s1.item_features,
                               BackboneConfig(dim=D, num_layers=1), quick_cfg(),
                               fusion.FusionConfig(variant="cross", lambda1=0.3,
                                                   lambda2=0.3))
            runs.append([(r.epoch, r.loss, r.val_metric) for r in res.log.records])
        assert runs[0] == runs[1]

    def test_returned_model_holds_no_work_arrays(self, monkeypatch):
        data, ds, adj, s1 = self._stage1()
        table = init_embeddings(ds.n + ds.m, D, seed=0)
        before = []
        release = LightGCN.release_work

        def forward_then_release(model):
            assert model._work
            before.append(model.forward(table).values.copy())
            release(model)

        monkeypatch.setattr(LightGCN, "release_work", forward_then_release)
        res = train_stage2(ds, adj, table, s1.user_features, s1.item_features,
                           BackboneConfig(dim=D, num_layers=2), quick_cfg(epochs=2),
                           fusion.FusionConfig(variant="cross", lambda1=0.5, lambda2=0.5))
        assert res.model._work == ()
        assert len(before) == 1
        assert np.array_equal(res.model.forward(res.table).values, before[0])

    @pytest.mark.parametrize("variant", ["concat", "plain-sum", "weighted-sum"])
    def test_baseline_variants_train(self, variant):
        data, ds, adj, s1 = self._stage1()
        table = init_embeddings(ds.n + ds.m, D, seed=0)
        res = train_stage2(ds, adj, table, s1.user_features, s1.item_features,
                           BackboneConfig(dim=D, num_layers=1), quick_cfg(epochs=2),
                           fusion.FusionConfig(variant=variant))
        assert np.all(np.isfinite(res.table.value))
        if variant == "weighted-sum":
            assert res.fusion_weights is not None
            assert len(res.fusion_weights) == 4

    def test_weighted_sum_returns_the_best_epochs_weights(self):
        """The returned table and weights are the best validation epoch's, and
        scoring them on validation reproduces the state's ``best_metric`` exactly."""
        data, ds, adj, s1 = self._stage1()
        bcfg = BackboneConfig(dim=D, num_layers=1)
        fcfg = fusion.FusionConfig(variant="weighted-sum")

        def run(epochs):
            table = init_embeddings(ds.n + ds.m, D, seed=0)
            return train_stage2(ds, adj, table, s1.user_features, s1.item_features,
                                bcfg, quick_cfg(epochs=epochs), fcfg)

        res = run(7)
        best_epoch = max(res.log.records, key=lambda r: r.val_metric).epoch
        assert best_epoch < res.state.epoch
        upto_best = run(best_epoch)
        assert np.array_equal(res.table.value, upto_best.table.value)
        for w, ref in zip(res.fusion_weights, upto_best.fusion_weights, strict=True):
            assert np.array_equal(w, ref)

        feats = res.model.forward(res.table)
        eff_u, eff_v = fusion.effective_features("weighted-sum", feats.users, feats.items,
                                                 s1.user_features, s1.item_features,
                                                 tuple(res.fusion_weights))
        truth = split_truth(ds, VALIDATION)
        recs = recommend_all(eff_u, eff_v, ds, 10, sorted(truth))
        assert ranking_metrics(recs, truth, [10]).means["ndcg"][10] == res.state.best_metric


def _reference_step(model, table, a_users, a_items, batch, cfg, w_params=None):
    """The stage-2 step on the full passes: the full forward, the feature
    objective on every node's features, and the full backward."""
    weights = tuple(p.value for p in w_params) if w_params else None
    feats = model.forward(table)
    loss, dU, dV, dW = fusion.feature_objective(feats.users, feats.items, a_users, a_items,
                                                batch, cfg, weights)
    for p, g in zip(w_params or [], dW):
        p.grad += g
    table.grad += model.backward(np.concatenate([dU, dV], axis=0))
    lam = model.cfg.lambda_reg
    if lam:
        loss += lam * float(np.sum(table.value ** 2))
        table.grad += 2.0 * lam * table.value
    return loss


STAGE2_CONFIGS = [("cross", "bpr"), ("cross", "mse"), ("none", "bpr"), ("none", "mse"),
                  ("concat", "bpr"), ("plain-sum", "bpr"), ("weighted-sum", "bpr")]


class TestRestrictedStep:
    """Training through the step, which runs a batch on its rows alone when
    they hold at most half of the adjacency's nonzeros, leaves every array
    bit for bit as the full-pass reference step does.  At desk size, batches
    of 64 fall mostly on the restricted side and batches of 1024 on the full
    side."""

    @pytest.fixture(scope="class")
    def desk(self):
        data = synthetic.generate(num_users=200, num_items=300, num_categories=5, seed=1)
        ds = split_dataset(data.dataset, (0.72, 0.08, 0.2), seed=1)
        rng = np.random.default_rng(1)
        return ds, normalize_bipartite(ds), rng.normal(size=(ds.n, 16)), rng.normal(
            size=(ds.m, 16))

    @pytest.mark.parametrize("batch_size", [64, 1024])
    @pytest.mark.parametrize("variant, graph_loss", STAGE2_CONFIGS)
    def test_every_trained_array_equals_the_full_step(self, desk, monkeypatch, batch_size,
                                                       variant, graph_loss):
        ds, adj, a_u, a_v = desk
        fcfg = fusion.FusionConfig(variant=variant, lambda1=0.5, lambda2=0.3,
                                   graph_loss=graph_loss)
        bcfg = BackboneConfig(dim=16, num_layers=2, lambda_reg=1e-4)
        cfg = quick_cfg(epochs=2, batch_size=batch_size, seed=2)

        def run():
            return train_stage2(ds, adj, init_embeddings(ds.n + ds.m, 16, seed=2), a_u, a_v,
                                bcfg, cfg, fcfg)

        restricted = []
        batch_rows = fusion._batch_rows

        def spy(model, batch, rated):
            rows, mapped = batch_rows(model, batch, rated)
            restricted.append(rows is not None)
            return rows, mapped

        monkeypatch.setattr(fusion, "_batch_rows", spy)
        got = run()
        monkeypatch.setattr(fusion, "fused_objective_grad", _reference_step)
        want = run()

        if batch_size == 64:
            assert any(restricted)
        else:
            assert not all(restricted)
        for name in ("params", "best_params", "opt_tensors"):
            a, b = getattr(got.state, name), getattr(want.state, name)
            assert a.keys() == b.keys()
            for k in a:
                assert a[k].tobytes() == b[k].tobytes(), (name, k)
        assert ([(r.loss, r.val_metric) for r in got.log.records]
                == [(r.loss, r.val_metric) for r in want.log.records])


def with_explicit_ratings(ds):
    """The same interactions and split, rated 1 to 5."""
    ratings = np.random.default_rng(0).integers(1, 6, size=len(ds)).astype(np.float64)
    return InteractionDataset(ds.n, ds.m, ds.users, ds.items, ratings, ds.split)


class TestMinibatchLoop:
    """Both stages train through one loop: one negative-sampler call per batch
    wherever a batch needs negatives, and a stop at the first non-finite loss."""

    @pytest.fixture
    def sampler_calls(self, monkeypatch):
        calls = []
        real = trainer.sample_negatives

        def counting(ds, users, rng):
            calls.append(len(users))
            return real(ds, users, rng)

        monkeypatch.setattr(trainer, "sample_negatives", counting)
        return calls

    @staticmethod
    def batches(ds, cfg):
        return cfg.epochs * -(-len(ds.split_indices(TRAIN)) // cfg.batch_size)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_stage1_samples_once_per_batch_on_implicit_data_only(self, sampler_calls,
                                                                 explicit):
        data, ds, sim_u, sim_v, _ = make_world()
        if explicit:
            ds = with_explicit_ratings(ds)
        user_net, item_net = make_nets(data)
        cfg = quick_cfg(epochs=3, batch_size=32)
        train_stage1(ds, user_net, item_net, data.user_features.values,
                     data.item_features.values, sim_u, sim_v, cfg)
        assert len(sampler_calls) == (0 if explicit else self.batches(ds, cfg))

    @pytest.mark.parametrize("graph_loss, explicit, sampled", [
        ("bpr", False, True), ("mse", False, True), ("bpr", True, True),
        ("mse", True, False)])
    def test_stage2_samples_once_per_batch_unless_rated_explicit(
            self, sampler_calls, graph_loss, explicit, sampled):
        _, ds, _, _, adj = make_world()
        if explicit:
            ds = with_explicit_ratings(ds)
        rng = np.random.default_rng(0)
        a_users, a_items = rng.normal(size=(ds.n, D)), rng.normal(size=(ds.m, D))
        cfg = quick_cfg(epochs=3, batch_size=32)
        train_stage2(ds, adj, init_embeddings(ds.n + ds.m, D, seed=0), a_users, a_items,
                     BackboneConfig(dim=D, num_layers=1), cfg,
                     fusion.FusionConfig(graph_loss=graph_loss))
        assert len(sampler_calls) == (self.batches(ds, cfg) if sampled else 0)

    @pytest.mark.parametrize("rated", [True, False], ids=["rated", "pairwise"])
    def test_batches_are_int64_id_columns_rebuilt_from_the_seed(self, rated):
        _, ds, _, _, _ = make_world(seed=3, users=25, items=40)
        assert ds.implicit
        cfg = quick_cfg(epochs=2, batch_size=16, seed=5)
        seen = []

        def step(batch):
            seen.append(batch)
            return 0.0

        opt = Adam([Param(np.zeros(1))], 0.1)
        for _ in trainer._epochs(ds, cfg, opt, np.random.default_rng(cfg.seed), 1, rated,
                                 step):
            pass

        rng = np.random.default_rng(cfg.seed)
        train = ds.split_indices(TRAIN)
        expected = []
        for _ in range(cfg.epochs):
            perm = rng.permutation(len(train))
            for lo in range(0, len(perm), cfg.batch_size):
                take = train[perm[lo:lo + cfg.batch_size]]
                u, i = ds.users[take], ds.items[take]
                negs = trainer.sample_negatives(ds, u, rng)
                expected.append((np.concatenate([u, u]), np.concatenate([i, negs]),
                                 np.concatenate([np.ones(len(u)), np.zeros(len(u))]))
                                if rated else (u, i, negs))
        assert len(seen) == len(expected) == self.batches(ds, cfg)

        for batch, want in zip(seen, expected):
            users, items, third = batch
            assert users.dtype == items.dtype == np.int64
            assert third.dtype == (np.float64 if rated else np.int64)
            assert users.ndim == items.ndim == third.ndim == 1
            assert len(users) == len(items) == len(third)
            if rated:
                half = len(users) // 2
                assert np.array_equal(users[half:], users[:half])
                assert not third[half:].any() and (third[:half] == 1.0).all()
                negs = items[half:]
            else:
                negs = third
            assert all(int(i) not in ds.train_item_set(int(u))
                       for u, i in zip(users, negs))
            for got, ref in zip(batch, want, strict=True):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_stage2_divergent_run_aborts_with_epoch(self):
        _, ds, _, _, adj = make_world()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as err:
            train_stage2(ds, adj, init_embeddings(ds.n + ds.m, D, seed=0), None, None,
                         BackboneConfig(dim=D, num_layers=1),
                         quick_cfg(eta2=1e200, epochs=60, batch_size=32),
                         fusion.FusionConfig(variant="none", graph_loss="mse"))
        assert err.value.stage == 2
        assert err.value.epoch >= 1


class TestCheckpoint:
    def test_tensor_and_meta_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        ckpt = ArrayFile(meta={"kind": "test", "epoch": 3},
                         arrays={"a": rng.normal(size=(4, 5)),
                                 "b": rng.integers(0, 9, size=7)})
        path = tmp_path / "x.ckpt"
        store.save(path, ckpt)
        back = store.load(path, "checkpoint")
        assert back.meta == ckpt.meta
        assert np.array_equal(back.arrays["a"], ckpt.arrays["a"])
        assert np.array_equal(back.arrays["b"], ckpt.arrays["b"])
        assert back.arrays["b"].dtype == np.int64

    def test_version_bump_detected_before_checksum(self, tmp_path):
        path = tmp_path / "x.ckpt"
        store.save(path, ArrayFile(meta={"k": 1}, arrays={}))
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # version byte
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checkpoint format version 99"):
            store.load(path, "checkpoint")

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        store.save(path, ArrayFile(meta={"k": 1}, arrays={"t": np.ones((3, 3))}))
        raw = bytearray(path.read_bytes())
        raw[-12] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checksum"):
            store.load(path, "checkpoint")

    def test_truncated_detected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        store.save(path, ArrayFile(meta={"k": 1}, arrays={"t": np.ones(5)}))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataError):
            store.load(path, "checkpoint")

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        def stage1():
            data, ds, sim_u, sim_v, adj = make_world(3)
            user_net, item_net = make_nets(data, 3)
            s1 = train_stage1(ds, user_net, item_net, data.user_features.values,
                              data.item_features.values, sim_u, sim_v,
                              quick_cfg(epochs=5, seed=3))
            return ds, adj, s1

        bcfg = BackboneConfig(dim=D, num_layers=1)
        fcfg = fusion.FusionConfig(variant="cross", lambda1=0.4, lambda2=0.2)

        ds, adj, s1 = stage1()
        table_full = init_embeddings(ds.n + ds.m, D, seed=9)
        full = train_stage2(ds, adj, table_full, s1.user_features, s1.item_features,
                            bcfg, quick_cfg(epochs=10, seed=9), fcfg)

        ds2, adj2, s1b = stage1()
        table_half = init_embeddings(ds2.n + ds2.m, D, seed=9)
        state = train_stage2(ds2, adj2, table_half, s1b.user_features,
                             s1b.item_features, bcfg, quick_cfg(epochs=5, seed=9),
                             fcfg).state
        path = tmp_path / "mid.ckpt"
        store.save(path, pack_stage2_state(state, {"note": "mid"}))
        resumed_state = unpack_stage2_state(store.load(path, "checkpoint"), path)

        table_resume = init_embeddings(ds2.n + ds2.m, D, seed=9)
        resumed = train_stage2(ds2, adj2, table_resume, s1b.user_features,
                               s1b.item_features, bcfg, quick_cfg(epochs=10, seed=9),
                               fcfg, resume=resumed_state)

        assert np.array_equal(full.table.value, resumed.table.value)
        assert full.state.best_metric == resumed.state.best_metric
