import numpy as np
import pytest

from crossfuse import auxnet, fusion, synthetic
from crossfuse.backbone import BackboneConfig, init_embeddings
from crossfuse.data import VALIDATION, split_dataset, split_truth
from crossfuse.evaluate import ranking_metrics, recommend_all
from crossfuse.graph import build_similarity_graph, interaction_matrix, normalize_bipartite
from crossfuse.optim import Adam, Param, Sgd, make_optimizer
from crossfuse.trainer import (Checkpoint, CheckpointCorruptError,
                               CheckpointVersionError, DivergenceError,
                               PipelineOrderError, TrainConfig, load_checkpoint,
                               pack_stage2_state, save_checkpoint, train_stage1,
                               train_stage2, unpack_stage2_state)

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
        for name in ("sgd", "adam"):
            p = Param(np.array([1.0, -2.0, 3.0]))
            # a tiny positive rate times zero steps is the honest identity;
            # rate exactly 0 must also leave values untouched
            opt = make_optimizer(name, [p], 0.0)
            p.grad[...] = np.array([5.0, -1.0, 0.5])
            before = p.value.copy()
            opt.step()
            assert np.array_equal(p.value, before)

    def test_sgd_step(self):
        p = Param(np.array([1.0]))
        opt = Sgd([p], 0.5)
        p.grad[...] = np.array([2.0])
        opt.step()
        assert p.value[0] == 0.0

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

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError):
            make_optimizer("lbfgs", [], 0.1)


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
        # purely affine extractors so an absurd rate genuinely diverges
        rng = np.random.default_rng(0)
        user_net = auxnet.build_extractor(data.user_features.dim, D, [], 0, rng)
        item_net = auxnet.build_extractor(data.item_features.dim, D, [], 0, rng)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            train_stage1(ds, user_net, item_net, data.user_features.values,
                         data.item_features.values, sim_u, sim_v,
                         quick_cfg(eta1=1e6, optimizer="sgd", epochs=60))
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
        assert zero.best_metric == plain.best_metric

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
        scoring them on validation reproduces ``best_metric`` exactly."""
        data, ds, adj, s1 = self._stage1()
        bcfg = BackboneConfig(dim=D, num_layers=1)
        fcfg = fusion.FusionConfig(variant="weighted-sum")

        def run(epochs):
            table = init_embeddings(ds.n + ds.m, D, seed=0)
            return train_stage2(ds, adj, table, s1.user_features, s1.item_features,
                                bcfg, quick_cfg(epochs=epochs), fcfg)

        res = run(7)
        best_epoch = max(res.log.records, key=lambda r: r.val_metric).epoch
        assert best_epoch < res.epochs_run
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
        assert ranking_metrics(recs, truth, [10]).means["ndcg"][10] == res.best_metric


class TestCheckpoint:
    def test_tensor_and_meta_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        ckpt = Checkpoint(meta={"kind": "test", "epoch": 3},
                          tensors={"a": rng.normal(size=(4, 5)),
                                   "b": rng.integers(0, 9, size=7)})
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.meta == ckpt.meta
        assert np.array_equal(back.tensors["a"], ckpt.tensors["a"])
        assert np.array_equal(back.tensors["b"], ckpt.tensors["b"])
        assert back.tensors["b"].dtype == np.int64

    def test_version_bump_detected_before_checksum(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, Checkpoint(meta={"k": 1}, tensors={}))
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # version byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, Checkpoint(meta={"k": 1},
                                         tensors={"t": np.ones((3, 3))}))
        raw = bytearray(path.read_bytes())
        raw[-12] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_detected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, Checkpoint(meta={"k": 1}, tensors={"t": np.ones(5)}))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

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
        save_checkpoint(path, pack_stage2_state(state, {"note": "mid"}))
        resumed_state = unpack_stage2_state(load_checkpoint(path))

        table_resume = init_embeddings(ds2.n + ds2.m, D, seed=9)
        resumed = train_stage2(ds2, adj2, table_resume, s1b.user_features,
                               s1b.item_features, bcfg, quick_cfg(epochs=10, seed=9),
                               fcfg, resume=resumed_state)

        assert np.array_equal(full.table.value, resumed.table.value)
        assert full.best_metric == resumed.best_metric
