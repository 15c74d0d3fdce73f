"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The desk-scale experiment (criteria 5 and 6) trains the full two-stage
pipeline on generated category-driven data for five seeds and four fusion
variants; it is module-scoped and shared between the two tests.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_random_dataset, split_truth
from crossfuse import auxnet, fusion, gradcheck, store, synthetic
from crossfuse.backbone import BackboneConfig, LightGCN, init_embeddings
from crossfuse.data import TEST, split_dataset
from crossfuse.evaluate import category_kl, ranking_metrics, recommend_all
from crossfuse.graph import (build_similarity_graph, interaction_matrix,
                             normalize_bipartite)
from crossfuse.trainer import (TrainConfig, pack_stage2_state, train_stage1, train_stage2,
                               unpack_stage2_state)


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {status}: {detail}")


# ---------------------------------------------------------------------------
# Criteria 1 and 2: gradient correctness and closed-form agreement
# ---------------------------------------------------------------------------

FD_CHECKS = 7
EXACT_CHECKS = 5


@pytest.fixture(scope="module")
def suite_runs():
    """``gradcheck.run_suite`` at seeds 0-19, run once for both criteria, and
    the seconds the 20 runs took."""
    t0 = time.perf_counter()
    runs = [gradcheck.run_suite(seed=seed) for seed in range(20)]
    return runs, time.perf_counter() - t0


def test_criterion_1_gradients_match_finite_differences(suite_runs):
    runs, elapsed = suite_runs
    worst = 0.0
    ok = True
    for results in runs:
        fd = [r for r in results if r.tolerance == gradcheck.FD_TOL]
        assert len(fd) == FD_CHECKS
        worst = max(worst, max(r.max_error for r in fd))
        ok = ok and all(r.passed for r in fd)
    ok = ok and elapsed < 60.0
    report(1, ok, f"all losses vs central differences over 20 seeds, worst "
                  f"relative error {worst:.2e} (tol 1e-5), {elapsed:.1f}s")
    assert ok


def test_criterion_2_closed_form_gradients_agree(suite_runs):
    worst = 0.0
    ok = True
    for results in suite_runs[0]:
        exact = [r for r in results if r.tolerance == gradcheck.EXACT_TOL]
        assert len(exact) == EXACT_CHECKS
        worst = max(worst, max(r.max_error for r in exact))
        ok = ok and all(r.passed for r in exact)
    report(2, ok, f"five closed-form update directions vs backward passes, "
                  f"worst abs difference {worst:.2e} (tol 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: propagation against the dense matrix-power oracle
# ---------------------------------------------------------------------------

def test_criterion_3_propagation_matches_dense_oracle():
    worst = 0.0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 20))
        m = int(rng.integers(5, 31))
        assert n + m <= 50
        ds = make_random_dataset(seed, n=n, m=m)
        adj = normalize_bipartite(ds)
        for layers in (1, 2, 3, 4):
            cfg = BackboneConfig(dim=6, num_layers=layers)
            model = LightGCN(adj, ds.n, cfg)
            table = init_embeddings(adj.shape[0], 6, seed=seed * 10 + layers)
            feats = model.forward(table)
            A = adj.toarray()
            alphas = cfg.resolved_alphas()
            oracle = alphas[0] * table.value
            power = np.eye(A.shape[0])
            for k in range(1, layers + 1):
                power = A @ power
                oracle = oracle + alphas[k] * (power @ table.value)
            worst = max(worst, float(np.max(np.abs(feats.values - oracle))))
    ok = worst <= 1e-10
    report(3, ok, f"propagation vs dense power sums on graphs up to 50 nodes, "
                  f"K in 1..4, worst abs difference {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: similarity graph contract
# ---------------------------------------------------------------------------

def test_criterion_4_similarity_graph_contract():
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        R = interaction_matrix(make_random_dataset(seed, n=15, m=25, lo=3, hi=9),
                               binarize=True)
        for axis in ("rows", "columns"):
            counts = []
            for eps in grid:
                sim = build_similarity_graph(R, axis, epsilon=eps)
                arr = sim.toarray()
                ok = ok and np.array_equal(arr, arr.T)
                ok = ok and bool(np.all(np.diag(arr) == 1.0))
                off = arr[~np.eye(arr.shape[0], dtype=bool)]
                stored = off[off != 0]
                ok = ok and bool(np.all((stored >= eps) & (stored <= 1.0)))
                counts.append(sim.nnz)
            ok = ok and all(a >= b for a, b in zip(counts, counts[1:]))
    report(4, ok, "exact symmetry, unit diagonal, off-diagonal in [eps, 1], "
                  "and monotone shrinkage over the 0.1..0.9 threshold grid")
    assert ok


# ---------------------------------------------------------------------------
# Criteria 5 and 6: fusion benefit and category consistency at desk scale
# ---------------------------------------------------------------------------

DESK_DIM = 16
DESK_SEEDS = (0, 1, 2, 3, 4)


def _desk_prepare(seed):
    data = synthetic.generate(num_users=200, num_items=300, num_categories=5,
                              seed=seed)
    ds = split_dataset(data.dataset, (0.72, 0.08, 0.2), seed=seed)
    R = interaction_matrix(ds, binarize=True)
    sim_u = build_similarity_graph(R, "rows", 0.3)
    sim_v = build_similarity_graph(R, "columns", 0.3)
    adj = normalize_bipartite(ds)
    rng = np.random.default_rng(seed + 100)
    user_net = auxnet.build_extractor(data.user_features.dim, DESK_DIM, [32], 1,
                                      rng, name="u")
    item_net = auxnet.build_extractor(data.item_features.dim, DESK_DIM, [32], 1,
                                      rng, name="v")
    t1 = TrainConfig(eta1=0.01, eta2=0.01, epochs=75, batch_size=1024,
                     seed=seed, patience=None)
    s1 = train_stage1(ds, user_net, item_net, data.user_features.values,
                      data.item_features.values, sim_u, sim_v, t1)
    return data, ds, adj, s1, split_truth(ds, TEST)


def _desk_variant(ds, adj, s1, truth, seed, variant, lam1, lam2):
    fcfg = fusion.FusionConfig(variant=variant, lambda1=lam1, lambda2=lam2)
    bcfg = BackboneConfig(dim=DESK_DIM, num_layers=2, lambda_reg=1e-4)
    t2 = TrainConfig(eta1=0.01, eta2=0.01, epochs=50, batch_size=1024,
                     seed=seed, patience=None)
    table = init_embeddings(ds.n + ds.m, DESK_DIM, seed=seed)
    res = train_stage2(ds, adj, table, s1.user_features, s1.item_features,
                       bcfg, t2, fcfg)
    feats = res.model.forward(res.table)
    weights = tuple(res.fusion_weights) if res.fusion_weights else None
    eff_u, eff_v = fusion.effective_features(variant, feats.users, feats.items,
                                             s1.user_features, s1.item_features,
                                             weights)
    recs = recommend_all(eff_u, eff_v, ds, 10, sorted(truth))
    ndcg = ranking_metrics(recs, truth, [10]).means["ndcg"][10]
    return ndcg, recs


@pytest.fixture(scope="module")
def desk_experiment():
    t0 = time.perf_counter()
    rows = []
    for seed in DESK_SEEDS:
        data, ds, adj, s1, truth = _desk_prepare(seed)
        row = {}
        for variant, lam1, lam2 in (("cross", 0.5, 0.5), ("none", 0.0, 0.0),
                                    ("concat", 0.0, 0.0), ("plain-sum", 0.0, 0.0)):
            ndcg, recs = _desk_variant(ds, adj, s1, truth, seed, variant, lam1, lam2)
            histories = {u: ds.train_items(u).tolist() for u in sorted(truth)}
            kl, _ = category_kl(histories, recs, data.item_categories,
                                top_categories=5)
            row[variant] = {"ndcg": ndcg, "kl": kl}
        rows.append(row)
    return rows, time.perf_counter() - t0


def test_criterion_5_cross_fusion_benefit_at_desk_scale(desk_experiment):
    rows, elapsed = desk_experiment
    vs_none = sum(r["cross"]["ndcg"] >= r["none"]["ndcg"] for r in rows)
    vs_concat = sum(r["cross"]["ndcg"] >= r["concat"]["ndcg"] for r in rows)
    vs_sum = sum(r["cross"]["ndcg"] >= r["plain-sum"]["ndcg"] for r in rows)
    ok = vs_none >= 4 and vs_concat >= 3 and vs_sum >= 3 and elapsed < 300.0
    report(5, ok, f"cross fusion NDCG@10 >= plain backbone on {vs_none}/5 seeds "
                  f"(need 4), >= concatenation on {vs_concat}/5 and >= plain "
                  f"summation on {vs_sum}/5 (need 3), runtime {elapsed:.0f}s")
    assert ok


def test_criterion_6_category_consistency_trend(desk_experiment):
    rows, _ = desk_experiment
    kl_cross = float(np.mean([r["cross"]["kl"] for r in rows]))
    kl_none = float(np.mean([r["none"]["kl"] for r in rows]))
    ok = kl_cross <= kl_none
    report(6, ok, f"mean category divergence fused {kl_cross:.4f} <= plain "
                  f"backbone {kl_none:.4f} over 5 seeds")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: metric unit values
# ---------------------------------------------------------------------------

def test_criterion_7_metric_unit_values():
    rep = ranking_metrics({0: np.array([7, 8, 3, 9, 11])}, {0: {3}}, [5])
    ndcg_err = abs(rep.means["ndcg"][5] - 1.0 / math.log2(4))
    rep2 = ranking_metrics({0: np.array([7, 3, 8])}, {0: {3}}, [3])
    mrr_err = abs(rep2.means["mrr"][3] - 0.5)
    kl, _ = category_kl({0: [0, 0, 0, 1]}, {0: [0, 0, 1, 1]}, {0: [0], 1: [1]}, 2)
    kl_err = abs(kl - (0.75 * math.log(1.5) + 0.25 * math.log(0.5)))
    ok = ndcg_err <= 1e-12 and mrr_err <= 1e-12 and kl_err <= 1e-12
    report(7, ok, f"NDCG@5 rank-3 single hit err {ndcg_err:.1e}, MRR rank-2 err "
                  f"{mrr_err:.1e}, two-category divergence err {kl_err:.1e} "
                  f"(all vs 1e-12)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: reduction identities
# ---------------------------------------------------------------------------

def test_criterion_8_reduction_identities():
    # (a) zero fusion weights vs plain backbone: metric-identical training
    data = synthetic.generate(num_users=30, num_items=45, num_categories=3, seed=6,
                              interactions_per_user=(8, 14))
    ds = split_dataset(data.dataset, (0.7, 0.1, 0.2), seed=6)
    R = interaction_matrix(ds, binarize=True)
    sim_u = build_similarity_graph(R, "rows", 0.2)
    sim_v = build_similarity_graph(R, "columns", 0.2)
    adj = normalize_bipartite(ds)
    rng = np.random.default_rng(42)
    nets = (auxnet.build_extractor(data.user_features.dim, 8, [8], 1, rng, name="u"),
            auxnet.build_extractor(data.item_features.dim, 8, [8], 1, rng, name="v"))
    cfg = TrainConfig(eta1=0.01, eta2=0.01, epochs=5, batch_size=256, seed=2,
                      patience=None)
    s1 = train_stage1(ds, nets[0], nets[1], data.user_features.values,
                      data.item_features.values, sim_u, sim_v, cfg)
    bcfg = BackboneConfig(dim=8, num_layers=1)
    truth = split_truth(ds, TEST)

    metrics = {}
    for tag, fcfg, (au, av) in (
            ("zero", fusion.FusionConfig(variant="cross", lambda1=0.0, lambda2=0.0),
             (s1.user_features, s1.item_features)),
            ("plain", fusion.FusionConfig(variant="none"), (None, None))):
        table = init_embeddings(ds.n + ds.m, 8, seed=2)
        res = train_stage2(ds, adj, table, au, av, bcfg, cfg, fcfg)
        feats = res.model.forward(res.table)
        recs = recommend_all(feats.users, feats.items, ds, 10, sorted(truth))
        metrics[tag] = ranking_metrics(recs, truth, [5, 10]).means
    identical_training = metrics["zero"] == metrics["plain"]

    # (b) a zero-depth convolution stack returns the encoder output unchanged
    stack_in = np.random.default_rng(0).normal(size=(9, 8))
    stack = auxnet.AuxGcnStack(8, 0, np.random.default_rng(1))
    passthrough = stack.forward(sim_u[:9, :9], stack_in, np.ones(9), train=True) is stack_in

    # (c) layer weights (1, 0, ...) reduce ranking to raw embedding dot products
    cfg0 = BackboneConfig(dim=8, num_layers=2, alphas=np.array([1.0, 0.0, 0.0]))
    model = LightGCN(adj, ds.n, cfg0)
    table = init_embeddings(adj.shape[0], 8, seed=3)
    feats = model.forward(table)
    raw_u, raw_v = table.value[:ds.n], table.value[ds.n:]
    mf_rank = np.array_equal(np.argsort(-(feats.users @ feats.items.T), axis=1, kind="stable"),
                             np.argsort(-(raw_u @ raw_v.T), axis=1, kind="stable"))

    ok = identical_training and passthrough and mf_rank
    report(8, ok, f"zero-weight fusion == plain backbone metrics ({identical_training}), "
                  f"depth-0 stack is identity ({passthrough}), layer weights (1,0,..) "
                  f"rank like matrix factorization ({mf_rank})")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_and_resume(tmp_path):
    from crossfuse.cli import main

    # (a) identical manifests produce bit-identical metric files
    data = synthetic.generate(num_users=20, num_items=30, num_categories=3, seed=8,
                              interactions_per_user=(8, 12))
    paths = synthetic.write_files(data, tmp_path / "input")
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"""
[paths]
interactions = {paths['interactions']}
user_attributes = {paths['user_attributes']}
item_attributes = {paths['item_attributes']}
output_dir = {out}
[graph]
epsilon_user = 0.2
epsilon_item = 0.2
[backbone]
dim = 8
layers = 1
[auxnet]
hidden = 8
[train]
epochs = 2
patience = none
seed = 11
""", encoding="utf-8")
        for cmd in ("prepare", "train-aux", "train", "evaluate"):
            assert main([cmd, "--config", str(cfg)]) == 0
        blobs.append(((out / "metrics.json").read_bytes(),
                      (out / "metrics.tsv").read_bytes()))
    bit_identical = blobs[0] == blobs[1]

    # (b) mid-training checkpoint resume reproduces the uninterrupted metrics
    ds = split_dataset(data.dataset, (0.7, 0.1, 0.2), seed=8)
    Rm = interaction_matrix(ds, binarize=True)
    sim_u = build_similarity_graph(Rm, "rows", 0.2)
    sim_v = build_similarity_graph(Rm, "columns", 0.2)
    adj = normalize_bipartite(ds)
    cfg10 = TrainConfig(eta1=0.01, eta2=0.01, epochs=10, batch_size=256, seed=4,
                        patience=None)
    bcfg = BackboneConfig(dim=8, num_layers=1)
    fcfg = fusion.FusionConfig(variant="cross", lambda1=0.4, lambda2=0.2)
    truth = split_truth(ds, TEST)

    def stage1():
        rng = np.random.default_rng(18)
        u_net = auxnet.build_extractor(data.user_features.dim, 8, [8], 1, rng, name="u")
        i_net = auxnet.build_extractor(data.item_features.dim, 8, [8], 1, rng, name="v")
        return train_stage1(ds, u_net, i_net, data.user_features.values,
                            data.item_features.values, sim_u, sim_v, cfg10)

    def metrics_from(table, model):
        feats = model.forward(table)
        recs = recommend_all(feats.users, feats.items, ds, 10, sorted(truth))
        return ranking_metrics(recs, truth, [5, 10]).means

    s1 = stage1()
    full_table = init_embeddings(ds.n + ds.m, 8, seed=4)
    full = train_stage2(ds, adj, full_table, s1.user_features, s1.item_features,
                        bcfg, cfg10, fcfg)
    full_metrics = metrics_from(full.table, full.model)

    s1b = stage1()
    half_table = init_embeddings(ds.n + ds.m, 8, seed=4)
    state = train_stage2(ds, adj, half_table, s1b.user_features, s1b.item_features,
                         bcfg, replace(cfg10, epochs=5), fcfg).state
    ckpt_path = tmp_path / "mid.ckpt"
    store.save(ckpt_path, pack_stage2_state(state, {"stopped_at": 5}))
    resumed_state = unpack_stage2_state(store.load(ckpt_path, "checkpoint"), ckpt_path)
    resume_table = init_embeddings(ds.n + ds.m, 8, seed=4)
    resumed = train_stage2(ds, adj, resume_table, s1b.user_features,
                           s1b.item_features, bcfg, cfg10, fcfg,
                           resume=resumed_state)
    resumed_metrics = metrics_from(resumed.table, resumed.model)
    resume_exact = full_metrics == resumed_metrics

    ok = bit_identical and resume_exact
    report(9, ok, f"identical manifests give bit-identical metric files "
                  f"({bit_identical}); mid-training save/resume reproduces the "
                  f"uninterrupted run's metrics exactly ({resume_exact})")
    assert ok
