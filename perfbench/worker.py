"""One pass of one workload, run by ``run.py`` in a fresh process.

The pass generates the workload's inputs from the seed (untimed), runs the
program's phases through public calls, times each phase, checks the outputs,
and writes a JSON record: timing samples per end-to-end metric, quality
values, check counts and, for a traced pass, per-layer numbers.

    python3 perfbench/worker.py --workload mid-train --seed 0 --trace 0 \
        --seconds 45 --work .perfbench/work --out result.json
"""

from __future__ import annotations

import argparse
import json
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tracer as tracing
from crossfuse import auxnet, cli, evaluate, fusion, graph, synthetic, trainer
from crossfuse import data as cfdata
from crossfuse.backbone import BackboneConfig, init_embeddings

RATIOS = (0.72, 0.08, 0.20)
EPSILON = 0.3
TOPN = 20
METRIC_NS = (5, 10, 20)
DESK_VARIANTS = (("cross", 0.5, 0.5), ("none", 0.0, 0.0),
                 ("concat", 0.0, 0.0), ("plain-sum", 0.0, 0.0))
SIM_TOL = 1e-12
MID_SEED = 0
MID_REPEATS = 5
DESK_PREPARE_REPEATS = 3  # one desk prepare takes about 30 ms
KL_CATEGORIES = 6  # the CLI default
# Set-up repeats at least this often, and until it has taken this share of
# --seconds, so its median is steady even where one set-up takes milliseconds.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_SHARE = 0.1


@dataclass
class Scale:
    """Sizes and schedules of one workload; ``full`` is the benchmark, ``tiny``
    the smoke run."""

    users: int
    items: int
    categories: int = 10
    per_user: tuple[int, int] = (40, 80)
    dim: int = 64
    hidden: tuple[int, ...] = (256,)
    gcn_layers: int = 2
    layers: int = 3
    batch: int = 1024
    stage1_epochs: int = 1
    stage2_epochs: int = 1
    eta: float = 0.001
    seeds: tuple[int, ...] = ()


SCALES = {
    # ROADMAP "mid": generate(3000, 2000, 10, interactions_per_user=(40, 80)).
    # Two stage-2 epochs: a single 11 s epoch spread 18% between runs.
    ("mid-train", "full"): Scale(3000, 2000, stage2_epochs=2),
    ("mid-train", "tiny"): Scale(60, 80, 4, (8, 14), dim=8, hidden=(16,), batch=128),
    # The acceptance desk of tests/test_acceptance.py, criteria 5 and 6.
    ("desk", "full"): Scale(200, 300, 5, (15, 30), dim=16, hidden=(32,), gcn_layers=1,
                            layers=2, stage1_epochs=75, stage2_epochs=50, eta=0.01,
                            seeds=(0, 1, 2, 3, 4)),
    ("desk", "tiny"): Scale(40, 60, 3, (8, 14), dim=8, hidden=(16,), gcn_layers=1,
                            layers=2, stage1_epochs=3, stage2_epochs=2, eta=0.01,
                            seeds=(0, 1)),
}


class Checks:
    """Counts checked operations and failures; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return bool(ok)


class Pass:
    """State of one pass: timing samples, quality values, checks, tracer."""

    def __init__(self, args, tracer: tracing.Tracer | None):
        self.args = args
        self.work = Path(args.work)
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, float] = {}
        self.info: dict[str, object] = {}
        self.checks = Checks()
        self.untraced_s = 0.0
        self.sim_graphs: list = []  # (R, sim, axis) the training uses
        self.attr_rows: dict[str, list[float]] = {"users": [], "items": []}

    @contextmanager
    def timed(self, metric: str):
        t0 = time.perf_counter()
        yield
        self.samples.setdefault(metric, []).append(time.perf_counter() - t0)

    @contextmanager
    def untraced(self):
        """Input generation and checks: kept out of the trace and out of the
        pipeline time that the tracing overhead is measured on."""
        t0 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
            self.untraced_s += time.perf_counter() - t0

    def record_epochs(self, metric: str, log) -> None:
        for rec in log.records:
            self.samples.setdefault(metric, []).append(rec.wall_time)
            self.checks.check(math.isfinite(rec.loss),
                              f"{metric}: non-finite loss at epoch {rec.epoch}")
            if not math.isnan(rec.val_metric):
                self.checks.check(0.0 <= rec.val_metric <= 1.0,
                                  f"{metric}: validation NDCG {rec.val_metric} outside [0, 1]")

    def note_attributes(self, user_x: np.ndarray, item_x: np.ndarray) -> None:
        for side, x in (("users", user_x), ("items", item_x)):
            self.attr_rows[side].append(len(np.unique(x, axis=0)) / x.shape[0])


# ---------------------------------------------------------------------------
# Phases shared by the workloads
# ---------------------------------------------------------------------------

def run_prepare(p: Pass, files: dict, out_dir: Path, seed: int, expect: dict) -> None:
    """``crossfuse prepare`` on written files, then check its artifacts."""
    cfg = out_dir.with_suffix(".cfg")
    cfg.write_text(
        "[paths]\n"
        f"interactions = {files['interactions']}\n"
        f"user_attributes = {files['user_attributes']}\n"
        f"item_attributes = {files['item_attributes']}\n"
        f"output_dir = {out_dir}\n"
        "[train]\n"
        f"seed = {seed}\n", encoding="utf-8")
    with p.timed("prepare_s"):
        rc = cli.main(["prepare", "--config", str(cfg)])
    if not p.checks.check(rc == 0, f"prepare exited {rc}"):
        return
    with p.untraced():
        check_prepared(p, out_dir, expect)


def check_prepared(p: Pass, out: Path, expect: dict) -> None:
    chk = p.checks.check
    report = dict(line.split("\t") for line in
                  (out / "build_report.txt").read_text(encoding="utf-8").splitlines())
    for key in ("users", "items", "interactions"):
        chk(int(report[key]) == expect[key],
            f"build report {key} = {report[key]}, generated {expect[key]}")

    z = np.load(out / "dataset.npz", allow_pickle=False)
    train = z["split"] == cfdata.TRAIN
    users, items = z["users"][train], z["items"][train]
    for name, axis, count in (("user_sim", "rows", int(z["n"][0])),
                              ("item_sim", "columns", int(z["m"][0]))):
        sim = graph.load_graph(out / f"{name}.graph")
        chk(int(report[f"{name}_nnz"]) == sim.nnz, f"{name}: report nnz != stored nnz")
        check_similarity(p, sim, users, items, axis, count, name)
    adj = graph.load_graph(out / "adjacency.graph")
    chk(csr_ok(adj), "adjacency.graph fails check_csr")
    chk(adj.shape == (int(z["n"][0]) + int(z["m"][0]),) * 2, "adjacency shape")


def csr_ok(mat) -> bool:
    try:
        graph.check_csr(mat)
    except ValueError:
        return False
    return True


def check_similarity(p: Pass, sim, users, items, axis: str, count: int, name: str) -> None:
    """Storage contract, symmetry, unit diagonal, and every stored off-diagonal
    value against the cosine recomputed from plain per-node interaction sets."""
    chk = p.checks.check
    chk(csr_ok(sim), f"{name} fails check_csr")
    chk(sim.shape == (count, count), f"{name} shape {sim.shape}")
    chk(abs(sim - sim.T).nnz == 0, f"{name} is not symmetric")
    chk(np.all(sim.diagonal() == 1.0), f"{name} diagonal is not all ones")
    owner, other = (users, items) if axis == "rows" else (items, users)
    sets: dict[int, set] = {}
    for a, b in zip(owner.tolist(), other.tolist()):
        sets.setdefault(a, set()).add(b)
    coo = sim.tocoo()
    off = coo.row != coo.col
    for r, c, v in zip(coo.row[off].tolist(), coo.col[off].tolist(), coo.data[off].tolist()):
        a, b = sets.get(r, set()), sets.get(c, set())
        cos = len(a & b) / math.sqrt(len(a) * len(b)) if a and b else 0.0
        chk(abs(v - cos) <= SIM_TOL and v >= EPSILON,
            f"{name}[{r},{c}] = {v!r}, recomputed cosine {cos!r}")


def library_setup(p: Pass, dataset, user_x, item_x, split_seed: int, rng_seed: int,
                  sc: Scale, names: tuple[str, str]):
    """Split, interaction matrix, similarity and bipartite graphs, extractors,
    and the lazy train adjacency: the library's own set-up before training."""
    ds = cfdata.split_dataset(dataset, RATIOS, seed=split_seed)
    R = graph.interaction_matrix(ds, binarize=True)
    sim_u = graph.build_similarity_graph(R, "rows", EPSILON)
    sim_v = graph.build_similarity_graph(R, "columns", EPSILON)
    adj = graph.normalize_bipartite(ds)
    rng = np.random.default_rng(rng_seed)
    user_net = auxnet.build_extractor(user_x.shape[1], sc.dim, list(sc.hidden), sc.gcn_layers,
                                      rng, name=names[0])
    item_net = auxnet.build_extractor(item_x.shape[1], sc.dim, list(sc.hidden), sc.gcn_layers,
                                      rng, name=names[1])
    train_adjacency(p, ds)
    return ds, R, sim_u, sim_v, adj, user_net, item_net


def train_adjacency(p: Pass, ds) -> None:
    """Force the dataset's lazy train-split adjacency lists to build now."""
    with p.tracer.span("data.train_adjacency") if p.tracer else nullcontext():
        ds.train_items(0)


def repeated_setup(p: Pass, build):
    """Run ``build`` under ``setup_s`` until the repeat rule is met; keep the
    last result (every repeat builds the same state)."""
    spent, reps, out = 0.0, 0, None
    while reps < SETUP_MIN_REPS or (spent < SETUP_SHARE * p.args.seconds
                                    and reps < SETUP_MAX_REPS):
        with p.timed("setup_s"):
            out = build()
        spent += p.samples["setup_s"][-1]
        reps += 1
    return out


def truth_of(ds) -> dict[int, set]:
    idx = ds.split_indices(cfdata.TEST)
    truth: dict[int, set] = {}
    for u, i in zip(ds.users[idx].tolist(), ds.items[idx].tolist()):
        truth.setdefault(u, set()).add(i)
    return truth


def stage2(p: Pass, ds, adj, s1, sc: Scale, variant: str, lam1: float, lam2: float,
           seed: int):
    fcfg = fusion.FusionConfig(variant=variant, lambda1=lam1, lambda2=lam2)
    bcfg = BackboneConfig(dim=sc.dim, num_layers=sc.layers, lambda_reg=1e-4)
    cfg = trainer.TrainConfig(eta1=sc.eta, eta2=sc.eta, epochs=sc.stage2_epochs,
                              batch_size=sc.batch, seed=seed, patience=None)
    table = init_embeddings(ds.n + ds.m, sc.dim, seed=seed)
    res = trainer.train_stage2(ds, adj, table, s1.user_features, s1.item_features,
                               bcfg, cfg, fcfg)
    p.record_epochs("stage2_epoch_s", res.log)
    return res


def evaluate_model(p: Pass, ds, res, s1, variant: str, truth, categories,
                   kl_categories: int) -> float:
    """Top-N for every test user, ranking metrics and category divergence;
    returns NDCG@10."""
    with p.timed("eval_s"):
        feats = res.model.forward(res.table)
        weights = tuple(res.fusion_weights) if res.fusion_weights else None
        eff_u, eff_v = fusion.effective_features(variant, feats.users, feats.items,
                                                 s1.user_features, s1.item_features, weights)
        users = sorted(truth)
        recs = evaluate.recommend_all(eff_u, eff_v, ds, TOPN, users)
        report = evaluate.ranking_metrics(recs, truth, METRIC_NS)
        histories = {u: ds.train_items(u).tolist() for u in users}
        kl, _ = evaluate.category_kl(histories, recs, categories, kl_categories)
    with p.untraced():
        check_recommendations(p, ds, recs, users, variant)
        for metric, n, value in report.rows():
            p.checks.check(0.0 <= value <= 1.0, f"{variant} {metric}@{n} = {value} outside [0, 1]")
        p.checks.check(math.isfinite(kl) and kl >= 0.0, f"{variant} category KL = {kl}")
    return report.means["ndcg"][10]


def check_recommendations(p: Pass, ds, recs, users, variant: str) -> None:
    for u in users:
        rec = recs.get(u)
        ok = (rec is not None and len(rec) == TOPN and len(set(rec.tolist())) == TOPN
              and not ds.train_item_set(u).intersection(rec.tolist()))
        p.checks.check(ok, f"{variant}: top-{TOPN} list of user {u} is not {TOPN} distinct "
                           "unseen items")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def run_desk(p: Pass, sc: Scale, reference: dict | None) -> None:
    """The acceptance desk rebuilt from public calls, seed by seed.  The
    inputs are the fixture's; --seed only rotates the order the seeds run in."""
    start = p.args.seed % len(sc.seeds)
    order = sc.seeds[start:] + sc.seeds[:start]
    ndcg: dict[str, list[float]] = {v: [] for v, _, _ in DESK_VARIANTS}
    for seed in order:
        with p.untraced():
            data = synthetic.generate(num_users=sc.users, num_items=sc.items,
                                      num_categories=sc.categories, seed=seed,
                                      interactions_per_user=sc.per_user)
            files = synthetic.write_files(data, p.work / f"desk{seed}")
        for _ in range(DESK_PREPARE_REPEATS):
            run_prepare(p, files, p.work / f"desk{seed}_out", seed,
                        {"users": sc.users, "items": sc.items,
                         "interactions": len(data.dataset)})
        user_x, item_x = data.user_features.values, data.item_features.values
        p.note_attributes(user_x, item_x)
        ds, R, sim_u, sim_v, adj, user_net, item_net = repeated_setup(
            p, lambda: library_setup(p, data.dataset, user_x, item_x, seed, seed + 100, sc,
                                     ("u", "v")))
        p.sim_graphs += [(R, sim_u, "rows"), (R, sim_v, "columns")]
        cfg = trainer.TrainConfig(eta1=sc.eta, eta2=sc.eta, epochs=sc.stage1_epochs,
                                  batch_size=sc.batch, seed=seed, patience=None)
        s1 = trainer.train_stage1(ds, user_net, item_net, user_x, item_x, sim_u, sim_v, cfg)
        p.record_epochs("stage1_epoch_s", s1.log)
        truth = truth_of(ds)
        for variant, lam1, lam2 in DESK_VARIANTS:
            res = stage2(p, ds, adj, s1, sc, variant, lam1, lam2, seed)
            value = evaluate_model(p, ds, res, s1, variant, truth, data.item_categories,
                                   sc.categories)
            ndcg[variant].append(value)
            if reference is not None:
                want = reference[str(seed)][variant]
                p.checks.check(value == want, f"desk seed {seed} {variant}: NDCG@10 {value!r} "
                                              f"!= acceptance value {want!r}")
    p.values["ndcg10"] = float(np.mean(ndcg["cross"]))
    p.info["desk seeds"] = order
    p.info["ndcg10_gain"] = float(np.mean(ndcg["cross"]) - np.mean(ndcg["none"]))
    for variant, vals in ndcg.items():
        p.info[f"ndcg10 {variant}"] = vals


def run_mid(p: Pass, sc: Scale) -> None:
    """Prepare, set-up, one stage-1 epoch, two stage-2 epochs of the default
    objective (``cross``, default weights, pairwise graph loss), evaluation.

    The short phases are repeated and spread over the run, because on a
    shared host one short sample mostly measures the host: ``prepare`` runs
    before stage 1, between the stages and after stage 2, and the evaluation
    runs ``MID_REPEATS`` times."""
    # ROADMAP fixes "mid" as generate(..., seed=0), and this workload keeps
    # every seed at 0 whatever --seed says: after one epoch per stage its
    # NDCG@10 sits near chance and moves about 10% between seeds, so only a
    # fixed input lets the quality value repeat exactly run to run.
    seed = MID_SEED
    with p.untraced():
        data = synthetic.generate(sc.users, sc.items, sc.categories, seed=seed,
                                  interactions_per_user=sc.per_user)
        files = synthetic.write_files(data, p.work / "mid")
    expect = {"users": sc.users, "items": sc.items, "interactions": len(data.dataset)}
    run_prepare(p, files, p.work / "mid_out", seed, expect)
    user_x, item_x = data.user_features.values, data.item_features.values
    p.note_attributes(user_x, item_x)
    ds, R, sim_u, sim_v, adj, user_net, item_net = repeated_setup(
        p, lambda: library_setup(p, data.dataset, user_x, item_x, seed, seed, sc,
                                 ("user", "item")))
    p.sim_graphs += [(R, sim_u, "rows"), (R, sim_v, "columns")]

    cfg = trainer.TrainConfig(eta1=sc.eta, eta2=sc.eta, epochs=sc.stage1_epochs,
                              batch_size=sc.batch, seed=seed, patience=None)
    s1 = trainer.train_stage1(ds, user_net, item_net, user_x, item_x, sim_u, sim_v, cfg)
    p.record_epochs("stage1_epoch_s", s1.log)
    run_prepare(p, files, p.work / "mid_out", seed, expect)
    defaults = fusion.FusionConfig()
    res = stage2(p, ds, adj, s1, sc, "cross", defaults.lambda1, defaults.lambda2, seed)
    run_prepare(p, files, p.work / "mid_out", seed, expect)
    truth = truth_of(ds)
    for _ in range(MID_REPEATS):
        p.values["ndcg10"] = evaluate_model(p, ds, res, s1, "cross", truth,
                                            data.item_categories, KL_CATEGORIES)


WORKLOADS = {"mid-train": run_mid, "desk": run_desk}


# ---------------------------------------------------------------------------
# Per-layer numbers of a traced pass
# ---------------------------------------------------------------------------

def layer_metrics(p: Pass) -> dict[str, float]:
    t = p.tracer
    out = {f"{name}.self_s": value for name, value in t.self_s.items()}
    for name in ("backbone.LightGCN.forward", "backbone.LightGCN.backward", "optim.Adam.step"):
        out[f"{name}.calls"] = t.calls.get(name, 0)
    out.update(t.counters)
    out["auxnet.distinct_row_ratio.users"] = float(np.mean(p.attr_rows["users"]))
    out["auxnet.distinct_row_ratio.items"] = float(np.mean(p.attr_rows["items"]))
    edges = cocounts = 0
    for R, sim, axis in p.sim_graphs:
        edges += (sim.nnz - sim.shape[0]) // 2
        B = (R if axis == "rows" else R.T).tocsr().astype(bool).astype(np.float64)
        co = B @ B.T
        co.setdiag(0)
        co.eliminate_zeros()
        cocounts += co.nnz // 2
    out["graph.similarity.edges"] = edges
    out["graph.similarity.kept_ratio"] = edges / cocounts if cocounts else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one pass of one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--reference", default=None, help="desk acceptance NDCG file")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    p = Pass(args, tracer)
    sc = SCALES[(args.workload, args.scale)]
    Path(args.work).mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    if args.workload == "desk":
        reference = json.loads(Path(args.reference).read_text()) if args.reference else None
        run_desk(p, sc, reference)
    else:
        WORKLOADS[args.workload](p, sc)
    pipeline_s = time.perf_counter() - t0 - p.untraced_s

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": p.samples,
        "values": p.values,
        "info": p.info,
        "peak_rss_mb": tracing.peak_rss_mb(),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "pipeline_s": pipeline_s,
        "attempted": p.checks.attempted,
        "failed": p.checks.failed,
        "failures": p.checks.messages,
    }
    if tracer is not None:
        tracer.enabled = False
        record["layers"] = layer_metrics(p)
        spans = Path(args.out).with_suffix(".spans.jsonl")
        tracer.write_spans(spans)
        record["spans_file"] = str(spans)
        record["span_count"] = len(tracer.spans)
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
