"""One sha256 over what training produces, for byte-identity checks.

Reads the acceptance desk's written files (200 x 300, 5 categories) at
each seed, as written and rewritten with comma and ``::`` delimiters and
explicit ratings, and trains the desk: stage 1, then stage 2 under every
objective (cross, none, concat, plain-sum, weighted-sum, and cross with the
squared-error graph loss).  Three more stage-1 runs of 3 epochs on seed 0
cover an encoder with no hidden layer, a stack with no convolution, and two
hidden layers under two convolutions.  The digest covers what ``load_interactions`` and
``encode_auxiliary`` return for each file set, the stage-1 features,
parameters and running statistics, each stage-2 run's last and best arrays
and Adam moments, every epoch's loss and validation NDCG@10, and the
gradient checks' errors at seed 7.  ``--mid`` adds the mid shape (3000 x
2000, dim 64): its written files, then one epoch per stage of cross and
concat, on implicit and on explicit ratings, in batches small enough that
every stage-2 step runs on its row block.

A change meant to leave training bit for bit as it was prints the same
digest as its parent:

    PYTHONPATH=<parent>/src python tests/digest_training.py [--mid]
    PYTHONPATH=src python tests/digest_training.py [--mid]

pytest does not collect this file; ``test_digest_training.py`` runs it.
"""

from __future__ import annotations

import argparse
import hashlib
import tempfile
from pathlib import Path

import numpy as np

from crossfuse import auxnet, fusion, gradcheck, synthetic
from crossfuse.backbone import BackboneConfig, init_embeddings
from crossfuse.data import (DataConfig, InteractionDataset, encode_auxiliary, load_interactions,
                            split_dataset)
from crossfuse.graph import build_similarity_graph, interaction_matrix, normalize_bipartite
from crossfuse.trainer import TrainConfig, train_stage1, train_stage2

DESK_OBJECTIVES = (("cross", "bpr"), ("none", "bpr"), ("concat", "bpr"),
                   ("plain-sum", "bpr"), ("weighted-sum", "bpr"), ("cross", "mse"))
MID_OBJECTIVES = (("cross", "bpr"), ("concat", "bpr"))
# (label, hidden widths, convolution layers): a lone affine encoder, no
# convolutions, and a deep encoder under a deep stack
STAGE1_SHAPES = (("affine", [], 1), ("noconv", [32], 0), ("deep", [32, 24], 2))
MID_BATCH = 256


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, label: str, value) -> None:
        """Fold in a label and an array's dtype, shape and bytes, or a
        scalar's repr."""
        self.sha.update(label.encode() + b"\0")
        if isinstance(value, np.ndarray):
            self.sha.update(f"{value.dtype.str}{value.shape}".encode())
            self.sha.update(np.ascontiguousarray(value).tobytes())
        else:
            self.sha.update(repr(value).encode())

    def add_named(self, label: str, arrays: dict) -> None:
        for key in sorted(arrays):
            self.add(f"{label}.{key}", arrays[key])


def explicit(ds: InteractionDataset) -> InteractionDataset:
    """The same interactions and split, rated 1 to 5."""
    ratings = np.random.default_rng(0).integers(1, 6, size=len(ds)).astype(np.float64)
    return InteractionDataset(ds.n, ds.m, ds.users, ds.items, ratings, ds.split)


def ingest(digest: Digest, label: str, files: dict, delimiter: str | None = None) -> None:
    """Fold in what the readers return for one set of written files."""
    ds = load_interactions(files["interactions"], DataConfig(delimiter=delimiter))
    for name in ("users", "items", "ratings", "user_ids", "item_ids"):
        digest.add(f"{label}.{name}", getattr(ds, name))
    for side, ids in (("user", ds.user_ids), ("item", ds.item_ids)):
        feats = encode_auxiliary(files[f"{side}_attributes"], ids, delimiter)
        digest.add(f"{label}.{side}.values", feats.values)
        digest.add(f"{label}.{side}.fields", [(f.name, f.categories, f.offset)
                                              for f in feats.fields])


def rewritten(files: dict, out: Path, delimiter: str, seed: int) -> dict:
    """The written files with ``delimiter`` for the tab and each rating
    redrawn from 1 to 5."""
    out.mkdir()
    moved = {}
    for key, path in files.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        if key == "interactions":
            ratings = np.random.default_rng(seed).integers(1, 6, size=len(lines)).tolist()
            lines = [line.rsplit("\t", 1)[0] + f"\t{r}" for line, r in zip(lines, ratings)]
        moved[key] = out / path.name
        moved[key].write_text("".join(line.replace("\t", delimiter) + "\n" for line in lines),
                              encoding="utf-8")
    return moved


def train(digest: Digest, label: str, data, ds, dim: int, hidden, gcn_layers: int,
          layers: int, eta: float, epochs: tuple[int, int], batch: int, seed: int,
          objectives) -> None:
    """Stage 1, then stage 2 under each of ``objectives`` (none: stage 1 only)."""
    R = interaction_matrix(ds, binarize=True)
    sim_u = build_similarity_graph(R, "rows", 0.3)
    sim_v = build_similarity_graph(R, "columns", 0.3)
    adj = normalize_bipartite(ds)
    rng = np.random.default_rng(seed + 100)
    user_net = auxnet.build_extractor(data.user_features.dim, dim, hidden, gcn_layers, rng,
                                      name="u")
    item_net = auxnet.build_extractor(data.item_features.dim, dim, hidden, gcn_layers, rng,
                                      name="v")
    cfg = TrainConfig(eta1=eta, eta2=eta, epochs=epochs[0], batch_size=batch, seed=seed,
                      patience=None)
    s1 = train_stage1(ds, user_net, item_net, data.user_features.values,
                      data.item_features.values, sim_u, sim_v, cfg)
    digest.add(f"{label}.stage1.users", s1.user_features)
    digest.add(f"{label}.stage1.items", s1.item_features)
    for p in user_net.params() + item_net.params():
        digest.add(f"{label}.stage1.{p.name}", p.value)
    for k, bn in enumerate(user_net.gcn.batch_norms() + user_net.encoder.batch_norms()
                           + item_net.gcn.batch_norms() + item_net.encoder.batch_norms()):
        digest.add(f"{label}.stage1.bn{k}.mean", bn.running_mean)
        digest.add(f"{label}.stage1.bn{k}.var", bn.running_var)
    digest.add(f"{label}.stage1.losses", [r.loss for r in s1.log.records])

    cfg = TrainConfig(eta1=eta, eta2=eta, epochs=epochs[1], batch_size=batch, seed=seed,
                      patience=None)
    for variant, graph_loss in objectives:
        run = f"{label}.{variant}.{graph_loss}"
        fcfg = fusion.FusionConfig(variant=variant, lambda1=0.5, lambda2=0.5,
                                   graph_loss=graph_loss)
        bcfg = BackboneConfig(dim=dim, num_layers=layers, lambda_reg=1e-4)
        res = train_stage2(ds, adj, init_embeddings(ds.n + ds.m, dim, seed=seed),
                           s1.user_features, s1.item_features, bcfg, cfg, fcfg)
        digest.add_named(f"{run}.last", res.state.params)
        digest.add_named(f"{run}.best", res.state.best_params)
        digest.add_named(f"{run}.adam", res.state.opt_tensors)
        digest.add(f"{run}.adam.t", res.state.opt_meta)
        digest.add(f"{run}.log", [(r.loss, r.val_metric) for r in res.log.records])


def desk(digest: Digest, seeds, epochs: int, work: Path) -> None:
    for seed in seeds:
        data = synthetic.generate(num_users=200, num_items=300, num_categories=5, seed=seed)
        files = synthetic.write_files(data, work / f"desk{seed}")
        ingest(digest, f"desk{seed}.files", files)
        # the comma files are sniffed, the "::" files read with the delimiter set
        for name, delimiter, given in (("comma", ",", None), ("colons", "::", "::")):
            moved = rewritten(files, work / f"desk{seed}_{name}", delimiter, seed)
            ingest(digest, f"desk{seed}.{name}", moved, given)
        ds = split_dataset(data.dataset, (0.72, 0.08, 0.2), seed=seed)
        train(digest, f"desk{seed}", data, ds, dim=16, hidden=[32], gcn_layers=1, layers=2,
              eta=0.01, epochs=(epochs, epochs), batch=1024, seed=seed,
              objectives=DESK_OBJECTIVES)
    # stage-1 shapes the recipe above skips, on seed 0
    data = synthetic.generate(num_users=200, num_items=300, num_categories=5, seed=0)
    ds = split_dataset(data.dataset, (0.72, 0.08, 0.2), seed=0)
    for label, hidden, gcn_layers in STAGE1_SHAPES:
        train(digest, f"desk0.{label}", data, ds, dim=16, hidden=hidden, gcn_layers=gcn_layers,
              layers=2, eta=0.01, epochs=(3, 3), batch=1024, seed=0, objectives=())
    for r in gradcheck.run_suite(seed=7):
        digest.add(f"gradcheck.{r.name}", r.max_error)


def mid(digest: Digest, work: Path) -> int:
    """Reads the mid shape's written files and trains it; returns how many
    stage-2 batches ran on the full passes, which this shape keeps at 0."""
    data = synthetic.generate(3000, 2000, 10, seed=0, interactions_per_user=(40, 80))
    ingest(digest, "mid.files", synthetic.write_files(data, work / "mid"))
    ds = split_dataset(data.dataset, (0.72, 0.08, 0.2), seed=0)
    full = []
    batch_rows = fusion._batch_rows

    def counting(model, batch, rated):
        block, mapped = batch_rows(model, batch, rated)
        full.append(block is None)
        return block, mapped

    fusion._batch_rows = counting
    try:
        for label, rated_ds in (("implicit", ds), ("explicit", explicit(ds))):
            train(digest, f"mid.{label}", data, rated_ds, dim=64, hidden=[256], gcn_layers=2,
                  layers=3, eta=0.001, epochs=(1, 1), batch=MID_BATCH, seed=0,
                  objectives=MID_OBJECTIVES)
    finally:
        fusion._batch_rows = batch_rows
    return sum(full)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--mid", action="store_true", help="add the mid shape")
    args = parser.parse_args(argv)
    digest = Digest()
    with tempfile.TemporaryDirectory() as work:
        desk(digest, args.seeds, args.epochs, Path(work))
        if args.mid:
            full = mid(digest, Path(work))
            if full:
                raise SystemExit(f"{full} mid stage-2 batches ran on the full passes")
    print(digest.sha.hexdigest())


if __name__ == "__main__":
    main()
