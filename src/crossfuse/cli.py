"""Command-line pipeline: prepare, train-aux, train, evaluate, ablate, and
verify-gradients.

Every command reads one config file, writes its artifacts under the output
directory (overridable with the CROSSFUSE_OUTPUT_DIR environment variable),
and records a manifest with the config snapshot, seed, code version, and
input checksums.  Exit codes: 0 success, 1 usage, 2 config, 3 data or
pipeline order, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, auxnet, fusion, gradcheck
from .backbone import BackboneConfig, LightGCN, init_embeddings
from .config import ConfigError, RunConfig, load_config
from .data import (DataError, InteractionDataset, InteractionSchema, encode_auxiliary,
                   load_interactions, make_fields, split_dataset, split_truth,
                   write_remap_table, TEST)
from .evaluate import category_kl, write_report_json, write_report_text
from .graph import (build_similarity_graph, interaction_matrix, isolated_nodes,
                    load_graph, normalize_bipartite, save_graph)
from .optim import Param
from .trainer import (Checkpoint, DivergenceError, PipelineOrderError, load_checkpoint,
                      pack_stage2_state, save_checkpoint, score, train_stage1,
                      train_stage2, unpack_stage2_state)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="crossfuse",
                     description="Feature-fusion collaborative filtering pipeline")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def with_config(p):
        p.add_argument("--config", required=True, help="run config file")
        p.add_argument("--preset", default=None, help="named hyperparameter preset")
        return p

    with_config(sub.add_parser("prepare", help="ingest data, split, build graphs"))
    with_config(sub.add_parser("train-aux", help="stage 1: fit the attribute pipeline"))
    p = with_config(sub.add_parser("train", help="stage 2: fit the backbone with fusion"))
    p.add_argument("--aux-users", default=None, help="external user feature matrix file")
    p.add_argument("--aux-items", default=None, help="external item feature matrix file")
    p = with_config(sub.add_parser("evaluate", help="rank, score, and report metrics"))
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--kl", action="store_true", help="also report category consistency")
    p.add_argument("--per-user", action="store_true", help="keep per-user metric detail")
    p.add_argument("--category-field", default=None,
                   help="item attribute field holding category labels")
    with_config(sub.add_parser("ablate", help="compare fusion variants on one config"))
    p = sub.add_parser("verify-gradients", help="run the gradient verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fd-tol", type=float, default=gradcheck.FD_TOL)
    p.add_argument("--exact-tol", type=float, default=gradcheck.EXACT_TOL)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    handlers = {
        "prepare": cmd_prepare,
        "train-aux": cmd_train_aux,
        "train": cmd_train,
        "evaluate": cmd_evaluate,
        "ablate": cmd_ablate,
        "verify-gradients": cmd_verify_gradients,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, PipelineOrderError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _out_dir(cfg: RunConfig) -> Path:
    out = Path(os.environ.get("CROSSFUSE_OUTPUT_DIR", cfg.output_dir))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out: Path, command: str, cfg: RunConfig, inputs: list[Path]) -> None:
    doc = {
        "command": command,
        "code_version": __version__,
        "seed": cfg.seed,
        "config": cfg.snapshot(),
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None and Path(p).exists()},
    }
    (out / f"manifest_{command}.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _schema(cfg: RunConfig) -> InteractionSchema:
    return InteractionSchema(user=cfg.user_column, item=cfg.item_column,
                             rating=cfg.rating_column, timestamp=cfg.timestamp_column,
                             delimiter=cfg.delimiter)


def _save_dataset(out: Path, ds: InteractionDataset) -> None:
    arrays = {
        "n": np.array([ds.n]), "m": np.array([ds.m]),
        "users": ds.users, "items": ds.items, "ratings": ds.ratings, "split": ds.split,
        "user_ids": np.array(ds.user_ids), "item_ids": np.array(ds.item_ids),
    }
    if ds.timestamps is not None:
        arrays["timestamps"] = ds.timestamps
    np.savez(out / "dataset.npz", **arrays)


def _load_dataset(out: Path) -> InteractionDataset:
    path = out / "dataset.npz"
    if not path.exists():
        raise DataError(f"{path} not found; run `crossfuse prepare` first")
    z = np.load(path, allow_pickle=False)
    return InteractionDataset(
        n=int(z["n"][0]), m=int(z["m"][0]), users=z["users"], items=z["items"],
        ratings=z["ratings"], split=z["split"],
        timestamps=z["timestamps"] if "timestamps" in z else None,
        user_ids=[str(x) for x in z["user_ids"]],
        item_ids=[str(x) for x in z["item_ids"]],
    )


def _save_fields(path: Path, fields) -> None:
    doc = [{"name": f.name, "categories": list(f.categories), "offset": f.offset}
           for f in fields]
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _load_fields(path: Path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    return make_fields([f["name"] for f in doc], [f["categories"] for f in doc])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_prepare(args) -> int:
    cfg = load_config(args.config, preset=args.preset)
    if cfg.interactions is None:
        raise ConfigError("missing required key [paths] interactions")
    out = _out_dir(cfg)

    ds = load_interactions(cfg.interactions, _schema(cfg))
    ds = split_dataset(ds, (cfg.train_ratio, cfg.validation_ratio, cfg.test_ratio), cfg.seed)
    _save_dataset(out, ds)
    write_remap_table(out / "user_remap.tsv", ds.user_ids)
    write_remap_table(out / "item_remap.tsv", ds.item_ids)

    R = interaction_matrix(ds, binarize=True)
    sim_u = build_similarity_graph(R, "rows", cfg.epsilon_user, cfg.similarity,
                                   cfg.max_neighbors)
    sim_v = build_similarity_graph(R, "columns", cfg.epsilon_item, cfg.similarity,
                                   cfg.max_neighbors)
    adj = normalize_bipartite(ds)
    save_graph(out / "user_sim.graph", sim_u)
    save_graph(out / "item_sim.graph", sim_v)
    save_graph(out / "adjacency.graph", adj)

    inputs = [Path(args.config), Path(cfg.interactions)]
    for side, attr_path, count, ids in (("user", cfg.user_attributes, ds.n, ds.user_ids),
                                        ("item", cfg.item_attributes, ds.m, ds.item_ids)):
        if attr_path is None:
            continue
        id_map = {raw: idx for idx, raw in enumerate(ids)}
        feats = encode_auxiliary(attr_path, count, id_map=id_map, delimiter=cfg.delimiter)
        auxnet.save_dense_matrix(out / f"{side}_attr.mat", feats.values)
        _save_fields(out / f"{side}_attr_fields.json", feats.fields)
        inputs.append(Path(attr_path))

    report = [
        f"users\t{ds.n}",
        f"items\t{ds.m}",
        f"interactions\t{len(ds)}",
        f"isolated_users\t{len(isolated_nodes(R, 'rows'))}",
        f"isolated_items\t{len(isolated_nodes(R, 'columns'))}",
        f"user_sim_nnz\t{sim_u.nnz}",
        f"item_sim_nnz\t{sim_v.nnz}",
    ]
    (out / "build_report.txt").write_text("\n".join(report) + "\n", encoding="utf-8")
    _write_manifest(out, "prepare", cfg, inputs)
    print(f"prepared {ds.n} users x {ds.m} items into {out}")
    return 0


def _build_extractors(cfg: RunConfig, user_dim: int, item_dim: int):
    rng = np.random.default_rng(cfg.seed)
    user_net = auxnet.build_extractor(user_dim, cfg.dim, cfg.hidden, cfg.gcn_layers,
                                      rng, cfg.bn_momentum, cfg.bn_eps, name="user")
    item_net = auxnet.build_extractor(item_dim, cfg.dim, cfg.hidden, cfg.gcn_layers,
                                      rng, cfg.bn_momentum, cfg.bn_eps, name="item")
    return user_net, item_net


def cmd_train_aux(args) -> int:
    cfg = load_config(args.config, preset=args.preset)
    out = _out_dir(cfg)
    ds = _load_dataset(out)
    for side in ("user", "item"):
        if not (out / f"{side}_attr.mat").exists():
            raise DataError(f"no {side} attribute matrix in {out}; prepare with "
                            f"[paths] {side}_attributes set")
    user_x = auxnet.load_dense_matrix(out / "user_attr.mat")
    item_x = auxnet.load_dense_matrix(out / "item_attr.mat")
    sim_u = load_graph(out / "user_sim.graph")
    sim_v = load_graph(out / "item_sim.graph")

    user_net, item_net = _build_extractors(cfg, user_x.shape[1], item_x.shape[1])
    result = train_stage1(ds, user_net, item_net, user_x, item_x, sim_u, sim_v,
                          cfg.train_config())
    auxnet.save_dense_matrix(out / "aux_users.mat", result.user_features)
    auxnet.save_dense_matrix(out / "aux_items.mat", result.item_features)
    state = {**result.user_net.state_arrays("user"), **result.item_net.state_arrays("item")}
    save_checkpoint(out / "aux_state.ckpt",
                    Checkpoint(meta={"kind": "stage1", "config": cfg.snapshot()},
                               tensors=state))
    result.log.write(out / "train_log.tsv")
    _write_manifest(out, "train-aux", cfg, [Path(args.config)])
    final = result.log.records[-1].loss
    print(f"stage 1 done: {cfg.epochs} epochs, final loss {final:.6g}")
    return 0


def _load_aux(out: Path, args) -> tuple[np.ndarray | None, np.ndarray | None]:
    user_path = Path(args.aux_users) if getattr(args, "aux_users", None) else out / "aux_users.mat"
    item_path = Path(args.aux_items) if getattr(args, "aux_items", None) else out / "aux_items.mat"
    if not user_path.exists() or not item_path.exists():
        return None, None
    return auxnet.load_dense_matrix(user_path), auxnet.load_dense_matrix(item_path)


def cmd_train(args) -> int:
    cfg = load_config(args.config, preset=args.preset)
    fcfg = cfg.fusion_config()
    out = _out_dir(cfg)
    ds = _load_dataset(out)
    adj = load_graph(out / "adjacency.graph")
    a_users, a_items = _load_aux(out, args)
    if fcfg.active and a_users is None:
        raise PipelineOrderError("stage-2 training needs stage-1 products; run "
                                 "`crossfuse train-aux` first or pass --aux-users/--aux-items")

    table = init_embeddings(ds.n + ds.m, cfg.dim, cfg.seed)
    result = train_stage2(ds, adj, table, a_users, a_items, cfg.backbone_config(),
                          cfg.train_config(), fcfg)
    ckpt = pack_stage2_state(result.state, cfg.snapshot(), a_users, a_items)
    save_checkpoint(out / "model.ckpt", ckpt)
    result.log.write(out / "train_log.tsv")
    _write_manifest(out, "train", cfg, [Path(args.config)])
    best = result.best_metric if np.isfinite(result.best_metric) else float("nan")
    print(f"stage 2 done: {result.epochs_run} epochs, best validation ndcg@10 {best:.6g}")
    return 0


def _item_category_labels(out: Path, field_name: str | None) -> dict[int, list[int]]:
    fields_path = out / "item_attr_fields.json"
    mat_path = out / "item_attr.mat"
    if not fields_path.exists() or not mat_path.exists():
        raise DataError("category report needs prepared item attributes")
    fields = _load_fields(fields_path)
    names = [f.name for f in fields]
    fld = fields[0] if field_name is None else fields[names.index(field_name)]
    values = auxnet.load_dense_matrix(mat_path)
    out_map: dict[int, list[int]] = {}
    for i in range(values.shape[0]):
        block = values[i, fld.offset:fld.offset + fld.cardinality]
        slot = int(np.argmax(block))
        if slot < len(fld.categories):  # blank token carries no category
            out_map[i] = [slot]
        else:
            out_map[i] = []
    return out_map


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, preset=args.preset)
    out = _out_dir(cfg)
    ds = _load_dataset(out)
    adj = load_graph(out / "adjacency.graph")
    ckpt_path = Path(args.checkpoint) if args.checkpoint else out / "model.ckpt"
    if not ckpt_path.exists():
        raise DataError(f"{ckpt_path} not found; run `crossfuse train` first")
    ckpt = load_checkpoint(ckpt_path)

    # the model is the one the checkpoint records, whatever this config says
    trained = ckpt.meta.get("config", {})
    if ckpt.meta.get("kind") != "stage2" or not {"variant", "layers"} <= trained.keys():
        raise DataError(f"{ckpt_path}: not a stage-2 checkpoint recording its fusion "
                        "variant and layer count")
    params = {k: Param(v) for k, v in unpack_stage2_state(ckpt).selected().items()}
    model = LightGCN(adj, ds.n, BackboneConfig(dim=params["table"].value.shape[1],
                                               num_layers=trained["layers"]))
    truth = split_truth(ds, TEST)
    recs, report = score(ds, model, params, trained["variant"], ckpt.tensors.get("aux_users"),
                         ckpt.tensors.get("aux_items"), truth, cfg.topn,
                         keep_per_user=args.per_user)
    write_report_text(report, out / "metrics.tsv")
    write_report_json(report, out / "metrics.json")
    if args.per_user and report.per_user is not None:
        detail = {str(u): {m: {str(n): v for n, v in vals.items()}
                           for m, vals in metrics.items()}
                  for u, metrics in report.per_user.items()}
        (out / "metrics_per_user.json").write_text(
            json.dumps(detail, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    if args.kl:
        cats = _item_category_labels(out, args.category_field)
        histories = {u: ds.train_items(u).tolist() for u in range(ds.n)}
        kl, _ = category_kl(histories, recs, cats, cfg.kl_categories)
        (out / "kl.json").write_text(
            json.dumps({"top_categories": cfg.kl_categories, "kl": kl}, sort_keys=True)
            + "\n", encoding="utf-8")
        print(f"category consistency kl: {kl:.6g}")

    _write_manifest(out, "evaluate", cfg, [Path(args.config), ckpt_path])
    for metric, n, value in report.rows():
        print(f"{metric}@{n}\t{value:.6f}")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, preset=args.preset)
    out = _out_dir(cfg)
    ds = _load_dataset(out)
    adj = load_graph(out / "adjacency.graph")
    a_users, a_items = _load_aux(out, args)
    if a_users is None:
        raise PipelineOrderError("ablation needs stage-1 products; run `crossfuse train-aux`")

    truth = split_truth(ds, TEST)
    rows = []
    for variant in fusion.VARIANTS:
        vcfg = cfg.fusion_config()
        vcfg.variant = variant
        table = init_embeddings(ds.n + ds.m, cfg.dim, cfg.seed)
        result = train_stage2(ds, adj, table, a_users, a_items, cfg.backbone_config(),
                              cfg.train_config(), vcfg)
        params = {k: Param(v) for k, v in result.state.selected().items()}
        _, report = score(ds, result.model, params, variant, a_users, a_items, truth, cfg.topn)
        row = {"variant": variant}
        for metric, n, value in report.rows():
            row[f"{metric}@{n}"] = value
        rows.append(row)

    keys = ["variant"] + [k for k in rows[0] if k != "variant"]
    with open(out / "ablation.tsv", "w", encoding="utf-8") as fh:
        fh.write("\t".join(keys) + "\n")
        for row in rows:
            fh.write("\t".join(str(row[k]) for k in keys) + "\n")
    _write_manifest(out, "ablate", cfg, [Path(args.config)])
    for row in rows:
        print(row)
    return 0


def cmd_verify_gradients(args) -> int:
    results = gradcheck.run_suite(seed=args.seed, fd_tol=args.fd_tol,
                                  exact_tol=args.exact_tol)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: max error {r.max_error:.3e} (tolerance {r.tolerance:.1e})")
        failed += 0 if r.passed else 1
    if failed:
        print(f"{failed} of {len(results)} gradient checks failed", file=sys.stderr)
        return 4
    print(f"all {len(results)} gradient checks passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
