"""Command-line pipeline: prepare, train-aux, train, evaluate, ablate, and
verify-gradients.

Every command reads one config file, writes its artifacts under its
``[paths] output_dir``, and records a manifest with the config snapshot,
seed, code version, and input checksums.  Exit codes: 0 success, 1 usage,
2 config, 3 data or pipeline order, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import __version__, auxnet, fusion, gradcheck, store
from .backbone import BackboneConfig, LightGCN, init_embeddings
from .config import ConfigError, RunConfig, load_config
from .data import (DataError, InteractionDataset, encode_auxiliary, load_interactions,
                   make_fields, split_dataset, write_remap_table, TEST)
from .evaluate import category_kl, write_report_json, write_report_text
from .graph import (build_similarity_graph, interaction_matrix, isolated_nodes,
                    load_graph, normalize_bipartite, save_graph)
from .optim import Param
from .trainer import (DivergenceError, PipelineOrderError, pack_stage2_state, score,
                      train_stage1, train_stage2, unpack_stage2_state)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="crossfuse",
                     description="Feature-fusion collaborative filtering pipeline")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def with_config(p):
        p.add_argument("--config", required=True, help="run config file")
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
    p.add_argument("--seed", type=_seed, default=0)
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
    except (DataError, PipelineOrderError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.paths.output_dir)
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
        "seed": cfg.train.seed,
        "config": cfg.snapshot(),
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None and Path(p).exists()},
    }
    (out / f"manifest_{command}.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _save_dataset(out: Path, ds: InteractionDataset) -> None:
    np.savez(out / "dataset.npz", n=np.array([ds.n]), m=np.array([ds.m]),
             users=ds.users, items=ds.items, ratings=ds.ratings, split=ds.split,
             user_ids=np.array(ds.user_ids), item_ids=np.array(ds.item_ids))


def _load_dataset(out: Path) -> InteractionDataset:
    path = out / "dataset.npz"
    if not path.exists():
        raise DataError(f"{path} not found; run `crossfuse prepare` first")
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            return InteractionDataset(
                n=int(z["n"][0]), m=int(z["m"][0]), users=z["users"], items=z["items"],
                ratings=z["ratings"], split=z["split"],
                user_ids=[str(x) for x in z["user_ids"]],
                item_ids=[str(x) for x in z["item_ids"]],
            )
    # a damaged zip directory can name an unknown zip version or an encrypted member
    except (OSError, EOFError, IndexError, KeyError, ValueError, NotImplementedError,
            RuntimeError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: not a prepared dataset ({exc})") from exc


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
    cfg = load_config(args.config)
    paths, gcfg = cfg.paths, cfg.graph
    if paths.interactions is None:
        raise ConfigError("missing required key [paths] interactions")
    out = _out_dir(cfg)

    ds = load_interactions(paths.interactions, cfg.data)
    ds = split_dataset(ds, cfg.data.ratios, cfg.train.seed)
    _save_dataset(out, ds)
    write_remap_table(out / "user_remap.tsv", ds.user_ids)
    write_remap_table(out / "item_remap.tsv", ds.item_ids)

    R = interaction_matrix(ds, binarize=True)
    sim_u = build_similarity_graph(R, "rows", gcfg.epsilon_user, gcfg.similarity)
    sim_v = build_similarity_graph(R, "columns", gcfg.epsilon_item, gcfg.similarity)
    adj = normalize_bipartite(ds)
    save_graph(out / "user_sim.graph", sim_u)
    save_graph(out / "item_sim.graph", sim_v)
    save_graph(out / "adjacency.graph", adj)

    inputs = [Path(args.config), Path(paths.interactions)]
    for side, attr_path, ids in (("user", paths.user_attributes, ds.user_ids),
                                 ("item", paths.item_attributes, ds.item_ids)):
        if attr_path is None:
            continue
        feats = encode_auxiliary(attr_path, ids, cfg.data.delimiter)
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
    rng = np.random.default_rng(cfg.train.seed)
    acfg, dim = cfg.auxnet, cfg.backbone.dim
    user_net = auxnet.build_extractor(user_dim, dim, acfg.hidden, acfg.gcn_layers,
                                      rng, acfg.bn_momentum, acfg.bn_eps, name="user")
    item_net = auxnet.build_extractor(item_dim, dim, acfg.hidden, acfg.gcn_layers,
                                      rng, acfg.bn_momentum, acfg.bn_eps, name="item")
    return user_net, item_net


def cmd_train_aux(args) -> int:
    cfg = load_config(args.config)
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
    result = train_stage1(ds, user_net, item_net, user_x, item_x, sim_u, sim_v, cfg.train)
    auxnet.save_dense_matrix(out / "aux_users.mat", result.user_features)
    auxnet.save_dense_matrix(out / "aux_items.mat", result.item_features)
    result.log.write(out / "train_log.tsv")
    _write_manifest(out, "train-aux", cfg, [Path(args.config)])
    final = result.log.records[-1].loss
    print(f"stage 1 done: {cfg.train.epochs} epochs, final loss {final:.6g}")
    return 0


def _load_aux(out: Path, args, ds: InteractionDataset,
              dim: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The feature matrices stage 2 trains against: the ``--aux-users`` /
    ``--aux-items`` files, else stage 1's; (None, None) when stage 1's are
    missing.  A given file that does not exist, or a matrix that is not one
    ``dim``-wide row per user (per item), is a :class:`DataError`."""
    paths = []
    for flag in ("aux_users", "aux_items"):
        given = getattr(args, flag, None)
        if given and not Path(given).exists():
            raise DataError(f"{given} not found (--{flag.replace('_', '-')})")
        paths.append(Path(given) if given else out / f"{flag}.mat")
    if not all(path.exists() for path in paths):
        return None, None
    mats = []
    for path, rows, side in zip(paths, (ds.n, ds.m), ("users", "items")):
        mat = auxnet.load_dense_matrix(path)
        if mat.shape != (rows, dim):
            raise DataError(f"{path}: feature matrix is {mat.shape[0]}x{mat.shape[1]}, "
                            f"expected {rows}x{dim} ({side} x [backbone] dim)")
        mats.append(mat)
    return mats[0], mats[1]


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg)
    ds = _load_dataset(out)
    adj = load_graph(out / "adjacency.graph")
    a_users, a_items = _load_aux(out, args, ds, cfg.backbone.dim)
    if cfg.fusion.active and a_users is None:
        raise PipelineOrderError("stage-2 training needs stage-1 products; run "
                                 "`crossfuse train-aux` first or pass --aux-users/--aux-items")

    table = init_embeddings(ds.n + ds.m, cfg.backbone.dim, cfg.train.seed)
    result = train_stage2(ds, adj, table, a_users, a_items, cfg.backbone, cfg.train,
                          cfg.fusion)
    store.save(out / "model.ckpt",
               pack_stage2_state(result.state, cfg.snapshot(), a_users, a_items))
    result.log.write(out / "train_log.tsv")
    _write_manifest(out, "train", cfg, [Path(args.config)])
    state = result.state
    best = state.best_metric if np.isfinite(state.best_metric) else float("nan")
    print(f"stage 2 done: {state.epoch} epochs, best validation ndcg@10 {best:.6g}")
    return 0


def _item_category_labels(out: Path, field_name: str | None) -> dict[int, list[int]]:
    fields_path = out / "item_attr_fields.json"
    mat_path = out / "item_attr.mat"
    if not fields_path.exists() or not mat_path.exists():
        raise DataError("category report needs prepared item attributes")
    fields = _load_fields(fields_path)
    names = [f.name for f in fields]
    if field_name is not None and field_name not in names:
        raise ConfigError(f"unknown category field {field_name!r}; item attributes "
                          f"have {names}")
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
    cfg = load_config(args.config)
    out = _out_dir(cfg)
    ds = _load_dataset(out)
    adj = load_graph(out / "adjacency.graph")
    ckpt_path = Path(args.checkpoint) if args.checkpoint else out / "model.ckpt"
    if not ckpt_path.exists():
        raise DataError(f"{ckpt_path} not found; run `crossfuse train` first")
    ckpt = store.load(ckpt_path, "checkpoint")

    # the model is the one the checkpoint records, whatever this config says
    trained = ckpt.meta.get("config", {})
    if ckpt.meta.get("kind") != "stage2" or not {"variant", "layers"} <= trained.keys():
        raise DataError(f"{ckpt_path}: not a stage-2 checkpoint recording its fusion "
                        "variant and layer count")
    cats = _item_category_labels(out, args.category_field) if args.kl else None
    params = {k: Param(v) for k, v in unpack_stage2_state(ckpt, ckpt_path).selected().items()}
    model = LightGCN(adj, ds.n, BackboneConfig(dim=params["table"].value.shape[1],
                                               num_layers=trained["layers"]))
    top, report = score(ds, model, params, trained["variant"], ckpt.arrays.get("aux_users"),
                         ckpt.arrays.get("aux_items"), ds.split_csr(TEST), cfg.eval.topn,
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
        recs = top.as_dict()
        histories = {u: ds.train_items(u).tolist() for u in recs}
        kl, _ = category_kl(histories, recs, cats, cfg.eval.kl_categories)
        (out / "kl.json").write_text(
            json.dumps({"top_categories": cfg.eval.kl_categories, "kl": kl}, sort_keys=True)
            + "\n", encoding="utf-8")
        print(f"category consistency kl: {kl:.6g}")

    _write_manifest(out, "evaluate", cfg, [Path(args.config), ckpt_path])
    for metric, n, value in report.rows():
        print(f"{metric}@{n}\t{value:.6f}")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg)
    ds = _load_dataset(out)
    adj = load_graph(out / "adjacency.graph")
    a_users, a_items = _load_aux(out, args, ds, cfg.backbone.dim)
    if a_users is None:
        raise PipelineOrderError("ablation needs stage-1 products; run `crossfuse train-aux`")

    truth = ds.split_csr(TEST)
    rows = []
    for variant in fusion.VARIANTS:
        table = init_embeddings(ds.n + ds.m, cfg.backbone.dim, cfg.train.seed)
        result = train_stage2(ds, adj, table, a_users, a_items, cfg.backbone, cfg.train,
                              dataclasses.replace(cfg.fusion, variant=variant))
        params = {k: Param(v) for k, v in result.state.selected().items()}
        _, report = score(ds, result.model, params, variant, a_users, a_items, truth,
                          cfg.eval.topn)
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
