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
from .data import (AttributeField, DataError, InteractionDataset, encode_auxiliary,
                   load_interactions, make_fields, split_dataset, write_remap_table, TEST)
from .evaluate import category_kl, write_report_json, write_report_text
from .graph import (build_similarity_graph, interaction_matrix, isolated_nodes,
                    load_graph, normalize_bipartite, save_graph)
from .optim import Param
from .trainer import (DivergenceError, PipelineOrderError, load_selected_model,
                      pack_stage2_state, score, train_stage1, train_stage2)


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

    def with_config(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="run config file")
        p.set_defaults(handler=handler)
        return p

    with_config("prepare", cmd_prepare, "ingest data, split, build graphs")
    with_config("train-aux", cmd_train_aux, "stage 1: fit the attribute pipeline")
    p = with_config("train", cmd_train, "stage 2: fit the backbone with fusion")
    p.add_argument("--aux-users", default=None, help="external user feature matrix file")
    p.add_argument("--aux-items", default=None, help="external item feature matrix file")
    p = with_config("evaluate", cmd_evaluate, "rank, score, and report metrics")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--kl", action="store_true", help="also report category consistency")
    p.add_argument("--per-user", action="store_true", help="keep per-user metric detail")
    p.add_argument("--category-field", default=None,
                   help="item attribute field holding category labels")
    with_config("ablate", cmd_ablate, "compare fusion variants on one config")
    p = sub.add_parser("verify-gradients", help="run the gradient verification suite")
    p.add_argument("--seed", type=_seed, default=0)
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
    if args.command == "verify-gradients":
        return cmd_verify_gradients(args)
    if args.command == "train" and bool(args.aux_users) != bool(args.aux_items):
        given, missing = (("--aux-users", "--aux-items") if args.aux_users
                          else ("--aux-items", "--aux-users"))
        print(f"error: {given} needs {missing}: stage 2 takes both external feature "
              "matrices or neither", file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
        if args.command == "prepare" and cfg.paths.interactions is None:
            raise ConfigError("missing required key [paths] interactions")
        out = Path(cfg.paths.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        return args.handler(args, cfg, out)
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


_PREPARE = "; re-run `crossfuse prepare`"


def _graph(out: Path, ds: InteractionDataset, name: str):
    """The workspace's ``name``.graph, checked to be square over the
    dataset's users and items (``adjacency``), its users (``user_sim``) or
    its items (``item_sim``), symmetric, and for a similarity graph to store
    every diagonal entry, as the convolutions over it require."""
    size = {"adjacency": ds.n + ds.m, "user_sim": ds.n, "item_sim": ds.m}[name]
    path = out / f"{name}.graph"
    mat = load_graph(path)
    if mat.shape != (size, size):
        raise DataError(f"{path}: graph is {mat.shape[0]}x{mat.shape[1]}, expected "
                        f"{size}x{size} for the prepared dataset{_PREPARE}")
    if (mat != mat.T).nnz:
        raise DataError(f"{path}: graph is not symmetric{_PREPARE}")
    if name != "adjacency" and np.any(mat.diagonal() == 0):
        raise DataError(f"{path}: similarity graph lacks a diagonal entry{_PREPARE}")
    return mat


def _matrix(path: Path, rows: int, dim: int | None, what: str,
            rerun: str) -> tuple[np.ndarray, list[AttributeField]]:
    """The matrix and the attribute fields of the file at ``path`` that
    ``auxnet.save_dense_matrix`` wrote, checked to have ``rows`` rows and
    ``dim`` columns, or for an attribute matrix (``dim`` None) one or more
    fields that span its columns; ``what`` names what the shape counts and
    ``rerun`` how to remake the file.  A file ``store.load`` rejects or that
    holds no matrix, or a NaN or infinite entry, is refused too."""
    try:
        doc = store.load(path, "matrix")
    except DataError as exc:
        raise DataError(f"{exc}{rerun}") from exc
    mat, fields = doc.arrays.get("values"), doc.meta.get("fields")
    try:
        fields = make_fields([f["name"] for f in fields], [f["categories"] for f in fields])
    except (KeyError, TypeError):
        fields = None
    if (doc.meta.get("kind") != "matrix" or list(doc.arrays) != ["values"] or mat.ndim != 2
            or mat.dtype != np.float64 or fields is None or (dim is None and not fields)):
        raise DataError(f"{path}: not a matrix file{rerun}")
    dim = sum(f.cardinality for f in fields) if dim is None else dim
    if mat.shape != (rows, dim):
        raise DataError(f"{path}: feature matrix is {mat.shape[0]}x{mat.shape[1]}, "
                        f"expected {rows}x{dim} ({what}){rerun}")
    if not np.isfinite(mat).all():
        raise DataError(f"{path}: feature matrix holds a NaN or infinite entry{rerun}")
    return mat, fields


# ---------------------------------------------------------------------------
# Commands: each takes the arguments, the config and the output directory
# ---------------------------------------------------------------------------

def cmd_prepare(args, cfg: RunConfig, out: Path) -> int:
    """Build every product, then write them all: a build that fails leaves
    the workspace as it was."""
    paths, gcfg = cfg.paths, cfg.graph
    ds = load_interactions(paths.interactions, cfg.data)
    ds = split_dataset(ds, cfg.data.ratios, cfg.train.seed)
    R = interaction_matrix(ds, binarize=True)
    sim_u = build_similarity_graph(R, "rows", gcfg.epsilon_user, gcfg.similarity)
    sim_v = build_similarity_graph(R, "columns", gcfg.epsilon_item, gcfg.similarity)
    adj = normalize_bipartite(ds)
    attrs = {side: encode_auxiliary(attr_path, ids, cfg.data.delimiter)
             for side, attr_path, ids in (("user", paths.user_attributes, ds.user_ids),
                                          ("item", paths.item_attributes, ds.item_ids))
             if attr_path is not None}
    report = {"users": ds.n, "items": ds.m, "interactions": len(ds),
              "isolated_users": len(isolated_nodes(R, "rows")),
              "isolated_items": len(isolated_nodes(R, "columns")),
              "user_sim_nnz": sim_u.nnz, "item_sim_nnz": sim_v.nnz}

    _save_dataset(out, ds)
    write_remap_table(out / "user_remap.tsv", ds.user_ids)
    write_remap_table(out / "item_remap.tsv", ds.item_ids)
    save_graph(out / "user_sim.graph", sim_u)
    save_graph(out / "item_sim.graph", sim_v)
    save_graph(out / "adjacency.graph", adj)
    for side, feats in attrs.items():
        auxnet.save_dense_matrix(out / f"{side}_attr.mat", feats.values, feats.fields)
    (out / "build_report.txt").write_text(
        "".join(f"{key}\t{value}\n" for key, value in report.items()), encoding="utf-8")
    inputs = (args.config, paths.interactions, paths.user_attributes, paths.item_attributes)
    _write_manifest(out, "prepare", cfg, [Path(p) for p in inputs if p is not None])
    print(f"prepared {ds.n} users x {ds.m} items into {out}")
    return 0


def cmd_train_aux(args, cfg: RunConfig, out: Path) -> int:
    ds = _load_dataset(out)
    for side in ("user", "item"):
        if not (out / f"{side}_attr.mat").exists():
            raise DataError(f"no {side} attribute matrix in {out}; prepare with "
                            f"[paths] {side}_attributes set")
    user_x, item_x = (_matrix(out / f"{side}_attr.mat", rows, None,
                              f"{side}s x attribute slots", _PREPARE)[0]
                      for side, rows in (("user", ds.n), ("item", ds.m)))
    sim_u, sim_v = _graph(out, ds, "user_sim"), _graph(out, ds, "item_sim")

    rng = np.random.default_rng(cfg.train.seed)
    acfg, dim = cfg.auxnet, cfg.backbone.dim
    user_net, item_net = [
        auxnet.build_extractor(x.shape[1], dim, acfg.hidden, acfg.gcn_layers, rng, name=side)
        for side, x in (("user", user_x), ("item", item_x))]
    result = train_stage1(ds, user_net, item_net, user_x, item_x, sim_u, sim_v, cfg.train)
    auxnet.save_dense_matrix(out / "aux_users.mat", result.user_features, [])
    auxnet.save_dense_matrix(out / "aux_items.mat", result.item_features, [])
    result.log.write(out / "train_log.tsv")
    _write_manifest(out, "train-aux", cfg, [Path(args.config)])
    final = result.log.records[-1].loss
    print(f"stage 1 done: {cfg.train.epochs} epochs, final loss {final:.6g}")
    return 0


def _load_aux(out: Path, args, ds: InteractionDataset, dim: int, *,
              active: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The feature matrices stage 2 trains against: the ``--aux-users`` and
    ``--aux-items`` files, which ``main`` lets through only as a pair, else
    stage 1's; (None, None) when no fused variant will train (not ``active``)
    or stage 1's are missing.  A given file that does not exist, even when
    not ``active``, or a matrix that is not one ``dim``-wide row per user
    (per item), is a :class:`DataError`."""
    paths = []
    for flag in ("aux_users", "aux_items"):
        given = getattr(args, flag, None)
        if given and not Path(given).exists():
            raise DataError(f"{given} not found (--{flag.replace('_', '-')})")
        paths.append(Path(given) if given else out / f"{flag}.mat")
    if not active or not all(path.exists() for path in paths):
        return None, None
    # stage 1's own files name the command that remakes them
    return tuple(_matrix(path, rows, dim, f"{side} x [backbone] dim",
                         "; re-run `crossfuse train-aux`" if path == out / f"aux_{side}.mat"
                         else "")[0]
                 for path, rows, side in zip(paths, (ds.n, ds.m), ("users", "items")))


def cmd_train(args, cfg: RunConfig, out: Path) -> int:
    ds = _load_dataset(out)
    adj = _graph(out, ds, "adjacency")
    a_users, a_items = _load_aux(out, args, ds, cfg.backbone.dim, active=cfg.fusion.active)
    table = init_embeddings(ds.n + ds.m, cfg.backbone.dim, cfg.train.seed)
    result = train_stage2(ds, adj, table, a_users, a_items, cfg.backbone, cfg.train,
                          cfg.fusion)
    # only the variants that score with the auxiliary features keep a copy
    kept = (a_users, a_items) if cfg.fusion.variant in fusion.AUX_SCORED else ()
    store.save(out / "model.ckpt", pack_stage2_state(result.state, cfg.snapshot(), *kept))
    result.log.write(out / "train_log.tsv")
    inputs = (args.config, args.aux_users, args.aux_items)
    _write_manifest(out, "train", cfg, [Path(p) for p in inputs if p is not None])
    state = result.state
    best = state.best_metric if np.isfinite(state.best_metric) else float("nan")
    print(f"stage 2 done: {state.epoch} epochs, best validation ndcg@10 {best:.6g}")
    return 0


def _item_category_labels(out: Path, ds: InteractionDataset,
                          field_name: str | None) -> dict[int, list[int]]:
    mat_path = out / "item_attr.mat"
    if not mat_path.exists():
        raise DataError("category report needs prepared item attributes")
    values, fields = _matrix(mat_path, ds.m, None, "items x attribute slots", _PREPARE)
    names = [f.name for f in fields]
    if field_name is not None and field_name not in names:
        raise ConfigError(f"unknown category field {field_name!r}; item attributes "
                          f"have {names}")
    fld = fields[0] if field_name is None else fields[names.index(field_name)]
    slots = np.argmax(values[:, fld.offset:fld.offset + fld.cardinality], axis=1)
    # the field's last slot is the blank token, which carries no category
    return {i: [s] if s < len(fld.categories) else [] for i, s in enumerate(slots.tolist())}


def cmd_evaluate(args, cfg: RunConfig, out: Path) -> int:
    ds = _load_dataset(out)
    adj = _graph(out, ds, "adjacency")
    ckpt_path = Path(args.checkpoint) if args.checkpoint else out / "model.ckpt"
    # the model is the one the checkpoint records, whatever this config says
    variant, layers, selected, a_users, a_items = load_selected_model(ckpt_path, ds)
    cats = _item_category_labels(out, ds, args.category_field) if args.kl else None
    params = {k: Param(v) for k, v in selected.items()}
    model = LightGCN(adj, ds.n, BackboneConfig(dim=params["table"].value.shape[1],
                                               num_layers=layers))
    top, report = score(ds, model, params, variant, a_users, a_items, ds.split_csr(TEST),
                        cfg.eval.topn, keep_per_user=args.per_user)
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
        histories = {u: ds.train_items(u) for u in recs}
        kl, _ = category_kl(histories, recs, cats, cfg.eval.kl_categories)
        (out / "kl.json").write_text(
            json.dumps({"top_categories": cfg.eval.kl_categories, "kl": kl}, sort_keys=True)
            + "\n", encoding="utf-8")
        print(f"category consistency kl: {kl:.6g}")

    _write_manifest(out, "evaluate", cfg, [Path(args.config), ckpt_path])
    for metric, n, value in report.rows():
        print(f"{metric}@{n}\t{value:.6f}")
    return 0


def cmd_ablate(args, cfg: RunConfig, out: Path) -> int:
    ds = _load_dataset(out)
    adj = _graph(out, ds, "adjacency")
    a_users, a_items = _load_aux(out, args, ds, cfg.backbone.dim, active=True)
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
    results = gradcheck.run_suite(seed=args.seed)
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
