import hashlib
import json
import shutil
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest

from conftest import old_graph_bytes
from crossfuse import cli, store, synthetic
from crossfuse.auxnet import save_dense_matrix
from crossfuse.cli import main
from crossfuse.data import TEST, TRAIN, DataError, InteractionDataset
from crossfuse.evaluate import category_kl
from crossfuse.graph import load_graph, save_graph
from crossfuse.store import ArrayFile


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic files plus a config sized for fast end-to-end runs."""
    root = tmp_path_factory.mktemp("cli")
    data = synthetic.generate(num_users=25, num_items=40, num_categories=3, seed=0,
                              interactions_per_user=(8, 14))
    paths = synthetic.write_files(data, root / "input")
    out = root / "out"
    cfg = root / "run.cfg"
    cfg.write_text(f"""
[paths]
interactions = {paths['interactions']}
user_attributes = {paths['user_attributes']}
item_attributes = {paths['item_attributes']}
output_dir = {out}

[data]
rating_column = 2

[graph]
epsilon_user = 0.2
epsilon_item = 0.2

[backbone]
dim = 8
layers = 1

[auxnet]
hidden = 8
gcn_layers = 1

[fusion]
lambda1 = 0.3
lambda2 = 0.3

[train]
epochs = 3
batch_size = 256
patience = none
seed = 1

[eval]
topn = 5, 10
""", encoding="utf-8")
    return {"config": cfg, "out": out, "inputs": paths}


@pytest.fixture(scope="module")
def short_inputs(workspace, tmp_path_factory):
    """The first half of the workspace's interaction log, and its attribute
    files filtered to the ids that half keeps, by ``[paths]`` key."""
    root = tmp_path_factory.mktemp("short")
    inputs = workspace["inputs"]
    lines = inputs["interactions"].read_text().splitlines(keepends=True)
    half = lines[:len(lines) // 2]
    kept = {part for line in half for part in line.split("\t")[:2]}
    short = {"interactions": root / "interactions.tsv"}
    short["interactions"].write_text("".join(half), encoding="utf-8")
    for key in ("user_attributes", "item_attributes"):
        rows = inputs[key].read_text().splitlines(keepends=True)
        short[key] = root / f"{key}.tsv"
        short[key].write_text("".join(row for row in rows if row.split("\t")[0] in kept),
                              encoding="utf-8")
    return short


@pytest.fixture(scope="module")
def short_prepared(workspace, short_inputs, tmp_path_factory):
    """A workspace prepared on the shorter log and the filtered attribute files."""
    root = tmp_path_factory.mktemp("short_prepared")
    out = root / "out"
    assert main(["prepare", "--config", _config_at(workspace, out, root, **short_inputs)]) == 0
    return out


def _run_to(workspace, last: str) -> None:
    """Run each pipeline command up to ``last`` whose product is missing from
    the workspace, so a test that reads those products also passes alone."""
    for command, product in (("prepare", "dataset.npz"), ("train-aux", "aux_users.mat"),
                             ("train", "model.ckpt")):
        if not (workspace["out"] / product).exists():
            assert main([command, "--config", str(workspace["config"])]) == 0
        if command == last:
            break


@pytest.fixture
def prepared(workspace):
    _run_to(workspace, "prepare")


@pytest.fixture
def stage1_done(workspace):
    _run_to(workspace, "train-aux")


@pytest.fixture
def trained(workspace):
    _run_to(workspace, "train")


def _store_regions(raw) -> dict[str, tuple[int, int]]:
    """Byte ranges of a ``store`` file: magic, version, section count, the
    metadata section's head (name length, name, kind and size), each
    section's payload by name, and the trailing checksum."""
    regions = {"magic": (0, 4), "version": (4, 8), "count": (8, 12)}
    (count,) = struct.unpack_from("<I", raw, 8)
    off = 12
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, off)
        name = bytes(raw[off + 4:off + 4 + name_len]).decode()
        (size,) = struct.unpack_from("<Q", raw, off + 5 + name_len)
        start = off + 13 + name_len
        regions.setdefault("meta-head", (off, start))
        regions[name] = (start, start + size)
        off = start + size
    regions["trailer"] = (off, len(raw))
    return regions


# each checksummed product: the command that reads it, its arrays, and the
# command that remakes it (None: it names none); "external.mat" is a copy of
# aux_users.mat given as --aux-users
_GRAPH, _MATRIX = ("data", "indices", "indptr"), ("values",)
_STORE_PRODUCTS = {
    "adjacency.graph": ("train", _GRAPH, "prepare"),
    "user_sim.graph": ("train-aux", _GRAPH, "prepare"),
    "user_attr.mat": ("train-aux", _MATRIX, "prepare"),
    "item_attr.mat": ("evaluate --kl", _MATRIX, "prepare"),
    "aux_users.mat": ("train", _MATRIX, "train-aux"),
    "aux_items.mat": ("train", _MATRIX, "train-aux"),
    "external.mat": ("train", _MATRIX, None),
    "model.ckpt": ("evaluate", ("best.table", "last.table", "opt.m0", "opt.v0"), "train"),
}


def _config_at(workspace, out, tmp_path, **inputs) -> str:
    """A copy of the workspace config whose output_dir is ``out`` and whose
    ``[paths]`` keys named in ``inputs`` are the given files."""
    text = workspace["config"].read_text().replace(
        f"output_dir = {workspace['out']}", f"output_dir = {out}")
    for key, path in inputs.items():
        text = text.replace(f"{key} = {workspace['inputs'][key]}", f"{key} = {path}")
    cfg = tmp_path / "copy.cfg"
    cfg.write_text(text, encoding="utf-8")
    return str(cfg)


def _workspace_copy(workspace, tmp_path, *ignore) -> tuple[Path, str]:
    """A copy of the workspace's output directory, without the files that
    match ``ignore``, and a config that points at it."""
    out = tmp_path / "out"
    shutil.copytree(workspace["out"], out, ignore=shutil.ignore_patterns(*ignore))
    return out, _config_at(workspace, out, tmp_path)


def _with_variant(cfg: str, variant: str) -> str:
    """``cfg``, rewritten to train the fusion ``variant``."""
    text = Path(cfg).read_text(encoding="utf-8")
    Path(cfg).write_text(text.replace("[fusion]\n", f"[fusion]\nvariant = {variant}\n"),
                         encoding="utf-8")
    return cfg


def _one_data_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    return err


class TestPipeline:
    def test_prepare(self, workspace):
        assert main(["prepare", "--config", str(workspace["config"])]) == 0
        assert sorted(p.name for p in workspace["out"].iterdir()) == [
            "adjacency.graph", "build_report.txt", "dataset.npz", "item_attr.mat",
            "item_remap.tsv", "item_sim.graph", "manifest_prepare.json", "user_attr.mat",
            "user_remap.tsv", "user_sim.graph"]
        fields = store.load(workspace["out"] / "item_attr.mat", "matrix").meta["fields"]
        assert [f["name"] for f in fields] == ["field_1"] and fields[0]["categories"]

    @pytest.mark.usefixtures("prepared")
    def test_train_before_train_aux_is_ordering_error(self, workspace, tmp_path):
        out, cfg = _workspace_copy(workspace, tmp_path, "aux_*.mat")
        assert (out / "dataset.npz").exists()
        assert main(["train", "--config", cfg]) == 3

    @pytest.mark.usefixtures("prepared")
    def test_train_aux(self, workspace):
        assert main(["train-aux", "--config", str(workspace["config"])]) == 0
        out = workspace["out"]
        assert (out / "aux_users.mat").exists()
        assert (out / "aux_items.mat").exists()
        assert not (out / "aux_state.ckpt").exists()
        assert (out / "train_log.tsv").exists()

    @pytest.mark.usefixtures("stage1_done")
    def test_train(self, workspace):
        assert main(["train", "--config", str(workspace["config"])]) == 0
        ckpt = store.load(workspace["out"] / "model.ckpt", "checkpoint")
        assert "last.table" in ckpt.arrays
        # cross fusion scores with the graph features alone
        assert not {"aux_users", "aux_items"} & ckpt.arrays.keys()
        assert ckpt.meta["epoch"] == 3

    @pytest.mark.usefixtures("trained")
    def test_evaluate(self, workspace):
        assert main(["evaluate", "--config", str(workspace["config"]), "--kl"]) == 0
        out = workspace["out"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["users_evaluated"] > 0
        for metric in ("precision", "recall", "f1", "mrr", "ndcg"):
            assert metric in metrics["metrics"]
        kl = json.loads((out / "kl.json").read_text())
        assert kl["kl"] >= 0.0

    @pytest.mark.usefixtures("trained")
    def test_evaluate_scores_the_best_validation_table(self, workspace, tmp_path):
        out, cfg = workspace["out"], str(workspace["config"])
        ckpt = store.load(out / "model.ckpt", "checkpoint")
        assert np.isfinite(ckpt.meta["best_metric"])
        assert not np.array_equal(ckpt.arrays["last.table"], ckpt.arrays["best.table"])
        best_only = tmp_path / "best_only.ckpt"
        store.save(best_only, ArrayFile(ckpt.meta, {
            **ckpt.arrays, "last.table": ckpt.arrays["best.table"]}))
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(best_only)]) == 0
        expect = json.loads((out / "metrics.json").read_text())
        assert main(["evaluate", "--config", cfg]) == 0
        assert json.loads((out / "metrics.json").read_text()) == expect

    @pytest.mark.parametrize("old, new", [
        ("[backbone]\ndim = 8\nlayers = 1\n", "[backbone]\ndim = 8\nlayers = 3\n"),
        ("[fusion]\n", "[fusion]\nvariant = concat\n"),
    ], ids=["layers", "variant"])
    @pytest.mark.usefixtures("trained")
    def test_evaluate_scores_the_checkpointed_model(self, workspace, tmp_path, old, new):
        """The model comes from the checkpoint, not from the evaluate config."""
        out, cfg = workspace["out"], workspace["config"]
        assert main(["evaluate", "--config", str(cfg)]) == 0
        expect = (out / "metrics.json").read_bytes()
        edited = tmp_path / "edited.cfg"
        text = cfg.read_text()
        assert old in text
        edited.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["evaluate", "--config", str(edited)]) == 0
        assert (out / "metrics.json").read_bytes() == expect

    @pytest.mark.usefixtures("trained")
    def test_manifest_contents(self, workspace):
        doc = json.loads((workspace["out"] / "manifest_train.json").read_text())
        assert doc["command"] == "train"
        assert doc["seed"] == 1
        assert doc["config"]["epochs"] == 3
        assert doc["inputs"]  # config checksum at minimum
        assert all(len(v) == 64 for v in doc["inputs"].values())

    @pytest.mark.usefixtures("stage1_done")
    def test_ablate(self, workspace):
        assert main(["ablate", "--config", str(workspace["config"])]) == 0
        table = (workspace["out"] / "ablation.tsv").read_text().splitlines()
        assert table[0].startswith("variant")
        variants = [line.split("\t")[0] for line in table[1:]]
        assert variants == ["cross", "concat", "plain-sum", "weighted-sum", "none"]

    @pytest.mark.usefixtures("trained")
    def test_kl_averages_over_scored_users(self, workspace, tmp_path, monkeypatch):
        """A user without test items has no list and stays out of the KL mean."""
        out, cfg = _workspace_copy(workspace, tmp_path)
        with np.load(out / "dataset.npz") as z:
            arrays = dict(z)
        arrays["split"][(arrays["users"] == 0) & (arrays["split"] == TEST)] = TRAIN
        np.savez(out / "dataset.npz", **arrays)
        ds = InteractionDataset(int(arrays["n"][0]), int(arrays["m"][0]), arrays["users"],
                                arrays["items"], arrays["ratings"], arrays["split"])
        seen = {}

        def spy(histories, recs, cats, top):
            seen.update(recs=recs, cats=cats, top=top)
            return category_kl(histories, recs, cats, top)

        monkeypatch.setattr(cli, "category_kl", spy)
        assert main(["evaluate", "--config", cfg, "--kl"]) == 0
        recs, cats, top = seen["recs"], seen["cats"], seen["top"]
        assert 0 not in recs and len(recs) == ds.n - 1
        scored = {u: ds.train_items(u).tolist() for u in recs}
        everyone = {u: ds.train_items(u).tolist() for u in range(ds.n)}
        kl = json.loads((out / "kl.json").read_text())["kl"]
        assert kl == category_kl(scored, recs, cats, top)[0]
        assert kl != category_kl(everyone, recs, cats, top)[0]


class TestExternalInterfaces:
    @pytest.mark.usefixtures("prepared")
    def test_externally_supplied_feature_matrices(self, workspace, tmp_path):
        """Precomputed dense matrices can stand in for the stage-1 products; a
        variant that scores with them keeps them in its checkpoint, and the
        manifest records their checksums."""
        out, cfg = _workspace_copy(workspace, tmp_path, "aux_*.mat", "model.ckpt")
        cfg = _with_variant(cfg, "concat")
        z = np.load(out / "dataset.npz")
        n, m = int(z["n"][0]), int(z["m"][0])
        rng = np.random.default_rng(0)
        ext_u = tmp_path / "external_users.mat"
        ext_v = tmp_path / "external_items.mat"
        save_dense_matrix(ext_u, rng.normal(size=(n, 8)), [])
        save_dense_matrix(ext_v, rng.normal(size=(m, 8)), [])
        assert main(["train", "--config", cfg,
                     "--aux-users", str(ext_u), "--aux-items", str(ext_v)]) == 0
        ckpt = store.load(out / "model.ckpt", "checkpoint")
        for name, path in (("aux_users", ext_u), ("aux_items", ext_v)):
            assert np.array_equal(ckpt.arrays[name],
                                  store.load(path, "matrix").arrays["values"]), name
        inputs = json.loads((out / "manifest_train.json").read_text())["inputs"]
        assert inputs == {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest()
                          for p in (cfg, ext_u, ext_v)}

    @pytest.mark.usefixtures("stage1_done")
    def test_train_without_fusion_reads_no_feature_matrix(self, workspace, tmp_path):
        """Variant none trains on the graph alone, so stage 1's features,
        8 wide against a 16-wide table here, neither stop it nor enter its
        checkpoint."""
        out, cfg = _workspace_copy(workspace, tmp_path, "model.ckpt")
        cfg = _with_variant(cfg, "none")
        Path(cfg).write_text(Path(cfg).read_text().replace("dim = 8", "dim = 16"),
                             encoding="utf-8")
        assert main(["train", "--config", cfg]) == 0
        ckpt = store.load(out / "model.ckpt", "checkpoint")
        assert ckpt.arrays["best.table"].shape[1] == 16
        assert not {"aux_users", "aux_items"} & ckpt.arrays.keys()

    @pytest.mark.parametrize("given, missing", [("--aux-users", "--aux-items"),
                                                ("--aux-items", "--aux-users")])
    @pytest.mark.usefixtures("stage1_done")
    def test_one_external_matrix_is_usage_error(self, workspace, tmp_path, capsys, given,
                                                missing):
        """One flag alone would pair an external matrix with stage 1's other
        side; it is refused before anything is read or written."""
        out, cfg = _workspace_copy(workspace, tmp_path)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        ext = tmp_path / "external.mat"
        save_dense_matrix(ext, np.zeros((3, 8)), [])
        assert main(["train", "--config", cfg, given, str(ext)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert missing in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

        fresh = tmp_path / "fresh"
        cfg = _config_at(workspace, fresh, tmp_path)
        assert main(["train", "--config", cfg, given, str(ext)]) == 1
        assert missing in capsys.readouterr().err
        assert not fresh.exists()

    @pytest.mark.usefixtures("trained")
    def test_training_log_format(self, workspace):
        lines = (workspace["out"] / "train_log.tsv").read_text().splitlines()
        assert lines[0] == "stage\tepoch\tloss\tval_ndcg10\twall_time"
        stages = {line.split("\t")[0] for line in lines[1:]}
        assert stages == {"1", "2"}
        for line in lines[1:]:
            parts = line.split("\t")
            float(parts[2])  # loss parses
            float(parts[4])  # wall time parses

    @pytest.mark.usefixtures("stage1_done")
    def test_rerun_replaces_its_stage_in_the_training_log(self, workspace, tmp_path):
        """Each command rewrites its own stage's rows and keeps the other
        stage's, stage 1 first: re-runs leave one block of each."""
        out, cfg = _workspace_copy(workspace, tmp_path)
        expect = [("1", "1"), ("1", "2"), ("1", "3"), ("2", "1"), ("2", "2"), ("2", "3")]
        for command in ("train", "train", "train-aux"):
            assert main([command, "--config", cfg]) == 0
            lines = (out / "train_log.tsv").read_text().splitlines()
            assert lines[0] == "stage\tepoch\tloss\tval_ndcg10\twall_time"
            assert [tuple(line.split("\t")[:2]) for line in lines[1:]] == expect, command


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[train]\nnonsense = 1\n", encoding="utf-8")
        assert main(["prepare", "--config", str(cfg)]) == 2

    def test_missing_required_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("[train]\nepochs = 1\n", encoding="utf-8")
        assert main(["prepare", "--config", str(cfg)]) == 2

    def test_bad_fusion_variant_in_train_is_config_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bogus.cfg"
        cfg.write_text(workspace["config"].read_text().replace(
            "[fusion]\n", "[fusion]\nvariant = bogus\n"), encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "config error: unknown fusion variant 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-aux", "ablate"])
    def test_zero_epochs_is_config_error(self, workspace, tmp_path, capsys, command):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(workspace["config"].read_text().replace("epochs = 3", "epochs = 0"),
                       encoding="utf-8")
        assert main([command, "--config", str(cfg)]) == 2
        assert "config error: epochs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, old, new", [
        ("train", "[train]\n", "[train]\noptimizer = adam\n"),
        ("train-aux", "[train]\n", "[train]\noptimizer = adam\n"),
        ("prepare", "[graph]\n", "[graph]\nmax_neighbors = 3\n"),
        ("prepare", "seed = 1", "seed = -1"),
        ("train-aux", "seed = 1", "seed = -1"),
        ("train", "seed = 1", "seed = -1"),
        ("ablate", "seed = 1", "seed = -1"),
        ("prepare", "[graph]\n", "[graph]\nsimilarity = bogus\n"),
        ("prepare", "epsilon_user = 0.2", "epsilon_user = 2"),
        ("prepare", "[data]\n", "[data]\ntrain_ratio = 0.92\n"),
        ("evaluate", "topn = 5, 10", "topn = 0"),
        ("evaluate", "topn = 5, 10", "topn = 5, 10\nkl_categories = 0"),
        ("evaluate", "topn = 5, 10", "topn = 5, 10\nkl_categories = -2"),
        ("prepare", "[data]\n", "[data]\ntrain_ratio = nan\n"),
        ("train", "[train]\n", "[train]\neta2 = nan\n"),
        ("train", "[train]\n", "[train]\neta2 = inf\n"),
        ("train", "[backbone]\n", "[backbone]\nlambda_reg = nan\n"),
        ("train", "[backbone]\n", "[backbone]\nlambda_reg = inf\n"),
        ("train-aux", "gcn_layers = 1", "gcn_layers = -1"),
    ], ids=["optimizer-train", "optimizer-train-aux", "max-neighbors", "seed-prepare",
            "seed-train-aux", "seed-train", "seed-ablate", "similarity", "epsilon", "ratios",
            "topn", "kl-categories-0", "kl-categories-negative", "train-ratio-nan",
            "eta2-nan", "eta2-inf", "lambda-reg-nan", "lambda-reg-inf", "gcn-layers-negative"])
    def test_bad_value_is_config_error(self, workspace, tmp_path, capsys, command, old, new):
        text = workspace["config"].read_text()
        assert old in text
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace(old, new), encoding="utf-8")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, name, damage", [
        ("evaluate", "model.ckpt", "flip-byte"),
        ("evaluate", "model.ckpt", "bump-version"),
        ("evaluate", "model.ckpt", "stage-1-checkpoint"),
        ("evaluate", "model.ckpt", "no-trained-config"),
        ("train", "adjacency.graph", "truncate"),
        ("train", "aux_users.mat", "truncate"),
        ("train-aux", "dataset.npz", "truncate"),
        ("train-aux", "user_attr.mat", "from-shorter-log"),
        ("train-aux", "user_sim.graph", "from-shorter-log"),
        ("train", "adjacency.graph", "from-shorter-log"),
    ])
    @pytest.mark.usefixtures("trained")
    def test_damaged_artifact_is_data_error(self, workspace, tmp_path, capsys, request,
                                            command, name, damage):
        out, cfg = _workspace_copy(workspace, tmp_path)
        path = out / name
        if damage == "from-shorter-log":
            shutil.copy(request.getfixturevalue("short_prepared") / name, path)
        elif damage == "stage-1-checkpoint":
            trained_config = store.load(path, "checkpoint").meta["config"]
            store.save(path, ArrayFile({"kind": "stage1", "config": trained_config},
                                       {"user.mlp.w0": np.zeros((2, 2))}))
        elif damage == "no-trained-config":
            ckpt = store.load(path, "checkpoint")
            store.save(path, ArrayFile({**ckpt.meta, "config": {}}, ckpt.arrays))
        else:
            raw = bytearray(path.read_bytes())
            if damage == "flip-byte":
                raw[-12] ^= 0xFF
            elif damage == "bump-version":
                raw[4] = 99
            else:
                del raw[-8:]
            path.write_bytes(bytes(raw))
        assert main([command, "--config", cfg]) == 3
        assert str(path) in _one_data_error(capsys)

    @pytest.mark.parametrize("part, key", [
        ("meta", "epoch"), ("meta", "best_metric"), ("meta", "stale_epochs"), ("meta", "opt"),
        ("meta", "rng_state"), ("arrays", "last.table"), ("arrays", "best.table")])
    @pytest.mark.usefixtures("trained")
    def test_incomplete_checkpoint_is_data_error(self, workspace, tmp_path, capsys, part,
                                                 key):
        out, cfg = _workspace_copy(workspace, tmp_path)
        path = out / "model.ckpt"
        ckpt = store.load(path, "checkpoint")
        del getattr(ckpt, part)[key]
        store.save(path, ckpt)
        assert main(["evaluate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: incomplete stage-2 checkpoint (KeyError: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("snapshot, dropped, message", [
        ({"variant": "bogus"}, (), "unknown fusion variant 'bogus'"),
        ({"variant": ["cross"]}, (), "unknown fusion variant ['cross']"),
        ({"layers": "x"}, (), "layer count 'x'"),
        ({"layers": -1}, (), "layer count -1"),
        ({"layers": True}, (), "layer count True"),
        ({"layers": 1.0}, (), "layer count 1.0"),
        ({"variant": "concat"}, ("aux_users", "aux_items"), "a concat checkpoint without"),
        ({"variant": "plain-sum"}, ("aux_items",), "a plain-sum checkpoint without"),
        ({"variant": "weighted-sum"}, ("aux_users",), "a weighted-sum checkpoint without"),
    ], ids=["variant-bogus", "variant-list", "layers-text", "layers-negative", "layers-bool",
            "layers-float", "concat-no-aux", "plain-sum-no-aux-items",
            "weighted-sum-no-aux-users"])
    @pytest.mark.usefixtures("trained")
    def test_bad_config_snapshot_is_data_error(self, workspace, tmp_path, capsys, snapshot,
                                               dropped, message):
        out, cfg = _workspace_copy(workspace, tmp_path)
        path = out / "model.ckpt"
        ckpt = store.load(path, "checkpoint")
        # a cross checkpoint keeps no auxiliary features: add both, so each case
        # removes only the arrays it names
        arrays = dict(ckpt.arrays)
        for side in ("users", "items"):
            arrays[f"aux_{side}"] = store.load(out / f"aux_{side}.mat", "matrix").arrays["values"]
        store.save(path, ArrayFile(
            {**ckpt.meta, "config": {**ckpt.meta["config"], **snapshot}},
            {k: v for k, v in arrays.items() if k not in dropped}))
        assert main(["evaluate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("weights, message", [
        ({k: np.eye(3) for k in range(1, 5)}, "fusion.w1 of shape (3, 3), expected (8, 8)"),
        ({1: np.eye(8), 2: np.eye(8), 3: np.zeros((8, 3)), 4: np.eye(8)},
         "fusion.w3 of shape (8, 3), expected (8, 8)"),
        ({k: np.eye(8) for k in range(1, 4)}, "fusion.w4 missing, expected (8, 8)"),
    ], ids=["all-3x3", "w3-8x3", "no-w4"])
    @pytest.mark.usefixtures("trained")
    def test_misshaped_weighted_sum_matrices_are_data_error(self, workspace, tmp_path,
                                                            capsys, weights, message):
        out, cfg = _workspace_copy(workspace, tmp_path)
        path = out / "model.ckpt"
        ckpt = store.load(path, "checkpoint")
        # a cross checkpoint keeps no auxiliary features; a weighted-sum one does
        arrays = dict(ckpt.arrays)
        for side in ("users", "items"):
            arrays[f"aux_{side}"] = store.load(out / f"aux_{side}.mat", "matrix").arrays["values"]
        for k, w in weights.items():
            arrays[f"last.fusion.w{k}"] = arrays[f"best.fusion.w{k}"] = w
        store.save(path, ArrayFile(
            {**ckpt.meta, "config": {**ckpt.meta["config"], "variant": "weighted-sum"}},
            arrays))
        assert main(["evaluate", "--config", cfg]) == 3
        err = _one_data_error(capsys)
        assert err.startswith(f"data error: {path}: weighted-sum matrix {message}")

    @pytest.mark.parametrize("name, region", [
        (name, region) for name, (_, arrays, _) in _STORE_PRODUCTS.items()
        for region in ("magic", "version", "count", "meta-head", "meta", *arrays, "trailer")])
    @pytest.mark.usefixtures("trained")
    def test_flipped_bit_in_store_file_is_data_error(self, workspace, tmp_path, capsys,
                                                     name, region):
        out, cfg = _workspace_copy(workspace, tmp_path)
        command, _, rerun = _STORE_PRODUCTS[name]
        args = [*command.split(), "--config", cfg]
        path = out / name
        if name == "external.mat":
            path = tmp_path / name
            shutil.copy(out / "aux_users.mat", path)
            args += ["--aux-users", str(path), "--aux-items", str(out / "aux_items.mat")]
        raw = bytearray(path.read_bytes())
        lo, hi = _store_regions(raw)[region]
        raw[(lo + hi) // 2] ^= 0x10
        path.write_bytes(bytes(raw))
        assert main(args) == 3
        err = _one_data_error(capsys)
        assert str(path) in err
        assert rerun is None or f"re-run `crossfuse {rerun}`" in err

    @pytest.mark.parametrize("command, name", [("train", "adjacency.graph"),
                                               ("train-aux", "user_sim.graph")])
    @pytest.mark.usefixtures("prepared")
    def test_old_format_graph_file_asks_for_prepare(self, workspace, tmp_path, capsys,
                                                    command, name):
        out, cfg = _workspace_copy(workspace, tmp_path)
        path = out / name
        mat = load_graph(path)
        path.write_bytes(old_graph_bytes(mat.indptr, mat.indices, mat.data, mat.shape))
        assert main([command, "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "not a graph file" in err and "re-run `crossfuse prepare`" in err

    @pytest.mark.parametrize("command, name, damage", [
        ("train-aux", "user_attr.mat", "raw-format"),
        ("train", "aux_users.mat", "raw-format"),
        ("train", "aux_items.mat", "graph-file"),
        ("train", "aux_users.mat", "other-kind"),
        ("train-aux", "item_attr.mat", "no-fields"),
        ("evaluate --kl", "item_attr.mat", "category-dropped"),
    ])
    @pytest.mark.usefixtures("trained")
    def test_matrix_file_of_another_format_asks_for_its_command(self, workspace, tmp_path,
                                                                capsys, command, name,
                                                                damage):
        """A matrix left in the retired raw layout (a u64 shape header and
        bare float64 values), another product, a file of another kind, or an
        attribute matrix whose field list is gone or does not span its
        columns is a data error naming the command that remakes the file."""
        out, cfg = _workspace_copy(workspace, tmp_path, "metrics.json")
        path = out / name
        doc = store.load(path, "matrix")
        if damage == "raw-format":
            mat = doc.arrays["values"]
            path.write_bytes(struct.pack("<QQ", *mat.shape) + mat.astype("<f8").tobytes())
        elif damage == "graph-file":
            shutil.copy(out / "item_sim.graph", path)
        else:
            if damage == "no-fields":
                doc.meta["fields"] = []
            elif damage == "other-kind":
                doc.meta["kind"] = "stage2"
            else:
                doc.meta["fields"][0]["categories"].pop()
            store.save(path, doc)
        assert main([*command.split(), "--config", cfg]) == 3
        err = _one_data_error(capsys)
        rerun = "prepare" if "attr" in name else "train-aux"
        assert err.startswith(f"data error: {path}: ") and f"re-run `crossfuse {rerun}`" in err
        assert ("expected 40x" if damage == "category-dropped" else "not a matrix") in err
        assert not (out / "metrics.json").exists()

    @pytest.mark.usefixtures("prepared")
    def test_flipped_bit_in_dataset_zip_directory_is_data_error_or_harmless(self, workspace,
                                                                           tmp_path):
        """Every single-bit flip from the zip central directory to the end of
        ``dataset.npz`` either raises DataError or loads the same dataset."""
        good = (workspace["out"] / "dataset.npz").read_bytes()
        want = cli._load_dataset(workspace["out"])
        with zipfile.ZipFile(workspace["out"] / "dataset.npz") as z:
            start = z.start_dir
        path = tmp_path / "dataset.npz"
        harmless = 0
        for bit in range(8 * start, 8 * len(good)):
            raw = bytearray(good)
            raw[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(raw))
            try:
                got = cli._load_dataset(tmp_path)
            except DataError:
                continue
            harmless += 1
            assert (got.n, got.m, got.user_ids, got.item_ids) == (
                want.n, want.m, want.user_ids, want.item_ids)
            for key in ("users", "items", "ratings", "split"):
                assert np.array_equal(getattr(got, key), getattr(want, key)), key
        assert 0 < harmless < 8 * (len(good) - start)

    @pytest.mark.parametrize("users_shape, items_shape", [
        (("n", 5), ("m", 5)),
        (("n-1", 8), ("m", 8)),
        (("m", 8), ("m", 8)),
    ], ids=["wrong-width", "too-few-user-rows", "item-matrix-as-users"])
    @pytest.mark.usefixtures("prepared")
    def test_feature_matrix_of_wrong_shape_is_data_error(self, workspace, tmp_path, capsys,
                                                         users_shape, items_shape):
        out, cfg = _workspace_copy(workspace, tmp_path, "model.ckpt")
        z = np.load(out / "dataset.npz")
        sizes = {"n": int(z["n"][0]), "m": int(z["m"][0])}
        sizes["n-1"] = sizes["n"] - 1
        rng = np.random.default_rng(0)
        paths = []
        for name, (rows, width) in (("u", users_shape), ("v", items_shape)):
            paths.append(tmp_path / f"{name}.mat")
            save_dense_matrix(paths[-1], rng.normal(size=(sizes[rows], width)), [])
        assert main(["train", "--config", cfg,
                     "--aux-users", str(paths[0]), "--aux-items", str(paths[1])]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert not (out / "model.ckpt").exists()

    @pytest.mark.usefixtures("stage1_done")
    def test_non_finite_external_feature_matrix_is_data_error(self, workspace, tmp_path,
                                                             capsys):
        out, cfg = _workspace_copy(workspace, tmp_path, "model.ckpt")
        users = store.load(out / "aux_users.mat", "matrix").arrays["values"]
        users[1, 2] = np.nan
        ext = tmp_path / "external_users.mat"
        save_dense_matrix(ext, users, [])
        assert main(["train", "--config", cfg, "--aux-users", str(ext),
                     "--aux-items", str(out / "aux_items.mat")]) == 3
        err = _one_data_error(capsys)
        assert str(ext) in err and "NaN or infinite" in err
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.usefixtures("stage1_done")
    def test_non_finite_stage1_feature_matrix_is_data_error(self, workspace, tmp_path,
                                                           capsys, command):
        out, cfg = _workspace_copy(workspace, tmp_path, "model.ckpt", "ablation.tsv")
        path = out / "aux_users.mat"
        users = store.load(path, "matrix").arrays["values"]
        users[0, 0] = np.inf
        save_dense_matrix(path, users, [])
        assert main([command, "--config", cfg]) == 3
        err = _one_data_error(capsys)
        assert str(path) in err and "re-run `crossfuse train-aux`" in err
        assert not (out / "model.ckpt").exists() and not (out / "ablation.tsv").exists()

    @pytest.mark.usefixtures("trained")
    def test_failed_prepare_leaves_the_workspace_unchanged(self, workspace, short_inputs,
                                                          tmp_path, capsys):
        """The unfiltered attribute files name users the shorter log lacks, so
        prepare fails after building everything else, and writes nothing."""
        out, _ = _workspace_copy(workspace, tmp_path)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = _config_at(workspace, out, tmp_path, interactions=short_inputs["interactions"])
        assert main(["prepare", "--config", cfg]) == 3
        assert "not present in the dataset" in _one_data_error(capsys)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        cfg = _config_at(workspace, out, tmp_path)
        for command in ("evaluate", "train-aux", "train", "ablate"):
            assert main([command, "--config", cfg]) == 0, command

    def test_attribute_file_of_bare_ids_is_data_error(self, workspace, tmp_path, capsys):
        bare = tmp_path / "items.tsv"
        rows = workspace["inputs"]["item_attributes"].read_text().splitlines()
        bare.write_text("".join(row.split("\t")[0] + "\n" for row in rows), encoding="utf-8")
        out = tmp_path / "out"
        cfg = _config_at(workspace, out, tmp_path, item_attributes=bare)
        assert main(["prepare", "--config", cfg]) == 3
        assert f"{bare}: no attribute columns" in _one_data_error(capsys)
        assert not any(out.iterdir())

    @pytest.mark.parametrize("key", ["interactions", "user_attributes"])
    def test_input_file_that_is_not_utf8_is_data_error(self, workspace, tmp_path, capsys,
                                                       key):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(workspace["inputs"][key].read_bytes() + b"\xff\n")
        out = tmp_path / "out"
        cfg = _config_at(workspace, out, tmp_path, **{key: bad})
        assert main(["prepare", "--config", cfg]) == 3
        err = _one_data_error(capsys)
        assert f"{bad}: 'utf-8' codec can't decode byte 0xff" in err
        assert not any(out.iterdir())

    def test_config_file_that_is_not_utf8_is_config_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(workspace["config"].read_bytes() + b"# \xff\n")
        assert main(["prepare", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, name, damage, message", [
        ("train", "adjacency.graph", "asymmetric", "graph is not symmetric"),
        ("train-aux", "user_sim.graph", "no-diagonal",
         "similarity graph lacks a diagonal entry"),
        ("train", "adjacency.graph", "unsorted",
         "row 0 has unsorted or duplicate column indices"),
        ("train-aux", "item_sim.graph", "short-offsets", "graph arrays do not fit"),
        ("train", "adjacency.graph", "first-offset", "row offsets do not run from 0"),
        ("train-aux", "user_sim.graph", "index-high", "a column index lies outside")],
        ids=["asymmetric-adjacency", "similarity-without-diagonal", "unsorted-adjacency",
             "item-similarity-offsets-too-short", "adjacency-offsets-not-from-0",
             "user-similarity-column-out-of-range"])
    @pytest.mark.usefixtures("prepared")
    def test_graph_fault_is_data_error_asking_for_prepare(self, workspace, tmp_path, capsys,
                                                          command, name, damage, message):
        """A graph file the convolutions cannot take (``check_graph``) or whose
        storage is broken (``load_graph``) exits 3 with the fault and the
        prepare hint."""
        out, cfg = _workspace_copy(workspace, tmp_path)
        cfg = _with_variant(cfg, "none")
        path = out / name
        mat = load_graph(path)
        if damage == "no-diagonal":
            mat = mat.tolil()
            mat[0, 0] = 0.0  # drops the stored entry
            mat = mat.tocsr()
        indptr, indices, data = (a.astype(t) for a, t in zip(
            (mat.indptr, mat.indices, mat.data), (np.int64, np.int64, np.float64)))
        if damage == "asymmetric":
            data[0] *= 2.0  # the mirrored entry keeps its value
        elif damage == "unsorted":
            indices[:2] = indices[1::-1]
        elif damage == "short-offsets":
            indptr = indptr[:-1]
        elif damage == "first-offset":
            indptr[0] = 1
        elif damage == "index-high":
            indices[-1] = mat.shape[1]
        store.save(path, ArrayFile({"kind": "graph", "shape": list(mat.shape)},
                                   {"indptr": indptr, "indices": indices, "data": data}))
        assert main([command, "--config", str(cfg)]) == 3
        err = _one_data_error(capsys)
        assert err.startswith(f"data error: {path}: {message}")
        assert "re-run `crossfuse prepare`" in err

    @pytest.mark.usefixtures("trained")
    def test_checkpoint_of_another_dataset_is_data_error(self, workspace, short_prepared,
                                                         tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(short_prepared, out)
        shutil.copy(workspace["out"] / "model.ckpt", out / "model.ckpt")
        cfg = _config_at(workspace, out, tmp_path)
        assert main(["evaluate", "--config", cfg]) == 3
        assert f"data error: {out / 'model.ckpt'}: embedding table" in _one_data_error(capsys)

    @pytest.mark.usefixtures("trained")
    def test_unknown_category_field_is_config_error(self, workspace, tmp_path, capsys):
        out, cfg = _workspace_copy(workspace, tmp_path, "metrics.json")
        assert main(["evaluate", "--config", cfg, "--kl",
                     "--category-field", "bogus"]) == 2
        assert "unknown category field 'bogus'" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    @pytest.mark.usefixtures("trained")
    def test_non_finite_scores_are_numerical_error(self, workspace, tmp_path, capsys):
        out, cfg = _workspace_copy(workspace, tmp_path, "metrics.json")
        ckpt = store.load(out / "model.ckpt", "checkpoint")
        tensors = dict(ckpt.arrays)
        for name in ("last.table", "best.table"):
            tensors[name] = tensors[name].copy()
            tensors[name][0] = np.nan
        store.save(out / "model.ckpt", ArrayFile(ckpt.meta, tensors))
        assert main(["evaluate", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite effective features")
        assert not (out / "metrics.json").exists()

    def test_missing_data_file_is_data_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[paths]\ninteractions = {tmp_path}/absent.tsv\n"
                       f"output_dir = {tmp_path}/out\n", encoding="utf-8")
        assert main(["prepare", "--config", str(cfg)]) == 3

    def test_output_dir_that_is_a_file_is_data_error(self, workspace, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(workspace["config"].read_text().replace(
            f"output_dir = {workspace['out']}", f"output_dir = {taken}"), encoding="utf-8")
        assert main(["prepare", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, flag", [("evaluate", "--checkpoint"),
                                               ("train", "--aux-users")])
    @pytest.mark.usefixtures("trained")
    def test_directory_given_as_input_file_is_data_error(self, workspace, tmp_path, capsys,
                                                         command, flag):
        out, cfg = _workspace_copy(workspace, tmp_path)
        # --aux-users is accepted only beside --aux-items
        pair = ["--aux-items", str(out / "aux_items.mat")] if command == "train" else []
        assert main([command, "--config", cfg, flag, str(tmp_path), *pair]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("variant", ["cross", "none"])
    @pytest.mark.usefixtures("trained")
    def test_missing_aux_users_file_is_data_error(self, workspace, tmp_path, capsys, variant):
        out, cfg = _workspace_copy(workspace, tmp_path)
        cfg = _with_variant(cfg, variant)
        missing = tmp_path / "absent_users.mat"
        assert main(["train", "--config", str(cfg), "--aux-users", str(missing),
                     "--aux-items", str(out / "aux_items.mat")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(missing) in err

    def test_user_with_every_item_is_data_error(self, tmp_path, capsys):
        # Users with fewer rows than splits stay in train, so "a" holds both items.
        (tmp_path / "log.tsv").write_text("a\tx\t1\na\ty\t1\nb\tx\t1\nc\ty\t1\n",
                                          encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[paths]\ninteractions = {tmp_path}/log.tsv\n"
                       f"output_dir = {tmp_path}/out\n[fusion]\nvariant = none\n"
                       f"[train]\nepochs = 1\n", encoding="utf-8")
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 3
        assert "has interacted with every item" in capsys.readouterr().err

    def test_verify_gradients_passes(self, capsys):
        assert main(["verify-gradients", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 12
        assert "all 12 gradient checks passed" in out

    def test_verify_gradients_negative_seed_is_usage_error(self, capsys):
        assert main(["verify-gradients", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --seed: seed must be an integer >= 0")
        assert "usage: crossfuse" in err

    def test_verify_gradients_fails_with_impossible_tolerance(self, capsys, monkeypatch):
        run_suite = cli.gradcheck.run_suite

        def impossible(seed):
            results = run_suite(seed=seed)
            last = results[-1]
            results[-1] = cli.gradcheck.CheckResult(last.name, last.max_error, 1e-18)
            return results

        monkeypatch.setattr(cli.gradcheck, "run_suite", impossible)
        assert main(["verify-gradients", "--seed", "7"]) == 4
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--exact-tol", "--fd-tol"])
    def test_verify_gradients_tolerances_are_not_flags(self, capsys, flag):
        assert main(["verify-gradients", "--seed", "7", flag, "1e-18"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments") and "usage: crossfuse" in err


class TestDeterminism:
    def test_identical_manifests_identical_metric_files(self, tmp_path):
        data = synthetic.generate(num_users=20, num_items=30, num_categories=3, seed=4,
                                  interactions_per_user=(8, 12))
        paths = synthetic.write_files(data, tmp_path / "input")

        def run(out):
            cfg = tmp_path / f"{out.name}.cfg"
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
seed = 5
""", encoding="utf-8")
            for cmd in ("prepare", "train-aux", "train", "evaluate"):
                assert main([cmd, "--config", str(cfg)]) == 0
            manifest = json.loads((out / "manifest_evaluate.json").read_text())
            del manifest["config"]["output_dir"]
            del manifest["inputs"]
            return manifest, (out / "metrics.json").read_bytes(), (out / "metrics.tsv").read_bytes()

        m1, j1, t1 = run(tmp_path / "a")
        m2, j2, t2 = run(tmp_path / "b")
        assert m1 == m2
        assert j1 == j2
        assert t1 == t2
