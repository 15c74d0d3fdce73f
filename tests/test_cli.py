import json
import shutil
import struct
import zipfile

import numpy as np
import pytest

from conftest import old_graph_bytes
from crossfuse import cli, store, synthetic
from crossfuse.cli import main
from crossfuse.data import TEST, TRAIN, DataError, InteractionDataset
from crossfuse.evaluate import category_kl
from crossfuse.graph import load_graph
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
    return {"config": cfg, "out": out}


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


def _config_at(workspace, out, tmp_path) -> str:
    """A copy of the workspace config whose output_dir is ``out``."""
    cfg = tmp_path / "copy.cfg"
    cfg.write_text(workspace["config"].read_text().replace(
        f"output_dir = {workspace['out']}", f"output_dir = {out}"), encoding="utf-8")
    return str(cfg)


class TestPipeline:
    def test_prepare(self, workspace):
        assert main(["prepare", "--config", str(workspace["config"])]) == 0
        out = workspace["out"]
        for name in ("dataset.npz", "user_remap.tsv", "item_remap.tsv",
                     "adjacency.graph", "user_sim.graph", "item_sim.graph",
                     "user_attr.mat", "item_attr.mat", "build_report.txt",
                     "manifest_prepare.json"):
            assert (out / name).exists(), name

    @pytest.mark.usefixtures("prepared")
    def test_train_before_train_aux_is_ordering_error(self, workspace, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out, ignore=shutil.ignore_patterns("aux_*.mat"))
        cfg = _config_at(workspace, out, tmp_path)
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
        assert "aux_users" in ckpt.arrays
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
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out)
        cfg = _config_at(workspace, out, tmp_path)
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
        """Precomputed dense matrices can stand in for the stage-1 products."""
        import numpy as np
        from crossfuse.auxnet import load_dense_matrix, save_dense_matrix

        out = workspace["out"]
        z = np.load(out / "dataset.npz")
        n, m = int(z["n"][0]), int(z["m"][0])
        rng = np.random.default_rng(0)
        ext_u = tmp_path / "external_users.mat"
        ext_v = tmp_path / "external_items.mat"
        save_dense_matrix(ext_u, rng.normal(size=(n, 8)))
        save_dense_matrix(ext_v, rng.normal(size=(m, 8)))
        assert main(["train", "--config", str(workspace["config"]),
                     "--aux-users", str(ext_u), "--aux-items", str(ext_v)]) == 0
        ckpt = store.load(out / "model.ckpt", "checkpoint")
        assert np.array_equal(ckpt.arrays["aux_users"], load_dense_matrix(ext_u))

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
        ("train-aux", "[auxnet]\n", "[auxnet]\nbn_eps = inf\n"),
    ], ids=["optimizer-train", "optimizer-train-aux", "max-neighbors", "seed-prepare",
            "seed-train-aux", "seed-train", "seed-ablate", "similarity", "epsilon", "ratios",
            "topn", "kl-categories-0", "kl-categories-negative", "train-ratio-nan",
            "eta2-nan", "eta2-inf", "lambda-reg-nan", "lambda-reg-inf", "bn-eps-inf"])
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
    ])
    @pytest.mark.usefixtures("trained")
    def test_damaged_artifact_is_data_error(self, workspace, tmp_path, capsys, command, name,
                                            damage):
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out)
        cfg = _config_at(workspace, out, tmp_path)
        path = out / name
        if damage == "stage-1-checkpoint":
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
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("part, key", [
        ("meta", "epoch"), ("meta", "best_metric"), ("meta", "stale_epochs"), ("meta", "opt"),
        ("meta", "rng_state"), ("arrays", "last.table"), ("arrays", "best.table")])
    @pytest.mark.usefixtures("trained")
    def test_incomplete_checkpoint_is_data_error(self, workspace, tmp_path, capsys, part,
                                                 key):
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out)
        cfg = _config_at(workspace, out, tmp_path)
        path = out / "model.ckpt"
        ckpt = store.load(path, "checkpoint")
        del getattr(ckpt, part)[key]
        store.save(path, ckpt)
        assert main(["evaluate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: incomplete stage-2 checkpoint (KeyError: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, name", [("train", "adjacency.graph"),
                                               ("train-aux", "user_sim.graph")])
    @pytest.mark.parametrize("region", ["magic", "version", "count", "meta-head", "meta",
                                        "data", "indices", "indptr", "trailer"])
    @pytest.mark.usefixtures("trained")
    def test_flipped_bit_in_graph_file_is_data_error(self, workspace, tmp_path, capsys,
                                                     command, name, region):
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out)
        cfg = _config_at(workspace, out, tmp_path)
        path = out / name
        raw = bytearray(path.read_bytes())
        lo, hi = _store_regions(raw)[region]
        raw[(lo + hi) // 2] ^= 0x10
        path.write_bytes(bytes(raw))
        assert main([command, "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, name", [("train", "adjacency.graph"),
                                               ("train-aux", "user_sim.graph")])
    @pytest.mark.usefixtures("prepared")
    def test_old_format_graph_file_asks_for_prepare(self, workspace, tmp_path, capsys,
                                                    command, name):
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out)
        cfg = _config_at(workspace, out, tmp_path)
        path = out / name
        mat = load_graph(path)
        path.write_bytes(old_graph_bytes(mat.indptr, mat.indices, mat.data, mat.shape))
        assert main([command, "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "not a graph file" in err and "re-run `crossfuse prepare`" in err

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
        from crossfuse.auxnet import save_dense_matrix

        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out, ignore=shutil.ignore_patterns("model.ckpt"))
        cfg = _config_at(workspace, out, tmp_path)
        z = np.load(out / "dataset.npz")
        sizes = {"n": int(z["n"][0]), "m": int(z["m"][0])}
        sizes["n-1"] = sizes["n"] - 1
        rng = np.random.default_rng(0)
        paths = []
        for name, (rows, width) in (("u", users_shape), ("v", items_shape)):
            paths.append(tmp_path / f"{name}.mat")
            save_dense_matrix(paths[-1], rng.normal(size=(sizes[rows], width)))
        assert main(["train", "--config", cfg,
                     "--aux-users", str(paths[0]), "--aux-items", str(paths[1])]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert not (out / "model.ckpt").exists()

    @pytest.mark.usefixtures("trained")
    def test_unknown_category_field_is_config_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out, ignore=shutil.ignore_patterns("metrics.json"))
        cfg = _config_at(workspace, out, tmp_path)
        assert main(["evaluate", "--config", cfg, "--kl",
                     "--category-field", "bogus"]) == 2
        assert "unknown category field 'bogus'" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    @pytest.mark.usefixtures("trained")
    def test_non_finite_scores_are_numerical_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out, ignore=shutil.ignore_patterns("metrics.json"))
        cfg = _config_at(workspace, out, tmp_path)
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
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out)
        cfg = _config_at(workspace, out, tmp_path)
        assert main([command, "--config", cfg, flag, str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("variant", ["cross", "none"])
    @pytest.mark.usefixtures("trained")
    def test_missing_aux_users_file_is_data_error(self, workspace, tmp_path, capsys, variant):
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out)
        cfg = tmp_path / "variant.cfg"
        cfg.write_text(workspace["config"].read_text().replace(
            f"output_dir = {workspace['out']}", f"output_dir = {out}").replace(
            "[fusion]\n", f"[fusion]\nvariant = {variant}\n"), encoding="utf-8")
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

    def test_verify_gradients_fails_with_impossible_tolerance(self, capsys):
        assert main(["verify-gradients", "--seed", "7", "--exact-tol", "1e-18"]) == 4
        assert "FAIL" in capsys.readouterr().out


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
