import json
import shutil

import numpy as np
import pytest

from crossfuse import synthetic
from crossfuse.cli import main
from crossfuse.trainer import Checkpoint, load_checkpoint, save_checkpoint


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


class TestPipeline:
    def test_prepare(self, workspace):
        assert main(["prepare", "--config", str(workspace["config"])]) == 0
        out = workspace["out"]
        for name in ("dataset.npz", "user_remap.tsv", "item_remap.tsv",
                     "adjacency.graph", "user_sim.graph", "item_sim.graph",
                     "user_attr.mat", "item_attr.mat", "build_report.txt",
                     "manifest_prepare.json"):
            assert (out / name).exists(), name

    def test_train_before_train_aux_is_ordering_error(self, workspace):
        assert (workspace["out"] / "dataset.npz").exists()
        assert not (workspace["out"] / "aux_users.mat").exists()
        assert main(["train", "--config", str(workspace["config"])]) == 3

    def test_train_aux(self, workspace):
        assert main(["train-aux", "--config", str(workspace["config"])]) == 0
        out = workspace["out"]
        assert (out / "aux_users.mat").exists()
        assert (out / "aux_items.mat").exists()
        assert (out / "aux_state.ckpt").exists()
        assert (out / "train_log.tsv").exists()

    def test_train(self, workspace):
        assert main(["train", "--config", str(workspace["config"])]) == 0
        ckpt = load_checkpoint(workspace["out"] / "model.ckpt")
        assert "last.table" in ckpt.tensors
        assert "aux_users" in ckpt.tensors
        assert ckpt.meta["epoch"] == 3

    def test_evaluate(self, workspace):
        assert main(["evaluate", "--config", str(workspace["config"]), "--kl"]) == 0
        out = workspace["out"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["users_evaluated"] > 0
        for metric in ("precision", "recall", "f1", "mrr", "ndcg"):
            assert metric in metrics["metrics"]
        kl = json.loads((out / "kl.json").read_text())
        assert kl["kl"] >= 0.0

    def test_evaluate_scores_the_best_validation_table(self, workspace, tmp_path):
        out, cfg = workspace["out"], str(workspace["config"])
        ckpt = load_checkpoint(out / "model.ckpt")
        assert np.isfinite(ckpt.meta["best_metric"])
        assert not np.array_equal(ckpt.tensors["last.table"], ckpt.tensors["best.table"])
        best_only = tmp_path / "best_only.ckpt"
        save_checkpoint(best_only, Checkpoint(ckpt.meta, {
            **ckpt.tensors, "last.table": ckpt.tensors["best.table"]}))
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(best_only)]) == 0
        expect = json.loads((out / "metrics.json").read_text())
        assert main(["evaluate", "--config", cfg]) == 0
        assert json.loads((out / "metrics.json").read_text()) == expect

    @pytest.mark.parametrize("old, new", [
        ("[backbone]\ndim = 8\nlayers = 1\n", "[backbone]\ndim = 8\nlayers = 3\n"),
        ("[fusion]\n", "[fusion]\nvariant = concat\n"),
    ], ids=["layers", "variant"])
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

    def test_manifest_contents(self, workspace):
        doc = json.loads((workspace["out"] / "manifest_train.json").read_text())
        assert doc["command"] == "train"
        assert doc["seed"] == 1
        assert doc["config"]["epochs"] == 3
        assert doc["inputs"]  # config checksum at minimum
        assert all(len(v) == 64 for v in doc["inputs"].values())

    def test_ablate(self, workspace):
        assert main(["ablate", "--config", str(workspace["config"])]) == 0
        table = (workspace["out"] / "ablation.tsv").read_text().splitlines()
        assert table[0].startswith("variant")
        variants = [line.split("\t")[0] for line in table[1:]]
        assert variants == ["cross", "concat", "plain-sum", "weighted-sum", "none"]


class TestExternalInterfaces:
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
        ckpt = load_checkpoint(out / "model.ckpt")
        assert np.array_equal(ckpt.tensors["aux_users"], load_dense_matrix(ext_u))

    def test_output_dir_env_override(self, workspace, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("CROSSFUSE_OUTPUT_DIR", str(override))
        assert main(["prepare", "--config", str(workspace["config"])]) == 0
        assert (override / "dataset.npz").exists()

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
        ("train", "[train]\n", "[train]\noptimizer = lbfgs\n"),
        ("train-aux", "[train]\n", "[train]\noptimizer = lbfgs\n"),
        ("prepare", "[graph]\n", "[graph]\nsimilarity = bogus\n"),
        ("prepare", "epsilon_user = 0.2", "epsilon_user = 2"),
        ("prepare", "[data]\n", "[data]\ntrain_ratio = 0.92\n"),
        ("evaluate", "topn = 5, 10", "topn = 0"),
    ], ids=["optimizer-train", "optimizer-train-aux", "similarity", "epsilon", "ratios",
            "topn"])
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
    ])
    def test_damaged_artifact_is_data_error(self, workspace, tmp_path, monkeypatch, capsys,
                                            command, name, damage):
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out)
        monkeypatch.setenv("CROSSFUSE_OUTPUT_DIR", str(out))
        path = out / name
        if damage == "stage-1-checkpoint":
            shutil.copyfile(out / "aux_state.ckpt", path)
        elif damage == "no-trained-config":
            ckpt = load_checkpoint(path)
            save_checkpoint(path, Checkpoint({**ckpt.meta, "config": {}}, ckpt.tensors))
        else:
            raw = bytearray(path.read_bytes())
            if damage == "flip-byte":
                raw[-12] ^= 0xFF
            elif damage == "bump-version":
                raw[4] = 99
            else:
                del raw[-8:]
            path.write_bytes(bytes(raw))
        assert main([command, "--config", str(workspace["config"])]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    def test_missing_data_file_is_data_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[paths]\ninteractions = {tmp_path}/absent.tsv\n"
                       f"output_dir = {tmp_path}/out\n", encoding="utf-8")
        assert main(["prepare", "--config", str(cfg)]) == 3

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
        assert out.count("PASS") == 13
        assert "all 13 gradient checks passed" in out

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
