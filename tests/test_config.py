import re
from pathlib import Path

import pytest

from crossfuse.config import ConfigError, RunConfig, _keys, load_config


def test_defaults_match_best_reported_settings():
    cfg = RunConfig()
    assert cfg.train.eta1 == 0.001
    assert cfg.graph.epsilon_user == 0.3
    assert cfg.graph.epsilon_item == 0.3
    assert cfg.fusion.lambda1 == 0.05
    assert cfg.fusion.lambda2 == 0.001
    assert cfg.train.epochs == 200
    assert cfg.backbone.dim == 64
    assert cfg.backbone.num_layers == 3


def test_every_field_has_a_default():
    cfg = RunConfig()
    for name, value in cfg.snapshot().items():
        assert value is not None or name in ("interactions", "user_attributes",
                                             "item_attributes", "rating_column",
                                             "delimiter", "patience")


def test_load(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[train]\nepochs = 7\nseed = 3\n[fusion]\nlambda1 = 0.5\n",
                    encoding="utf-8")
    cfg = load_config(path)
    assert cfg.train.epochs == 7
    assert cfg.train.seed == 3
    assert cfg.fusion.lambda1 == 0.5


def test_unknown_key_rejected_by_name(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[train]\nwarmup = 5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="warmup"):
        load_config(path)


def test_timestamp_column_rejected_by_name(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[data]\ntimestamp_column = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="timestamp_column"):
        load_config(path)


@pytest.mark.parametrize("section, line, key", [
    ("train", "optimizer = adam", "optimizer"),
    ("graph", "max_neighbors = 3", "max_neighbors"),
    ("auxnet", "bn_momentum = 0.1", "bn_momentum"),
    ("auxnet", "bn_eps = 1e-05", "bn_eps")])
def test_removed_keys_rejected_by_name(tmp_path, section, line, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"unknown config key \[{section}\] {key}$"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[clustering]\nk = 5\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_value_reports_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[train]\nepochs = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="epochs"):
        load_config(path)


@pytest.mark.parametrize("section, line, message", [
    ("train", "epochs = 0", "epochs"),
    ("backbone", "dim = 0", "dim"),
    ("fusion", "graph_loss = hinge", "graph_loss"),
    ("eval", "kl_categories = 0", "kl_categories"),
    ("eval", "kl_categories = -2", "kl_categories"),
    ("auxnet", "gcn_layers = -1", "gcn_layers"),
    ("auxnet", "hidden = 0", "hidden"),
    ("auxnet", "hidden = -5", "hidden"),
    ("data", "user_column = -1", "user_column"),
    ("train", "patience = -3", "patience"),
    ("train", "seed = -1", "seed"),
    ("train", "eta2 = 0", "eta2"),
    ("graph", "epsilon_item = 1.5", "epsilon_item"),
    ("data", "train_ratio = nan", "train_ratio"),
    ("data", "test_ratio = inf", "test_ratio"),
    ("train", "eta2 = nan", "eta2"),
    ("train", "eta2 = inf", "eta2"),
    ("backbone", "lambda_reg = nan", "lambda_reg"),
    ("backbone", "lambda_reg = inf", "lambda_reg"),
    ("fusion", "lambda1 = -inf", "lambda1")])
def test_values_the_sub_configs_reject_are_config_errors(tmp_path, section, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_readme_config_table_lists_every_key_and_default():
    """Each section's row of the README table names exactly its keys, with
    the default that ``RunConfig`` declares."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        match = re.match(r"\| `\[(\w+)\]` \| `[\w.]+` \| (.*) \|$", line)
        if match:
            rows[match[1]] = dict(pair.split(" = ", 1)
                                  for pair in re.findall(r"`([^`]+ = [^`]+)`", match[2]))

    def text(value):
        if isinstance(value, list):
            return ", ".join(str(v) for v in value)
        return "none" if value is None else str(value)

    sections = RunConfig().sections()
    assert list(rows) == list(sections)
    expected = {name: {key: text(getattr(section, f.name)) for key, f in _keys(section).items()}
                for name, section in sections.items()}
    assert rows == expected
    assert sum(map(len, rows.values())) == len(RunConfig().snapshot()) == 31


def test_keys_land_on_their_section_fields(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[backbone]\nlayers = 2\n[auxnet]\ngcn_layers = 3\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.backbone.num_layers == 2
    assert cfg.auxnet.gcn_layers == 3


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.cfg")


def test_sub_config_extraction():
    cfg = RunConfig()
    assert cfg.train.epochs == 200
    assert cfg.backbone.num_layers == 3
    assert cfg.fusion.variant == "cross"


def test_optional_values_parse(tmp_path):
    path = tmp_path / "opt.cfg"
    path.write_text("[data]\nrating_column = none\n[train]\npatience = none\n"
                    "[eval]\ntopn = 5, 10, 20\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.data.rating_column is None
    assert cfg.train.patience is None
    assert cfg.eval.topn == [5, 10, 20]
