"""Run configuration: a sectioned key = value file with documented defaults.

The format is deliberately plain text so configs diff cleanly; parsing uses
only the standard library.  Unknown sections or keys are rejected by name.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path

from .backbone import BackboneConfig
from .data import check_split_ratios
from .evaluate import check_kl_categories, check_topn
from .fusion import FusionConfig
from .graph import check_similarity
from .trainer import TrainConfig


class ConfigError(Exception):
    """Bad key, bad value, or missing required entry in a run config."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def _opt_str(text: str):
    return None if text.strip().lower() in ("", "none") else text.strip()


def _opt_int(text: str):
    return None if text.strip().lower() in ("", "none") else int(text)


# (section, key) -> (attribute, parser)
SCHEMA: dict[tuple[str, str], tuple[str, object]] = {
    ("paths", "interactions"): ("interactions", _opt_str),
    ("paths", "user_attributes"): ("user_attributes", _opt_str),
    ("paths", "item_attributes"): ("item_attributes", _opt_str),
    ("paths", "output_dir"): ("output_dir", str),
    ("data", "user_column"): ("user_column", int),
    ("data", "item_column"): ("item_column", int),
    ("data", "rating_column"): ("rating_column", _opt_int),
    ("data", "delimiter"): ("delimiter", _opt_str),
    ("data", "train_ratio"): ("train_ratio", float),
    ("data", "validation_ratio"): ("validation_ratio", float),
    ("data", "test_ratio"): ("test_ratio", float),
    ("graph", "epsilon_user"): ("epsilon_user", float),
    ("graph", "epsilon_item"): ("epsilon_item", float),
    ("graph", "similarity"): ("similarity", str),
    ("graph", "max_neighbors"): ("max_neighbors", _opt_int),
    ("backbone", "dim"): ("dim", int),
    ("backbone", "layers"): ("layers", int),
    ("backbone", "lambda_reg"): ("lambda_reg", float),
    ("auxnet", "hidden"): ("hidden", _parse_int_list),
    ("auxnet", "gcn_layers"): ("gcn_layers", int),
    ("auxnet", "bn_momentum"): ("bn_momentum", float),
    ("auxnet", "bn_eps"): ("bn_eps", float),
    ("fusion", "variant"): ("variant", str),
    ("fusion", "lambda1"): ("lambda1", float),
    ("fusion", "lambda2"): ("lambda2", float),
    ("fusion", "graph_loss"): ("graph_loss", str),
    ("fusion", "include_negatives"): ("include_negatives", _parse_bool),
    ("train", "eta1"): ("eta1", float),
    ("train", "eta2"): ("eta2", float),
    ("train", "epochs"): ("epochs", int),
    ("train", "batch_size"): ("batch_size", int),
    ("train", "optimizer"): ("optimizer", str),
    ("train", "patience"): ("patience", _opt_int),
    ("train", "seed"): ("seed", int),
    ("eval", "topn"): ("topn", _parse_int_list),
    ("eval", "kl_categories"): ("kl_categories", int),
}


@dataclass
class RunConfig:
    """Everything one end-to-end run needs; every field has a default.

    Defaults follow the best reported settings for the shipped backbone
    (eta1 = 0.001, epsilon_user = epsilon_item = 0.3, lambda1 = 0.05,
    lambda2 = 0.001).
    """

    # paths
    interactions: str | None = None
    user_attributes: str | None = None
    item_attributes: str | None = None
    output_dir: str = "out"
    # data
    user_column: int = 0
    item_column: int = 1
    rating_column: int | None = 2
    delimiter: str | None = None
    train_ratio: float = 0.72
    validation_ratio: float = 0.08
    test_ratio: float = 0.20
    # graph
    epsilon_user: float = 0.3
    epsilon_item: float = 0.3
    similarity: str = "cosine"
    max_neighbors: int | None = None
    # backbone
    dim: int = 64
    layers: int = 3
    lambda_reg: float = 1e-4
    # auxnet
    hidden: list[int] | None = None
    gcn_layers: int = 2
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5
    # fusion
    variant: str = "cross"
    lambda1: float = 0.05
    lambda2: float = 0.001
    graph_loss: str = "bpr"
    include_negatives: bool = False
    # train
    eta1: float = 0.001
    eta2: float = 0.001
    epochs: int = 200
    batch_size: int = 1024
    optimizer: str = "adam"
    patience: int | None = 20
    seed: int = 0
    # eval
    topn: list[int] | None = None
    kl_categories: int = 6

    def __post_init__(self):
        if self.hidden is None:
            self.hidden = [256]
        if self.topn is None:
            self.topn = [5, 10]

    def snapshot(self) -> dict:
        out = {}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out

    def train_config(self) -> TrainConfig:
        return TrainConfig(eta1=self.eta1, eta2=self.eta2, epochs=self.epochs,
                           batch_size=self.batch_size, optimizer=self.optimizer,
                           patience=self.patience, seed=self.seed)

    def backbone_config(self) -> BackboneConfig:
        return BackboneConfig(dim=self.dim, num_layers=self.layers,
                              lambda_reg=self.lambda_reg)

    def fusion_config(self) -> FusionConfig:
        return FusionConfig(variant=self.variant, lambda1=self.lambda1,
                            lambda2=self.lambda2, graph_loss=self.graph_loss,
                            include_negatives=self.include_negatives)


def load_config(path: str | Path) -> RunConfig:
    """Parse a sectioned key = value file; unknown keys and values the code
    that uses them rejects are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    cfg = RunConfig()
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) not in SCHEMA:
                raise ConfigError(f"{path}: unknown config key [{section}] {key}")
            attr, parse = SCHEMA[(section, key)]
            try:
                setattr(cfg, attr, parse(raw))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {raw!r} ({exc})") from exc
    try:
        cfg.backbone_config().validate()
        cfg.train_config().validate()
        cfg.fusion_config().validate()
        check_split_ratios((cfg.train_ratio, cfg.validation_ratio, cfg.test_ratio))
        check_similarity(cfg.epsilon_user, cfg.similarity)
        check_similarity(cfg.epsilon_item, cfg.similarity)
        check_topn(cfg.topn)
        check_kl_categories(cfg.kl_categories)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def write_config(cfg: RunConfig, path: str | Path) -> None:
    """Emit a full config file with every key stated explicitly."""
    by_section: dict[str, list[tuple[str, str]]] = {}
    for (section, key), (attr, _) in SCHEMA.items():
        value = getattr(cfg, attr)
        if isinstance(value, list):
            text = ", ".join(str(v) for v in value)
        elif value is None:
            text = "none"
        else:
            text = str(value)
        by_section.setdefault(section, []).append((key, text))
    with open(path, "w", encoding="utf-8") as fh:
        for section in ("paths", "data", "graph", "backbone", "auxnet", "fusion", "train", "eval"):
            fh.write(f"[{section}]\n")
            for key, text in sorted(by_section.get(section, [])):
                fh.write(f"{key} = {text}\n")
            fh.write("\n")
