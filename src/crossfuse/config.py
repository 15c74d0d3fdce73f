"""Run configuration: a sectioned key = value file with documented defaults.

Each ``[section]`` is the config dataclass of the stage that reads it; each
key is one of its fields, parsed by the field's annotation.  A field's
``metadata["key"]`` renames its key, or makes it no key when None.  The
format is plain text so configs diff cleanly.  Unknown sections or keys are
rejected by name, bad values by the section's ``validate``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

from .auxnet import AuxnetConfig
from .backbone import BackboneConfig
from .data import DataConfig
from .evaluate import EvalConfig
from .fusion import FusionConfig
from .graph import GraphConfig
from .trainer import TrainConfig


class ConfigError(Exception):
    """Bad key, bad value, or missing required entry in a run config."""


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def _optional(parse):
    return lambda text: None if text.strip().lower() in ("", "none") else parse(text.strip())


# field annotation -> parser of the key's text
PARSERS = {
    "int": int,
    "float": _parse_float,
    "str": str,
    "int | None": _optional(int),
    "str | None": _optional(str),
    "list[int]": _parse_int_list,
}


@dataclass
class PathsConfig:
    """Input files and the output directory every command writes to."""

    interactions: str | None = None
    user_attributes: str | None = None
    item_attributes: str | None = None
    output_dir: str = "out"

    def validate(self) -> None:
        """Any paths load; each command checks the files it reads."""


@dataclass
class RunConfig:
    """Everything one end-to-end run needs: one field per config section.

    Defaults follow the best reported settings for the shipped backbone
    (eta1 = 0.001, epsilon_user = epsilon_item = 0.3, lambda1 = 0.05,
    lambda2 = 0.001).
    """

    paths: PathsConfig = field(default_factory=PathsConfig)
    data: DataConfig = field(default_factory=DataConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    auxnet: AuxnetConfig = field(default_factory=AuxnetConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def sections(self) -> dict:
        """Section name -> that section's config dataclass, in file order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def snapshot(self) -> dict:
        """Every key and its value, flat, as manifests and checkpoints record them."""
        return {key: getattr(section, f.name)
                for section in self.sections().values()
                for key, f in _keys(section).items()}


def _keys(section) -> dict[str, Field]:
    """A section's config keys -> the fields that hold them."""
    return {key: f for f in fields(section)
            if (key := f.metadata.get("key", f.name)) is not None}


def load_config(path: str | Path) -> RunConfig:
    """Parse a sectioned key = value file; unknown keys and values the code
    that uses them rejects are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    cfg = RunConfig()
    sections = cfg.sections()
    for name in parser.sections():
        section = sections.get(name)
        keys = _keys(section) if section is not None else {}
        for key, raw in parser.items(name):
            if key not in keys:
                raise ConfigError(f"{path}: unknown config key [{name}] {key}")
            f = keys[key]
            try:
                setattr(section, f.name, PARSERS[f.type](raw))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}: bad value for [{name}] {key}: {raw!r} ({exc})") from exc
    try:
        for section in sections.values():
            section.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg

