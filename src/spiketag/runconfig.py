"""Flat key=value run configuration: file values, overridden by CLI flags.

A run is a NetworkConfig, a TrainConfig and six run keys of its own. Every
field of the two is a config key under its own name, except
TrainConfig.learning_rate, whose key is `lr` (checkpoint headers keep the
field name). Unknown keys are rejected. The command line gathers every key's
value (default, file, flag) into one dict and echoes it at startup, one sorted
key=value line each, so every run is auditable; build then makes the frozen
RunConfig, whose making checks each key against the domain its field declares
(in_domain).
"""

from contextlib import suppress
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .data import CORPUS_MODES
from .errors import ConfigError
from .layers import NetworkConfig, at_least, check_domains, in_domain, one_of
from .training import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    # paths
    data: str = in_domain("", "a path")
    embeddings: str = in_domain("", "a path")
    ckpt: str = in_domain("", "a path")
    out: str = in_domain("", "a path")
    # data handling
    corpus_mode: str = one_of("strict", CORPUS_MODES)
    val_size: int = at_least(150, 0)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    __post_init__ = check_domains


_KEY_OF_FIELD = {"learning_rate": "lr"}


def _key_table():
    """config key -> (section attribute of RunConfig, or None for a run key; field)."""
    table = {}
    for f in fields(RunConfig):
        if is_dataclass(f.type):
            for g in fields(f.type):
                table[_KEY_OF_FIELD.get(g.name, g.name)] = (f.name, g)
        else:
            table[f.name] = (None, f)
    return table


KEYS = _key_table()


def parse(key, raw):
    """`raw` as key's field type, or left a string, which the domain check refuses."""
    with suppress(ValueError):
        return KEYS[key][1].type(raw)
    return raw


def load_config_file(path):
    """key -> value of a key=value file; blank lines and '#' comments are ignored."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = parse(key, raw.strip())
    return values


def build(values):
    """The RunConfig of `values` (config key -> value; a key left out keeps its default),
    checked run keys first, then the network section, then the train section."""
    sections = {None: {}, "network": {}, "train": {}}
    for key, value in values.items():
        section, f = KEYS[key]
        sections[section][f.name] = value
    return replace(RunConfig(**sections[None]),
                   network=NetworkConfig(**sections["network"]),
                   train=TrainConfig(**sections["train"]))
