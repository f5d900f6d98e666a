"""Flat key-value config files with one section per concern.

INI syntax via configparser; every key is validated against a fixed schema
and unknown sections or keys are hard errors. `SCHEMA` is the one settings
table: each key's parser reads both its config value and its CLI flag, and
its default is the only one. `resolve` gives a key's value: CLI flag, then
config file, then default.
"""

from __future__ import annotations

import configparser
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .errors import ConfigError


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# argparse names the parser in its errors ("invalid int_list value: '1,x'")
def count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"not a count: {text!r}")
    return value


def int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


class Setting(NamedTuple):
    parse: Callable[[str], Any]
    default: Any


SCHEMA: dict[str, dict[str, Setting]] = {
    "data": {
        "kind": Setting(str, "correlated_phrases"),
        "num_positions": Setting(int, 2),
        "num_categories": Setting(int, 2),
        "correlation_strength": Setting(float, 0.9),
        "seed": Setting(count, 0),
    },
    "schedule": {
        "family": Setting(str, "linear"),
        "steps": Setting(int, 2),
        "epsilon": Setting(float, 1e-3),
        "chunk_size": Setting(int, 1),
    },
    "sampler": {
        "mode": Setting(str, "dcd"),
        "beta": Setting(float, 1.0),
        "num_samples": Setting(count, 1),
        "seed": Setting(count, 0),
    },
    "fit": {
        "smoothing": Setting(float, 1.0),
    },
    "sweep": {
        "modes": Setting(str_list, ("dcd", "diffusion_only")),
        "steps_list": Setting(int_list, (1, 2, 4)),
        "beta_list": Setting(float_list, (1.0,)),
        "emit_timings": Setting(_parse_bool, False),
    },
}


def load_config(path: str | Path) -> dict[str, dict[str, Any]]:
    """Parse and validate a config file into {section: {key: value}}."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, dict[str, Any]] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        out[section] = {}
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                out[section][key] = SCHEMA[section][key].parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return out


def resolve(cfg: dict[str, dict[str, Any]], section: str, key: str, flag: Any) -> Any:
    """The value of [section] key: `flag` unless it is None, else the config
    file's value, else the SCHEMA default."""
    if flag is not None:
        return flag
    return cfg.get(section, {}).get(key, SCHEMA[section][key].default)
