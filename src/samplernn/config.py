"""Run configuration: key=value files, presets, and override merging.

Config files are plain text, one `key = value` per line, `#` comments, with
keys namespaced model.* and train.*. Unknown keys are hard errors; every
effective value can be echoed into the metrics log header so a run is
reproducible from its log alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig

_SECTIONS = {
    "model": ModelConfig,
    "train": TrainConfig,
}


def _known_keys():
    keys = {}
    for section, cls in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            keys[f"{section}.{f.name}"] = type(f.default)
    return keys


KEY_TYPES = _known_keys()

PRESETS = {
    # the architecture scale the headline runs used
    "paper": {
        "model.n_layers": "5",
        "model.cell": "lstm",
        "model.hidden_dim": "1024",
        "model.embed_size": "256",
        "model.q_levels": "256",
        "model.frame_size": "16",
        "model.h0_mode": "randomized",
        "train.batch_size": "128",
        "train.tbptt_len": "512",
        "train.max_iterations": "50000",
        "train.checkpoint_every": "1000",
        "train.validate_every": "250",
    },
    # smallest configuration that passes the sine acceptance run on CPU
    "desk": {
        "model.n_layers": "1",
        "model.cell": "lstm",
        "model.hidden_dim": "64",
        "model.embed_size": "16",
        "model.q_levels": "256",
        "model.frame_size": "4",
        "model.h0_mode": "learned",
        "train.batch_size": "8",
        "train.tbptt_len": "256",
        "train.lr": "0.002",
        "train.max_iterations": "2000",
        "train.checkpoint_every": "1000",
        "train.validate_every": "100",
    },
}


def parse_value(key, text):
    if key not in KEY_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = KEY_TYPES[key]
    text = text.strip()
    try:
        if kind is bool:
            if text not in ("true", "false"):
                raise ValueError("expected true or false")
            return text == "true"
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc


def load_config_file(path):
    """Parse a key=value file into {key: raw string}. Unknown keys error."""
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line.rstrip()!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in KEY_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            raw[key] = value.strip()
    return raw


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig

    def echo_lines(self):
        lines = []
        for section, cls in _SECTIONS.items():
            obj = getattr(self, section)
            for f in dataclasses.fields(cls):
                v = getattr(obj, f.name)
                if isinstance(v, bool):
                    v = "true" if v else "false"
                lines.append(f"{section}.{f.name}={v}")
        return lines


def build_run_config(preset=None, config_file=None, overrides=None):
    """Merge defaults < preset < config file < explicit overrides."""
    merged = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have: {', '.join(PRESETS)})")
        merged.update(PRESETS[preset])
    if config_file is not None:
        merged.update(load_config_file(config_file))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        merged[key] = str(value)

    kwargs = {section: {} for section in _SECTIONS}
    for key, text in merged.items():
        section, _, name = key.partition(".")
        kwargs[section][name] = parse_value(key, text)
    return RunConfig(ModelConfig(**kwargs["model"]), TrainConfig(**kwargs["train"]))
