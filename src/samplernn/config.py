"""Run configuration: the one owner of the `model.*`/`train.*` key=value text.

Config files hold one `key = value` per line with `#` comments; unknown keys
are hard errors. The `train` command's flags reach `build_run_config` as text
and go through the same parser. `RunConfig.echo_lines` writes both the metrics
log header and the checkpoint header, and `parse_run_config` reads a
checkpoint's config back, requiring every key. A resume refuses a changed
`model.*` key and a changed `train.*` key outside RESUMABLE_KEYS.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .audio import open_text
from .errors import ConfigError, ContractError
from .model import ModelConfig


@dataclass
class TrainConfig:
    batch_size: int = 128
    tbptt_len: int = 512
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0
    max_iterations: int = 2000
    checkpoint_every: int = 500
    validate_every: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.tbptt_len < 1:
            raise ContractError(f"tbptt_len must be >= 1, got {self.tbptt_len}")
        # comparisons that NaN fails, so a NaN is refused with the rest
        for name in ("lr", "eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ContractError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ContractError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0 <= self.clip_norm < math.inf:
            raise ContractError(f"clip_norm must be finite and >= 0, got {self.clip_norm}")
        if self.max_iterations < 1:  # a run that takes no step leaves no checkpoint
            raise ContractError(f"max_iterations must be >= 1, got {self.max_iterations}")
        for name in ("checkpoint_every", "validate_every", "seed"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be >= 0, got {getattr(self, name)}")


_SECTIONS = {
    "model": ModelConfig,
    "train": TrainConfig,
}


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig

    def values(self):
        """{key: value} for every key of KEY_TYPES, in its order."""
        return {
            f"{section}.{f.name}": getattr(getattr(self, section), f.name)
            for section, cls in _SECTIONS.items()
            for f in dataclasses.fields(cls)
        }

    def echo_lines(self):
        return [f"{key}={_format_value(v)}" for key, v in self.values().items()]


KEY_TYPES = {key: type(v) for key, v in RunConfig(ModelConfig(), TrainConfig()).values().items()}

# keys a resume may change: they set where the run stops and what it writes
# on the way, not the trajectory
RESUMABLE_KEYS = ("train.max_iterations", "train.checkpoint_every", "train.validate_every")

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


def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def load_config_file(path):
    """Parse a key=value file into {key: raw string}. Unknown keys error."""
    raw = {}
    with open_text(path, ConfigError) as fh:
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


def resume_changes(saved, wanted):
    """'key old -> new' for each key outside RESUMABLE_KEYS whose value differs."""
    old, new = saved.values(), wanted.values()
    return [
        f"{key} {_format_value(old[key])} -> {_format_value(new[key])}"
        for key in KEY_TYPES
        if key not in RESUMABLE_KEYS and old[key] != new[key]
    ]


def _typed_run_config(texts):
    kwargs = {section: {} for section in _SECTIONS}
    for key, text in texts.items():
        section, _, name = key.partition(".")
        kwargs[section][name] = parse_value(key, text)
    return RunConfig(ModelConfig(**kwargs["model"]), TrainConfig(**kwargs["train"]))


def parse_run_config(mapping):
    """RunConfig from {key: text} holding every key of KEY_TYPES, as
    echo_lines writes them (a checkpoint header). Other keys are ignored."""
    missing = [key for key in KEY_TYPES if key not in mapping]
    if missing:
        raise ConfigError(f"missing config key(s) {', '.join(missing)}")
    return _typed_run_config({key: mapping[key] for key in KEY_TYPES})


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
        merged[key] = _format_value(value)
    return _typed_run_config(merged)
