"""Configuration dataclasses and the flat run-config file format.

A run config is a text file of ``key = value`` lines (``#`` starts a
comment). Every key is a field of the dataclasses below, which declares its
default, its help text and its domain once; unknown keys are a hard error so
typos cannot silently fall back to defaults. A file may hold any key. On the
command line each command takes as ``--key value`` only the keys of the
dataclasses it fills, and those overrides win over the file.

A field's domain is its annotated type within the bounds or choices its
``_key`` declares. ``validate`` refuses, and never coerces, a value outside
it; only the rules that span fields are written by hand.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import ConfigError

VARIANTS = ("full", "no_mmf", "no_tgcn", "concat_baseline")
FUSION_MODES = ("concat", "add")


def _key(default, help: str | None = None, key: str | None = None, *, at_least=None, above=None, at_most=None, choices=None):
    """A run-config field: default, help text, key where it differs from the field name, and domain (bounds or choices)."""
    spec = {"help": help, "key": key, "at_least": at_least, "above": above, "at_most": at_most, "choices": choices}
    return field(default=default, metadata={name: value for name, value in spec.items() if value is not None})


def _key_of(f) -> str:
    return f.metadata.get("key", f.name)


@functools.cache
def _fields_of(cls) -> tuple:
    """(field, annotated type) of each field of the dataclass ``cls``, in declaration order."""
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


# bound -> how a message says it, and the test a value must pass
_BOUNDS = {"at_least": (">=", operator.ge), "above": (">", operator.gt), "at_most": ("<=", operator.le)}
_NUMBERS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


def _check(f, kind, value) -> None:
    """A ConfigError naming the key of the scalar field ``f`` unless ``value`` lies in its domain."""
    m = f.metadata
    if kind is bool:
        ok, domain = isinstance(value, bool), "True or False"
    elif kind is str:
        ok, domain = isinstance(value, str) and value in m["choices"], f"one of {m['choices']}"
    else:
        bounds = [(op, holds, m[name]) for name, (op, holds) in _BOUNDS.items() if name in m]
        try:
            ok = isinstance(value, _NUMBERS[kind]) and not isinstance(value, bool) and (kind is int or math.isfinite(value))
        except OverflowError:  # an int beyond float's range
            ok = False
        ok = ok and all(holds(value, bound) for _, holds, bound in bounds)
        domain = f"{'an integer' if kind is int else 'a finite number'} " + " and ".join(f"{op} {bound}" for op, _, bound in bounds)
    if not ok:
        raise ConfigError(f"{_key_of(f)} must be {domain}, got {value!r}")


class _Domains:
    """A run-config dataclass whose fields declare their domains."""

    def validate(self):
        """self, unless a field lies outside its domain: then a ConfigError naming its key. Nested configs validate themselves."""
        for f, kind in _fields_of(type(self)):
            value = getattr(self, f.name)
            if is_dataclass(kind):
                value.validate()
            else:
                _check(f, kind, value)
        return self


@dataclass
class BackboneConfig(_Domains):
    """Shapes of the two feature branches and their shared output map."""

    input_size: int = _key(128, "square input image side in px", at_least=1)
    feature_size: int = _key(32, "heatmap side in px (input_size must be a power-of-two multiple)", at_least=1)
    channels: int = _key(32, "feature channels produced by each branch", at_least=1)
    unet_depth: int = _key(3, "number of encoder pooling steps in the local branch", at_least=1)
    patch_size: int = _key(8, "square patch side for the global branch", at_least=1)
    token_dim: int = _key(32, "embedding width of the global branch tokens", at_least=1)
    transformer_layers: int = _key(2, "encoder layers in the global branch", at_least=1)
    heads: int = _key(4, "attention heads per encoder layer", at_least=1)

    def validate(self) -> "BackboneConfig":
        super().validate()
        size, feature, channels, depth, patch, token_dim, heads = map(  # Python ints, which cannot wrap as numpy ints can
            int, (self.input_size, self.feature_size, self.channels, self.unet_depth, self.patch_size, self.token_dim, self.heads)
        )
        if size % patch:
            raise ConfigError(f"input_size {size} not divisible by patch_size {patch}")
        if depth >= size.bit_length():  # 2^unet_depth > input_size, and no huge shift below
            raise ConfigError(f"unet_depth {depth} too deep for input_size {size}")
        if size % (1 << depth):
            raise ConfigError(f"input_size {size} not divisible by 2^unet_depth ({1 << depth})")
        if size % feature:
            raise ConfigError(f"input_size {size} not divisible by feature_size {feature}")
        upscale = size // feature
        if upscale & (upscale - 1):
            raise ConfigError(f"input_size/feature_size must be a power of two, got {upscale}")
        n_up = depth - upscale.bit_length() + 1
        if n_up < 0:
            raise ConfigError(f"unet_depth {depth} too shallow for feature_size {feature} from input_size {size}")
        if channels % (1 << (depth - n_up)):
            raise ConfigError(f"channels {channels} not divisible by 2^(encoder levels above feature scale) = {1 << (depth - n_up)}")
        grid = size // patch
        if feature % grid:
            raise ConfigError(f"feature_size {feature} not an integer upscale of token grid {grid}")
        up = feature // grid
        if up & (up - 1):
            raise ConfigError(f"token grid to feature upscale must be a power of two, got {up}")
        if token_dim % heads:
            raise ConfigError(f"token_dim {token_dim} not divisible by heads {heads}")
        return self

    @property
    def upscale(self) -> int:
        return int(self.input_size) // int(self.feature_size)


@dataclass
class FusionConfig(_Domains):
    window: int = _key(3, "odd neighborhood side for mutual modulation fusion", key="mmf_window", at_least=1)
    mode: str = _key("concat", "combine modulated maps by 'concat' or 'add'", key="fusion_mode", choices=FUSION_MODES)

    def validate(self) -> "FusionConfig":
        super().validate()
        if self.window % 2 == 0:
            raise ConfigError(f"mmf_window must be odd, got {self.window}")
        return self


@dataclass
class GraphConfig(_Domains):
    layers: int = _key(2, "graph refinement layers", key="gcn_layers", at_least=1)
    hidden: int = _key(64, "middle width of the classification head", key="gcn_hidden", at_least=1)


@dataclass
class ModelConfig(_Domains):
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    variant: str = _key("full", "model variant: full, no_mmf, no_tgcn or concat_baseline", choices=VARIANTS)
    graph: GraphConfig = field(default_factory=GraphConfig)

    @property
    def uses_mmf(self) -> bool:
        return self.variant in ("full", "no_tgcn")

    @property
    def uses_tgcn(self) -> bool:
        return self.variant in ("full", "no_mmf")


@dataclass
class TrainConfig(_Domains):
    lr: float = _key(1e-4, "Adam learning rate", at_least=0)
    epochs: int = _key(100, "training epochs", at_least=1)
    batch_size: int = _key(2, "samples per optimizer step", at_least=1)
    lam: float = _key(0.1, "weight of the classification loss", key="lambda", at_least=0)
    sigma: float = _key(2.0, "ground-truth heatmap stddev in heatmap px", above=0)
    hflip_prob: float = _key(0.5, "probability of horizontal flip per sample per epoch", at_least=0, at_most=1)
    seed: int = _key(0, "master seed for init, shuffling, augmentation and generation", at_least=0)
    max_steps: int = _key(0, "stop after this many optimizer steps (0 = run all epochs)", at_least=0)


@dataclass
class GeneratorConfig(_Domains):
    n_samples: int = _key(64, "phantom dataset size", at_least=1)
    class_balance: float = _key(0.5, "fraction of abnormal samples to generate", at_least=0, at_most=1)
    spacing: float = _key(0.1, "pixel spacing in mm/px", above=0)
    speckle_gamma: float = _key(0.3, "multiplicative speckle amplitude", at_least=0)
    size: int = _key(128, key="input_size", at_least=32)  # the model's input_size key
    seed: int = _key(0, at_least=0)  # the training seed key
    group_size: int = _key(0, "samples per synthetic subject group (0 = no group column)", at_least=0)


@dataclass
class EvalConfig(_Domains):
    folds: int = _key(5, "cross-validation folds", at_least=2)
    grouped: bool = _key(False, "keep manifest groups within one fold")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _key_specs(*classes) -> dict[str, tuple]:
    """Walk the scalar fields of ``classes``, nested ones in place, in declaration order."""
    specs: dict[str, tuple] = {}

    def walk(cls) -> None:
        for f, kind in _fields_of(cls):
            if is_dataclass(kind):
                walk(kind)
            elif _key_of(f) not in specs:  # seed and input_size are read by two dataclasses
                specs[_key_of(f)] = (_parse_bool if kind is bool else kind, f.default, f.metadata.get("help"))

    for cls in classes:
        walk(cls)
    return specs


# key -> (parser, default, help). The flat namespace is the config file format;
# each command's CLI overrides are the keys of the dataclasses it fills.
KEY_SPECS: dict[str, tuple] = _key_specs(ModelConfig, TrainConfig, GeneratorConfig, EvalConfig)


def default_run_config() -> dict:
    return {key: spec[1] for key, spec in KEY_SPECS.items()}


def _parsed(key: str, text: str, where: str = ""):
    """``text`` read by the parser of ``key``; a ConfigError, prefixed by ``where``, for an unknown key or a bad value."""
    if key not in KEY_SPECS:
        raise ConfigError(f"{where}unknown config key {key!r}")
    try:
        return KEY_SPECS[key][0](text)
    except ValueError as exc:
        raise ConfigError(f"{where}bad value for {key}: {exc}") from exc


def parse_config_file(path: str | Path) -> dict:
    """Read UTF-8 ``key = value`` lines; unknown keys and bad values are errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        values[key] = _parsed(key, value.strip(), f"{path}:{lineno}: ")
    return values


def merge_run_config(file_values: dict | None = None, overrides: dict | None = None) -> dict:
    """defaults <- file <- overrides, with unknown-key checks on each layer."""
    merged = default_run_config()
    for layer in (file_values or {}, overrides or {}):
        for key, value in layer.items():
            if key not in KEY_SPECS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = _parsed(key, value) if isinstance(value, str) else value
    return merged


def _fill(cls, values: dict):
    """``cls`` with every field, nested dataclasses included, read from the flat run config."""
    return cls(**{f.name: _fill(kind, values) if is_dataclass(kind) else values[_key_of(f)] for f, kind in _fields_of(cls)})


def model_config_from(values: dict) -> ModelConfig:
    return _fill(ModelConfig, values).validate()


def train_config_from(values: dict) -> TrainConfig:
    return _fill(TrainConfig, values).validate()


def generator_config_from(values: dict) -> GeneratorConfig:
    return _fill(GeneratorConfig, values).validate()


def eval_config_from(values: dict) -> EvalConfig:
    return _fill(EvalConfig, values).validate()


def run_config_to_items(values: dict) -> dict[str, str]:
    """Stringify a merged run config for embedding in checkpoint headers."""
    return {key: repr(values[key]) if isinstance(values[key], float) else str(values[key]) for key in KEY_SPECS}

