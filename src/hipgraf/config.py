"""Configuration dataclasses and the flat run-config file format.

A run config is a text file of ``key = value`` lines (``#`` starts a
comment). Every key is a field of the dataclasses below, which holds its
default and help text; unknown keys are a hard error so typos cannot silently
fall back to defaults. A file may hold any key. On the command line each
command takes as ``--key value`` only the keys of the dataclasses it fills,
and those overrides win over the file. Validation refuses non-finite floats
and negative seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError

VARIANTS = ("full", "no_mmf", "no_tgcn", "concat_baseline")
FUSION_MODES = ("concat", "add")


def _key(default, help: str, key: str | None = None):
    """A run-config field: its default, its help text and, where it differs from the field name, its key."""
    metadata = {"help": help} if key is None else {"help": help, "key": key}
    return field(default=default, metadata=metadata)


@dataclass
class BackboneConfig:
    """Shapes of the two feature branches and their shared output map."""

    input_size: int = _key(128, "square input image side in px")
    feature_size: int = _key(32, "heatmap side in px (input_size must be a power-of-two multiple)")
    channels: int = _key(32, "feature channels produced by each branch")
    unet_depth: int = _key(3, "number of encoder pooling steps in the local branch")
    patch_size: int = _key(8, "square patch side for the global branch")
    token_dim: int = _key(32, "embedding width of the global branch tokens")
    transformer_layers: int = _key(2, "encoder layers in the global branch")
    heads: int = _key(4, "attention heads per encoder layer")

    def validate(self) -> "BackboneConfig":
        for name in ("input_size", "feature_size", "channels", "unet_depth", "patch_size", "token_dim", "transformer_layers", "heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.input_size % self.patch_size:
            raise ConfigError(f"input_size {self.input_size} not divisible by patch_size {self.patch_size}")
        if self.unet_depth >= self.input_size.bit_length():  # 2^unet_depth > input_size, and no huge shift below
            raise ConfigError(f"unet_depth {self.unet_depth} too deep for input_size {self.input_size}")
        if self.input_size % (1 << self.unet_depth):
            raise ConfigError(f"input_size {self.input_size} not divisible by 2^unet_depth ({1 << self.unet_depth})")
        if self.input_size % self.feature_size:
            raise ConfigError(f"input_size {self.input_size} not divisible by feature_size {self.feature_size}")
        upscale = self.input_size // self.feature_size
        if upscale & (upscale - 1):
            raise ConfigError(f"input_size/feature_size must be a power of two, got {upscale}")
        n_up = self.unet_depth - upscale.bit_length() + 1
        if n_up < 0:
            raise ConfigError(f"unet_depth {self.unet_depth} too shallow for feature_size {self.feature_size} from input_size {self.input_size}")
        if self.channels % (1 << (self.unet_depth - n_up)):
            raise ConfigError(f"channels {self.channels} not divisible by 2^(encoder levels above feature scale) = {1 << (self.unet_depth - n_up)}")
        grid = self.input_size // self.patch_size
        if self.feature_size % grid:
            raise ConfigError(f"feature_size {self.feature_size} not an integer upscale of token grid {grid}")
        up = self.feature_size // grid
        if up & (up - 1):
            raise ConfigError(f"token grid to feature upscale must be a power of two, got {up}")
        if self.token_dim % self.heads:
            raise ConfigError(f"token_dim {self.token_dim} not divisible by heads {self.heads}")
        return self

    @property
    def upscale(self) -> int:
        return self.input_size // self.feature_size


@dataclass
class FusionConfig:
    window: int = _key(3, "odd neighborhood side for mutual modulation fusion", key="mmf_window")
    mode: str = _key("concat", "combine modulated maps by 'concat' or 'add'", key="fusion_mode")

    def validate(self) -> "FusionConfig":
        if self.window < 1 or self.window % 2 == 0:
            raise ConfigError(f"fusion window must be odd and positive, got {self.window}")
        if self.mode not in FUSION_MODES:
            raise ConfigError(f"unknown fusion mode {self.mode!r}; expected one of {FUSION_MODES}")
        return self


@dataclass
class GraphConfig:
    layers: int = _key(2, "graph refinement layers", key="gcn_layers")
    hidden: int = _key(64, "middle width of the classification head", key="gcn_hidden")

    def validate(self) -> "GraphConfig":
        if self.layers < 1:
            raise ConfigError(f"gcn_layers must be positive, got {self.layers}")
        if self.hidden < 1:
            raise ConfigError(f"gcn_hidden must be positive, got {self.hidden}")
        return self


@dataclass
class ModelConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    variant: str = _key("full", "model variant: full, no_mmf, no_tgcn or concat_baseline")
    graph: GraphConfig = field(default_factory=GraphConfig)

    def validate(self) -> "ModelConfig":
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        self.backbone.validate()
        self.fusion.validate()
        self.graph.validate()
        return self

    @property
    def uses_mmf(self) -> bool:
        return self.variant in ("full", "no_tgcn")

    @property
    def uses_tgcn(self) -> bool:
        return self.variant in ("full", "no_mmf")


@dataclass
class TrainConfig:
    lr: float = _key(1e-4, "Adam learning rate")
    epochs: int = _key(100, "training epochs")
    batch_size: int = _key(2, "samples per optimizer step")
    lam: float = _key(0.1, "weight of the classification loss", key="lambda")
    sigma: float = _key(2.0, "ground-truth heatmap stddev in heatmap px")
    hflip_prob: float = _key(0.5, "probability of horizontal flip per sample per epoch")
    seed: int = _key(0, "master seed for init, shuffling, augmentation and generation")
    max_steps: int = _key(0, "stop after this many optimizer steps (0 = run all epochs)")

    def validate(self) -> "TrainConfig":
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be nonnegative and finite, got {self.lr}")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be nonnegative and finite, got {self.lam}")
        if not 0 < self.sigma < math.inf:
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0 <= self.hflip_prob <= 1:
            raise ConfigError(f"hflip_prob must lie in [0,1], got {self.hflip_prob}")
        for name in ("seed", "max_steps"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
        return self


@dataclass
class GeneratorConfig:
    n_samples: int = _key(64, "phantom dataset size")
    class_balance: float = _key(0.5, "fraction of abnormal samples to generate")
    spacing: float = _key(0.1, "pixel spacing in mm/px")
    speckle_gamma: float = _key(0.3, "multiplicative speckle amplitude")
    size: int = field(default=128, metadata={"key": "input_size"})  # the model's input_size key
    seed: int = 0  # the training seed key
    group_size: int = _key(0, "samples per synthetic subject group (0 = no group column)")

    def validate(self) -> "GeneratorConfig":
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be positive, got {self.n_samples}")
        if not 0 <= self.class_balance <= 1:
            raise ConfigError(f"class_balance must lie in [0,1], got {self.class_balance}")
        if not 0 < self.spacing < math.inf:
            raise ConfigError(f"spacing must be positive and finite, got {self.spacing}")
        if not 0 <= self.speckle_gamma < math.inf:
            raise ConfigError(f"speckle_gamma must be nonnegative and finite, got {self.speckle_gamma}")
        if self.size < 32:
            raise ConfigError(f"image size must be at least 32, got {self.size}")
        for name in ("seed", "group_size"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
        return self


@dataclass
class EvalConfig:
    folds: int = _key(5, "cross-validation folds")
    grouped: bool = _key(False, "keep manifest groups within one fold")

    def validate(self) -> "EvalConfig":
        if self.folds < 2:
            raise ConfigError(f"folds must be at least 2, got {self.folds}")
        return self


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _key_of(f) -> str:
    return f.metadata.get("key", f.name)


def _key_specs(*classes) -> dict[str, tuple]:
    """Walk the scalar fields of ``classes``, nested ones in place, in declaration order."""
    specs: dict[str, tuple] = {}

    def walk(cls) -> None:
        hints = get_type_hints(cls)
        for f in fields(cls):
            kind = hints[f.name]
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
        value = value.strip()
        if key not in KEY_SPECS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        parser = KEY_SPECS[key][0]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def merge_run_config(file_values: dict | None = None, overrides: dict | None = None) -> dict:
    """defaults <- file <- overrides, with unknown-key checks on each layer."""
    merged = default_run_config()
    for layer in (file_values or {}, overrides or {}):
        for key, value in layer.items():
            if key not in KEY_SPECS:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(value, str):
                parser = KEY_SPECS[key][0]
                try:
                    value = parser(value)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key}: {exc}") from exc
            merged[key] = value
    return merged


def _fill(cls, values: dict):
    """``cls`` with every field, nested dataclasses included, read from the flat run config."""
    hints = get_type_hints(cls)
    return cls(**{f.name: _fill(hints[f.name], values) if is_dataclass(hints[f.name]) else values[_key_of(f)] for f in fields(cls)})


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

