"""The run-config table: its keys, its defaults and the surfaces built on it."""

import ast
import inspect
from pathlib import Path

import pytest

import hipgraf.config as config
from hipgraf.config import (
    KEY_SPECS,
    EvalConfig,
    GeneratorConfig,
    ModelConfig,
    TrainConfig,
    default_run_config,
    eval_config_from,
    generator_config_from,
    model_config_from,
    train_config_from,
)
from hipgraf.estimator import PARAM_ALIASES, HipLandmarkDetector

ROOT = Path(__file__).resolve().parent.parent


def test_keys_in_table_order():
    # the order fixes the cfg.* lines of checkpoint headers and the --help text
    assert list(KEY_SPECS) == [
        "input_size",
        "feature_size",
        "channels",
        "unet_depth",
        "patch_size",
        "token_dim",
        "transformer_layers",
        "heads",
        "mmf_window",
        "fusion_mode",
        "variant",
        "gcn_layers",
        "gcn_hidden",
        "lr",
        "epochs",
        "batch_size",
        "lambda",
        "sigma",
        "hflip_prob",
        "seed",
        "max_steps",
        "n_samples",
        "class_balance",
        "spacing",
        "speckle_gamma",
        "group_size",
        "folds",
        "grouped",
    ]


def test_estimator_defaults_are_the_table_defaults():
    defaults = default_run_config()
    params = [p for p in inspect.signature(HipLandmarkDetector.__init__).parameters.values() if p.name != "self"]
    assert len(params) == 22
    assert "spacing" in [p.name for p in params]
    for param in params:
        expected = defaults[PARAM_ALIASES.get(param.name, param.name)]
        assert param.default == expected and type(param.default) is type(expected), param.name


@pytest.mark.parametrize(
    "build, cls",
    [
        (model_config_from, ModelConfig),
        (train_config_from, TrainConfig),
        (generator_config_from, GeneratorConfig),
        (eval_config_from, EvalConfig),
    ],
)
def test_table_defaults_build_the_dataclass_defaults(build, cls):
    assert build(default_run_config()) == cls()


def test_aliased_and_shared_keys_reach_their_fields():
    values = {**default_run_config(), "lambda": 0.7, "mmf_window": 5, "gcn_hidden": 9, "input_size": 64, "seed": 3}
    model = model_config_from(values)
    assert (model.fusion.window, model.graph.hidden, model.backbone.input_size) == (5, 9, 64)
    train = train_config_from(values)
    assert (train.lam, train.seed) == (0.7, 3)
    generator = generator_config_from(values)
    assert (generator.size, generator.seed) == (64, 3)


# name -> parameter names; the benchmark harnesses call these
PINNED_SIGNATURES = {
    "model_config_from": ["values"],
    "train_config_from": ["values"],
    "generator_config_from": ["values"],
    "eval_config_from": ["values"],
    "merge_run_config": ["file_values", "overrides"],
    "run_config_to_items": ["values"],
    "default_run_config": [],
}


@pytest.mark.parametrize("script", ["perfbench/workloads.py", "benchmarks/bench_train_step.py"])
def test_names_the_benchmarks_import_exist(script):
    tree = ast.parse((ROOT / script).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "hipgraf.config"
        for alias in node.names
    ]
    assert imported
    for name in imported:
        assert name in PINNED_SIGNATURES, name
        assert list(inspect.signature(getattr(config, name)).parameters) == PINNED_SIGNATURES[name]
