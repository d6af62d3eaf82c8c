"""The run-config table: its keys, its defaults and the surfaces built on it."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    merge_run_config,
    model_config_from,
    parse_config_file,
    train_config_from,
)
from hipgraf.errors import ConfigError
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


# a known key with an arbitrary value, or with a value at the edge of its range
_KEY_LINE = st.builds(
    lambda key, value: f"{key} = {value}".encode(),
    st.sampled_from(sorted(KEY_SPECS)),
    st.one_of(
        st.sampled_from(["true", "-1", "0", "nan", "inf", "1" + "0" * 20]),
        st.text(max_size=12),
        st.integers().map(str),
        st.floats().map(repr),
    ),
)
_CONFIG_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(_KEY_LINE, max_size=6).map(b"\n".join),
    st.lists(st.one_of(_KEY_LINE, st.binary(max_size=40)), max_size=6).map(b"\n".join),
)


@settings(max_examples=300, deadline=None)
@given(blob=_CONFIG_BYTES)
def test_any_config_file_raises_only_config_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(blob)
    try:
        values = merge_run_config(parse_config_file(path))
    except ConfigError:
        return
    for build in (model_config_from, train_config_from, generator_config_from, eval_config_from):
        try:
            build(values)
        except ConfigError:
            pass


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


def _hipgraf_bindings(tree: ast.AST) -> dict[str, object]:
    """Names a script binds to hipgraf modules, functions and classes, by any import form."""
    bound: dict[str, object] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hipgraf.") and alias.asname:
                    bound[alias.asname] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hipgraf"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
                else:  # a submodule not yet imported; raises if there is none
                    bound[alias.asname or alias.name] = importlib.import_module(f"{node.module}.{alias.name}")
    stored = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    stored |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
    return {name: value for name, value in bound.items() if name not in stored}


def _string_values(tree: ast.AST, node: ast.expr) -> list[str]:
    """A string literal, or the literals of the ``for <name> in (...)`` loop around ``node``."""
    if isinstance(node, ast.Constant):
        return [node.value]
    assert isinstance(node, ast.Name), ast.unparse(node)
    loops = [
        loop for loop in ast.walk(tree)
        if isinstance(loop, ast.For) and isinstance(loop.target, ast.Name) and loop.target.id == node.id
        and any(inner is node for inner in ast.walk(loop))
    ]
    values = [elt.value for loop in loops for elt in getattr(loop.iter, "elts", [])]
    assert values and all(isinstance(v, str) for v in values), ast.unparse(node)
    return values


# calls whose keyword arguments the benchmark passes: (function, keywords)
PINNED_KEYWORDS = [
    ("evaluate_model", {"fold", "batch_size"}),
    ("save_checkpoint", {"optimizer", "epoch", "step"}),
    ("read_manifest", {"load_images"}),
    ("make_gt_heatmaps", {"name"}),
    ("decode_landmarks", {"upscale"}),
]


def test_hipgraf_names_the_benchmark_reaches_exist():
    """Every hipgraf attribute the benchmarks read, probe by name or pass a keyword to is still there."""
    passed: dict[str, set[str]] = {}
    scripts = [ROOT / "perfbench/workloads.py", ROOT / "perfbench/spans.py", *sorted((ROOT / "benchmarks").glob("*.py"))]
    for path in scripts:
        script = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text())
        bound = _hipgraf_bindings(tree)

        def resolve(node: ast.expr):
            if isinstance(node, ast.Name):
                return bound.get(node.id)
            if isinstance(node, ast.Attribute):
                owner = resolve(node.value)
                if owner is not None:
                    assert hasattr(owner, node.attr), f"{script}: {ast.unparse(node)}"
                    return getattr(owner, node.attr)
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                resolve(node)
            if not isinstance(node, ast.Call):
                continue
            target = resolve(node.func)
            if callable(target) and node.keywords:
                parameters = inspect.signature(target).parameters
                for keyword in node.keywords:
                    assert keyword.arg in parameters, f"{script}: {ast.unparse(node.func)}({keyword.arg}=)"
                    passed.setdefault(target.__name__, set()).add(keyword.arg)
            probe = node.func.attr if isinstance(node.func, ast.Attribute) else None
            if probe in ("function", "method") and len(node.args) >= 2:
                owner = resolve(node.args[0])
                assert owner is not None, f"{script}: {ast.unparse(node)}"
                for name in _string_values(tree, node.args[1]):
                    # Patches.method replaces an entry of the class's own __dict__
                    found = name in vars(owner) if probe == "method" else hasattr(owner, name)
                    assert found, f"{script}: {probe} probe of {ast.unparse(node.args[0])}.{name}"
    for name, keywords in PINNED_KEYWORDS:
        assert keywords <= passed.get(name, set()), name


@pytest.mark.parametrize("module", ["hipgraf", "hipgraf.autodiff", "hipgraf.nets"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
