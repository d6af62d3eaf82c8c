"""Each run-config field's declared domain: its type and range, checked once for every builder and the estimator."""

import math
from dataclasses import MISSING, fields, is_dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hipgraf.estimator as estimator_module
from hipgraf.config import (
    FUSION_MODES,
    VARIANTS,
    EvalConfig,
    FusionConfig,
    GeneratorConfig,
    ModelConfig,
    TrainConfig,
    _key_specs,
    default_run_config,
    eval_config_from,
    generator_config_from,
    model_config_from,
    train_config_from,
)
from hipgraf.errors import ConfigError
from hipgraf.estimator import PARAM_ALIASES, PARAMS, HipLandmarkDetector
from hipgraf.nets.model import build_model

from test_estimator import dataset_arrays, toy_params

# run-config key -> (type, values just outside its range), for the keys each builder reads
MODEL_KEYS = {
    "input_size": (int, [0, -128]),
    "feature_size": (int, [0]),
    "channels": (int, [0]),
    "unet_depth": (int, [0]),
    "patch_size": (int, [0]),
    "token_dim": (int, [0]),
    "transformer_layers": (int, [0]),
    "heads": (int, [0]),
    "mmf_window": (int, [0, -3]),
    "fusion_mode": (str, ["mul", "", "Concat"]),
    "variant": (str, ["FULL", "none"]),
    "gcn_layers": (int, [0]),
    "gcn_hidden": (int, [0]),
}
TRAIN_KEYS = {
    "lr": (float, [-1e-9]),
    "epochs": (int, [0]),
    "batch_size": (int, [0]),
    "lambda": (float, [-0.5]),
    "sigma": (float, [0.0, -1.0]),
    "hflip_prob": (float, [-0.01, 1.01]),
    "seed": (int, [-1]),
    "max_steps": (int, [-1]),
}
GENERATOR_KEYS = {
    "n_samples": (int, [0]),
    "class_balance": (float, [-0.1, 1.5]),
    "spacing": (float, [0.0, -1.0]),
    "speckle_gamma": (float, [-0.3]),
    "input_size": (int, [31, 0]),
    "seed": (int, [-1]),
    "group_size": (int, [-1]),
}
EVAL_KEYS = {
    "folds": (int, [1, 0]),
    "grouped": (bool, []),
}
BUILDERS = [
    (model_config_from, ModelConfig, MODEL_KEYS),
    (train_config_from, TrainConfig, TRAIN_KEYS),
    (generator_config_from, GeneratorConfig, GENERATOR_KEYS),
    (eval_config_from, EvalConfig, EVAL_KEYS),
]

# values of the wrong type for each kind of field
WRONG_TYPE = {
    int: [3.0, 2.5, np.float64(3.0), True, False, np.True_, "3", None, math.nan, math.inf, -math.inf, 3 + 0j, Fraction(3), [3]],
    float: [True, False, np.True_, "0.5", None, math.nan, math.inf, -math.inf, np.float32(math.nan), np.float32(math.inf), np.float64(-math.inf), 10**400, 0.5 + 0j, [0.5]],
    str: [1, None, True, math.nan, math.inf, b"full", ["full"]],
    bool: [1, 0, 1.0, None, math.nan, math.inf, "true", np.True_],
}


def cases(values_for):
    """(builder, key, value) for each value ``values_for(key, kind, out_of_range)`` gives each key of each builder."""
    for build, _, keys in BUILDERS:
        for key, (kind, out_of_range) in keys.items():
            for value in values_for(key, kind, out_of_range):
                yield pytest.param(build, key, value, id=f"{build.__name__}-{key}-{value!r:.24}")


def test_the_tables_name_every_key_each_builder_reads():
    for _, cls, keys in BUILDERS:
        assert list(keys) == list(_key_specs(cls)), cls.__name__


@pytest.mark.parametrize("build, key, value", cases(lambda key, kind, out_of_range: [*WRONG_TYPE[kind], *out_of_range]))
def test_a_value_outside_the_domain_raises_config_error_naming_the_key(build, key, value):
    with pytest.raises(ConfigError, match=rf"^{key} must be "):
        build({**default_run_config(), key: value})


def in_range_numbers(key, kind, _):
    """numpy numbers equal to the key's default and, for a float key, ints within its range."""
    default = default_run_config()[key]
    if kind is int:
        return [np.int64(default), np.int32(default), np.uint16(default)]
    if kind is float:
        return [np.float64(default), np.float32(default), math.ceil(default), np.int64(math.ceil(default))]
    return []


def field_value(cfg, key):
    """The value of the field of ``cfg``, nested dataclasses included, that reads run-config ``key``."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            found = field_value(value, key)
            if found is not MISSING:
                return found
        elif f.metadata.get("key", f.name) == key:
            return value
    return MISSING


@pytest.mark.parametrize("build, key, value", cases(in_range_numbers))
def test_numbers_in_range_are_accepted_as_they_are(build, key, value):
    assert field_value(build({**default_run_config(), key: value}), key) is value


def test_string_choices_are_the_declared_tuples():
    for mode in FUSION_MODES:
        assert model_config_from({**default_run_config(), "fusion_mode": mode}).fusion.mode == mode
    for variant in VARIANTS:
        assert model_config_from({**default_run_config(), "variant": variant}).variant == variant


def test_a_dataclass_validates_its_own_fields():
    with pytest.raises(ConfigError, match="^lr must be a finite number >= 0, got '0.1'$"):
        TrainConfig(lr="0.1").validate()
    with pytest.raises(ConfigError, match="^mmf_window must be an integer >= 1, got 3.0$"):
        ModelConfig(fusion=FusionConfig(window=3.0)).validate()


TOY_SIZES = dict(input_size=32, feature_size=8, channels=8, unet_depth=2, patch_size=8, token_dim=8, transformer_layers=1, heads=2,
                 gcn_layers=1, gcn_hidden=8, mmf_window=3)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("variant", VARIANTS)
def test_numpy_int_sizes_build_the_parameters_of_python_ints(kind, variant):
    # the nets read every size as a Python int once, so neither .bit_length() nor a
    # wrapping uint8 product (the TGCN's 32 * 32 feature pixels) can tell the two apart
    python = dict(build_model(model_config_from({**default_run_config(), **TOY_SIZES, "variant": variant})).named_parameters())
    sizes = {key: kind(value) for key, value in TOY_SIZES.items()}
    numpy = dict(build_model(model_config_from({**default_run_config(), **sizes, "variant": variant})).named_parameters())
    assert numpy.keys() == python.keys()
    for name, param in python.items():
        assert numpy[name].shape == param.shape and numpy[name].data.tobytes() == param.data.tobytes(), name


# -- the estimator ------------------------------------------------------------------


def estimator_cases():
    keys = {**MODEL_KEYS, **TRAIN_KEYS, "spacing": GENERATOR_KEYS["spacing"]}
    for name in PARAMS:
        key = PARAM_ALIASES.get(name, name)
        kind, out_of_range = keys[key]
        for value in [*WRONG_TYPE[kind], *out_of_range]:
            yield pytest.param(name, key, value, id=f"{name}-{value!r:.24}")


@pytest.fixture
def no_model_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(estimator_module, "build_model", refuse)


@pytest.mark.parametrize("name, key, value", estimator_cases())
def test_fit_with_a_bad_parameter_raises_before_building_a_model(no_model_built, name, key, value):
    X, y = dataset_arrays(2)
    with pytest.raises(ConfigError, match=rf"^{key} must be "):
        HipLandmarkDetector(**toy_params(**{name: value})).fit(X, y)


def test_fit_accepts_numpy_scalars_in_range():
    X, y = dataset_arrays()
    params = {
        name: np.int64(value) if type(value) is int else np.float32(value) if type(value) is float else value
        for name, value in toy_params(mmf_window=3, gcn_layers=2, gcn_hidden=16, class_loss_weight=0.1).items()
    }
    est = HipLandmarkDetector(**params).fit(X, y)
    assert est.n_steps_ == 2 and math.isfinite(est.score(X, y))


def test_score_checks_the_spacing_it_scales_by():
    X, y = dataset_arrays()
    est = HipLandmarkDetector(**toy_params()).fit(X, y)
    for spacing in (-1.0, math.nan, "0.4"):
        with pytest.raises(ConfigError, match="^spacing must be "):
            est.set_params(spacing=spacing).score(X, y)


ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.complex_numbers(),
    st.fractions(),
    st.decimals(),
    st.sampled_from(VARIANTS + FUSION_MODES),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(width=32).map(np.float32),
    st.lists(st.integers(), max_size=2),
    st.tuples(st.integers()),
)


@settings(max_examples=300, deadline=None)
@given(params=st.fixed_dictionaries({}, optional={name: ANY_VALUE for name in PARAMS}))
def test_arbitrary_estimator_parameters_raise_only_config_error(params):
    # the values as given, numpy scalars included, and as the estimator passes them on
    given_values = {**default_run_config(), **{PARAM_ALIASES.get(name, name): value for name, value in params.items()}}
    for values in (given_values, HipLandmarkDetector(**params)._run_config()):
        for build in (model_config_from, train_config_from, generator_config_from, eval_config_from):
            try:
                build(values)
            except ConfigError:
                pass
