"""Sklearn-convention surface of the estimator facade."""

import inspect

import numpy as np
import pytest

from hipgraf.autodiff import no_grad
from hipgraf.errors import ConfigError, ContractError, DataError, DimensionError
from hipgraf.config import ModelConfig, TrainConfig, _key_specs, default_run_config
from hipgraf.estimator import PARAM_ALIASES, HipLandmarkDetector
from hipgraf.experiments import evaluate_model
from hipgraf.metrics import decode_landmarks
from hipgraf.nets.model import LandmarkNet
from hipgraf.validation import build_samples

from conftest import make_samples


def toy_params(**overrides):
    params = dict(
        input_size=32,
        feature_size=8,
        channels=8,
        unet_depth=2,
        patch_size=8,
        token_dim=8,
        transformer_layers=1,
        heads=2,
        lr=1e-3,
        epochs=1,
        batch_size=2,
        max_steps=2,
        sigma=1.0,
        hflip_prob=0.0,
        spacing=0.4,
        seed=0,
    )
    params.update(overrides)
    return params


def dataset_arrays(n=6):
    samples = make_samples(n, size=32, seed=31)
    X = np.stack([s.image for s in samples])
    y = np.concatenate([np.stack([s.landmarks.reshape(12) for s in samples]), np.array([[s.label] for s in samples])], axis=1)
    return X, y


class TestParamsProtocol:
    def test_get_params_round_trips_through_constructor(self):
        est = HipLandmarkDetector(**toy_params())
        clone = HipLandmarkDetector(**est.get_params())
        assert clone.get_params() == est.get_params()

    def test_set_params_returns_self_and_applies(self):
        est = HipLandmarkDetector()
        out = est.set_params(lr=0.5, epochs=7)
        assert out is est and est.lr == 0.5 and est.epochs == 7

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            HipLandmarkDetector().set_params(learning_rate=0.1)

    def test_clone_protocol_passes_every_parameter_by_identity(self):
        # sklearn.base.clone builds its copy as type(est)(**est.get_params(deep=False))
        given = toy_params(lr=[0.1], sigma=np.float32(1.5))
        est = HipLandmarkDetector(**given)
        params = est.get_params(deep=False)
        assert all(params[name] is value for name, value in given.items())
        copy = type(est)(**params)
        assert copy is not est
        assert all(getattr(copy, name) is value for name, value in params.items())

    def test_positional_argument_rejected(self):
        with pytest.raises(TypeError):
            HipLandmarkDetector(32)

    def test_unknown_keyword_rejected_by_name(self):
        with pytest.raises(TypeError, match="learning_rate"):
            HipLandmarkDetector(lr=0.1, learning_rate=0.1)

    def test_signature_lists_the_table_keys_keyword_only_with_their_defaults(self):
        params = list(inspect.signature(HipLandmarkDetector).parameters.values())
        keys = [*_key_specs(ModelConfig, TrainConfig), "spacing"]
        assert [PARAM_ALIASES.get(p.name, p.name) for p in params] == keys and len(keys) == 22
        defaults = default_run_config()
        for p in params:
            expected = defaults[PARAM_ALIASES.get(p.name, p.name)]
            assert p.kind is inspect.Parameter.KEYWORD_ONLY and p.default == expected and type(p.default) is type(expected), p.name
        assert list(HipLandmarkDetector().get_params()) == [p.name for p in params]

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = HipLandmarkDetector(**toy_params(lr=0.123))
        cloned = sklearn_base.clone(est)
        assert cloned.lr == 0.123
        assert cloned is not est


class TestFitPredict:
    def test_fit_predict_shapes(self):
        X, y = dataset_arrays()
        est = HipLandmarkDetector(**toy_params())
        assert est.fit(X, y) is est
        pred = est.predict(X)
        assert pred.shape == (len(X), 12)
        proba = est.predict_proba(X)
        assert proba.shape == (len(X), 2)
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(len(X)), atol=1e-6)
        assert np.isfinite(est.score(X, y))

    def test_predictions_record_no_tape(self, monkeypatch):
        X, y = dataset_arrays()
        est = HipLandmarkDetector(**toy_params()).fit(X, y)
        expected = est.model_.forward(X[:, None])
        outputs = []
        forward = LandmarkNet.forward

        def captured(self, images):
            outputs.append(forward(self, images))
            return outputs[-1]

        monkeypatch.setattr(LandmarkNet, "forward", captured)
        pred = est.predict(X)
        proba = est.predict_proba(X)
        assert len(outputs) == 2
        assert all(not out.heatmaps.requires_grad and out.refined._parents == () for out in outputs)
        np.testing.assert_array_equal(outputs[0].refined.data, expected.refined.data)
        np.testing.assert_array_equal(proba[:, 1], 1.0 / (1.0 + np.exp(-expected.logit.data.astype(np.float64))))
        assert pred.shape == (len(X), 12)

    def test_predictions_across_batches_equal_one_whole_batch_forward(self):
        # 10 images cross detect's batch of 8; the bytes equal one forward of all 10
        X, y = dataset_arrays(10)
        est = HipLandmarkDetector(**toy_params()).fit(X, y)
        with no_grad():
            out = est.model_.forward(X[:, None])
        stacks = out.detection_stack().data
        coords = np.stack([decode_landmarks(stacks[i], upscale=est.model_.upscale)[0] for i in range(10)])
        p_abnormal = 1.0 / (1.0 + np.exp(-out.logit.data.astype(np.float64)))
        assert est.predict(X).tobytes() == coords.reshape(10, 12).tobytes()
        assert est.predict_proba(X).tobytes() == np.stack([1.0 - p_abnormal, p_abnormal], axis=1).tobytes()

    def test_score_is_the_negated_mre_of_evaluate_model(self):
        X, y = dataset_arrays(10)
        est = HipLandmarkDetector(**toy_params()).fit(X, y)
        samples = build_samples(X.astype(np.float32), y[:, :12].reshape(10, 6, 2).astype(np.float32), None, est.spacing)
        assert est.score(X, y) == -evaluate_model(est.model_, samples).mre_mm

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ContractError, match="not fitted"):
            HipLandmarkDetector(**toy_params()).predict(np.zeros((1, 32, 32)))

    def test_headless_variant_refuses_proba_and_label_column(self):
        X, y = dataset_arrays()
        est = HipLandmarkDetector(**toy_params(variant="no_tgcn"))
        est.fit(X, y[:, :12])  # labels not required without a class head
        with pytest.raises(ConfigError, match="classification head"):
            est.predict_proba(X)

    @pytest.mark.parametrize("param, value", [("seed", -1), ("lr", np.nan)])
    def test_invalid_training_param_rejected_before_building_the_model(self, param, value):
        X, y = dataset_arrays()
        with pytest.raises(ConfigError, match=param):
            HipLandmarkDetector(**toy_params(**{param: value})).fit(X, y)

    def test_missing_labels_rejected_for_full_variant(self):
        X, y = dataset_arrays()
        with pytest.raises(DataError, match="label column"):
            HipLandmarkDetector(**toy_params()).fit(X, y[:, :12])

    def test_wrong_image_size_rejected(self):
        X, y = dataset_arrays()
        est = HipLandmarkDetector(**toy_params(input_size=64, feature_size=16))
        with pytest.raises(DimensionError, match="expects 64x64"):
            est.fit(X, y)

    def test_empty_image_batch_rejected(self):
        X, y = dataset_arrays()
        est = HipLandmarkDetector(**toy_params()).fit(X, y)
        empty = np.empty((0, 32, 32))
        with pytest.raises(DimensionError, match="at least one image"):
            HipLandmarkDetector(**toy_params()).fit(empty, y[:0])
        for method in (est.predict, est.predict_proba):
            with pytest.raises(DimensionError, match="at least one image"):
                method(empty)
        with pytest.raises(DimensionError, match="at least one image"):
            est.score(empty, y[:0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, value):
        X, y = dataset_arrays()
        est = HipLandmarkDetector(**toy_params()).fit(X, y)
        bad = y.copy()
        bad[1, 4] = value
        with pytest.raises(DataError, match="landmark targets contains non-finite"):
            HipLandmarkDetector(**toy_params()).fit(X, bad)
        with pytest.raises(DataError, match="landmark targets contains non-finite"):
            est.score(X, bad)

    def test_fit_history_exposed(self):
        X, y = dataset_arrays()
        est = HipLandmarkDetector(**toy_params())
        est.fit(X, y)
        assert est.n_steps_ == 2
        assert len(est.history_) == 2
