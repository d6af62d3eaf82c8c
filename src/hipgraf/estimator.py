"""Scikit-learn style estimator facade over the detector.

``HipLandmarkDetector`` follows the sklearn conventions (constructor stores
hyperparameters verbatim, ``fit`` learns state into trailing-underscore
attributes, ``get_params``/``set_params`` expose the constructor surface) so
it duck-types with ``sklearn.base.clone``, pipelines and searches without
this package depending on scikit-learn. The parameters and their defaults are
read from the run-config table (``PARAMS``); the constructor's signature is
generated from them, so ``inspect.signature`` and ``help`` still list them.

Targets for ``fit``/``score`` are (n, 13) arrays: the 12 landmark
coordinates x1,y1..x6,y6 in pixels followed by the 0/1 abnormality label
(the label column may be dropped for variants without a class head).
"""

from __future__ import annotations

import inspect

import numpy as np

from .config import KEY_SPECS, GeneratorConfig, ModelConfig, TrainConfig, _key_specs, default_run_config, model_config_from, train_config_from
from .errors import ConfigError, ContractError
from .experiments import detect, score_detections
from .nets.model import build_model
from .training import train
from .validation import build_samples, check_fit_targets, check_image_batch

# estimator parameter -> run-config key, where the two names differ
PARAM_ALIASES = {"class_loss_weight": "lambda"}

# parameter -> default: the model and training keys of the run-config table, then spacing
_NAMES = {key: name for name, key in PARAM_ALIASES.items()}
PARAMS = {_NAMES.get(key, key): spec[1] for key, spec in _key_specs(ModelConfig, TrainConfig).items()}
PARAMS["spacing"] = KEY_SPECS["spacing"][1]


class HipLandmarkDetector:
    """Six-landmark heatmap detector with optional abnormality scoring.

    Keyword-only parameters: ``PARAMS``, the run-config keys of the model and
    of training plus ``spacing``, in table order with the table's defaults.
    """

    def __init__(self, **params):
        unknown = sorted(params.keys() - PARAMS.keys())
        if unknown:
            raise TypeError(f"HipLandmarkDetector got unexpected keyword arguments {unknown}")
        for name, default in PARAMS.items():
            setattr(self, name, params.get(name, default))

    __init__.__signature__ = inspect.Signature(
        [inspect.Parameter("self", inspect.Parameter.POSITIONAL_OR_KEYWORD)]
        + [inspect.Parameter(name, inspect.Parameter.KEYWORD_ONLY, default=default) for name, default in PARAMS.items()]
    )

    # -- sklearn plumbing ------------------------------------------------------

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in PARAMS}

    def set_params(self, **params) -> "HipLandmarkDetector":
        for name, value in params.items():
            if name not in PARAMS:
                raise ConfigError(f"unknown parameter {name!r} for HipLandmarkDetector")
            setattr(self, name, value)
        return self

    # -- configuration ---------------------------------------------------------

    def _run_config(self) -> dict:
        values = default_run_config()
        for name, value in self.get_params().items():  # a numpy scalar, as searches pass, enters as the number it holds
            values[PARAM_ALIASES.get(name, name)] = value.item() if isinstance(value, np.generic) else value
        return values

    # -- estimator API -----------------------------------------------------------

    def fit(self, X, y) -> "HipLandmarkDetector":
        values = self._run_config()
        model_cfg = model_config_from(values)
        train_cfg = train_config_from(values)
        GeneratorConfig(spacing=self.spacing).validate()  # spacing is a generator key: its domain is declared there
        images = check_image_batch(X, input_size=self.input_size)
        landmarks, labels = check_fit_targets(y, images.shape[0], self.input_size, require_labels=model_cfg.uses_tgcn)
        samples = build_samples(images, landmarks, labels, self.spacing)
        self.model_ = build_model(model_cfg, seed=self.seed)
        result = train(samples, self.model_, train_cfg)
        self.history_ = result.history
        self.n_steps_ = result.steps_run
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "model_"):
            raise ContractError("this HipLandmarkDetector is not fitted yet; call fit first")

    def predict(self, X) -> np.ndarray:
        """(n, 12) landmark coordinates [x1,y1..x6,y6] in input pixels."""
        self._check_fitted()
        coords, _ = detect(self.model_, check_image_batch(X, input_size=self.input_size))
        return np.stack(coords).reshape(len(coords), 12)

    def predict_proba(self, X) -> np.ndarray:
        """(n, 2) columns [P(normal), P(abnormal)]."""
        self._check_fitted()
        if self.model_.refiner is None:
            raise ConfigError(f"variant {self.variant!r} has no classification head")
        _, probs = detect(self.model_, check_image_batch(X, input_size=self.input_size))
        p_abnormal = np.asarray(probs)
        return np.stack([1.0 - p_abnormal, p_abnormal], axis=1)

    def score(self, X, y) -> float:
        """Negative mean radial error in millimetres (higher is better)."""
        self._check_fitted()
        GeneratorConfig(spacing=self.spacing).validate()
        images = check_image_batch(X, input_size=self.input_size)
        landmarks, _ = check_fit_targets(y, images.shape[0], self.input_size, require_labels=False)
        coords, _ = detect(self.model_, images)
        return -score_detections(build_samples(images, landmarks, None, self.spacing), coords, None).mre_mm
