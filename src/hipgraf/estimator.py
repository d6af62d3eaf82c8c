"""Scikit-learn style estimator facade over the detector.

``HipLandmarkDetector`` follows the sklearn conventions (constructor stores
hyperparameters verbatim, ``fit`` learns state into trailing-underscore
attributes, ``get_params``/``set_params`` expose the constructor surface) so
it duck-types with ``sklearn.base.clone``, pipelines and searches without
this package depending on scikit-learn.

Targets for ``fit``/``score`` are (n, 13) arrays: the 12 landmark
coordinates x1,y1..x6,y6 in pixels followed by the 0/1 abnormality label
(the label column may be dropped for variants without a class head).
"""

from __future__ import annotations

import inspect

import numpy as np

from .config import GeneratorConfig, default_run_config, model_config_from, train_config_from
from .errors import ConfigError, ContractError
from .experiments import detect
from .metrics import mre
from .nets.model import build_model
from .training import train
from .validation import build_samples, check_fit_targets, check_image_batch

# estimator parameter -> run-config key, where the two names differ
PARAM_ALIASES = {"class_loss_weight": "lambda"}


class HipLandmarkDetector:
    """Six-landmark heatmap detector with optional abnormality scoring."""

    def __init__(
        self,
        input_size: int = 128,
        feature_size: int = 32,
        channels: int = 32,
        unet_depth: int = 3,
        patch_size: int = 8,
        token_dim: int = 32,
        transformer_layers: int = 2,
        heads: int = 4,
        mmf_window: int = 3,
        fusion_mode: str = "concat",
        variant: str = "full",
        gcn_layers: int = 2,
        gcn_hidden: int = 64,
        lr: float = 1e-4,
        epochs: int = 100,
        batch_size: int = 2,
        class_loss_weight: float = 0.1,
        sigma: float = 2.0,
        hflip_prob: float = 0.5,
        max_steps: int = 0,
        spacing: float = 0.1,
        seed: int = 0,
    ):
        self.input_size = input_size
        self.feature_size = feature_size
        self.channels = channels
        self.unet_depth = unet_depth
        self.patch_size = patch_size
        self.token_dim = token_dim
        self.transformer_layers = transformer_layers
        self.heads = heads
        self.mmf_window = mmf_window
        self.fusion_mode = fusion_mode
        self.variant = variant
        self.gcn_layers = gcn_layers
        self.gcn_hidden = gcn_hidden
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.class_loss_weight = class_loss_weight
        self.sigma = sigma
        self.hflip_prob = hflip_prob
        self.max_steps = max_steps
        self.spacing = spacing
        self.seed = seed

    # -- sklearn plumbing ------------------------------------------------------

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [name for name in signature.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "HipLandmarkDetector":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
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
        pred = self.predict(images).reshape(len(images), 6, 2)
        errors = [mre(pred[i], landmarks[i], self.spacing) for i in range(len(images))]
        return -float(np.mean(errors))
