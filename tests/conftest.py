import numpy as np
import pytest

from hipgraf.config import BackboneConfig, ModelConfig, TrainConfig
from hipgraf.dataset import ImageSample
from hipgraf.phantom import render_phantom, sample_geometry


def toy_backbone(size: int = 16) -> BackboneConfig:
    """Smallest config exercising every component (one up stage per branch)."""
    if size == 16:
        return BackboneConfig(
            input_size=16, feature_size=4, channels=8, unet_depth=2, patch_size=8, token_dim=8, transformer_layers=1, heads=2
        )
    if size == 32:
        return BackboneConfig(
            input_size=32, feature_size=8, channels=8, unet_depth=2, patch_size=8, token_dim=8, transformer_layers=1, heads=2
        )
    raise ValueError(size)


@pytest.fixture
def toy_model_config() -> ModelConfig:
    return ModelConfig(backbone=toy_backbone(16))


@pytest.fixture
def toy_model_config_32() -> ModelConfig:
    return ModelConfig(backbone=toy_backbone(32))


def make_samples(n: int, size: int = 32, seed: int = 7, spacing: float = 0.4):
    """Small in-memory phantom dataset, alternating class requests."""
    samples = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        request = "normal" if i % 2 == 0 else "abnormal"
        geometry = sample_geometry(request, rng=rng, size=size)
        image = render_phantom(geometry.landmarks, rng=rng, size=size, speckle_gamma=0.2)
        landmarks, angles = geometry.landmarks.astype(np.float32), geometry.angles
        samples.append(ImageSample(f"mem_{i:03d}", image, landmarks, geometry.label, spacing, angles.alpha, angles.beta))
    return samples


@pytest.fixture
def tiny_dataset():
    return make_samples(6, size=32)


@pytest.fixture
def fast_train_config() -> TrainConfig:
    return TrainConfig(lr=1e-3, epochs=1, batch_size=2, lam=0.1, sigma=1.0, hflip_prob=0.0, seed=0, max_steps=2)
