"""Per-pixel scalar reference for mutual modulation fusion, the oracle the fused op is tested against."""

import numpy as np

from hipgraf.autodiff import Tensor, unfold_neighborhoods
from hipgraf.errors import ConfigError, DimensionError
from hipgraf.nets import fusion


def extract_neighborhood(feature_map: np.ndarray, i: int, j: int, window: int) -> np.ndarray:
    """Row-major (window^2, c) patch around pixel (i, j) of a (c,h,w) map.

    Out-of-bounds slots replicate the nearest edge pixel.
    """
    if window % 2 == 0 or window < 1:
        raise ConfigError(f"neighborhood window must be odd and positive, got {window}")
    feature_map = np.asarray(feature_map)
    if feature_map.ndim != 3:
        raise DimensionError(f"expected a (c,h,w) map, got shape {feature_map.shape}")
    c, h, w = feature_map.shape
    p = window // 2
    rows = np.clip(np.arange(i - p, i + p + 1), 0, h - 1)
    cols = np.clip(np.arange(j - p, j + p + 1), 0, w - 1)
    patch = feature_map[:, rows[:, None], cols[None, :]]
    return patch.reshape(c, window * window).T.copy()


def modulation_weights(center: np.ndarray, neighborhood: np.ndarray) -> np.ndarray:
    """Softmax over per-slot channel dot products with the center vector."""
    center = np.asarray(center, dtype=np.float64)
    neighborhood = np.asarray(neighborhood, dtype=np.float64)
    if neighborhood.ndim != 2 or center.ndim != 1 or neighborhood.shape[1] != center.shape[0]:
        raise DimensionError(
            f"expected (n^2,c) neighborhood and (c,) center, got {neighborhood.shape} and {center.shape}"
        )
    scores = neighborhood @ center
    scores -= scores.max()
    e = np.exp(scores)
    return e / e.sum()


def modulation_weight_map(source: Tensor, guide: Tensor, window: int) -> Tensor:
    """The fused op's per-pixel filter weights, shape (n, window^2, h, w); slots sum to 1."""
    fusion._check_pair(source, guide)
    return Tensor(fusion._weights(unfold_neighborhoods(source, window).data, guide.data))
