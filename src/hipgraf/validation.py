"""Input validation helpers for the estimator API.

These convert and check array-like inputs the way scikit-learn's
``check_array`` would, raising errors that name the offending shape.
"""

from __future__ import annotations

import numpy as np

from .dataset import ImageSample, check_finite
from .errors import DataError, DimensionError


def check_image_batch(X, input_size: int) -> np.ndarray:
    """Coerce to a float32 (n, h, w) batch of ``input_size`` square images in finite range."""
    arr = np.asarray(X, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim == 4 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 3:
        raise DimensionError(f"expected images of shape (n,h,w) or (n,1,h,w), got {np.asarray(X).shape}")
    if arr.shape[0] == 0:
        raise DimensionError(f"expected at least one image, got shape {np.asarray(X).shape}")
    if arr.shape[1] != arr.shape[2]:
        raise DimensionError(f"images must be square, got {arr.shape[1]}x{arr.shape[2]}")
    if arr.shape[1] != input_size:
        raise DimensionError(f"images are {arr.shape[1]}x{arr.shape[2]} but the model expects {input_size}x{input_size}")
    return check_finite(arr, "the image batch")


def check_fit_targets(y, n_samples: int, input_size: int, require_labels: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Split (n, 13) [12 coords + label] or (n, 12) targets into parts."""
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != n_samples or arr.shape[1] not in (12, 13):
        raise DimensionError(
            f"expected targets of shape ({n_samples},13) [x1,y1..x6,y6,label] or ({n_samples},12), got {arr.shape}"
        )
    landmarks = check_finite(arr[:, :12], "the landmark targets").reshape(n_samples, 6, 2).astype(np.float32)
    if landmarks.min() < 0 or landmarks.max() > input_size - 1:
        raise DataError(f"landmark coordinates fall outside the {input_size}x{input_size} image")
    labels: np.ndarray | None = None
    if arr.shape[1] == 13:
        labels = arr[:, 12]
        if not np.isin(labels, (0.0, 1.0)).all():
            raise DataError("labels must be 0 (normal) or 1 (abnormal)")
        labels = labels.astype(int)
    elif require_labels:
        raise DataError("this variant trains a classification head; targets need the 13th label column")
    return landmarks, labels


def build_samples(images: np.ndarray, landmarks: np.ndarray, labels: np.ndarray | None, spacing: float) -> list[ImageSample]:
    n = images.shape[0]
    return [
        ImageSample(
            name=f"array_{i:04d}",
            image=images[i],
            landmarks=landmarks[i],
            label=0 if labels is None else int(labels[i]),
            spacing=spacing,
        )
        for i in range(n)
    ]
