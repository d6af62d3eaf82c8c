"""Full-image phantom renderer, the oracle the windowed ``render_phantom`` is tested against.

Every line and blob is evaluated on every pixel, with no cut-off, so its
float64 image is the one the cut-off rule of ``hipgraf.phantom`` must
reproduce bit for bit. Per pixel it does the windowed code's arithmetic: a
zero-length segment is a point (``t = 0``), and the projection onto a segment
is written ``x*dx + y*dy``. A BLAS product ``(pts - p0) @ d`` rounds
differently where BLAS fuses the multiply-add (OpenBLAS on x86-64 with FMA
does): in the last float64 bit, at about 65 of the 16,384 pixels of a 128 px
image. Rounding to the float32 output absorbed every such difference in
3,000 images compared; a pair of adjacent float64 values straddles a float32
rounding boundary with odds of about 2**-29. ``tests/test_phantom.py`` pins
the digests of datasets rendered with that BLAS product.
"""

import numpy as np

from hipgraf.phantom import BACKGROUND_LEVEL, BLOB_AMPLITUDE, BLOB_SIGMA_PX, LINE_AMPLITUDES, LINE_PAIRS, LINE_SIGMA_PX


def segment_distance_field(size: int, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Distance from each pixel center to the segment p0-p1."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    d = p1 - p0
    length_sq = float(d @ d)
    t = np.clip(((xs - p0[0]) * d[0] + (ys - p0[1]) * d[1]) / length_sq, 0.0, 1.0) if length_sq > 0.0 else 0.0
    ex = xs - (p0[0] + t * d[0])
    ey = ys - (p0[1] + t * d[1])
    return np.sqrt(ex * ex + ey * ey)


def clean_image(landmarks: np.ndarray, size: int) -> np.ndarray:
    """The noise-free float64 image, every term summed over the whole image."""
    landmarks = np.asarray(landmarks, dtype=np.float64)
    clean = np.full((size, size), BACKGROUND_LEVEL, dtype=np.float64)
    for amplitude, (a, b) in zip(LINE_AMPLITUDES, LINE_PAIRS):
        dist = segment_distance_field(size, landmarks[a], landmarks[b])
        clean += amplitude * np.exp(-(dist**2) / (2.0 * LINE_SIGMA_PX**2))
    ys, xs = np.mgrid[0:size, 0:size]
    for x, y in landmarks:
        r_sq = (xs - x) ** 2 + (ys - y) ** 2
        clean += BLOB_AMPLITUDE * np.exp(-r_sq / (2.0 * BLOB_SIGMA_PX**2))
    return clean


def render_phantom(landmarks: np.ndarray, rng: np.random.Generator | None = None, size: int = 128, speckle_gamma: float = 0.3) -> np.ndarray:
    """``hipgraf.phantom.render_phantom`` from the full-image sum, for the same arguments."""
    clean = clean_image(landmarks, size)
    if speckle_gamma > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        clean = clean * (1.0 + speckle_gamma * rng.uniform(-1.0, 1.0, size=clean.shape))
    return np.clip(clean, 0.0, 1.0).astype(np.float32)
