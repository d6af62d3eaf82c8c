"""Synthetic hip phantom generator.

Stands in for a clinical dataset: each sample draws a near-vertical baseline
(landmarks 1-2), a bony-roof line at angle alpha to it (landmarks 3-4) and a
cartilage-roof line at angle beta (landmarks 5-6), renders bright lines and
blobs on a dark background, then multiplies in uniform speckle. The class
label follows the Graf rule exactly, by rejection sampling on the drawn
angles, so labels are re-checkable from the stored geometry. This is a
deliberately crude imaging model; realism is out of scope.

Reproducibility: sample i of a dataset uses a generator seeded from
(seed, i), so regeneration and parallel generation give identical bytes.

Cut-off: each line and blob adds ``amplitude * exp(-r**2 / (2 sigma**2))``
only on the pixels within its reach, the distance at which that term falls to
``TERM_CUT``. Every pixel starts at ``BACKGROUND_LEVEL`` and gains only
non-negative terms, so each sum it takes part in is at least that large; under
round-to-nearest, adding less than half an ulp of a value gives the value back
unchanged. ``TERM_CUT`` is a quarter of half an ulp of ``BACKGROUND_LEVEL``,
the margin covering the rounding of the distance and of ``exp``, so a term past
the reach could not have changed the pixel it skips. The cut is computed from
``BACKGROUND_LEVEL``: change the background and the reach follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import GeneratorConfig
from .dataset import GROUP_COLUMN, MANIFEST_NAME, write_image_tensor, write_manifest, write_pgm
from .errors import DataError, GenerationError
from .metrics import GrafAngles, LABEL_ABNORMAL, LABEL_NORMAL, classify_graf

BORDER_MARGIN_PX = 10
MIN_PAIR_SEPARATION_PX = 8
REJECTION_BUDGET = 1000
REFERENCE_SIZE = 128


def border_margin(size: int) -> int:
    """10 px at the default 128 px scale, shrinking proportionally below it."""
    if size >= REFERENCE_SIZE:
        return BORDER_MARGIN_PX
    return max(2, round(BORDER_MARGIN_PX * size / REFERENCE_SIZE))


def min_pair_separation(size: int) -> float:
    """8 px at the default 128 px scale, shrinking proportionally below it."""
    if size >= REFERENCE_SIZE:
        return float(MIN_PAIR_SEPARATION_PX)
    return max(3.0, MIN_PAIR_SEPARATION_PX * size / REFERENCE_SIZE)

ALPHA_RANGE_DEG = (50.0, 75.0)
BETA_RANGE_DEG = (55.0, 90.0)

BACKGROUND_LEVEL = 0.08
# one amplitude per anatomical line (baseline, bony roof, cartilage roof);
# distinct echogenicity per structure, as in real scans
LINE_AMPLITUDES = (0.62, 0.45, 0.30)
LINE_SIGMA_PX = 1.2
BLOB_AMPLITUDE = 0.9
BLOB_SIGMA_PX = 2.0
LINE_PAIRS = ((0, 1), (2, 3), (4, 5))
# the size below which a term cannot change a pixel (see the module docstring)
TERM_CUT = float(np.spacing(BACKGROUND_LEVEL)) / 8.0
# the largest |coordinate| rendered: no difference, product or square of such coordinates overflows
COORD_LIMIT = math.sqrt(float(np.finfo(np.float64).max)) / 8.0


@dataclass
class GeometrySample:
    landmarks: np.ndarray
    angles: GrafAngles
    label: int


def _rotate(vec: np.ndarray, degrees: float) -> np.ndarray:
    rad = math.radians(degrees)
    c, s = math.cos(rad), math.sin(rad)
    return np.array([c * vec[0] - s * vec[1], s * vec[0] + c * vec[1]])


def _draw_geometry(rng: np.random.Generator, size: int) -> tuple[np.ndarray, float, float]:
    """One unvalidated layout: 6 points plus the drawn alpha and beta.

    The baseline runs near-vertically through the right half; the bony-roof
    line leaves its lower part heading down-left at angle alpha, the
    cartilage line leaves its upper part heading up-left at (the supplement
    of) beta, so the undirected line angles are exactly the drawn values.
    """
    alpha = rng.uniform(*ALPHA_RANGE_DEG)
    beta = rng.uniform(*BETA_RANGE_DEG)
    tilt = rng.uniform(-3.0, 3.0)
    u_base = _rotate(np.array([0.0, 1.0]), tilt)
    center = np.array([rng.uniform(0.63, 0.67) * size, rng.uniform(0.46, 0.52) * size])
    half = rng.uniform(0.25, 0.28) * size
    l1 = center - half * u_base
    l2 = center + half * u_base

    # near/far endpoint distances are disjoint so each landmark occupies its
    # own image region across the dataset; jitter extents are kept moderate
    # so the desk-scale training budget can actually fit the layout family
    u_alpha = _rotate(u_base, alpha)
    anchor_a = center + rng.uniform(0.10, 0.18) * half * u_base
    l3 = anchor_a + rng.uniform(0.10, 0.16) * size * u_alpha
    l4 = anchor_a + rng.uniform(0.30, 0.36) * size * u_alpha

    u_beta = _rotate(u_base, 180.0 - beta)
    anchor_b = center - rng.uniform(0.14, 0.22) * half * u_base
    l5 = anchor_b + rng.uniform(0.10, 0.16) * size * u_beta
    l6 = anchor_b + rng.uniform(0.30, 0.36) * size * u_beta

    return np.stack([l1, l2, l3, l4, l5, l6]), alpha, beta


def _layout_ok(landmarks: np.ndarray, size: int) -> bool:
    margin = border_margin(size)
    lo, hi = margin, size - 1 - margin
    if landmarks.min() < lo or landmarks.max() > hi:
        return False
    separation = min_pair_separation(size)
    for a, b in LINE_PAIRS:
        if np.linalg.norm(landmarks[a] - landmarks[b]) < separation:
            return False
    return True


def sample_geometry(class_request: str = "any", rng: np.random.Generator | None = None, size: int = GeneratorConfig.size) -> GeometrySample:
    """Rejection-sample a layout whose Graf class matches the request."""
    if class_request not in ("normal", "abnormal", "any"):
        raise DataError(f"unknown class request {class_request!r}")
    rng = rng if rng is not None else np.random.default_rng()
    for _ in range(REJECTION_BUDGET):
        landmarks, alpha, beta = _draw_geometry(rng, size)
        if not _layout_ok(landmarks, size):
            continue
        angles = GrafAngles(alpha=alpha, beta=beta)
        label = classify_graf(angles)
        if class_request == "normal" and label != LABEL_NORMAL:
            continue
        if class_request == "abnormal" and label != LABEL_ABNORMAL:
            continue
        return GeometrySample(landmarks=landmarks, angles=angles, label=label)
    raise GenerationError(f"no {class_request} layout found within {REJECTION_BUDGET} draws")


def _reach(amplitude: float, sigma: float) -> float:
    """Distance past which ``amplitude * exp(-r**2 / (2 sigma**2))`` is below ``TERM_CUT``."""
    return sigma * math.sqrt(2.0 * math.log(amplitude / TERM_CUT))


LINE_REACH_PX = tuple(_reach(amplitude, LINE_SIGMA_PX) for amplitude in LINE_AMPLITUDES)
BLOB_REACH_PX = _reach(BLOB_AMPLITUDE, BLOB_SIGMA_PX)


def _span(lo: float, hi: float, size: int) -> slice:
    """The pixel indices in [lo, hi], rounded outward and clipped to [0, size)."""
    start = max(0, math.floor(lo))
    return slice(start, max(start, min(size, math.ceil(hi) + 1)))


def _window(xs: tuple[float, ...], ys: tuple[float, ...], reach: float, size: int) -> tuple[slice, slice]:
    """Rows and columns of the pixels within ``reach`` of the box around the points (xs, ys)."""
    return _span(min(ys) - reach, max(ys) + reach, size), _span(min(xs) - reach, max(xs) + reach, size)


def _pixel_coords(rows: slice, cols: slice) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center x as a row vector and y as a column vector, for broadcasting over the window."""
    return np.arange(cols.start, cols.stop, dtype=np.float64), np.arange(rows.start, rows.stop, dtype=np.float64)[:, None]


def _segment_distance(rows: slice, cols: slice, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Distance from each pixel center of the window to the segment p0-p1; a point when they coincide."""
    xs, ys = _pixel_coords(rows, cols)
    d = p1 - p0
    length_sq = float(d @ d)
    t = np.clip(((xs - p0[0]) * d[0] + (ys - p0[1]) * d[1]) / length_sq, 0.0, 1.0) if length_sq > 0.0 else 0.0
    ex = xs - (p0[0] + t * d[0])
    ey = ys - (p0[1] + t * d[1])
    return np.sqrt(ex * ex + ey * ey)


def _checked_landmarks(landmarks) -> np.ndarray:
    """``landmarks`` as a float64 array; ``DataError`` unless it is (6, 2) and within ±``COORD_LIMIT``."""
    message = f"landmarks must be a (6, 2) array of finite numbers within ±{COORD_LIMIT:.3g}"
    try:
        points = np.asarray(landmarks, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{message}: {exc}") from exc
    if points.shape != (6, 2):
        raise DataError(f"{message}, got shape {points.shape}")
    if not (np.abs(points) <= COORD_LIMIT).all():  # false for NaN too
        raise DataError(f"{message}, got {points.tolist()}")
    return points


def _clean_image(landmarks: np.ndarray, size: int) -> np.ndarray:
    """The noise-free float64 image: background plus each line and blob on the pixels within its reach."""
    points = landmarks.tolist()
    clean = np.full((size, size), BACKGROUND_LEVEL, dtype=np.float64)
    for amplitude, reach, (a, b) in zip(LINE_AMPLITUDES, LINE_REACH_PX, LINE_PAIRS):
        (xa, ya), (xb, yb) = points[a], points[b]
        rows, cols = _window((xa, xb), (ya, yb), reach, size)
        dist = _segment_distance(rows, cols, landmarks[a], landmarks[b])
        clean[rows, cols] += amplitude * np.exp(-(dist**2) / (2.0 * LINE_SIGMA_PX**2))
    for x, y in points:
        rows, cols = _window((x,), (y,), BLOB_REACH_PX, size)
        xs, ys = _pixel_coords(rows, cols)
        r_sq = (xs - x) ** 2 + (ys - y) ** 2
        clean[rows, cols] += BLOB_AMPLITUDE * np.exp(-r_sq / (2.0 * BLOB_SIGMA_PX**2))
    return clean


def render_phantom(
    landmarks: np.ndarray,
    rng: np.random.Generator | None = None,
    size: int = GeneratorConfig.size,
    speckle_gamma: float = GeneratorConfig.speckle_gamma,
) -> np.ndarray:
    """Render lines and blobs, then multiply in speckle and clamp to [0,1].

    With ``speckle_gamma`` zero the output is a deterministic function of the
    landmarks alone. Raises ``DataError`` unless ``landmarks`` is a (6, 2)
    array of (x, y) pixel coordinates within ±``COORD_LIMIT`` (about 1.7e153).
    """
    clean = _clean_image(_checked_landmarks(landmarks), size)
    if speckle_gamma > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        clean = clean * (1.0 + speckle_gamma * rng.uniform(-1.0, 1.0, size=clean.shape))
    return np.clip(clean, 0.0, 1.0).astype(np.float32)


def _class_requests(n: int, balance: float, seed: int) -> list[str]:
    n_abnormal = int(round(n * balance))
    requests = ["abnormal"] * n_abnormal + ["normal"] * (n - n_abnormal)
    order_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0DD5]))
    order_rng.shuffle(requests)
    return requests


def generate_dataset(out_dir: str | Path, config: GeneratorConfig) -> Path:
    """Write images (tensor + PGM) and the manifest; returns the manifest path."""
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    requests = _class_requests(config.n_samples, config.class_balance, config.seed)
    rows: list[dict] = []
    for index, request in enumerate(requests):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, index]))
        geometry = sample_geometry(request, rng=rng, size=config.size)
        image = render_phantom(geometry.landmarks, rng=rng, size=config.size, speckle_gamma=config.speckle_gamma)
        stem = f"sample_{index:04d}"
        write_image_tensor(out / f"{stem}.tgt", image)
        write_pgm(out / f"{stem}.pgm", image)
        row = {"file": f"{stem}.tgt"}
        for i in range(6):
            row[f"x{i + 1}"] = f"{geometry.landmarks[i, 0]:.4f}"
            row[f"y{i + 1}"] = f"{geometry.landmarks[i, 1]:.4f}"
        row["label"] = str(geometry.label)
        row["alpha_deg"] = f"{geometry.angles.alpha:.4f}"
        row["beta_deg"] = f"{geometry.angles.beta:.4f}"
        row["spacing_mm_px"] = f"{config.spacing:.6f}"
        if config.group_size:
            row[GROUP_COLUMN] = str(index // config.group_size)
        rows.append(row)
    manifest = out / MANIFEST_NAME
    write_manifest(manifest, rows)
    return manifest
