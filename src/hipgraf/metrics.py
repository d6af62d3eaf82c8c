"""Landmark decoding, radial-error metrics and the Graf angle rule.

Angles between the three landmark lines are measured as unsigned angles
between undirected lines, so swapping the two endpoints of a pair can never
change them. The clinical decision rule is: normal if and only if the
baseline/bony-roof angle alpha exceeds 60 degrees and the baseline/cartilage
angle beta stays below 77 degrees; both comparisons are strict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .dataset import write_pgm
from .errors import ContractError, DegenerateGeometryError, DimensionError

SDR_THRESHOLDS_MM = (0.5, 1.0, 1.5)
OVERLAY_ARM = 2  # each landmark cross of write_overlay reaches this many pixels from its center

ALPHA_NORMAL_MIN_DEG = 60.0
BETA_NORMAL_MAX_DEG = 77.0

LABEL_NORMAL = 0
LABEL_ABNORMAL = 1


@dataclass(frozen=True)
class GrafAngles:
    alpha: float
    beta: float


def _line_angle_deg(p0: np.ndarray, p1: np.ndarray, q0: np.ndarray, q1: np.ndarray) -> float:
    u = np.asarray(p1, dtype=np.float64) - np.asarray(p0, dtype=np.float64)
    v = np.asarray(q1, dtype=np.float64) - np.asarray(q0, dtype=np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateGeometryError("a landmark pair has coincident points; its line is undefined")
    cosine = abs(float(u @ v)) / (nu * nv)
    return float(np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0))))


def graf_angles(landmarks: np.ndarray) -> GrafAngles:
    """Alpha and beta from the six landmark coordinates, order-insensitive.

    Landmarks 1-2 form the baseline, 3-4 the bony roof line (alpha) and 5-6
    the cartilage roof line (beta).
    """
    pts = np.asarray(landmarks, dtype=np.float64)
    if pts.shape != (6, 2):
        raise DimensionError(f"expected (6,2) landmarks, got shape {pts.shape}")
    alpha = _line_angle_deg(pts[0], pts[1], pts[2], pts[3])
    beta = _line_angle_deg(pts[0], pts[1], pts[4], pts[5])
    return GrafAngles(alpha=alpha, beta=beta)


def classify_graf(angles: GrafAngles) -> int:
    """0 for normal, 1 for abnormal under the strict-threshold rule."""
    normal = angles.alpha > ALPHA_NORMAL_MIN_DEG and angles.beta < BETA_NORMAL_MAX_DEG
    return LABEL_NORMAL if normal else LABEL_ABNORMAL


def _subpixel_offset(lower: float, center: float, upper: float) -> float:
    denom = 2.0 * center - lower - upper
    if denom <= 0.0:
        return 0.0
    return float(np.clip(0.5 * (upper - lower) / denom, -0.5, 0.5))


def decode_landmarks(heatmaps, upscale: int) -> tuple[np.ndarray, list[bool]]:
    """Peak locations of a (6,h,w) stack as (x,y) in input-scale pixels.

    Per channel: row-major argmax (earliest index wins ties), quadratic
    refinement from the two axis neighbors, then multiplication by
    ``upscale``. A constant channel, or one holding a NaN or an infinity,
    decodes to the map center and raises its degenerate flag instead of an
    error.
    """
    stack = heatmaps.data if isinstance(heatmaps, Tensor) else np.asarray(heatmaps)
    if stack.ndim != 3:
        raise DimensionError(f"expected a (k,h,w) heatmap stack, got shape {stack.shape}")
    k, h, w = stack.shape
    coords = np.zeros((k, 2), dtype=np.float64)
    degenerate: list[bool] = []
    for idx in range(k):
        channel = stack[idx]
        if not np.isfinite(channel).all() or channel.max() == channel.min():
            coords[idx] = ((w - 1) / 2.0 * upscale, (h - 1) / 2.0 * upscale)
            degenerate.append(True)
            continue
        flat = int(channel.argmax())
        r, c = divmod(flat, w)
        dy = _subpixel_offset(channel[r - 1, c], channel[r, c], channel[r + 1, c]) if 0 < r < h - 1 else 0.0
        dx = _subpixel_offset(channel[r, c - 1], channel[r, c], channel[r, c + 1]) if 0 < c < w - 1 else 0.0
        coords[idx] = ((c + dx) * upscale, (r + dy) * upscale)
        degenerate.append(False)
    return coords, degenerate


def radial_errors_mm(pred: np.ndarray, gt: np.ndarray, spacing: float) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 2:
        raise ContractError(f"expected matching (k,2) point sets, got {pred.shape} and {gt.shape}")
    return np.linalg.norm(pred - gt, axis=1) * spacing


def mre(pred: np.ndarray, gt: np.ndarray, spacing: float) -> float:
    """Mean Euclidean distance over the landmark set, in millimetres."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != (6, 2) or gt.shape != (6, 2):
        raise ContractError(f"mre expects six points on each side, got {pred.shape} and {gt.shape}")
    return float(radial_errors_mm(pred, gt, spacing).mean())


def sdr(distances_mm) -> list[float]:
    """Percentage of distances at or below each of ``SDR_THRESHOLDS_MM`` (boundary counts)."""
    distances = np.asarray(distances_mm, dtype=np.float64).reshape(-1)
    if distances.size == 0:
        raise ContractError("sdr needs at least one distance")
    return [float(100.0 * (distances <= t).sum() / distances.size) for t in SDR_THRESHOLDS_MM]


@dataclass
class FoldMetrics:
    """Metrics of one evaluation pass (one fold, or a whole dataset)."""

    fold: str
    mre_mm: float
    mre_sd: float
    sdr: tuple[float, float, float]
    acc: float | None
    n: int


@dataclass
class MetricsReport:
    variant: str
    folds: list[FoldMetrics] = field(default_factory=list)
    aggregate: FoldMetrics | None = None


METRICS_CSV_HEADER = "variant,fold,mre_mm,mre_sd,sdr05,sdr10,sdr15,acc,n"


def metrics_csv(reports: list[MetricsReport]) -> str:
    """The header line plus each report's aggregate row, newline-terminated."""
    lines = [METRICS_CSV_HEADER]
    for report in reports:
        m = report.aggregate
        acc = "" if m.acc is None else f"{m.acc:.4f}"
        lines.append(
            f"{report.variant},{m.fold},{m.mre_mm:.4f},{m.mre_sd:.4f},"
            f"{m.sdr[0]:.2f},{m.sdr[1]:.2f},{m.sdr[2]:.2f},{acc},{m.n}"
        )
    return "\n".join(lines) + "\n"


def write_overlay(path: str | Path, image: np.ndarray, pred: np.ndarray, gt: np.ndarray | None = None) -> None:
    """PGM with landmark crosses burned in: gray 128 for gt, 255 for pred."""
    canvas = np.array(image, dtype=np.float64)
    h, w = canvas.shape

    def burn(points: np.ndarray, level: float) -> None:
        for x, y in np.asarray(points, dtype=np.float64):
            cx, cy = int(round(x)), int(round(y))
            for d in range(-OVERLAY_ARM, OVERLAY_ARM + 1):
                if 0 <= cy + d < h and 0 <= cx < w:
                    canvas[cy + d, cx] = level
                if 0 <= cy < h and 0 <= cx + d < w:
                    canvas[cy, cx + d] = level

    if gt is not None:
        burn(gt, 128 / 255)
    burn(pred, 1.0)
    write_pgm(path, canvas)
