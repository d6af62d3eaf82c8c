"""Joint loss, ground-truth heatmap synthesis, augmentation and the Adam loop.

The landmark loss supervises both the head heatmaps and the refined stack
(equal weight) so the graph refiner cannot drift away from the detection
target; the classification loss enters the total scaled by ``lambda``.

Determinism: the shuffle order of epoch e comes from a generator seeded with
(seed, e) and the augmentation decision for dataset index i in epoch e from
(seed, i, e), so results do not depend on iteration or prefetch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import Tensor, bce_loss, mse_loss
from .config import TrainConfig
from .dataset import ImageSample, check_image_size
from .errors import ConfigError, DataError, NumericError
from .nets.model import LandmarkNet, ModelOutput

LOSS_LOG_HEADER = "epoch,step,l_landmark,l_classify,total"


@dataclass
class LossBreakdown:
    """Scalar loss tensors for one step; total = landmark + lam * classify."""

    landmark: Tensor
    classify: Tensor | None
    total: Tensor


def make_gt_heatmaps(landmarks: np.ndarray, sigma: float, feature_size: int, input_size: int, name: str) -> np.ndarray:
    """(6, f, f) Gaussian targets; coordinates shrink by input/feature.

    The peak value is exp of minus the squared grid distance, so a landmark
    sitting exactly on a grid point scores 1.0 there.
    """
    pts = np.asarray(landmarks, dtype=np.float64)
    if pts.shape != (6, 2):
        raise DataError(f"sample {name}: expected (6,2) landmarks, got shape {pts.shape}")
    if pts.min() < 0 or pts.max() > input_size - 1:
        bad = int(np.argmax((pts.min(axis=1) < 0) | (pts.max(axis=1) > input_size - 1)))
        raise DataError(
            f"sample {name}: landmark {bad + 1} at ({pts[bad, 0]:.2f},{pts[bad, 1]:.2f}) "
            f"outside {input_size}x{input_size} image"
        )
    scale = feature_size / input_size
    ys, xs = np.mgrid[0:feature_size, 0:feature_size].astype(np.float64)
    stack = np.empty((6, feature_size, feature_size), dtype=np.float32)
    for i, (x, y) in enumerate(pts * scale):
        stack[i] = np.exp(-((xs - x) ** 2 + (ys - y) ** 2) / (2.0 * sigma**2)).astype(np.float32)
    return stack


def augment_hflip(sample: ImageSample) -> ImageSample:
    """Mirror the image about the vertical axis and remap landmark x coords.

    Landmark identities keep their indices; none of the six points has a
    left/right counterpart to swap with.
    """
    h, w = sample.image.shape
    flipped = np.ascontiguousarray(sample.image[:, ::-1])
    landmarks = sample.landmarks.copy()
    landmarks[:, 0] = (w - 1) - landmarks[:, 0]
    return replace(sample, image=flipped, landmarks=landmarks)


def total_loss(
    heatmaps: Tensor,
    refined: Tensor | None,
    gt_heatmaps,
    logit: Tensor | None,
    labels,
    lam: float,
) -> LossBreakdown:
    """Joint objective: landmark MSE (dual supervision) + lam * class BCE."""
    l_landmark = mse_loss(heatmaps, gt_heatmaps)
    if refined is not None:
        l_landmark = 0.5 * (l_landmark + mse_loss(refined, gt_heatmaps))
    if logit is None:
        return LossBreakdown(landmark=l_landmark, classify=None, total=l_landmark)
    l_classify = bce_loss(logit, labels)
    total = l_landmark + lam * l_classify
    return LossBreakdown(landmark=l_landmark, classify=l_classify, total=total)


# elements per Adam block: the dozen in-place passes over one block of
# parameter, gradient and moments stay in cache instead of streaming memory
ADAM_BLOCK = 1 << 16
# Adam's beta1, beta2 and eps: the defaults of Kingma & Ba 2015, the paper's one setting
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction and the fixed ``ADAM_BETA1``/``ADAM_BETA2``/``ADAM_EPS``.

    The step runs block by block through two scratch rows per dtype, so it
    allocates nothing. Each ufunc keeps the operand order of the textbook
    expressions m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= ((lr/c1)*m) / (sqrt(v/c2) + eps), so results are bit-identical to them.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros(p.shape, dtype=p.dtype) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape, dtype=p.dtype) for k, p in params.items()}
        self._scratch = {p.dtype: np.empty((2, ADAM_BLOCK), dtype=p.dtype) for p in params.values()}

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)  # so the flat view below writes through
            flat = [arr.reshape(-1) for arr in (p.data, p.grad, self.m[name], self.v[name])]
            scratch = self._scratch[p.dtype]
            for start in range(0, p.size, ADAM_BLOCK):
                w, g, m, v = (arr[start : start + ADAM_BLOCK] for arr in flat)
                a, b = scratch[:, : g.size]
                m *= ADAM_BETA1
                np.multiply(1.0 - ADAM_BETA1, g, out=a)
                m += a
                v *= ADAM_BETA2
                np.multiply(1.0 - ADAM_BETA2, g, out=a)
                a *= g
                v += a
                np.multiply(self.lr / c1, m, out=a)
                np.divide(v, c2, out=b)
                np.sqrt(b, out=b)
                b += ADAM_EPS
                a /= b
                w -= a


@dataclass
class LogRow:
    epoch: int
    step: int
    l_landmark: float
    l_classify: float
    total: float

    def as_csv(self) -> str:
        return f"{self.epoch},{self.step},{self.l_landmark:.6f},{self.l_classify:.6f},{self.total:.6f}"


@dataclass
class TrainResult:
    optimizer: Adam
    history: list[LogRow] = field(default_factory=list)
    epochs_run: int = 0

    @property
    def steps_run(self) -> int:
        return len(self.history)


SHUFFLE_STREAM = 0x5F0E


def _augmented(sample: ImageSample, index: int, epoch: int, cfg: TrainConfig) -> ImageSample:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index, epoch]))
    if cfg.hflip_prob > 0 and rng.random() < cfg.hflip_prob:
        return augment_hflip(sample)
    return sample


def make_batch(samples: list[ImageSample], cfg: TrainConfig, model: LandmarkNet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    bb = model.config.backbone
    images = np.stack([s.image for s in samples])[:, None]
    gt = np.stack([make_gt_heatmaps(s.landmarks, cfg.sigma, bb.feature_size, bb.input_size, name=s.name) for s in samples])
    labels = np.array([float(s.label) for s in samples])
    return images, gt, labels


def train(samples: list[ImageSample], model: LandmarkNet, cfg: TrainConfig, log_path: str | Path | None = None) -> TrainResult:
    """Run the optimizer loop; deterministic for a fixed seed and dataset."""
    cfg.validate()
    if not samples:
        raise ConfigError("training needs a non-empty dataset")
    for s in samples:
        check_image_size(s.image, model.config.backbone.input_size, f"sample {s.name}")
    optimizer = Adam(model.parameters(), lr=cfg.lr)
    result = TrainResult(optimizer=optimizer)
    log_fh = open(log_path, "w") if log_path is not None else None
    if log_fh:
        log_fh.write(LOSS_LOG_HEADER + "\n")
    step = 0
    try:
        for epoch in range(cfg.epochs):
            shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch, SHUFFLE_STREAM]))
            order = shuffle_rng.permutation(len(samples))
            for start in range(0, len(order), cfg.batch_size):
                indices = order[start : start + cfg.batch_size]
                batch = [_augmented(samples[i], int(i), epoch, cfg) for i in indices]
                images, gt, labels = make_batch(batch, cfg, model)
                out: ModelOutput = model.forward(images)
                losses = total_loss(out.heatmaps, out.refined, gt, out.logit, labels, cfg.lam)
                total = losses.total.item()
                if not math.isfinite(total):
                    raise NumericError(f"non-finite loss {total} at step {step + 1} (epoch {epoch})")
                l_landmark = losses.landmark.item()
                l_classify = 0.0 if losses.classify is None else losses.classify.item()
                model.zero_grad()
                losses.total.backward()
                del out, losses  # free this step's tape before the update and the next forward
                optimizer.step()
                step += 1
                row = LogRow(epoch=epoch, step=step, l_landmark=l_landmark, l_classify=l_classify, total=total)
                result.history.append(row)
                if log_fh:
                    log_fh.write(row.as_csv() + "\n")
                if cfg.max_steps and step >= cfg.max_steps:
                    result.epochs_run = epoch + 1
                    return result
            result.epochs_run = epoch + 1
    finally:
        if log_fh:
            log_fh.close()
    return result
