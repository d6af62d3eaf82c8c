"""Cross-validation and the ablation harness.

Folds come from a seeded permutation (optionally permuting whole subject
groups so no group straddles folds). Each fold trains a fresh model on the
remaining folds and evaluates on the held-out one; fold results aggregate as
mean plus standard deviation across folds. The ablation harness repeats the
protocol for the four model variants under identical splits and seeds, so
rows differ only in architecture.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .autodiff import no_grad
from .autodiff.ops import _sigmoid
from .config import EvalConfig, ModelConfig, TrainConfig
from .dataset import ImageSample
from .errors import ConfigError
from .metrics import FoldMetrics, MetricsReport, decode_landmarks, metrics_csv, radial_errors_mm, sdr
from .nets.model import LandmarkNet, build_model
from .training import train

ABLATION_VARIANTS = ("concat_baseline", "no_mmf", "no_tgcn", "full")

# Published clinical-scale result for the full variant, printed as a
# non-binding footer for context only; desk-scale runs are not comparable.
REFERENCE_FOOTER = (
    "# reference (published, clinical dataset, not asserted): "
    "full mre_mm=0.4364+-0.0388 sdr=72.33/94.73/98.47"
)

SPLIT_STREAM = 0xF01D
FOLD_MODEL_STREAM = 0x0DE1
DETECT_BATCH = 8  # images per forward pass in detect and evaluate_model


def kfold_split(n: int, k: int, seed: int, groups: list[int] | None = None) -> list[np.ndarray]:
    """Disjoint, covering index folds from a seeded permutation."""
    if k < 2:
        raise ConfigError(f"k-fold needs k >= 2, got {k}")
    if k > n:
        raise ConfigError(f"k={k} exceeds dataset size {n}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, SPLIT_STREAM]))
    if groups is None:
        order = rng.permutation(n)
        return [np.sort(chunk) for chunk in np.array_split(order, k)]
    groups_arr = np.asarray(groups)
    unique = np.unique(groups_arr)
    if k > unique.size:
        raise ConfigError(f"k={k} exceeds the number of groups {unique.size}")
    group_order = rng.permutation(unique)
    folds: list[list[int]] = [[] for _ in range(k)]
    sizes = [0] * k
    for g in group_order:
        members = np.nonzero(groups_arr == g)[0]
        target = int(np.argmin(sizes))
        folds[target].extend(int(i) for i in members)
        sizes[target] += members.size
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def detect(model: LandmarkNet, images: Sequence[np.ndarray], batch_size: int = DETECT_BATCH) -> tuple[list[np.ndarray], list[float] | None]:
    """Decoded (6,2) landmarks per ``(H, W)`` image, plus P(abnormal) when the model classifies.

    ``images`` is a list of images or an ``(n, H, W)`` array. One forward per
    batch of ``batch_size`` images, recorded on no tape.
    """
    upscale = model.upscale
    coords: list[np.ndarray] = []
    probs: list[float] | None = [] if model.refiner is not None else None
    with no_grad():
        for start in range(0, len(images), batch_size):
            out = model.forward(np.stack(images[start : start + batch_size])[:, None])
            stacks = out.detection_stack().data
            coords.extend(decode_landmarks(stack, upscale=upscale)[0] for stack in stacks)
            if probs is not None:
                probs.extend(_sigmoid(np.asarray(out.logit.data, dtype=np.float64)))
    return coords, probs


def score_detections(samples: list[ImageSample], coords: list[np.ndarray], probs: list[float] | None, fold: str = "all") -> FoldMetrics:
    """MRE, SDR and (when ``probs`` is given) accuracy of ``detect``'s results."""
    errors = [radial_errors_mm(c, s.landmarks, s.spacing) for c, s in zip(coords, samples)]
    mres = np.asarray([float(e.mean()) for e in errors])
    acc = None if probs is None else float(np.mean([(p >= 0.5) == bool(s.label) for p, s in zip(probs, samples)]))
    return FoldMetrics(
        fold=fold,
        mre_mm=float(mres.mean()),
        mre_sd=float(mres.std()),
        sdr=tuple(sdr(errors)),
        acc=acc,
        n=len(samples),
    )


def evaluate_model(model: LandmarkNet, samples: list[ImageSample], fold: str = "all", batch_size: int = DETECT_BATCH) -> FoldMetrics:
    """Decode the detection stack and score MRE, SDR and (if present) accuracy."""
    return score_detections(samples, *detect(model, [s.image for s in samples], batch_size), fold=fold)


def _aggregate(folds: list[FoldMetrics]) -> FoldMetrics:
    mres = np.array([f.mre_mm for f in folds])
    sdrs = np.array([f.sdr for f in folds])
    accs = [f.acc for f in folds if f.acc is not None]
    return FoldMetrics(
        fold="all",
        mre_mm=float(mres.mean()),
        mre_sd=float(mres.std()),
        sdr=tuple(float(x) for x in sdrs.mean(axis=0)),
        acc=float(np.mean(accs)) if accs else None,
        n=int(sum(f.n for f in folds)),
    )


def kfold_run(
    samples: list[ImageSample],
    model_config: ModelConfig,
    train_config: TrainConfig,
    eval_config: EvalConfig,
) -> MetricsReport:
    """Train and evaluate once per fold; deterministic for a fixed seed."""
    eval_config = eval_config.validate()
    groups = None
    if eval_config.grouped:
        if any(s.group is None for s in samples):
            raise ConfigError("grouped folds requested but the manifest has no group column")
        groups = [s.group for s in samples]
    folds = kfold_split(len(samples), eval_config.folds, train_config.seed, groups=groups)
    report = MetricsReport(variant=model_config.variant)
    for fold_id, held_out in enumerate(folds):
        held = set(int(i) for i in held_out)
        train_samples = [s for i, s in enumerate(samples) if i not in held]
        test_samples = [samples[int(i)] for i in held_out]
        model_seed_rng = np.random.SeedSequence([train_config.seed, fold_id, FOLD_MODEL_STREAM])
        model_seed = int(model_seed_rng.generate_state(1)[0])
        model = build_model(model_config, seed=model_seed)
        fold_train_cfg = replace(train_config, seed=train_config.seed + fold_id)
        train(train_samples, model, fold_train_cfg)
        report.folds.append(evaluate_model(model, test_samples, fold=str(fold_id)))
    report.aggregate = _aggregate(report.folds)
    return report


def ablation_run(
    samples: list[ImageSample],
    model_config: ModelConfig,
    train_config: TrainConfig,
    eval_config: EvalConfig,
) -> list[MetricsReport]:
    """The four variants under identical splits and seeds, in table order."""
    reports = []
    for variant in ABLATION_VARIANTS:
        cfg = replace(model_config, variant=variant).validate()
        reports.append(kfold_run(samples, cfg, train_config, eval_config))
    return reports


def ablation_csv(reports: list[MetricsReport]) -> str:
    """Comparison table: one aggregate row per variant plus a reference footer."""
    return metrics_csv(reports) + REFERENCE_FOOTER + "\n"
