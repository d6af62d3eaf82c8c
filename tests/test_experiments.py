"""Fold construction, cross-validation aggregation and the ablation table."""

import numpy as np
import pytest

from hipgraf.config import EvalConfig, ModelConfig, TrainConfig
from hipgraf.errors import ConfigError
from hipgraf.experiments import (
    ABLATION_VARIANTS,
    REFERENCE_FOOTER,
    ablation_csv,
    ablation_run,
    evaluate_model,
    kfold_run,
    kfold_split,
)
from hipgraf.metrics import METRICS_CSV_HEADER, FoldMetrics, decode_landmarks, mre, radial_errors_mm, sdr
from hipgraf.nets.model import build_model

from conftest import make_samples, toy_backbone


class TestKfoldSplit:
    def test_folds_disjoint_and_covering(self):
        folds = kfold_split(500, 5, seed=0)
        assert [len(f) for f in folds] == [100] * 5
        joined = np.concatenate(folds)
        assert len(set(joined.tolist())) == 500

    def test_same_seed_same_split(self):
        a = kfold_split(40, 5, seed=3)
        b = kfold_split(40, 5, seed=3)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_different_seed_differs(self):
        a = kfold_split(40, 5, seed=3)
        b = kfold_split(40, 5, seed=4)
        assert any(not np.array_equal(fa, fb) for fa, fb in zip(a, b))

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            kfold_split(3, 5, seed=0)

    def test_groups_never_straddle_folds(self):
        groups = [i // 4 for i in range(40)]
        folds = kfold_split(40, 5, seed=1, groups=groups)
        for fold in folds:
            for g in set(groups[i] for i in fold):
                members = [i for i in range(40) if groups[i] == g]
                assert all(i in fold for i in members)


def tiny_cfgs(variant="full"):
    model_cfg = ModelConfig(backbone=toy_backbone(32), variant=variant)
    train_cfg = TrainConfig(lr=1e-3, epochs=1, batch_size=2, lam=0.1, sigma=1.0, hflip_prob=0.0, seed=0, max_steps=2)
    return model_cfg, train_cfg


class TestKfoldRun:
    def test_aggregate_is_mean_of_fold_mres(self):
        samples = make_samples(8, size=32, seed=21)
        model_cfg, train_cfg = tiny_cfgs()
        report = kfold_run(samples, model_cfg, train_cfg, EvalConfig(folds=2))
        assert len(report.folds) == 2
        assert report.aggregate.mre_mm == pytest.approx(np.mean([f.mre_mm for f in report.folds]))
        assert report.aggregate.mre_sd == pytest.approx(np.std([f.mre_mm for f in report.folds]))
        assert report.aggregate.n == 8

    def test_structural_invariants(self):
        samples = make_samples(6, size=32, seed=22)
        model_cfg, train_cfg = tiny_cfgs()
        report = kfold_run(samples, model_cfg, train_cfg, EvalConfig(folds=2))
        for m in report.folds + [report.aggregate]:
            assert m.mre_mm >= 0.0
            assert 0.0 <= m.sdr[0] <= m.sdr[1] <= m.sdr[2] <= 100.0
            assert m.acc is not None and 0.0 <= m.acc <= 1.0

    def test_grouped_requires_group_column(self):
        samples = make_samples(6, size=32, seed=23)
        model_cfg, train_cfg = tiny_cfgs()
        with pytest.raises(ConfigError, match="group column"):
            kfold_run(samples, model_cfg, train_cfg, EvalConfig(folds=2, grouped=True))


class TestEvaluateModel:
    def test_no_tgcn_variant_reports_no_accuracy(self):
        samples = make_samples(4, size=32, seed=24)
        model_cfg, _ = tiny_cfgs(variant="no_tgcn")
        model = build_model(model_cfg, seed=0)
        metrics = evaluate_model(model, samples)
        assert metrics.acc is None

    def test_full_variant_reports_accuracy(self):
        samples = make_samples(4, size=32, seed=25)
        model_cfg, _ = tiny_cfgs(variant="full")
        model = build_model(model_cfg, seed=0)
        metrics = evaluate_model(model, samples)
        assert metrics.acc is not None

    @pytest.mark.parametrize("variant", ["full", "no_tgcn"])
    def test_matches_a_recorded_per_sample_evaluation(self, variant):
        # reference: one recording batch-1 forward per sample, scored by hand
        samples = make_samples(7, size=32, seed=26)
        model = build_model(tiny_cfgs(variant=variant)[0], seed=3)
        per_sample_mre, distances, correct = [], [], []
        for sample in samples:
            out = model.forward(sample.image[None, None])
            assert out.heatmaps.requires_grad
            coords, _ = decode_landmarks(out.detection_stack().data[0], upscale=model.upscale)
            per_sample_mre.append(mre(coords, sample.landmarks, sample.spacing))
            distances.extend(radial_errors_mm(coords, sample.landmarks, sample.spacing).tolist())
            if out.logit is not None:
                prob = 1.0 / (1.0 + np.exp(-np.asarray(out.logit.data, dtype=np.float64)[0]))
                correct.append((prob >= 0.5) == bool(sample.label))
        mres = np.asarray(per_sample_mre)
        expected = FoldMetrics(
            fold="x",
            mre_mm=float(mres.mean()),
            mre_sd=float(mres.std()),
            sdr=tuple(sdr(distances)),
            acc=float(np.mean(correct)) if model.refiner is not None else None,
            n=len(samples),
        )
        assert evaluate_model(model, samples, fold="x", batch_size=3) == expected


@pytest.fixture(scope="module")
def reports():
    samples = make_samples(8, size=32, seed=26)
    model_cfg, train_cfg = tiny_cfgs()
    return ablation_run(samples, model_cfg, train_cfg, EvalConfig(folds=2))


class TestAblation:
    def test_four_variants_in_table_order(self, reports):
        assert tuple(r.variant for r in reports) == ABLATION_VARIANTS

    def test_csv_shape_and_footer(self, reports):
        text = ablation_csv(reports)
        lines = text.strip().splitlines()
        assert lines[0] == METRICS_CSV_HEADER
        data_rows = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data_rows) == 4
        assert lines[-1] == REFERENCE_FOOTER
        # 4 metric columns per row: mre plus the three SDR thresholds
        for row in data_rows:
            fields = row.split(",")
            assert len(fields) == 9
            assert float(fields[2]) >= 0.0
            assert float(fields[4]) <= float(fields[5]) <= float(fields[6])

    def test_headless_variants_leave_acc_empty(self, reports):
        text = ablation_csv(reports)
        for row in text.strip().splitlines()[1:]:
            if row.startswith("#"):
                continue
            fields = row.split(",")
            if fields[0] in ("no_tgcn", "concat_baseline"):
                assert fields[7] == ""
            else:
                assert fields[7] != ""

    def test_identical_splits_across_variants(self):
        # the split depends only on (n, k, seed), never on the variant
        a = kfold_split(8, 2, seed=0)
        b = kfold_split(8, 2, seed=0)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
