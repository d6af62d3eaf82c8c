"""Fold construction, cross-validation aggregation and the ablation table."""

import warnings

import numpy as np
import pytest

from hipgraf import experiments, metrics
from hipgraf.autodiff import no_grad
from hipgraf.config import EvalConfig, ModelConfig, TrainConfig
from hipgraf.errors import ConfigError
from hipgraf.experiments import (
    ABLATION_VARIANTS,
    REFERENCE_FOOTER,
    ablation_csv,
    ablation_run,
    detect,
    evaluate_model,
    kfold_run,
    kfold_split,
)
from hipgraf.metrics import METRICS_CSV_HEADER, FoldMetrics, decode_landmarks, metrics_csv, mre, radial_errors_mm, sdr
from hipgraf.nets.model import build_model
from hipgraf.phantom import render_phantom, sample_geometry

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

    def test_metrics_csv_is_the_header_and_the_aggregate_row(self):
        # the per-fold results feed the aggregate but get no row of their own
        samples = make_samples(6, size=32, seed=22)
        model_cfg, train_cfg = tiny_cfgs()
        report = kfold_run(samples, model_cfg, train_cfg, EvalConfig(folds=2))
        m = report.aggregate
        row = f"full,all,{m.mre_mm:.4f},{m.mre_sd:.4f},{m.sdr[0]:.2f},{m.sdr[1]:.2f},{m.sdr[2]:.2f},{m.acc:.4f},6"
        assert metrics_csv([report]) == f"{METRICS_CSV_HEADER}\n{row}\n"

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

    def test_one_radial_error_pass_per_sample(self, monkeypatch):
        samples = make_samples(5, size=32, seed=27)
        model = build_model(tiny_cfgs(variant="full")[0], seed=3)
        calls = []
        counted = lambda *args: calls.append(args) or radial_errors_mm(*args)  # noqa: E731
        monkeypatch.setattr(experiments, "radial_errors_mm", counted)
        monkeypatch.setattr(metrics, "radial_errors_mm", counted)  # what mre calls
        evaluate_model(model, samples)
        assert len(calls) == len(samples)


# detect() of the default model (seed 0) on the 8 phantoms of TestDetectReference,
# recorded before matmul folded a 2-D operand's leading axes in its forward
STORED_COORDS = [
    [(39.77010630071163, 52.1113947480917), (124.0, 23.880300298333168), (67.7640119343996, 95.56194713711739), (101.77063572406769, 44.087142176926136), (0.0, 112.06183588504791), (60.2634756565094, 11.174130022525787)],
    [(39.772403821349144, 52.15249374508858), (124.0, 23.88953672349453), (67.74255120754242, 95.65185543894768), (101.55331182479858, 44.077079966664314), (0.0, 112.07065185159445), (60.25262600183487, 11.193490862846375)],
    [(39.73948299884796, 52.111625507473946), (124.0, 23.872289776802063), (67.78033083677292, 95.67768180370331), (101.81009042263031, 44.06921178847551), (0.0, 112.06033588945866), (60.27053886651993, 11.181358635425568)],
    [(39.76258987188339, 52.20800460875034), (124.0, 23.87070868909359), (60.40062752366066, 11.676404654979706), (35.427839159965515, 43.771468102931976), (0.0, 112.06362536549568), (60.24987268447876, 11.193373024463654)],
    [(39.7627499550581, 52.16398936510086), (124.0, 23.875446870923042), (67.76954634487629, 95.6486005783081), (101.44738948345184, 44.08327242732048), (0.0, 112.06196646764874), (60.275220066308975, 11.188562572002411)],
    [(39.61521703004837, 52.09675703942776), (124.0, 23.887003801763058), (67.71655812859535, 95.65480923652649), (101.41711187362671, 44.082265600562096), (0.0, 112.07560220360756), (60.25672698020935, 11.190341889858246)],
    [(39.85095398128033, 52.171723648905754), (124.0, 23.879199624061584), (67.77109241485596, 95.52796971797943), (101.84856915473938, 44.06240397319198), (0.0, 112.06556564569473), (60.24745520949364, 11.18863582611084)],
    [(39.753223702311516, 52.15460284054279), (124.0, 23.878868654370308), (67.72780057787895, 95.67859157919884), (101.53743541240692, 44.06229820474982), (0.0, 112.06919315457344), (60.25728365778923, 11.18524295091629)],
]
STORED_PROBS = [0.7892329599791124, 0.7883956413985047, 0.7884929939246209, 0.7889680707966509, 0.7888131350272767, 0.7883704230229057, 0.7886970374812068, 0.7883234807600067]


class TestDetectReference:
    def test_default_model_matches_the_recorded_detections(self):
        rng = np.random.default_rng(11)
        images = [render_phantom(sample_geometry(rng=rng).landmarks, rng=rng) for _ in range(8)]
        coords, probs = detect(build_model(ModelConfig(), seed=0), images)
        # the heatmap stack is bit-identical, so the decoded coordinates are too;
        # the logit goes through folded GEMMs, whose rounding may differ in the last bit
        np.testing.assert_array_equal(np.stack(coords), np.asarray(STORED_COORDS))
        np.testing.assert_allclose(probs, STORED_PROBS, rtol=0, atol=1e-6)

    def test_a_very_negative_logit_gives_probability_zero_without_warning(self):
        model = build_model(tiny_cfgs()[0], seed=0)
        images = [render_phantom(sample_geometry(rng=np.random.default_rng(3), size=32).landmarks, size=32)]
        with no_grad():
            logit = float(model.forward(np.stack(images)[:, None]).logit.data[0])
        model.refiner.w_out.data *= -1e4 / logit  # the logit is linear in w_out
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1/(1+exp(1e4)) overflowed in exp
            _, probs = detect(model, images)
        assert probs == [0.0]


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
