"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``. The trainability and
ablation criteria train real models on a shared 64-image phantom set and
dominate the runtime (several minutes on a desktop CPU).
"""

import time

import numpy as np
import pytest

from hipgraf.autodiff import (
    Tensor,
    bce_loss,
    concat,
    conv2d,
    layer_norm,
    matmul,
    maxpool2d,
    mse_loss,
    relu,
    sigmoid,
    transpose_conv2d,
    unfold_neighborhoods,
)
from hipgraf.checkpoint import load_checkpoint, restore_model, save_checkpoint
from hipgraf.cli import main as cli_main
from hipgraf.config import BackboneConfig, GeneratorConfig, ModelConfig, TrainConfig, merge_run_config, run_config_to_items
from hipgraf.dataset import read_manifest
from hipgraf.errors import FormatError
from hipgraf.experiments import evaluate_model
from hipgraf.metrics import GrafAngles, METRICS_CSV_HEADER, classify_graf, graf_angles, mre, sdr
from hipgraf.nets.fusion import modulated_fuse
from hipgraf.nets.graph import build_adjacency, gcn_layer, normalize_adjacency
from hipgraf.nets.model import build_model
from hipgraf.phantom import generate_dataset
from hipgraf.training import make_gt_heatmaps, total_loss, train

from attention_reference import softmax
from fusion_reference import extract_neighborhood, modulation_weight_map, modulation_weights
from gradcheck import as_float64, check_gradients

TOY16 = ModelConfig(
    backbone=BackboneConfig(
        input_size=16, feature_size=4, channels=8, unet_depth=2, patch_size=8, token_dim=8, transformer_layers=1, heads=2
    )
)


@pytest.fixture(scope="module")
def phantom64(tmp_path_factory):
    """The shared 64-image desk-scale dataset (128 px, 0.1 mm/px, balanced)."""
    out = tmp_path_factory.mktemp("phantom64")
    manifest = generate_dataset(out, GeneratorConfig(n_samples=64, class_balance=0.5, spacing=0.1, seed=0))
    return manifest


def _passed(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def rnd(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestCriterion1Gradients:
    """Finite-difference checks for every op plus the composed losses."""

    def _dual(self, values):
        f32 = {k: Tensor(v.astype(np.float32), requires_grad=True) for k, v in values.items()}
        f64 = {k: Tensor(v.astype(np.float32).astype(np.float64), requires_grad=True) for k, v in values.items()}
        return f32, f64

    def _check(self, build, values, tol64=1e-6, tol32=1e-3):
        f32, f64 = self._dual(values)
        e64 = check_gradients(lambda: build(f64), f64, h=1e-4)
        assert max(e64.values()) < tol64, e64
        e32 = check_gradients(lambda: build(f32), f32, h=1e-4, oracle_loss=lambda: build(f64).item(), oracle_params=f64)
        assert max(e32.values()) < tol32, e32
        return max(e64.values())

    def test_gradient_suite(self):
        start = time.monotonic()
        worst = 0.0

        worst = max(worst, self._check(lambda t: matmul(t["a"], t["b"]).sum(), {"a": rnd(3, 4, seed=1), "b": rnd(4, 2, seed=2)}))
        worst = max(
            worst,
            self._check(
                lambda t: conv2d(t["x"], t["w"], t["b"], padding=1).sum(),
                {"x": rnd(1, 2, 5, 5, seed=3), "w": rnd(3, 2, 3, 3, seed=4), "b": rnd(3, seed=5)},
            ),
        )
        worst = max(
            worst,
            self._check(
                lambda t: (transpose_conv2d(t["x"], t["w"], stride=2) * Tensor(rnd(1, 3, 6, 6, seed=8), dtype=t["x"].dtype)).sum(),
                {"x": rnd(1, 2, 3, 3, seed=6), "w": rnd(2, 3, 2, 2, seed=7)},
            ),
        )
        for activation in (relu, sigmoid):
            pts = np.random.default_rng(9).uniform(-3, 3, 100)
            pts = pts[np.abs(pts) > 0.05]
            worst = max(
                worst,
                self._check(
                    lambda t, f=activation: (f(t["x"]) * Tensor(rnd(t["x"].size, seed=10), dtype=t["x"].dtype)).sum(),
                    {"x": pts},
                ),
            )
        worst = max(
            worst,
            self._check(
                lambda t: (softmax(t["x"], axis=1) * Tensor(rnd(3, 5, seed=12), dtype=t["x"].dtype)).sum(),
                {"x": rnd(3, 5, seed=11)},
            ),
        )
        worst = max(
            worst,
            self._check(
                lambda t: (layer_norm(t["x"], axis=-1) * Tensor(rnd(2, 8, seed=14), dtype=t["x"].dtype)).sum(),
                {"x": rnd(2, 8, seed=13)},
            ),
        )
        worst = max(worst, self._check(lambda t: mse_loss(t["p"], Tensor(rnd(3, 4, seed=16), dtype=t["p"].dtype)), {"p": rnd(3, 4, seed=15)}))
        labels = (rnd(6, seed=17) > 0).astype(np.float64)
        worst = max(worst, self._check(lambda t: bce_loss(t["z"], labels), {"z": rnd(6, seed=18)}))
        worst = max(worst, self._check(lambda t: (maxpool2d(t["x"], 2) * 1.3).sum(), {"x": rnd(1, 2, 4, 4, seed=19)}))
        worst = max(
            worst,
            self._check(
                lambda t: (unfold_neighborhoods(t["x"], 5) * Tensor(rnd(1, 25, 2, 3, 3, seed=21), dtype=t["x"].dtype)).sum(),
                {"x": rnd(1, 2, 3, 3, seed=20)},
            ),
        )
        worst = max(
            worst,
            self._check(
                lambda t: (unfold_neighborhoods(t["x"], 3) * Tensor(rnd(1, 9, 2, 5, 5, seed=23), dtype=t["x"].dtype)).sum(),
                {"x": rnd(1, 2, 5, 5, seed=22)},
            ),
        )

        # composed mutual modulation fusion block
        probe = rnd(1, 2, 4, 4, seed=28)

        def mmf_block(t):
            fused = concat([modulated_fuse(t["f_l"], t["f_g"], 3), modulated_fuse(t["f_g"], t["f_l"], 3)], axis=1)
            return (conv2d(fused, t["w"], t["b"]) * Tensor(probe, dtype=t["w"].dtype)).sum()

        worst = max(
            worst,
            self._check(
                mmf_block,
                {
                    "f_l": rnd(1, 2, 4, 4, seed=24),
                    "f_g": rnd(1, 2, 4, 4, seed=25),
                    "w": rnd(2, 4, 1, 1, seed=26) * 0.5,
                    "b": np.zeros(2),
                },
            ),
        )

        # composed graph refinement stack
        a_norm = normalize_adjacency(build_adjacency())
        target = rnd(6, 16, seed=33)

        def gcn_stack(t):
            hidden = gcn_layer(t["g"], a_norm, t["w1"])
            out = gcn_layer(hidden, a_norm, t["w2"])
            return mse_loss(out, Tensor(np.abs(target), dtype=t["g"].dtype))

        worst = max(
            worst,
            self._check(
                gcn_stack,
                {"g": np.abs(rnd(6, 16, seed=29)) + 0.1, "w1": rnd(16, 16, seed=30) * 0.3, "w2": rnd(16, 16, seed=31) * 0.3},
            ),
        )

        # full model joint loss on the 16x16 toy config, float32 vs float64 oracle
        model32 = build_model(TOY16, seed=0)
        model64 = as_float64(build_model(TOY16, seed=0))
        images = np.random.default_rng(34).random((1, 16, 16)).astype(np.float32)
        gt = make_gt_heatmaps(np.full((6, 2), 8.0), 1.0, 4, 16, name="probe")[None]
        labels_full = np.array([1.0])

        def full_loss(model):
            out = model.forward(images)
            return total_loss(out.heatmaps, out.refined, gt, out.logit, labels_full, 0.1).total

        # h = 1e-5 here: perturbing early-layer weights at 1e-4 flips
        # downstream maxpool/relu selections often enough to bias the
        # central differences (the bias shrinks linearly with h)
        errors = check_gradients(
            lambda: full_loss(model32),
            model32.parameters(),
            h=1e-5,
            oracle_loss=lambda: full_loss(model64).item(),
            oracle_params=model64.parameters(),
        )
        assert max(errors.values()) < 1e-2, {k: v for k, v in errors.items() if v >= 1e-2}

        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
        _passed("1 gradient suite", f"worst per-op 64-bit err {worst:.2e}, full-model 32-bit err {max(errors.values()):.2e}, {elapsed:.1f}s")


class TestCriterion2Topology:
    def test_topology_oracle(self):
        a = build_adjacency()
        expected = np.zeros((6, 6))
        for i, j in ((0, 1), (2, 3), (4, 5)):
            expected[i, j] = expected[j, i] = 1.0
        np.testing.assert_array_equal(a, expected)

        np.testing.assert_array_equal(normalize_adjacency(a), (a + np.eye(6)) / 2.0)

        a_norm = normalize_adjacency(a)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            g = rng.standard_normal((6, 8)).astype(np.float32)
            w = rng.standard_normal((8, 8)).astype(np.float32)
            p = np.eye(6)[rng.permutation(6)]
            lhs = gcn_layer(Tensor(p.astype(np.float32) @ g), p @ a_norm @ p.T, Tensor(w)).data
            rhs = p @ gcn_layer(Tensor(g), a_norm, Tensor(w)).data
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        assert worst < 1e-6
        _passed("2 topology oracle", f"exact adjacency, exact (A+I)/2, equivariance err {worst:.2e} over 100 permutations")


class TestCriterion3Fusion:
    def test_fusion_oracle(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for trial in range(50):
            source = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
            guide = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
            out = modulated_fuse(Tensor(source), Tensor(guide), 3).data[0]
            ref = np.zeros_like(out, dtype=np.float64)
            for i in range(5):
                for j in range(5):
                    neighborhood = extract_neighborhood(source[0], i, j, 3)
                    weights = modulation_weights(guide[0, :, i, j], neighborhood)
                    ref[:, i, j] = weights @ neighborhood
            worst = max(worst, float(np.abs(out - ref).max()))
        assert worst < 1e-5

        wmap = modulation_weight_map(Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32)), Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32)), 3).data
        sums = wmap.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-6

        x = Tensor(rng.standard_normal((1, 3, 4, 4)).astype(np.float32))
        y = Tensor(rng.standard_normal((1, 3, 4, 4)).astype(np.float32))
        assert np.array_equal(modulated_fuse(x, y, 1).data, x.data)

        const = Tensor(np.full((1, 2, 5, 5), 1.75, dtype=np.float32))
        guide = Tensor(rng.standard_normal((1, 2, 5, 5)).astype(np.float32))
        fused = modulated_fuse(const, guide, 3)
        assert np.abs(fused.data - 1.75).max() < 1e-6
        _passed("3 fusion oracle", f"50 scalar-loop instances, worst err {worst:.2e}; weights normalized; n=1 identity; constant fixed point")


class TestCriterion4Metrics:
    def test_metric_oracle(self):
        rng = np.random.default_rng(3)
        worst_mre = worst_sdr = 0.0
        for _ in range(1000):
            pred = rng.uniform(0, 128, (6, 2))
            gt = rng.uniform(0, 128, (6, 2))
            spacing = rng.uniform(0.05, 0.4)
            loop = sum(float(np.hypot(*(pred[i] - gt[i]))) for i in range(6)) / 6 * spacing
            worst_mre = max(worst_mre, abs(mre(pred, gt, spacing) - loop))
            distances = rng.uniform(0, 2, size=int(rng.integers(1, 24)))
            got = sdr(distances)
            for t, g in zip((0.5, 1.0, 1.5), got):
                expected = 100.0 * sum(1 for d in distances if d <= t) / len(distances)
                worst_sdr = max(worst_sdr, abs(g - expected))
            assert got[0] <= got[1] <= got[2]
        assert worst_mre < 1e-9 and worst_sdr < 1e-9

        case = sdr([0.4, 0.6, 1.2])
        np.testing.assert_allclose(case, [100.0 / 3.0, 200.0 / 3.0, 100.0], atol=1e-9)

        for _ in range(50):
            pts = rng.uniform(0, 100, (6, 2))
            base = graf_angles(pts)
            for pair in ((0, 1), (2, 3), (4, 5)):
                swapped = pts.copy()
                swapped[[pair[0], pair[1]]] = swapped[[pair[1], pair[0]]]
                other = graf_angles(swapped)
                assert abs(other.alpha - base.alpha) < 1e-9 and abs(other.beta - base.beta) < 1e-9

        assert classify_graf(GrafAngles(60.0, 50.0)) == 1
        assert classify_graf(GrafAngles(70.0, 77.0)) == 1
        assert classify_graf(GrafAngles(70.0, 60.0)) == 0
        _passed("4 metric oracle", f"1000 instances, mre err {worst_mre:.1e}, sdr err {worst_sdr:.1e}; boundaries strict")


class TestCriterion5Generator:
    def test_generator_consistency(self, tmp_path):
        cfg = GeneratorConfig(n_samples=200, class_balance=0.3, spacing=0.1, seed=42)
        manifest_a = generate_dataset(tmp_path / "a", cfg)
        samples = read_manifest(manifest_a)
        assert len(samples) == 200
        worst_angle = 0.0
        for s in samples:
            assert s.label == (0 if (s.alpha > 60.0 and s.beta < 77.0) else 1)
            measured = graf_angles(s.landmarks)
            worst_angle = max(worst_angle, abs(measured.alpha - s.alpha), abs(measured.beta - s.beta))
            assert classify_graf(measured) == s.label
        assert worst_angle < 0.1

        manifest_b = generate_dataset(tmp_path / "b", cfg)
        assert manifest_a.read_bytes() == manifest_b.read_bytes()
        for i in (0, 99, 199):
            name = f"sample_{i:04d}.tgt"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        _passed("5 generator consistency", f"200 samples, label rule exact, angle recompute err {worst_angle:.2e} deg, regeneration byte-identical")


class TestCriterion6Trainability:
    def test_default_config_learns_the_training_set(self, phantom64):
        start = time.monotonic()
        samples = read_manifest(phantom64)
        assert len(samples) == 64

        model = build_model(ModelConfig(), seed=0)
        untrained = evaluate_model(model, samples)

        cfg = TrainConfig(seed=0, max_steps=500)  # paper defaults: lr 1e-4, batch 2
        result = train(samples, model, cfg)
        first = result.history[0].l_landmark
        last = float(np.mean([r.l_landmark for r in result.history[-10:]]))
        trained = evaluate_model(model, samples)
        elapsed = time.monotonic() - start

        assert last < 0.5 * first, f"landmark loss only fell {last / first:.2%} of initial"
        assert trained.mre_mm < 2.0, f"train MRE {trained.mre_mm:.3f} mm"
        assert trained.mre_mm < untrained.mre_mm, (trained.mre_mm, untrained.mre_mm)
        assert trained.acc is not None and trained.acc > 0.7, f"train accuracy {trained.acc}"
        assert elapsed < 1800.0, f"trainability run took {elapsed:.0f}s"
        _passed(
            "6 trainability",
            f"loss {first:.4f}->{last:.4f} ({last / first:.1%}), MRE {untrained.mre_mm:.2f}->{trained.mre_mm:.2f} mm, "
            f"acc {trained.acc:.2f}, {elapsed / 60:.1f} min",
        )


class TestCriterion7Ablation:
    def test_cmd_ablate_emits_table(self, phantom64, tmp_path):
        out = tmp_path / "ablation.csv"
        code = cli_main(
            [
                "ablate",
                "--data", str(phantom64),
                "--out", str(out),
                "--folds", "2",
                "--epochs", "3",
                "--max_steps", "40",
                "--seed", "0",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == METRICS_CSV_HEADER
        data_rows = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data_rows) == 4
        names = [r.split(",")[0] for r in data_rows]
        assert names == ["concat_baseline", "no_mmf", "no_tgcn", "full"]
        observed = {}
        for row in data_rows:
            fields = row.split(",")
            mre_val = float(fields[2])
            sdr05, sdr10, sdr15 = (float(fields[i]) for i in (4, 5, 6))
            assert mre_val >= 0.0
            assert 0.0 <= sdr05 <= sdr10 <= sdr15 <= 100.0
            if fields[0] in ("no_tgcn", "concat_baseline"):
                assert fields[7] == ""
            observed[fields[0]] = mre_val
        assert lines[-1].startswith("# reference")
        ordering = " <= ".join(sorted(observed, key=observed.get))
        _passed("7 ablation harness", f"4-variant table emitted; observed MRE order (reported, not asserted): {ordering}")


class TestCriterion8Persistence:
    def test_checkpoint_round_trip_and_truncation(self, tmp_path, toy_model_config):
        model = build_model(toy_model_config, seed=0)
        images = np.random.default_rng(5).random((1, 16, 16)).astype(np.float32)
        before = model.forward(images).heatmaps.data.copy()
        items = run_config_to_items(
            merge_run_config(
                {
                    "input_size": 16, "feature_size": 4, "channels": 8, "unet_depth": 2,
                    "patch_size": 8, "token_dim": 8, "transformer_layers": 1, "heads": 2,
                }
            )
        )
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, items, epoch=1, step=1)
        restored = restore_model(load_checkpoint(path))
        after = restored.forward(images).heatmaps.data
        assert np.array_equal(before, after)

        blob = path.read_bytes()
        victim = build_model(toy_model_config, seed=0)
        snapshot = {k: v.copy() for k, v in victim.state_arrays().items()}
        for cut in (6, len(blob) // 3, len(blob) - 7):
            bad = tmp_path / "bad.ckpt"
            bad.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                victim.load_state(load_checkpoint(bad).param_arrays())
        for name, arr in victim.state_arrays().items():
            assert np.array_equal(arr, snapshot[name])
        _passed("8 persistence", "save->load->forward bitwise identical; truncations rejected with no state mutation")
