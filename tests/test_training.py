"""Loss assembly, target heatmaps, augmentation, optimizer and train loop."""

import gc
import math
import weakref

import numpy as np
import pytest

from hipgraf.autodiff import Tensor
from hipgraf.config import TrainConfig
from hipgraf.dataset import ImageSample
from hipgraf.errors import ConfigError, DataError
from hipgraf.metrics import mre
from hipgraf.nets.model import build_model
from hipgraf.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam, augment_hflip, make_gt_heatmaps, total_loss, train

from conftest import make_samples


def rnd(*shape, seed=0):
    return np.random.default_rng(seed).random(shape).astype(np.float32)


class TestGtHeatmaps:
    def test_on_grid_landmark_peaks_at_one(self):
        landmarks = np.tile([32.0, 16.0], (6, 1))  # heatmap coords (8, 4) at upscale 4
        stack = make_gt_heatmaps(landmarks, sigma=2.0, feature_size=16, input_size=64, name="probe")
        assert stack.shape == (6, 16, 16)
        assert stack[0, 4, 8] == pytest.approx(1.0)
        # symmetric decay around the peak
        assert stack[0, 4, 7] == pytest.approx(stack[0, 4, 9])
        assert stack[0, 3, 8] == pytest.approx(stack[0, 5, 8])

    def test_tiny_sigma_approaches_one_hot(self):
        landmarks = np.tile([20.0, 12.0], (6, 1))
        stack = make_gt_heatmaps(landmarks, sigma=1e-3, feature_size=16, input_size=64, name="probe")
        assert stack[0].sum() == pytest.approx(1.0)
        assert stack[0, 3, 5] == pytest.approx(1.0)

    def test_value_at_one_sigma(self):
        landmarks = np.tile([16.0, 16.0], (6, 1))  # heatmap (4, 4)
        sigma = 2.0
        stack = make_gt_heatmaps(landmarks, sigma=sigma, feature_size=16, input_size=64, name="probe")
        assert stack[0, 4, 4 + int(sigma)] == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_out_of_bounds_landmark_names_sample(self):
        landmarks = np.tile([10.0, 10.0], (6, 1))
        landmarks[2] = [200.0, 10.0]
        with pytest.raises(DataError, match="sample probe: landmark 3"):
            make_gt_heatmaps(landmarks, 2.0, 16, 64, name="probe")


class TestHflip:
    def sample(self):
        return ImageSample(
            name="s", image=rnd(32, 32, seed=1), landmarks=np.array([[0.0, 3.0]] * 6, dtype=np.float32), label=1, spacing=0.1
        )

    def test_double_flip_is_identity(self):
        sample = self.sample()
        back = augment_hflip(augment_hflip(sample))
        np.testing.assert_array_equal(back.image, sample.image)
        np.testing.assert_array_equal(back.landmarks, sample.landmarks)
        assert back.label == sample.label

    def test_left_edge_maps_to_right_edge(self):
        flipped = augment_hflip(self.sample())
        assert flipped.landmarks[0, 0] == 31.0

    def test_mre_is_flip_invariant(self):
        rng = np.random.default_rng(2)
        pred = rng.uniform(0, 31, (6, 2))
        gt = rng.uniform(0, 31, (6, 2))
        w = 32

        def flip(points):
            out = points.copy()
            out[:, 0] = (w - 1) - out[:, 0]
            return out

        assert mre(flip(pred), flip(gt), 0.1) == pytest.approx(mre(pred, gt, 0.1), abs=1e-6)


class TestTotalLoss:
    def test_lambda_zero_total_is_landmark_only(self):
        heat = Tensor(rnd(1, 6, 4, 4, seed=3))
        gt = rnd(1, 6, 4, 4, seed=4)
        lb = total_loss(heat, None, gt, Tensor(np.array([0.3])), np.array([1.0]), lam=0.0)
        assert lb.total.item() == pytest.approx(lb.landmark.item())

    def test_perfect_heatmaps_leave_only_bce(self):
        gt = rnd(1, 6, 4, 4, seed=5)
        lb = total_loss(Tensor(gt), Tensor(gt), gt, Tensor(np.array([0.0])), np.array([1.0]), lam=1.0)
        assert lb.total.item() == pytest.approx(math.log(2.0), abs=1e-6)

    def test_random_case_matches_component_oracle(self):
        heat = rnd(1, 6, 4, 4, seed=6)
        refined = rnd(1, 6, 4, 4, seed=7)
        gt = rnd(1, 6, 4, 4, seed=8)
        logit = np.array([0.7])
        lam = 0.25
        lb = total_loss(Tensor(heat), Tensor(refined), gt, Tensor(logit), np.array([1.0]), lam)
        mse_icf = np.mean((heat - gt) ** 2)
        mse_ref = np.mean((refined - gt) ** 2)
        bce = -math.log(1.0 / (1.0 + math.exp(-logit[0])))
        expected = 0.5 * (mse_icf + mse_ref) + lam * bce
        assert lb.total.item() == pytest.approx(expected, abs=1e-6)

    def test_breakdown_additivity(self):
        lb = total_loss(Tensor(rnd(1, 6, 4, 4, seed=9)), Tensor(rnd(1, 6, 4, 4, seed=10)), rnd(1, 6, 4, 4, seed=11), Tensor(np.array([0.2])), np.array([0.0]), lam=0.4)
        assert lb.total.item() == pytest.approx(lb.landmark.item() + 0.4 * lb.classify.item(), abs=1e-6)


class TestAdam:
    def test_zero_lr_leaves_parameters_bitwise_unchanged(self):
        p = Tensor(rnd(4, 4, seed=12), requires_grad=True)
        before = p.data.copy()
        opt = Adam({"p": p}, lr=0.0)
        for _ in range(5):
            p.grad = rnd(4, 4, seed=13)
            opt.step()
        assert np.array_equal(p.data, before)

    def test_step_moves_against_gradient(self):
        p = Tensor(np.ones((3,), dtype=np.float32), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.ones(3, dtype=np.float32)
        opt.step()
        assert (p.data < 1.0).all()

    def test_five_steps_equal_textbook_formula_bit_for_bit(self):
        # "big" spans several blocks of the blocked step, the last one partial
        shapes = {"big": (300, 500), "vec": (7,), "conv": (3, 2, 3, 3)}
        params = {k: Tensor(rnd(*shape, seed=i), requires_grad=True) for i, (k, shape) in enumerate(shapes.items())}
        lr, beta1, beta2, eps = 3e-3, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        assert (beta1, beta2, eps) == (0.9, 0.999, 1e-8)  # Kingma & Ba 2015's defaults
        opt = Adam(params, lr=lr)
        ref = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros_like(p.data) for k, p in params.items()}
        v = {k: np.zeros_like(p.data) for k, p in params.items()}
        for t in range(1, 6):
            c1 = 1.0 - beta1**t
            c2 = 1.0 - beta2**t
            for i, (k, p) in enumerate(params.items()):
                g = rnd(*shapes[k], seed=100 * t + i) - 0.5
                p.grad = g
                m[k] *= beta1
                m[k] += (1.0 - beta1) * g
                v[k] *= beta2
                v[k] += (1.0 - beta2) * g * g
                ref[k] -= (lr / c1) * m[k] / (np.sqrt(v[k] / c2) + eps)
            opt.step()
        for k, p in params.items():
            assert np.array_equal(p.data, ref[k]), k
            assert np.array_equal(opt.m[k], m[k]), k
            assert np.array_equal(opt.v[k], v[k]), k


class TestTrainLoop:
    def test_empty_dataset_rejected(self, toy_model_config_32, fast_train_config):
        model = build_model(toy_model_config_32, seed=0)
        with pytest.raises(ConfigError, match="non-empty"):
            train([], model, fast_train_config)

    def test_same_seed_gives_identical_loss_logs(self, toy_model_config_32, tiny_dataset, fast_train_config):
        logs = []
        for _ in range(2):
            model = build_model(toy_model_config_32, seed=3)
            result = train(tiny_dataset, model, fast_train_config)
            logs.append([(r.epoch, r.step, r.l_landmark, r.l_classify, r.total) for r in result.history])
        assert logs[0] == logs[1]

    def test_loss_log_csv_schema(self, toy_model_config_32, tiny_dataset, fast_train_config, tmp_path):
        model = build_model(toy_model_config_32, seed=3)
        log = tmp_path / "losses.csv"
        train(tiny_dataset, model, fast_train_config, log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch,step,l_landmark,l_classify,total"
        assert len(lines) == 1 + 2  # max_steps=2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"

    def test_single_sample_overfit_drops_landmark_loss(self, toy_model_config_32):
        # 500 steps on one sample must cut the landmark loss below 10% of where it started
        samples = make_samples(1, size=32, seed=11)
        model = build_model(toy_model_config_32, seed=4)
        cfg = TrainConfig(lr=3e-3, epochs=500, batch_size=1, lam=0.1, sigma=1.5, hflip_prob=0.0, seed=0, max_steps=500)
        result = train(samples, model, cfg)
        first = result.history[0].l_landmark
        last = result.history[-1].l_landmark
        assert last < 0.1 * first, (first, last)

    def test_previous_step_graph_is_freed_before_the_next_forward(self, toy_model_config_32, tiny_dataset, monkeypatch):
        # reference counting alone must free step k's tape once its update is done
        model = build_model(toy_model_config_32, seed=3)
        forward = model.forward
        previous = []
        alive_at_forward = []

        def watched_forward(images):
            if previous:
                alive_at_forward.append(previous[-1]() is not None)
            out = forward(images)
            previous.append(weakref.ref(out.heatmaps.data))
            return out

        monkeypatch.setattr(model, "forward", watched_forward)
        cfg = TrainConfig(lr=1e-3, epochs=1, batch_size=2, lam=0.1, sigma=1.0, hflip_prob=0.0, seed=0, max_steps=3)
        gc.disable()
        try:
            result = train(tiny_dataset, model, cfg)
        finally:
            gc.enable()
        assert result.steps_run == 3
        assert alive_at_forward == [False, False]

    def test_flipped_sample_keeps_heatmaps_consistent(self, toy_model_config_32):
        # peak of the gt heatmap must follow the flipped landmark
        sample = make_samples(1, size=32, seed=5)[0]
        flipped = augment_hflip(sample)
        stack = make_gt_heatmaps(flipped.landmarks, 1.0, 8, 32, name=flipped.name)
        peak = np.unravel_index(stack[0].argmax(), stack[0].shape)
        expected = np.round(flipped.landmarks[0][::-1] / 4.0)
        assert abs(peak[0] - expected[0]) <= 1 and abs(peak[1] - expected[1]) <= 1
