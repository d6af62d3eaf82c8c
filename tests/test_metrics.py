"""Decoding, MRE/SDR oracles, Graf angle rule, report formatting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hipgraf.errors import ContractError, DegenerateGeometryError
from hipgraf.metrics import (
    GrafAngles,
    classify_graf,
    decode_landmarks,
    graf_angles,
    mre,
    radial_errors_mm,
    sdr,
    write_overlay,
)
from hipgraf.training import make_gt_heatmaps


class TestDecodeLandmarks:
    def test_one_hot_peak_scales_by_upscale(self):
        stack = np.zeros((6, 8, 8), dtype=np.float32)
        r, c = 5, 2
        stack[:, r, c] = 1.0
        coords, flags = decode_landmarks(stack, upscale=4)
        assert not any(flags)
        np.testing.assert_allclose(coords, np.tile([4 * c, 4 * r], (6, 1)))

    def test_subpixel_recovery_of_offgrid_gaussian(self):
        # peak rendered between grid points must come back within 0.25 px
        true = np.array([[13.4, 9.7]] * 6) * 4.0  # input-scale coords, upscale 4
        stack = make_gt_heatmaps(true, sigma=2.0, feature_size=32, input_size=128, name="probe")
        coords, _ = decode_landmarks(stack, upscale=1)
        np.testing.assert_allclose(coords[0], [13.4, 9.7], atol=0.25)

    def test_tie_resolves_to_lowest_row_major_index(self):
        stack = np.zeros((6, 6, 6), dtype=np.float32)
        stack[:, 4, 4] = 1.0
        stack[:, 1, 2] = 1.0  # earlier in row-major order
        coords, _ = decode_landmarks(stack, upscale=1)
        np.testing.assert_allclose(coords[0], [2.0, 1.0])

    def test_constant_channel_flags_degenerate_and_centers(self):
        stack = np.full((6, 9, 9), 0.3, dtype=np.float32)
        coords, flags = decode_landmarks(stack, upscale=2)
        assert all(flags)
        np.testing.assert_allclose(coords, np.tile([8.0, 8.0], (6, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_channel_flags_degenerate_and_centers(self, bad):
        stack = np.zeros((6, 8, 8), dtype=np.float32)
        stack[:, 5, 2] = 1.0
        stack[3, 1, 6] = bad
        coords, flags = decode_landmarks(stack, upscale=2)
        assert flags == [False, False, False, True, False, False]
        np.testing.assert_allclose(coords[3], [7.0, 7.0])
        np.testing.assert_allclose(np.delete(coords, 3, axis=0), np.tile([4.0, 10.0], (5, 1)))

    def test_decode_of_gt_heatmaps_recovers_landmarks(self):
        rng = np.random.default_rng(0)
        landmarks = rng.uniform(20, 100, (6, 2))
        stack = make_gt_heatmaps(landmarks, sigma=2.0, feature_size=32, input_size=128, name="probe")
        coords, _ = decode_landmarks(stack, upscale=4)
        assert np.abs(coords - landmarks).max() <= 4.0  # one heatmap px at input scale


class TestMre:
    def test_exact_prediction_scores_zero(self):
        pts = np.random.default_rng(1).uniform(0, 100, (6, 2))
        assert mre(pts, pts, 0.1) == 0.0

    def test_single_point_off_by_ten_px(self):
        gt = np.zeros((6, 2))
        pred = gt.copy()
        pred[0, 0] = 10.0
        assert mre(pred, gt, 0.1) == pytest.approx(10 * 0.1 / 6)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            pred = rng.uniform(0, 128, (6, 2))
            gt = rng.uniform(0, 128, (6, 2))
            spacing = rng.uniform(0.05, 0.4)
            loop = sum(math.dist(pred[i], gt[i]) for i in range(6)) / 6 * spacing
            assert abs(mre(pred, gt, spacing) - loop) < 1e-9

    def test_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            mre(np.zeros((5, 2)), np.zeros((6, 2)), 0.1)


class TestSdr:
    def test_all_hits(self):
        assert sdr([0.0, 0.0, 0.0]) == [100.0, 100.0, 100.0]

    def test_spec_case(self):
        values = sdr([0.4, 0.6, 1.2])
        assert values[0] == pytest.approx(100.0 / 3.0)
        assert values[1] == pytest.approx(200.0 / 3.0)
        assert values[2] == pytest.approx(100.0)

    def test_boundary_counts_as_success(self):
        assert sdr([0.5, 1.0, 1.5]) == [pytest.approx(100.0 / 3.0), pytest.approx(200.0 / 3.0), pytest.approx(100.0)]

    def test_matches_count_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            distances = rng.uniform(0, 2, size=rng.integers(1, 40))
            for t, got in zip((0.5, 1.0, 1.5), sdr(distances)):
                expected = 100.0 * sum(1 for d in distances if d <= t) / len(distances)
                assert abs(got - expected) < 1e-9

    @given(st.lists(st.floats(0, 3), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_threshold(self, distances):
        a, b, c = sdr(distances)
        assert a <= b <= c <= 100.0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            sdr([])


class TestGrafAngles:
    def test_perpendicular_lines(self):
        landmarks = np.array([[0, 0], [0, 10], [5, 5], [15, 5], [20, 0], [20, 10]], dtype=float)
        assert graf_angles(landmarks).alpha == pytest.approx(90.0)

    def test_parallel_lines(self):
        landmarks = np.array([[0, 0], [0, 10], [5, 0], [5, 10], [8, 0], [8, 10]], dtype=float)
        angles = graf_angles(landmarks)
        assert angles.alpha == pytest.approx(0.0, abs=1e-9)
        assert angles.beta == pytest.approx(0.0, abs=1e-9)

    def test_endpoint_swap_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            pts = rng.uniform(0, 100, (6, 2))
            base = graf_angles(pts)
            for pair in ((0, 1), (2, 3), (4, 5)):
                swapped = pts.copy()
                swapped[[pair[0], pair[1]]] = swapped[[pair[1], pair[0]]]
                other = graf_angles(swapped)
                assert abs(other.alpha - base.alpha) < 1e-9
                assert abs(other.beta - base.beta) < 1e-9

    def test_coincident_pair_rejected(self):
        pts = np.zeros((6, 2))
        pts[1] = [0.0, 0.0]  # baseline collapses
        pts[2:] = np.random.default_rng(5).uniform(1, 9, (4, 2))
        with pytest.raises(DegenerateGeometryError):
            graf_angles(pts)


class TestClassifyGraf:
    @pytest.mark.parametrize(
        "alpha,beta,label",
        [
            (70.0, 60.0, 0),
            (60.0, 60.0, 1),  # strict: alpha must exceed 60
            (70.0, 77.0, 1),  # strict: beta must stay below 77
            (59.9, 80.0, 1),
            (60.1, 76.9, 0),
        ],
    )
    def test_rule(self, alpha, beta, label):
        assert classify_graf(GrafAngles(alpha, beta)) == label


class TestOverlay:
    def test_overlay_levels(self, tmp_path):
        from hipgraf.dataset import read_pgm

        img = np.zeros((32, 32), dtype=np.float32)
        path = tmp_path / "overlay.pgm"
        write_overlay(path, img, pred=np.array([[10.0, 10.0]]), gt=np.array([[20.0, 20.0]]))
        loaded = read_pgm(path)
        assert loaded[10, 10] == pytest.approx(1.0)  # 255 marker
        assert loaded[20, 20] == pytest.approx(128.0 / 255.0)

    def test_overlay_bytes_are_a_hand_assembled_pgm(self, tmp_path):
        # out-of-range pixels clip to 0 and 255; crosses reach 2 px from their
        # centers and overwrite whatever lies under them, pred over gt
        img = np.linspace(-0.25, 1.25, 25, dtype=np.float32).reshape(5, 5)
        path = tmp_path / "overlay.pgm"
        write_overlay(path, img, pred=np.array([[3.2, 1.4]]), gt=np.array([[0.6, 3.0]]))
        pixels = np.round(np.clip(img.astype(np.float64), 0, 1) * 255).astype(np.uint8)
        pixels[1:5, 1] = pixels[3, 0:4] = 128  # gt cross at (x1, y3), clipped by the border
        pixels[0:4, 3] = pixels[1, 1:5] = 255  # pred cross at (x3, y1), clipped; it covers gt at (x1, y1) and (x3, y3)
        assert path.read_bytes() == b"P5\n5 5\n255\n" + pixels.tobytes()


class TestFlipIsometry:
    def test_metrics_invariant_under_joint_flip(self):
        rng = np.random.default_rng(6)
        pred = rng.uniform(0, 127, (6, 2))
        gt = rng.uniform(0, 127, (6, 2))

        def flip(points, w=128):
            out = points.copy()
            out[:, 0] = (w - 1) - out[:, 0]
            return out

        d0 = radial_errors_mm(pred, gt, 0.1)
        d1 = radial_errors_mm(flip(pred), flip(gt), 0.1)
        np.testing.assert_allclose(d0, d1, atol=1e-9)
        assert sdr(d0) == sdr(d1)
