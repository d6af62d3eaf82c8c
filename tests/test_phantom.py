"""Phantom geometry, rendering and dataset generation contracts."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phantom_reference
from hipgraf import phantom
from hipgraf.config import GeneratorConfig
from hipgraf.dataset import read_manifest, read_pgm
from hipgraf.errors import DataError
from hipgraf.metrics import classify_graf, graf_angles
from hipgraf.phantom import (
    LINE_PAIRS,
    border_margin,
    generate_dataset,
    render_phantom,
    sample_geometry,
)


@st.composite
def render_cases(draw):
    """Image size, landmarks from beyond the border to the interior (some pairs short or coincident), speckle."""
    size = draw(st.integers(16, 160))
    coord = st.floats(-40.0, size + 40.0)
    landmarks = np.array([[draw(coord), draw(coord)] for _ in range(6)])
    offset = st.floats(-2.0, 2.0)
    for a, b in LINE_PAIRS:
        if draw(st.booleans()):
            landmarks[b] = landmarks[a] + [draw(offset), draw(offset)]
    return size, landmarks, draw(st.sampled_from([0.0, 0.3])), draw(st.integers(0, 2**32 - 1))


class TestSampleGeometry:
    def test_vertical_baseline_at_65_degrees_yields_65(self):
        # analytic construction: exactly vertical baseline, roof at 65 degrees
        angle = math.radians(65.0)
        landmarks = np.array(
            [
                [60.0, 20.0],
                [60.0, 90.0],
                [58.0, 40.0],
                [58.0 - 40.0 * math.sin(angle), 40.0 + 40.0 * math.cos(angle)],
                [55.0, 30.0],
                [55.0 - 30.0 * math.sin(angle), 30.0 - 30.0 * math.cos(angle)],
            ]
        )
        measured = graf_angles(landmarks)
        assert measured.alpha == pytest.approx(65.0, abs=0.1)

    def test_requested_class_is_honored(self):
        rng = np.random.default_rng(1)
        for request, expected in (("normal", 0), ("abnormal", 1)):
            for _ in range(10):
                geometry = sample_geometry(request, rng=rng)
                assert geometry.label == expected

    def test_label_rule_on_drawn_angles(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = sample_geometry("any", rng=rng)
            expected = 0 if (g.angles.alpha > 60.0 and g.angles.beta < 77.0) else 1
            assert g.label == expected

    def test_alpha_70_beta_60_is_normal(self):
        from hipgraf.metrics import GrafAngles

        assert classify_graf(GrafAngles(70.0, 60.0)) == 0

    def test_alpha_55_is_abnormal_for_any_beta(self):
        from hipgraf.metrics import GrafAngles

        for beta in (40.0, 60.0, 76.9, 90.0):
            assert classify_graf(GrafAngles(55.0, beta)) == 1

    def test_margins_and_pair_separation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = sample_geometry("any", rng=rng, size=128)
            assert g.landmarks.min() >= 10 and g.landmarks.max() <= 117
            for a, b in ((0, 1), (2, 3), (4, 5)):
                assert np.linalg.norm(g.landmarks[a] - g.landmarks[b]) >= 8

    def test_recomputed_angles_match_construction(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = sample_geometry("any", rng=rng)
            measured = graf_angles(g.landmarks)
            assert measured.alpha == pytest.approx(g.angles.alpha, abs=0.1)
            assert measured.beta == pytest.approx(g.angles.beta, abs=0.1)

    def test_unknown_request_rejected(self):
        with pytest.raises(DataError, match="class request"):
            sample_geometry("weird")

    def test_margin_scales_down_for_small_images(self):
        assert border_margin(128) == 10
        assert border_margin(256) == 10
        assert border_margin(32) >= 2


class TestRenderPhantom:
    def test_noiseless_render_is_deterministic(self):
        g = sample_geometry("any", rng=np.random.default_rng(5))
        a = render_phantom(g.landmarks, rng=np.random.default_rng(1), speckle_gamma=0.0)
        b = render_phantom(g.landmarks, rng=np.random.default_rng(2), speckle_gamma=0.0)
        np.testing.assert_array_equal(a, b)

    def test_landmarks_brighter_than_empty_background(self):
        g = sample_geometry("any", rng=np.random.default_rng(6))
        img = render_phantom(g.landmarks, speckle_gamma=0.0)
        ys, xs = np.mgrid[0:128, 0:128]
        far = np.ones((128, 128), dtype=bool)
        for x, y in g.landmarks:
            far &= (xs - x) ** 2 + (ys - y) ** 2 > 100.0
        # also stay away from the three segments
        for a, b in LINE_PAIRS:
            far &= phantom_reference.segment_distance_field(128, g.landmarks[a], g.landmarks[b]) > 10.0
        assert far.any()
        far_max = img[far].max()
        for x, y in np.round(g.landmarks).astype(int):
            assert img[y, x] >= far_max

    def test_same_landmarks_different_seeds_share_structure(self):
        g = sample_geometry("any", rng=np.random.default_rng(7))
        clean = render_phantom(g.landmarks, speckle_gamma=0.0)
        noisy_a = render_phantom(g.landmarks, rng=np.random.default_rng(8), speckle_gamma=0.3)
        noisy_b = render_phantom(g.landmarks, rng=np.random.default_rng(9), speckle_gamma=0.3)
        assert not np.array_equal(noisy_a, noisy_b)
        # speckle is multiplicative: noisy/clean stays within 1 +- gamma where unclamped
        ratio = noisy_a[clean > 0.05] / clean[clean > 0.05]
        assert ratio.min() >= 0.7 - 1e-6 and ratio.max() <= 1.3 + 1e-6

    def test_values_clamped_to_unit_interval(self):
        g = sample_geometry("any", rng=np.random.default_rng(10))
        img = render_phantom(g.landmarks, rng=np.random.default_rng(11), speckle_gamma=0.3)
        assert img.min() >= 0.0 and img.max() <= 1.0

    @given(render_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_full_image_reference_bit_for_bit(self, case):
        size, landmarks, gamma, seed = case
        # the float64 sum first: float32 rounding would hide a term cut off a few ulps too early
        # (every value is at least 0.056, so no signed zero or NaN can hide a bit in ==)
        np.testing.assert_array_equal(phantom._clean_image(landmarks, size), phantom_reference.clean_image(landmarks, size), strict=True)
        np.testing.assert_array_equal(
            render_phantom(landmarks, rng=np.random.default_rng(seed), size=size, speckle_gamma=gamma),
            phantom_reference.render_phantom(landmarks, rng=np.random.default_rng(seed), size=size, speckle_gamma=gamma),
            strict=True,
        )

    def test_zero_length_segment_renders_as_a_point(self):
        landmarks = sample_geometry("any", rng=np.random.default_rng(12)).landmarks
        for a, b in LINE_PAIRS:
            coincident = landmarks.copy()
            coincident[b] = coincident[a]
            img = render_phantom(coincident, speckle_gamma=0.0)
            nearly = coincident.copy()
            nearly[b, 0] += 1e-9
            assert np.isfinite(img).all()
            np.testing.assert_allclose(img, render_phantom(nearly, speckle_gamma=0.0), rtol=0, atol=1e-6)

    @pytest.mark.parametrize(
        "landmarks",
        [
            np.zeros((5, 2)),
            np.zeros((6, 3)),
            np.zeros(12),
            np.array([[60.0, 20.0]] * 5 + [[np.nan, 40.0]]),
            np.array([[60.0, 20.0]] * 5 + [[40.0, np.inf]]),
            [[1.0, 2.0]] * 5 + [[1.0]],
            [["a", "b"]] * 6,
        ],
        ids=["5x2", "6x3", "flat", "nan", "inf", "ragged", "text"],
    )
    def test_landmarks_must_be_six_finite_points(self, landmarks):
        with pytest.raises(DataError, match=r"\(6, 2\) array of finite numbers"):
            render_phantom(landmarks, speckle_gamma=0.0)


    @pytest.mark.parametrize("far", [1e308, 1e160, phantom.COORD_LIMIT * 1.01])
    def test_a_baseline_whose_length_overflows_is_refused(self, far):
        # at 1e308 the difference p1 - p0 overflows, at 1e160 its square does; either way pixels came out NaN
        landmarks = sample_geometry("any", rng=np.random.default_rng(12)).landmarks
        landmarks[0], landmarks[1] = (-far, 64.0), (far, 64.0)
        with pytest.raises(DataError, match=r"\(6, 2\) array of finite numbers within"):
            render_phantom(landmarks, speckle_gamma=0.0)

    @given(
        st.lists(
            st.one_of(
                st.floats(-40.0, 100.0),
                st.floats(-phantom.COORD_LIMIT, phantom.COORD_LIMIT),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=12,
            max_size=12,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_any_finite_landmarks_render_finite_pixels_or_are_refused(self, coords):
        landmarks = np.reshape(coords, (6, 2))
        if np.abs(landmarks).max() > phantom.COORD_LIMIT:
            with pytest.raises(DataError):
                render_phantom(landmarks, size=60, speckle_gamma=0.0)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or invalid-value warning on the way
            img = render_phantom(landmarks, size=60, speckle_gamma=0.0)
        assert np.isfinite(img).all()

class TestGenerateDataset:
    def test_balance_and_manifest_rows(self, tmp_path):
        cfg = GeneratorConfig(n_samples=10, class_balance=0.5, seed=3)
        manifest = generate_dataset(tmp_path / "ds", cfg)
        samples = read_manifest(manifest)
        labels = [s.label for s in samples]
        assert len(labels) == 10 and sum(labels) == 5

    def test_paper_like_imbalance(self, tmp_path):
        # 0.084 of 500 rounds to 42 abnormal; checked on a small n with the same rule
        cfg = GeneratorConfig(n_samples=500, class_balance=0.084, seed=0)
        requests = __import__("hipgraf.phantom", fromlist=["_class_requests"])._class_requests(500, 0.084, 0)
        assert sum(1 for r in requests if r == "abnormal") == 42
        del cfg

    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = GeneratorConfig(n_samples=4, class_balance=0.5, seed=9, size=64)
        m1 = generate_dataset(tmp_path / "a", cfg)
        m2 = generate_dataset(tmp_path / "b", cfg)
        assert m1.read_bytes() == m2.read_bytes()
        for i in range(4):
            assert (tmp_path / "a" / f"sample_{i:04d}.tgt").read_bytes() == (tmp_path / "b" / f"sample_{i:04d}.tgt").read_bytes()
            assert (tmp_path / "a" / f"sample_{i:04d}.pgm").read_bytes() == (tmp_path / "b" / f"sample_{i:04d}.pgm").read_bytes()

    # sha256 over each file's name and bytes, in name order, as the full-image
    # renderer wrote them (x86-64 with AVX-512, numpy 2.4, OpenBLAS 0.3.31)
    @pytest.mark.parametrize(
        "config, digest",
        [
            (
                GeneratorConfig(n_samples=6, class_balance=0.5, seed=11, size=64),
                "13af6ddd1e71f29191c98a33e290225666fce975c667045c8cb6028e7045d85e",
            ),
            (
                GeneratorConfig(n_samples=4, class_balance=0.5, seed=12, size=128),
                "9ae0ac78ab2ac159e16fbd8f51c9f850c974ef4bb7667a9228566550b380678d",
            ),
        ],
        ids=["64px", "128px"],
    )
    def test_bytes_match_pinned_digest(self, tmp_path, config, digest):
        generate_dataset(tmp_path, config)
        sha = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            sha.update(path.name.encode() + b"\0" + path.read_bytes())
        assert sha.hexdigest() == digest

    def test_manifest_angles_match_stored_landmarks(self, tmp_path):
        cfg = GeneratorConfig(n_samples=6, class_balance=0.5, seed=4, size=64)
        samples = read_manifest(generate_dataset(tmp_path / "ds", cfg))
        for s in samples:
            measured = graf_angles(s.landmarks)
            assert measured.alpha == pytest.approx(s.alpha, abs=0.1)
            assert measured.beta == pytest.approx(s.beta, abs=0.1)
            assert classify_graf(measured) == s.label

    def test_pgm_matches_tensor_image(self, tmp_path):
        cfg = GeneratorConfig(n_samples=2, class_balance=0.0, seed=5, size=64)
        manifest = generate_dataset(tmp_path / "ds", cfg)
        samples = read_manifest(manifest)
        pgm = read_pgm(tmp_path / "ds" / "sample_0000.pgm")
        assert np.abs(pgm - samples[0].image).max() <= 0.5 / 255.0 + 1e-6

    def test_group_column_optional(self, tmp_path):
        cfg = GeneratorConfig(n_samples=4, class_balance=0.5, seed=6, size=64, group_size=2)
        samples = read_manifest(generate_dataset(tmp_path / "ds", cfg))
        assert [s.group for s in samples] == [0, 0, 1, 1]
