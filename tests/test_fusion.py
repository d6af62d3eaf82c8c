"""Mutual modulation fusion against a per-pixel scalar reference.

The oracle recomputes every output pixel with explicit loops: gather the
n x n neighborhood (edge replicated), dot each slot with the other map's
center pixel over channels, softmax the scores, then average the
neighborhood under those weights.
"""

import numpy as np
import pytest

from hipgraf.autodiff import (
    Tensor,
    concat,
    conv2d,
    mul,
    no_grad,
    reduce_sum,
    reshape,
    unfold_neighborhoods,
)
from hipgraf.errors import ConfigError, DimensionError
from hipgraf.nets.fusion import ConcatFusion, MutualModulationFusion, modulated_fuse

from attention_reference import softmax
from fusion_reference import extract_neighborhood, modulation_weight_map, modulation_weights
from gradcheck import assert_grads_match


def rnd(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def scalar_reference_fuse(source: np.ndarray, guide: np.ndarray, window: int) -> np.ndarray:
    """Loop oracle over (c,h,w) maps."""
    c, h, w = source.shape
    out = np.zeros_like(source, dtype=np.float64)
    for i in range(h):
        for j in range(w):
            neighborhood = extract_neighborhood(source, i, j, window)
            weights = modulation_weights(guide[:, i, j], neighborhood)
            out[:, i, j] = weights @ neighborhood
    return out


def composed_fuse(source: Tensor, guide: Tensor, window: int) -> Tensor:
    """The route as separate tape ops: unfold, mul/reduce_sum scores, softmax, mul/reduce_sum."""
    b, c, h, w = source.shape
    neighbors = unfold_neighborhoods(source, window)
    scores = reduce_sum(mul(neighbors, reshape(guide, (b, 1, c, h, w))), axis=2)
    weights = softmax(scores, axis=1)
    return reduce_sum(mul(neighbors, reshape(weights, (b, window * window, 1, h, w))), axis=1)


class TestExtractNeighborhood:
    def test_interior_pixel_row_major(self):
        fmap = np.arange(2 * 4 * 4, dtype=np.float32).reshape(2, 4, 4)
        patch = extract_neighborhood(fmap, 2, 1, 3)
        assert patch.shape == (9, 2)
        expected = [fmap[:, 2 + di, 1 + dj] for di in (-1, 0, 1) for dj in (-1, 0, 1)]
        np.testing.assert_array_equal(patch, np.stack(expected))

    def test_corner_replicates_edges(self):
        fmap = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        patch = extract_neighborhood(fmap, 0, 0, 3)
        # out-of-bounds rows/cols clamp to index 0
        np.testing.assert_array_equal(patch[:, 0], [0, 0, 1, 0, 0, 1, 4, 4, 5])

    def test_window_one_is_center_pixel(self):
        fmap = rnd(3, 5, 5, seed=1)
        np.testing.assert_array_equal(extract_neighborhood(fmap, 2, 3, 1)[0], fmap[:, 2, 3])

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            extract_neighborhood(rnd(1, 4, 4), 0, 0, 2)


class TestModulationWeights:
    def test_constant_neighborhood_gives_uniform(self):
        weights = modulation_weights(rnd(4, seed=2), np.ones((9, 4), dtype=np.float32))
        np.testing.assert_allclose(weights, np.full(9, 1 / 9), atol=1e-7)

    def test_orthogonal_center_gives_uniform(self):
        neighborhood = np.zeros((9, 4))
        weights = modulation_weights(rnd(4, seed=3), neighborhood)
        np.testing.assert_allclose(weights, np.full(9, 1 / 9), atol=1e-12)

    def test_matches_hand_dot_then_softmax(self):
        rng = np.random.default_rng(4)
        center = rng.standard_normal(4)
        neighborhood = rng.standard_normal((9, 4))
        scores = np.array([sum(center[ch] * neighborhood[s, ch] for ch in range(4)) for s in range(9)])
        hand = np.exp(scores - scores.max())
        hand /= hand.sum()
        np.testing.assert_allclose(modulation_weights(center, neighborhood), hand, atol=1e-6)


class TestFuseRoutes:
    def test_constant_map_is_fixed_point(self):
        source = Tensor(np.full((1, 3, 5, 5), 2.5, dtype=np.float32))
        guide = Tensor(rnd(1, 3, 5, 5, seed=5))
        out = modulated_fuse(source, guide, 3)
        np.testing.assert_allclose(out.data, source.data, atol=1e-6)

    def test_window_one_is_identity(self):
        source = Tensor(rnd(1, 2, 4, 4, seed=6))
        guide = Tensor(rnd(1, 2, 4, 4, seed=7))
        np.testing.assert_array_equal(modulated_fuse(source, guide, 1).data, source.data)
        np.testing.assert_array_equal(modulated_fuse(guide, source, 1).data, guide.data)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_reference(self, seed):
        source = rnd(1, 2, 5, 5, seed=100 + seed)
        guide = rnd(1, 2, 5, 5, seed=200 + seed)
        out = modulated_fuse(Tensor(source), Tensor(guide), 3).data[0]
        ref = scalar_reference_fuse(source[0], guide[0], 3)
        assert np.abs(out - ref).max() < 1e-5

    def test_weight_slots_sum_to_one(self):
        weights = modulation_weight_map(Tensor(rnd(2, 3, 6, 6, seed=10)), Tensor(rnd(2, 3, 6, 6, seed=11)), 3).data
        np.testing.assert_allclose(weights.sum(axis=1), np.ones((2, 6, 6)), atol=1e-6)
        assert (weights > 0).all()

    def test_convexity_bounds_per_channel(self):
        source = rnd(1, 2, 6, 6, seed=12)
        guide = rnd(1, 2, 6, 6, seed=13)
        out = modulated_fuse(Tensor(source), Tensor(guide), 3).data[0]
        padded = np.pad(source[0], ((0, 0), (1, 1), (1, 1)), mode="edge")
        for ch in range(2):
            for i in range(6):
                for j in range(6):
                    window = padded[ch, i : i + 3, j : j + 3]
                    assert window.min() - 1e-5 <= out[ch, i, j] <= window.max() + 1e-5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="match"):
            modulated_fuse(Tensor(rnd(1, 2, 4, 4)), Tensor(rnd(1, 2, 5, 5)), 3)


class TestFusionBlocks:
    def test_concat_projection_shapes(self):
        rng = np.random.default_rng(14)
        block = MutualModulationFusion(rng, channels=32, window=3, mode="concat")
        out = block.forward(Tensor(rnd(1, 32, 8, 8, seed=15)), Tensor(rnd(1, 32, 8, 8, seed=16)))
        assert out.shape == (1, 32, 8, 8)
        assert block.proj_weight.shape == (32, 64, 1, 1)

    def test_identity_projection_selects_first_route(self):
        rng = np.random.default_rng(17)
        block = MutualModulationFusion(rng, channels=4, window=3, mode="concat")
        block.proj_weight.data[:] = 0.0
        for c in range(4):
            block.proj_weight.data[c, c, 0, 0] = 1.0  # [I | 0]
        f_l = Tensor(rnd(1, 4, 5, 5, seed=18))
        f_g = Tensor(rnd(1, 4, 5, 5, seed=19))
        out = block.forward(f_l, f_g)
        expected = modulated_fuse(f_l, f_g, 3).data
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_halved_identity_projection_averages_routes(self):
        rng = np.random.default_rng(20)
        block = MutualModulationFusion(rng, channels=3, window=3, mode="concat")
        block.proj_weight.data[:] = 0.0
        for c in range(3):
            block.proj_weight.data[c, c, 0, 0] = 0.5
            block.proj_weight.data[c, 3 + c, 0, 0] = 0.5  # 0.5 [I | I]
        f_l = Tensor(rnd(1, 3, 4, 4, seed=21))
        f_g = Tensor(rnd(1, 3, 4, 4, seed=22))
        out = block.forward(f_l, f_g)
        expected = 0.5 * (modulated_fuse(f_l, f_g, 3).data + modulated_fuse(f_g, f_l, 3).data)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_add_mode_matches_sum_of_routes(self):
        rng = np.random.default_rng(23)
        block = MutualModulationFusion(rng, channels=2, window=3, mode="add")
        block.proj_weight.data[:] = 0.0
        for c in range(2):
            block.proj_weight.data[c, c, 0, 0] = 1.0
        f_l = Tensor(rnd(1, 2, 4, 4, seed=24))
        f_g = Tensor(rnd(1, 2, 4, 4, seed=25))
        out = block.forward(f_l, f_g)
        expected = modulated_fuse(f_l, f_g, 3).data + modulated_fuse(f_g, f_l, 3).data
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            MutualModulationFusion(np.random.default_rng(26), channels=4, window=4, mode="concat")

    def test_concat_fusion_block_shape(self):
        rng = np.random.default_rng(27)
        block = ConcatFusion(rng, channels=8)
        out = block.forward(Tensor(rnd(2, 8, 4, 4, seed=28)), Tensor(rnd(2, 8, 4, 4, seed=29)))
        assert out.shape == (2, 8, 4, 4)


class TestFusionGradient:
    def test_full_block_gradient_32bit(self):
        # 2-channel 4x4 instance; float32 analytic vs float64 oracle
        vals = {
            "f_l": np.random.default_rng(30).standard_normal((1, 2, 4, 4)).astype(np.float32),
            "f_g": np.random.default_rng(31).standard_normal((1, 2, 4, 4)).astype(np.float32),
            "w": np.random.default_rng(32).standard_normal((2, 4, 1, 1)).astype(np.float32) * 0.5,
        }
        probe = np.random.default_rng(33).standard_normal((1, 2, 4, 4))

        def build(t):
            from hipgraf.autodiff import concat, conv2d

            fused = concat([modulated_fuse(t["f_l"], t["f_g"], 3), modulated_fuse(t["f_g"], t["f_l"], 3)], axis=1)
            projected = conv2d(fused, t["w"])
            return (projected * Tensor(probe, dtype=t["w"].dtype)).sum()

        assert_grads_match(build, vals, tol32=1e-3, tol64=None, h32=1e-4)


class TestFusedRoute:
    """The one-op route against the composed-op route it replaced, at the default model's map size."""

    @pytest.mark.parametrize("batch", [2, 8])
    @pytest.mark.parametrize("mode", ["concat", "add"])
    def test_forward_bit_identical_to_composed_ops(self, batch, mode):
        block = MutualModulationFusion(np.random.default_rng(40), channels=32, window=3, mode=mode)
        f_l = Tensor(rnd(batch, 32, 32, 32, seed=41))
        f_g = Tensor(rnd(batch, 32, 32, 32, seed=42))
        routes = [composed_fuse(f_l, f_g, 3), composed_fuse(f_g, f_l, 3)]
        combined = concat(routes, axis=1) if mode == "concat" else routes[0] + routes[1]
        expected = conv2d(combined, block.proj_weight).data
        np.testing.assert_array_equal(modulated_fuse(f_l, f_g, 3).data, routes[0].data)
        np.testing.assert_array_equal(block.forward(f_l, f_g).data, expected)

    def test_weight_map_bit_identical_to_composed_softmax(self):
        source, guide = Tensor(rnd(2, 4, 6, 6, seed=43)), Tensor(rnd(2, 4, 6, 6, seed=44))
        neighbors = unfold_neighborhoods(source, 3)
        scores = reduce_sum(mul(neighbors, reshape(guide, (2, 1, 4, 6, 6))), axis=2)
        np.testing.assert_array_equal(modulation_weight_map(source, guide, 3).data, softmax(scores, axis=1).data)

    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_gradients_of_source_and_guide(self, window):
        probe = np.random.default_rng(45).standard_normal((2, 3, 5, 4))
        vals = {"source": rnd(2, 3, 5, 4, seed=46), "guide": rnd(2, 3, 5, 4, seed=47)}

        def build(t):
            return (modulated_fuse(t["source"], t["guide"], window) * Tensor(probe, dtype=t["source"].dtype)).sum()

        assert_grads_match(build, vals, tol32=1e-3, tol64=1e-6, h32=1e-4, h64=1e-5)

    def test_gradients_match_composed_ops(self):
        probe = Tensor(rnd(2, 3, 6, 6, seed=48))
        grads = []
        for route in (modulated_fuse, composed_fuse):
            source = Tensor(rnd(2, 3, 6, 6, seed=49), requires_grad=True)
            guide = Tensor(rnd(2, 3, 6, 6, seed=50), requires_grad=True)
            (route(source, guide, 3) * probe).sum().backward()
            grads.append((source.grad, guide.grad))
        for fused, composed in zip(*grads):
            np.testing.assert_allclose(fused, composed, rtol=1e-5, atol=1e-6)

    def test_one_tape_node_after_the_unfold(self):
        source, guide = Tensor(rnd(1, 2, 4, 4, seed=51), requires_grad=True), Tensor(rnd(1, 2, 4, 4, seed=52))
        out = modulated_fuse(source, guide, 3)
        neighbors = out._parents[0]
        assert out._parents[1] is guide
        np.testing.assert_array_equal(neighbors.data, unfold_neighborhoods(source, 3).data)
        with no_grad():
            assert not modulated_fuse(source, source, 3).requires_grad
