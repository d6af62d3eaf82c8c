"""Topology, adjacency normalization, graph layer and class head contracts."""

import numpy as np
import pytest

from hipgraf.autodiff import Tensor, mse_loss, relu, sigmoid
from hipgraf.errors import DimensionError
from hipgraf.nets.graph import (
    TopologicalRefiner,
    build_adjacency,
    build_node_features,
    classify_nodes,
    gcn_layer,
    normalize_adjacency,
    refine_heatmaps,
)

from gradcheck import assert_grads_match


def rnd(*shape, seed=0, dtype=np.float32):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


EXPECTED_ADJACENCY = np.array(
    [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
    ],
    dtype=np.float64,
)


class TestTopology:
    def test_default_adjacency_has_exactly_the_six_entries(self):
        np.testing.assert_array_equal(build_adjacency(), EXPECTED_ADJACENCY)
        assert int(build_adjacency().sum()) == 6

    def test_symmetry_and_row_sums(self):
        a = build_adjacency()
        np.testing.assert_array_equal(a, a.T)
        np.testing.assert_array_equal(a.sum(axis=1), np.ones(6))


class TestNormalizeAdjacency:
    def test_default_topology_is_half_a_plus_i(self):
        a = build_adjacency()
        expected = (a + np.eye(6)) / 2.0  # every node has degree 2 after +I
        np.testing.assert_allclose(normalize_adjacency(a), expected, atol=1e-12)

    def test_empty_graph_normalizes_to_identity(self):
        np.testing.assert_allclose(normalize_adjacency(np.zeros((4, 4))), np.eye(4), atol=1e-12)

    def test_matches_direct_formula_on_random_graphs(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = (rng.random((4, 4)) > 0.5).astype(np.float64)
            a = np.triu(a, 1)
            a = a + a.T
            with_self = a + np.eye(4)
            d = np.diag(with_self.sum(axis=1))
            d_inv_sqrt = np.diag(1.0 / np.sqrt(np.diag(d)))
            expected = d_inv_sqrt @ with_self @ d_inv_sqrt
            np.testing.assert_allclose(normalize_adjacency(a), expected, atol=1e-7)

    def test_asymmetric_rejected(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0
        with pytest.raises(DimensionError, match="symmetric"):
            normalize_adjacency(bad)


class TestNodeFeatures:
    def test_flatten_shape(self):
        stack = Tensor(rnd(1, 6, 32, 32, seed=2))
        assert build_node_features(stack).shape == (1, 6, 1024)

    def test_one_hot_heatmap_rows(self):
        stack = np.zeros((1, 6, 4, 4), dtype=np.float32)
        stack[0, 0] = 1.0
        rows = build_node_features(Tensor(stack)).data
        np.testing.assert_array_equal(rows[0, 0], np.ones(16))
        np.testing.assert_array_equal(rows[0, 1:], np.zeros((5, 16)))

    def test_flatten_unflatten_round_trip(self):
        stack = rnd(2, 6, 4, 4, seed=3)
        flattened = build_node_features(Tensor(stack))
        restored = flattened.data.reshape(stack.shape)
        np.testing.assert_array_equal(restored, stack)

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(DimensionError, match="heatmap channels"):
            build_node_features(Tensor(rnd(1, 5, 4, 4)))


class TestGcnLayer:
    def test_identity_case(self):
        g = Tensor(np.abs(rnd(6, 8, seed=4)))
        out = gcn_layer(g, np.eye(6), Tensor(np.eye(8, dtype=np.float32)))
        np.testing.assert_allclose(out.data, g.data, atol=1e-6)

    def test_default_adjacency_averages_pairs(self):
        g = rnd(6, 8, seed=5)
        a_norm = normalize_adjacency(build_adjacency())
        out = gcn_layer(Tensor(g), a_norm, Tensor(np.eye(8, dtype=np.float32)))
        pre = (g[0] + g[1]) / 2.0
        np.testing.assert_allclose(out.data[0], np.maximum(pre, 0.0), atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((6, 8)).astype(np.float32)
        w = rng.standard_normal((8, 8)).astype(np.float32)
        a = build_adjacency()
        a_norm = normalize_adjacency(a)
        perm = rng.permutation(6)
        p = np.eye(6)[perm]
        lhs = gcn_layer(Tensor(p.astype(np.float32) @ g), p @ a_norm @ p.T, Tensor(w)).data
        rhs = p @ gcn_layer(Tensor(g), a_norm, Tensor(w)).data
        assert np.abs(lhs - rhs).max() < 1e-6


class TestRefineHeatmaps:
    def test_shape_and_range(self):
        out = refine_heatmaps(Tensor(rnd(1, 6, 1024, seed=6)), 32, 32)
        assert out.shape == (1, 6, 32, 32)
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_zero_features_give_half_maps(self):
        out = refine_heatmaps(Tensor(np.zeros((1, 6, 16), dtype=np.float32)), 4, 4)
        np.testing.assert_allclose(out.data, np.full((1, 6, 4, 4), 0.5))

    def test_identity_weights_compose_to_sigmoid_relu(self):
        # two identity-weight layers under identity adjacency, then refine
        stack = rnd(1, 6, 4, 4, seed=7)
        features = build_node_features(Tensor(stack))
        eye16 = Tensor(np.eye(16, dtype=np.float32))
        out = features
        for _ in range(2):
            out = gcn_layer(out, np.eye(6), eye16)
        refined = refine_heatmaps(out, 4, 4).data
        expected = 1.0 / (1.0 + np.exp(-np.maximum(stack, 0.0)))
        np.testing.assert_allclose(refined, expected, atol=1e-6)


class TestClassifyNodes:
    def test_zero_middle_projection_gives_half_probability(self):
        logit = classify_nodes(Tensor(rnd(2, 6, 8, seed=8)), Tensor(np.zeros((8, 4), np.float32)), Tensor(rnd(4, 1, seed=9)))
        np.testing.assert_allclose(logit.data, np.zeros(2), atol=1e-7)

    def test_identical_rows_make_pooling_a_noop(self):
        row = rnd(8, seed=10)
        g = Tensor(np.tile(row, (6, 1)))
        w0, w1 = Tensor(rnd(8, 4, seed=11)), Tensor(rnd(4, 1, seed=12))
        pooled = classify_nodes(g, w0, w1).item()
        single = float((row @ w0.data @ w1.data)[0])
        assert pooled == pytest.approx(single, rel=1e-5)

    def test_matches_hand_rolled_projection(self):
        rng = np.random.default_rng(13)
        g = rng.standard_normal((6, 8))
        w0 = rng.standard_normal((8, 4))
        w1 = rng.standard_normal((4, 1))
        hand = np.mean([(g[i] @ w0) @ w1 for i in range(6)])
        out = classify_nodes(Tensor(g, dtype=np.float64), Tensor(w0, dtype=np.float64), Tensor(w1, dtype=np.float64)).item()
        assert abs(out - float(hand)) < 1e-6


class TestRefinerEndToEnd:
    def test_identity_weights_identity_adjacency_composition(self):
        # graph path reduces to relu(x); the read-out adds the skip before the sigmoid
        refiner = TopologicalRefiner(np.random.default_rng(40), feature_hw=(4, 4), layers=2, hidden=8)
        refiner.adjacency_norm = np.eye(6)
        for w in refiner.weights:
            w.data = np.eye(16, dtype=np.float32)
        stack = rnd(1, 6, 4, 4, seed=41)
        refined, _ = refiner.forward(Tensor(stack), Tensor(stack))
        expected = 1.0 / (1.0 + np.exp(-(stack + np.maximum(stack, 0.0))))
        np.testing.assert_allclose(refined.data, expected, atol=1e-6)

    def test_paired_nodes_share_graph_features_but_not_refined_maps(self):
        # the normalized pair adjacency averages each pair; the skip keeps maps distinct
        refiner = TopologicalRefiner(np.random.default_rng(42), feature_hw=(4, 4), layers=2, hidden=8)
        stack = Tensor(np.abs(rnd(1, 6, 4, 4, seed=43)))
        base = build_node_features(stack)
        mixed = gcn_layer(base, refiner.adjacency_norm, Tensor(np.eye(16, dtype=np.float32)))
        np.testing.assert_allclose(mixed.data[0, 0], mixed.data[0, 1], atol=1e-7)
        refined, _ = refiner.forward(stack, stack)
        assert np.abs(refined.data[0, 0] - refined.data[0, 1]).max() > 1e-4

    def test_forward_shapes(self):
        refiner = TopologicalRefiner(np.random.default_rng(14), feature_hw=(4, 4), layers=2, hidden=8)
        stack = Tensor(rnd(2, 6, 4, 4, seed=15))
        refined, logit = refiner.forward(stack, stack)
        assert refined.shape == (2, 6, 4, 4)
        assert logit.shape == (2,)

    def test_gradients_flow_from_both_losses_to_input(self):
        refiner = TopologicalRefiner(np.random.default_rng(16), feature_hw=(4, 4), layers=2, hidden=8)
        source = Tensor(np.abs(rnd(1, 6, 4, 4, seed=17)), requires_grad=True)
        stack = sigmoid(source)

        refined, logit = refiner.forward(stack, stack)
        mse_loss(refined, rnd(1, 6, 4, 4, seed=18)).backward()
        from_mse = source.grad.copy()
        assert np.isfinite(from_mse).all() and np.abs(from_mse).max() > 0

        source.grad = None
        stack = sigmoid(source)
        refined, logit = refiner.forward(stack, stack)
        logit.sum().backward()
        from_cls = source.grad.copy()
        assert np.isfinite(from_cls).all() and np.abs(from_cls).max() > 0

    def test_composed_gcn_gradient_32bit(self):
        vals = {
            "g": np.abs(rnd(1, 6, 16, seed=19)),
            "w1": rnd(16, 16, seed=20) * 0.3,
            "w2": rnd(16, 16, seed=21) * 0.3,
            "w0": rnd(16, 4, seed=22) * 0.3,
            "wc": rnd(4, 1, seed=23) * 0.3,
        }
        a_norm = normalize_adjacency(build_adjacency())
        target = rnd(1, 6, 16, seed=24)

        def build(t):
            out = gcn_layer(gcn_layer(t["g"], a_norm, t["w1"]), a_norm, t["w2"])
            return mse_loss(sigmoid(out), Tensor(target, dtype=t["g"].dtype)) + 0.1 * classify_nodes(out, t["w0"], t["wc"]).sum()

        assert_grads_match(build, vals, tol32=1e-3, tol64=None, h32=1e-4)
