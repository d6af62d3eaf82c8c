"""Finite-difference verification of every op's backward pass.

Each case builds the op twice over the same values: a float64 graph probed
by central differences (the oracle) and, for the 32-bit cases, a float32
graph supplying the analytic gradients under test. Every case uses the
defaults of ``gradcheck.assert_grads_match``: a central-difference step of
1e-4, and thresholds of 1e-6 for float64 analytic vs float64 oracle and
1e-3 for float32 analytic vs the float64 oracle.
"""

import threading

import numpy as np
import pytest

from hipgraf.autodiff import (
    no_grad,
    Tensor,
    bce_loss,
    concat,
    conv2d,
    conv2d_relu,
    default_dtype,
    layer_norm,
    linear,
    matmul,
    maxpool2d,
    mse_loss,
    mul,
    pointwise,
    reduce_mean,
    softmax,
    transpose_conv2d,
    unfold_neighborhoods,
    using_dtype,
)
from hipgraf.errors import ContractError
from hipgraf.nets.model import build_model

from gradcheck import assert_grads_match


def rnd(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestCoreOps:
    def test_matmul_sum(self):
        values = {"a": rnd(3, 4, seed=1), "b": rnd(4, 2, seed=2)}
        assert_grads_match(lambda t: matmul(t["a"], t["b"]).sum(), values)

    def test_matmul_batched(self):
        values = {"a": rnd(2, 3, 4, seed=3), "b": rnd(4, 5, seed=4)}
        assert_grads_match(lambda t: (matmul(t["a"], t["b"]) * Tensor(rnd(2, 3, 5, seed=5), dtype=t["a"].dtype)).sum(), values)

    def test_mul_broadcast(self):
        values = {"a": rnd(2, 3, 1, seed=6), "b": rnd(3, 4, seed=7)}
        assert_grads_match(lambda t: mul(t["a"], t["b"]).sum(), values)

    def test_add_sub_neg_mean(self):
        values = {"a": rnd(3, 4, seed=8), "b": rnd(4, seed=9)}
        assert_grads_match(lambda t: reduce_mean(t["a"] + t["b"] - (-t["a"])), values)

    def test_concat(self):
        values = {"a": rnd(2, 3, seed=10), "b": rnd(2, 2, seed=11)}
        weights = rnd(5, seed=12)
        assert_grads_match(lambda t: (concat([t["a"], t["b"]], axis=1) * Tensor(weights, dtype=t["a"].dtype)).sum(), values)


class TestConvOps:
    def test_conv2d(self):
        # 2-channel 5x5 input per the op contract example
        values = {"x": rnd(1, 2, 5, 5, seed=13), "w": rnd(3, 2, 3, 3, seed=14), "b": rnd(3, seed=15)}
        assert_grads_match(lambda t: conv2d(t["x"], t["w"], t["b"], stride=1, padding=1).sum(), values)

    def test_conv2d_strided(self):
        values = {"x": rnd(2, 2, 6, 6, seed=16), "w": rnd(2, 2, 2, 2, seed=17)}
        assert_grads_match(lambda t: (conv2d(t["x"], t["w"], stride=2) * 0.7).sum(), values)

    def test_conv2d_stride_two_padding_one(self):
        values = {"x": rnd(1, 2, 7, 7, seed=47), "w": rnd(3, 2, 3, 3, seed=48)}
        weights = rnd(1, 3, 4, 4, seed=49)
        assert_grads_match(lambda t: (conv2d(t["x"], t["w"], stride=2, padding=1) * Tensor(weights, dtype=t["x"].dtype)).sum(), values)

    def test_conv2d_non_square_kernel(self):
        values = {"x": rnd(2, 2, 5, 6, seed=50), "w": rnd(2, 2, 2, 3, seed=51)}
        weights = rnd(2, 2, 6, 6, seed=52)
        assert_grads_match(lambda t: (conv2d(t["x"], t["w"], padding=1) * Tensor(weights, dtype=t["x"].dtype)).sum(), values)

    def test_conv2d_one_by_one(self):
        values = {"x": rnd(2, 3, 4, 4, seed=53), "w": rnd(2, 3, 1, 1, seed=54), "b": rnd(2, seed=55)}
        weights = rnd(2, 2, 4, 4, seed=56)
        assert_grads_match(lambda t: (conv2d(t["x"], t["w"], t["b"]) * Tensor(weights, dtype=t["x"].dtype)).sum(), values)

    def test_conv2d_relu(self):
        # half the pre-activations negative, every one clear of the relu kink, as in TestPointwiseOps
        values = {"x": rnd(1, 2, 5, 5, seed=60), "w": rnd(3, 2, 3, 3, seed=61), "b": rnd(3, seed=62)}
        pre = conv2d(Tensor(values["x"]), Tensor(values["w"]), Tensor(values["b"]), padding=1).data
        assert np.abs(pre).min() > 0.05 and 0.25 < (pre < 0).mean() < 0.75
        weights = rnd(1, 3, 5, 5, seed=63)
        assert_grads_match(lambda t: (conv2d_relu(t["x"], t["w"], t["b"], padding=1) * Tensor(weights, dtype=t["x"].dtype)).sum(), values)

    def test_transpose_conv2d(self):
        values = {"x": rnd(1, 2, 3, 3, seed=18), "w": rnd(2, 3, 2, 2, seed=19), "b": rnd(3, seed=20)}
        weights = rnd(1, 3, 6, 6, seed=21)
        assert_grads_match(
            lambda t: (transpose_conv2d(t["x"], t["w"], t["b"], stride=2) * Tensor(weights, dtype=t["x"].dtype)).sum(),
            values,
        )

    def test_maxpool(self):
        values = {"x": rnd(1, 2, 4, 4, seed=22)}
        assert_grads_match(lambda t: (maxpool2d(t["x"], 2) * 1.3).sum(), values)


class TestPointwiseOps:
    @pytest.mark.parametrize("kind", ["relu", "sigmoid"])
    def test_kinds_at_100_random_points(self, kind):
        points = np.random.default_rng(23).uniform(-3, 3, size=100)
        points = points[np.abs(points) > 0.05][:90]  # keep clear of the relu kink
        values = {"x": points}
        assert_grads_match(lambda t: (pointwise(t["x"], kind) * Tensor(rnd(points.size, seed=24), dtype=t["x"].dtype)).sum(), values)

    def test_softmax(self):
        values = {"x": rnd(3, 5, seed=25)}
        weights = rnd(3, 5, seed=26)
        assert_grads_match(lambda t: (softmax(t["x"], axis=1) * Tensor(weights, dtype=t["x"].dtype)).sum(), values)

    def test_scaled_softmax(self):
        values = {"x": rnd(2, 3, 5, seed=29)}
        weights = rnd(2, 3, 5, seed=30)
        assert_grads_match(lambda t: (softmax(t["x"], axis=-1, scale=0.35) * Tensor(weights, dtype=t["x"].dtype)).sum(), values)

    def test_layer_norm(self):
        values = {"x": rnd(2, 8, seed=27)}
        weights = rnd(2, 8, seed=28)
        assert_grads_match(lambda t: (layer_norm(t["x"], axis=-1) * Tensor(weights, dtype=t["x"].dtype)).sum(), values)


class TestLossOps:
    def test_mse(self):
        values = {"p": rnd(3, 4, seed=29)}
        target = rnd(3, 4, seed=30)
        assert_grads_match(lambda t: mse_loss(t["p"], Tensor(target, dtype=t["p"].dtype)), values)

    def test_bce(self):
        values = {"z": rnd(6, seed=31)}
        labels = (rnd(6, seed=32) > 0).astype(np.float64)
        assert_grads_match(lambda t: bce_loss(t["z"], labels), values)


class TestWindowOps:
    def test_window_stack(self):
        values = {"x": rnd(1, 2, 5, 5, seed=35)}
        weights = rnd(1, 9, 2, 5, 5, seed=36)
        assert_grads_match(lambda t: (unfold_neighborhoods(t["x"], 3) * Tensor(weights, dtype=t["x"].dtype)).sum(), values)

    def test_window_stack_folds_a_two_pixel_border(self):
        # a 5-wide window pads 2 pixels on each side of a 3x3 map, so strips and corners fold back
        values = {"x": rnd(1, 2, 3, 3, seed=33)}
        weights = rnd(1, 25, 2, 3, 3, seed=34)
        assert_grads_match(lambda t: (unfold_neighborhoods(t["x"], 5) * Tensor(weights, dtype=t["x"].dtype)).sum(), values)

    def test_window_stack_of_one_pixel(self):
        values = {"x": rnd(1, 2, 3, 4, seed=37)}
        weights = rnd(1, 1, 2, 3, 4, seed=38)
        assert_grads_match(lambda t: (unfold_neighborhoods(t["x"], 1) * Tensor(weights, dtype=t["x"].dtype)).sum(), values)


class TestComposedGraphs:
    def test_linear_model_matches_closed_form(self):
        # loss = mse(X w, y); the closed form is 2/N X^T (X w - y)
        rng = np.random.default_rng(37)
        X = rng.standard_normal((20, 5))
        y = rng.standard_normal((20, 1))
        w = Tensor(rng.standard_normal((5, 1)), requires_grad=True, dtype=np.float64)
        loss = mse_loss(matmul(Tensor(X, dtype=np.float64), w), Tensor(y, dtype=np.float64))
        loss.backward()
        closed = 2.0 / y.size * X.T @ (X @ w.data - y)
        rel = np.abs(w.grad - closed).max() / np.abs(closed).max()
        assert rel < 1e-5

    def test_shared_tensor_gets_summed_contributions(self):
        values = {"w": rnd(3, 3, seed=38)}
        a = rnd(3, 3, seed=39)
        b = rnd(3, 3, seed=40)

        def build(t):
            wa = matmul(t["w"], Tensor(a, dtype=t["w"].dtype))
            wb = matmul(Tensor(b, dtype=t["w"].dtype), t["w"])
            return (wa + wb).sum() + mul(t["w"], t["w"]).sum()

        assert_grads_match(build, values)

    def test_mlp_chain(self):
        values = {"w1": rnd(4, 6, seed=41), "b1": rnd(6, seed=42), "w2": rnd(6, 2, seed=43)}
        x = rnd(5, 4, seed=44)

        def build(t):
            hidden = pointwise(linear(Tensor(x, dtype=t["w1"].dtype), t["w1"], t["b1"]), "sigmoid")
            return mse_loss(matmul(hidden, t["w2"]), Tensor(np.zeros((5, 2)), dtype=t["w1"].dtype))

        assert_grads_match(build, values)


class TestNoGrad:
    def test_ops_record_no_graph(self):
        w = Tensor(rnd(3, 3, seed=45), requires_grad=True)
        with no_grad():
            out = mul(matmul(w, w), w).sum()
        assert out.requires_grad is False
        assert out._parents == ()
        assert out._backward is None

    def test_recording_returns_after_nested_blocks(self):
        w = Tensor(rnd(2, 2, seed=46), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not mul(w, w).requires_grad
        out = mul(w, w)
        assert out.requires_grad and out._parents == (w, w)

    def test_recording_returns_after_an_exception(self):
        w = Tensor(rnd(2, 2, seed=47), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with no_grad():
                raise RuntimeError("raised inside no_grad")
        out = mul(w, w).sum()
        out.backward()
        np.testing.assert_allclose(w.grad, 2 * w.data, rtol=1e-6)

    def test_scope_is_the_calling_thread(self):
        w = Tensor(rnd(2, 2, seed=48), requires_grad=True)
        inside = threading.Event()
        release = threading.Event()
        seen = {}

        def hold_block_open():
            with no_grad():
                inside.set()
                release.wait(timeout=30)
                seen["worker"] = mul(w, w)

        worker = threading.Thread(target=hold_block_open)
        worker.start()
        try:
            assert inside.wait(timeout=30)
            main_out = mul(w, w)  # while the worker is inside its block
        finally:
            release.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert main_out.requires_grad and main_out._parents == (w, w)
        assert not seen["worker"].requires_grad and seen["worker"]._parents == ()


class TestDefaultDtype:
    def test_using_dtype_is_scoped_to_the_calling_thread(self, toy_model_config):
        inside = threading.Event()
        release = threading.Event()
        seen = {}

        def hold_block_open():
            with using_dtype(np.float64):
                inside.set()
                release.wait(timeout=30)
                seen["worker"] = Tensor([1.0, 2.0]).dtype
                seen["worker_model"] = build_model(toy_model_config, seed=0)

        worker = threading.Thread(target=hold_block_open)
        worker.start()
        try:
            assert inside.wait(timeout=30)
            main_dtype = Tensor([1.0, 2.0]).dtype  # while the worker is inside its block
            release.set()
            main_model = build_model(toy_model_config, seed=0)  # while the worker may be building its own
        finally:
            release.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert main_dtype == np.float32
        assert seen["worker"] == np.float64
        assert Tensor([1.0]).dtype == np.float32
        worker_params, main_params = seen["worker_model"].state_arrays(), main_model.state_arrays()
        assert worker_params.keys() == main_params.keys()
        assert all(a.dtype == np.float64 for a in worker_params.values())
        assert all(a.dtype == np.float32 for a in main_params.values())

    @pytest.mark.parametrize("dtype", [np.float16, np.int32])
    def test_using_dtype_rejects_other_dtypes(self, dtype):
        with pytest.raises(ContractError, match="use float32 or float64"):
            with using_dtype(dtype):
                pass
        assert default_dtype() == np.float32
