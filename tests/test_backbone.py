"""Branch shape contracts, determinism, and the no-dead-branch property."""

import contextlib
import hashlib
import platform
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from hipgraf.autodiff import Tensor, attention, conv2d, layer_norm, mse_loss, no_grad, reshape, sigmoid
from hipgraf.config import BackboneConfig, ModelConfig
from hipgraf.errors import ConfigError, DimensionError
from hipgraf.nets import transformer, unet
from hipgraf.nets.model import HEAD_BIAS_GAIN, HEAD_INPUT_GAIN, HeatmapHead, build_model
from hipgraf.nets.transformer import TransformerBranch
from hipgraf.nets.unet import UNetBranch

from conftest import toy_backbone
from gradcheck import as_float64


def rng(seed=0):
    return np.random.default_rng(seed)


def default_backbone():
    return BackboneConfig()


class TestUNetBranch:
    def test_default_output_shape(self):
        branch = UNetBranch(default_backbone(), rng())
        out = branch.forward(Tensor(rng(1).random((1, 1, 128, 128), dtype=np.float32)))
        assert out.shape == (1, 32, 32, 32)

    def test_two_calls_bitwise_identical(self):
        branch = UNetBranch(toy_backbone(), rng())
        x = Tensor(rng(2).random((2, 1, 16, 16), dtype=np.float32))
        a = branch.forward(x).data
        b = branch.forward(x).data
        assert np.array_equal(a, b)

    def test_zero_input_zero_biases_gives_zero_output(self):
        branch = UNetBranch(toy_backbone(), rng())
        for name, p in branch.named_parameters():
            if name.endswith("bias"):
                p.data[:] = 0.0
        out = branch.forward(Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)))
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_wrong_size_rejected(self):
        branch = UNetBranch(toy_backbone(), rng())
        with pytest.raises(DimensionError, match="16"):
            branch.forward(Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32)))

    # feature_size 4, 8 and 32 from a 32 px input at depth 3: the decoder reads 0, 1 and all 3 encoder outputs
    SKIP_GEOMETRIES = [4, 8, 32]

    @staticmethod
    def _spied_forward(monkeypatch, feature_size, record):
        """Run the branch with spies on its ops; return (events, pooled, output, n_up).

        ``pooled`` holds a weak reference to each encoder output, taken as its
        pool reads it. Each event is (op, alive, read): which of those outputs
        are alive when the op starts, and which the op takes as input.
        """
        config = BackboneConfig(
            input_size=32, feature_size=feature_size, channels=8, unet_depth=3, patch_size=8, token_dim=8, transformer_layers=1, heads=2
        )
        branch = UNetBranch(config, rng())
        pooled, events = [], []

        def spy(name, op):
            def call(*args, **kwargs):
                inputs = args[0] if name == "concat" else args[:1]
                alive = [ref() is not None for ref in pooled]
                read = [any(ref() is t.data for t in inputs) for ref in pooled]
                events.append((name, alive, read))
                if name == "maxpool2d":
                    pooled.append(weakref.ref(args[0].data))
                return op(*args, **kwargs)

            return call

        for name in ("maxpool2d", "conv2d_relu", "transpose_conv2d", "concat"):
            monkeypatch.setattr(unet, name, spy(name, getattr(unet, name)))
        image = Tensor(rng(5).random((2, 1, 32, 32), dtype=np.float32))
        with contextlib.nullcontext() if record else no_grad():
            out = branch.forward(image)
        return events, pooled, out, branch.n_up

    @pytest.mark.parametrize("feature_size", SKIP_GEOMETRIES)
    def test_no_grad_forward_holds_an_encoder_output_only_until_its_last_reader(self, monkeypatch, feature_size):
        events, pooled, _, n_up = self._spied_forward(monkeypatch, feature_size, record=False)
        depth = len(pooled)
        assert depth == 3 and [event[0] for event in events].count("concat") == n_up
        pools = [k for k, (name, *_) in enumerate(events) if name == "maxpool2d"]
        for level, start in enumerate(pools):
            later = events[start + 1 :]
            if level < depth - n_up:
                # not a skip: dead before the next op (the next level's first conv, or the bottleneck's)
                name, alive, _ = later[0]
                assert name == "conv2d_relu" and not alive[level]
                continue
            # a skip: alive up to the concat that reads it, and dead at the conv after it
            reader = next(k for k, (name, _, read) in enumerate(later) if name == "concat" and read[level])
            assert all(alive[level] for _, alive, _ in later[: reader + 1])
            name, alive, _ = later[reader + 1]
            assert name == "conv2d_relu" and not alive[level]
        # the j-th concat reads the encoder output j levels from the bottom
        concats = [read.index(True) for name, _, read in events if name == "concat"]
        assert concats == list(range(depth - 1, depth - 1 - n_up, -1))

    @pytest.mark.parametrize("feature_size", SKIP_GEOMETRIES)
    def test_recorded_forward_tape_reaches_every_encoder_output(self, monkeypatch, feature_size):
        _, pooled, out, _ = self._spied_forward(monkeypatch, feature_size, record=True)
        reached, stack = {}, [out]
        while stack:
            node = stack.pop()
            if id(node.data) not in reached:
                reached[id(node.data)] = node.data
                stack.extend(node._parents)
        # every encoder output is alive and on the tape: the pools' backward reads them
        assert len(pooled) == 3
        assert all(ref() is not None and reached.get(id(ref())) is ref() for ref in pooled)


class TestTransformerBranch:
    def test_default_token_count_and_output_shape(self):
        branch = TransformerBranch(default_backbone(), rng())
        x = Tensor(rng(3).random((1, 1, 128, 128), dtype=np.float32))
        tokens = branch.tokens(x)
        assert tokens.shape == (1, 256, 32)
        out = branch.forward(x)
        assert out.shape == (1, 32, 32, 32)

    def test_forward_leaves_the_modules_unchanged(self):
        branch = TransformerBranch(toy_backbone(), rng())
        state = {id(m): dict(vars(m)) for layer in branch.layers for m in (layer, layer.attention)}
        branch.forward(Tensor(rng(15).random((2, 1, 16, 16), dtype=np.float32)))
        with no_grad():
            branch.forward(Tensor(rng(16).random((3, 1, 16, 16), dtype=np.float32)))
        # a forward leaves nothing behind on the modules, so threads may share them
        assert {id(m): dict(vars(m)) for layer in branch.layers for m in (layer, layer.attention)} == state

    def test_forward_runs_one_attention_op_per_layer(self, monkeypatch):
        config = BackboneConfig(
            input_size=16, feature_size=4, channels=8, unet_depth=2, patch_size=4, token_dim=8, transformer_layers=3, heads=2
        )
        branch = TransformerBranch(config, rng())
        x = Tensor(rng(17).random((2, 1, 16, 16), dtype=np.float32))
        outputs = []

        def spy(*args, **kwargs):
            outputs.append(attention(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(transformer, "attention", spy)
        recorded = branch.forward(x)
        assert len(outputs) == len(branch.layers)
        assert all(isinstance(out, Tensor) and out.shape == (2, 16, 8) and out.requires_grad for out in outputs)
        outputs.clear()
        with no_grad():
            unrecorded = branch.forward(x)
        assert len(outputs) == len(branch.layers) and not any(out.requires_grad for out in outputs)
        assert unrecorded.data.tobytes() == recorded.data.tobytes()

    def test_patch_permutation_equivariance_with_zero_pos_embedding(self):
        # Swapping two input patches must swap the corresponding output tokens.
        config = BackboneConfig(
            input_size=16, feature_size=4, channels=8, unet_depth=2, patch_size=4, token_dim=8, transformer_layers=2, heads=2
        )
        branch = TransformerBranch(config, rng(5))
        branch.pos_embedding.data[:] = 0.0
        image = rng(6).random((1, 1, 16, 16), dtype=np.float32)
        p = config.patch_size
        swapped = image.copy()
        # patches (0,0) and (2,1) in the 4x4 grid
        swapped[0, 0, 0:p, 0:p], swapped[0, 0, 2 * p : 3 * p, p : 2 * p] = (
            image[0, 0, 2 * p : 3 * p, p : 2 * p].copy(),
            image[0, 0, 0:p, 0:p].copy(),
        )
        base = branch.tokens(Tensor(image)).data[0]
        perm = branch.tokens(Tensor(swapped)).data[0]
        grid = config.input_size // p
        i, j = 0 * grid + 0, 2 * grid + 1
        expected = base.copy()
        expected[[i, j]] = base[[j, i]]
        np.testing.assert_allclose(perm, expected, atol=1e-5)

    def test_indivisible_patch_size_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            BackboneConfig(input_size=100, patch_size=8).validate()


class TestHeatmapHead:
    def test_output_shape_and_range(self):
        config = default_backbone()
        head = HeatmapHead(rng(7), config.channels)
        fused = Tensor(rng(8).standard_normal((1, 32, 32, 32)).astype(np.float32))
        out = sigmoid(head.logits(fused))
        assert out.shape == (1, 6, 32, 32)
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_zero_weights_give_half_everywhere(self):
        head = HeatmapHead(rng(9), 8)
        head.weight.data[:] = 0.0
        head.bias.data[:] = 0.0
        out = sigmoid(head.logits(Tensor(rng(10).standard_normal((1, 8, 4, 4)).astype(np.float32))))
        np.testing.assert_allclose(out.data, np.full_like(out.data, 0.5))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bias_rides_conv2d_with_the_bits_of_a_separate_add(self, dtype):
        head = HeatmapHead(rng(11), 8)
        if dtype == "float64":
            as_float64(head)
        head.bias.data = rng(12).standard_normal(6).astype(dtype)
        fused = Tensor(rng(13).standard_normal((2, 8, 4, 4)).astype(dtype), requires_grad=True)
        upstream = rng(14).standard_normal((2, 6, 4, 4)).astype(dtype)
        logits = head.logits(fused)
        assert logits._parents[1] is head.weight and len(logits._parents) == 3  # one conv2d node carries the bias
        (logits * Tensor(upstream)).sum().backward()
        grads = [t.grad.tobytes() for t in (fused, head.weight, head.bias)]
        for t in (fused, head.weight, head.bias):
            t.grad = None
        b, c, h, w = fused.shape
        conditioned = reshape(layer_norm(reshape(fused, (b, c, h * w)), axis=-1), (b, c, h, w)) * HEAD_INPUT_GAIN
        separate = conv2d(conditioned, head.weight) + HEAD_BIAS_GAIN * reshape(head.bias, (6, 1, 1))
        (separate * Tensor(upstream)).sum().backward()
        assert logits.data.tobytes() == separate.data.tobytes()
        assert grads == [t.grad.tobytes() for t in (fused, head.weight, head.bias)]


class TestBranchShapeContract:
    def test_branches_agree_before_fusion(self, toy_model_config):
        model = build_model(toy_model_config, seed=0)
        x = model.prepare_images(rng(11).random((2, 16, 16), dtype=np.float32))
        f_local = model.unet.forward(x)
        f_global = model.transformer.forward(x)
        assert f_local.shape == f_global.shape

    def test_fully_frozen_model_forwards(self, toy_model_config):
        model = build_model(toy_model_config, seed=0)
        images = rng(14).random((2, 16, 16), dtype=np.float32)
        expected = model.forward(images)
        for _, p in model.named_parameters():
            p.requires_grad = False
        assert model.parameters() and not any(p.requires_grad for p in model.parameters().values())
        out = model.forward(images)
        assert out.heatmaps.dtype == np.float32 and not out.heatmaps.requires_grad
        np.testing.assert_array_equal(out.heatmaps.data, expected.heatmaps.data)
        np.testing.assert_array_equal(out.refined.data, expected.refined.data)

    def test_concurrent_no_grad_forwards_match_a_single_thread(self, toy_model_config):
        # more threads than cores and frequent switches, to interleave the forwards
        model = build_model(toy_model_config, seed=2)
        inputs = [rng(20 + k).random((3, 16, 16), dtype=np.float32) for k in range(4)]

        def outputs(images):
            with no_grad():
                out = model.forward(images)
            assert not out.heatmaps.requires_grad
            return [t.data.tobytes() for t in (out.heatmaps, out.refined, out.logit)]

        expected = [outputs(images) for images in inputs]
        start = threading.Barrier(len(inputs))
        results = [[] for _ in inputs]

        def run(k):
            start.wait(timeout=30)
            for _ in range(5):
                results[k].append(outputs(inputs[k]))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[e] * 5 for e in expected]

    def test_heatmap_mse_reaches_every_branch_parameter(self, toy_model_config):
        # no dead branch: every parameter tensor gets a finite, somewhere-nonzero grad
        model = build_model(toy_model_config, seed=1)
        out = model.forward(rng(12).random((2, 16, 16), dtype=np.float32))
        target = rng(13).random((2, 6, 4, 4))
        loss = mse_loss(out.heatmaps, target.astype(np.float32))
        model.zero_grad()
        loss.backward()
        for name, p in model.unet.named_parameters("unet."):
            assert p.grad is not None and np.isfinite(p.grad).all() and np.abs(p.grad).max() > 0, name
        for name, p in model.transformer.named_parameters("transformer."):
            assert p.grad is not None and np.isfinite(p.grad).all() and np.abs(p.grad).max() > 0, name
        for name, p in model.fusion.named_parameters("fusion."):
            assert p.grad is not None and np.isfinite(p.grad).all() and np.abs(p.grad).max() > 0, name
        for name, p in model.head.named_parameters("head."):
            assert p.grad is not None and np.isfinite(p.grad).all() and np.abs(p.grad).max() > 0, name


# sha256 over (name, dtype, bytes) of build_model(ModelConfig(variant=v), seed=11).state_arrays(),
# recorded on x86-64 from one float64 draw of each whole weight, which the sliced draw must reproduce;
# the float64 entries hash the as_float64 cast of that float32 build, the model the gradient checks use
INIT_SHA256 = {
    ("float32", "full"): "e4ddabbe82bf02706afa4ac19582dd6458469eb999e3ecbb79b75e49dedfffdf",
    ("float32", "no_mmf"): "e4ddabbe82bf02706afa4ac19582dd6458469eb999e3ecbb79b75e49dedfffdf",
    ("float32", "no_tgcn"): "0720552152a5b7ece6c0d19b616a7d7387290f56c8d9f62275af9255286225eb",
    ("float32", "concat_baseline"): "0720552152a5b7ece6c0d19b616a7d7387290f56c8d9f62275af9255286225eb",
    ("float64", "full"): "7afeaedfdddd512266428765fca0018354ba9c2db7a244084ec52c005506cb82",
    ("float64", "no_mmf"): "7afeaedfdddd512266428765fca0018354ba9c2db7a244084ec52c005506cb82",
    ("float64", "no_tgcn"): "3600205471154e62b027e610a348c7f28738f4ab8320c6e808b766be0376f46c",
    ("float64", "concat_baseline"): "3600205471154e62b027e610a348c7f28738f4ab8320c6e808b766be0376f46c",
}


def build_in(dtype, variant):
    model = build_model(ModelConfig(variant=variant), seed=11)
    return as_float64(model) if dtype == "float64" else model


class TestInitBits:
    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="digests recorded on x86-64")
    @pytest.mark.parametrize("dtype, variant", sorted(INIT_SHA256))
    def test_default_init_is_pinned(self, dtype, variant):
        model = build_in(dtype, variant)
        digest = hashlib.sha256()
        for name, arr in model.state_arrays().items():
            digest.update(name.encode())
            digest.update(str(arr.dtype).encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        assert digest.hexdigest() == INIT_SHA256[dtype, variant]

    @pytest.mark.parametrize("dtype, variant", sorted(INIT_SHA256))
    def test_built_parameters_are_c_contiguous_and_writeable(self, dtype, variant):
        model = build_in(dtype, variant)
        for name, p in model.named_parameters():
            assert p.data.dtype == dtype and p.data.flags.c_contiguous and p.data.flags.writeable, name

    def test_build_holds_the_parameters_once(self):
        build_model(ModelConfig(), seed=11)  # first calls allocate caches of their own
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            model = build_model(ModelConfig(), seed=11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a float64 draw of each whole weight, then its cast, traced about 1.8x the parameters
        assert peak - before <= sum(arr.nbytes for arr in model.state_arrays().values()) + (1 << 20)
