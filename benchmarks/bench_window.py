"""Forward and backward time of every sliding-window kernel shape in the default model,
and of the non-conv ops around them.

Covers the 12 conv2d calls, the 2 transpose_conv2d calls and the 3 maxpool2d
calls of one forward pass of the default ``full`` model at batch 2 (128 px
input), in float32. The first conv's input is the image, which needs no
gradient, so its backward times the weight gradient alone, as a training
step does. The non-conv cases are one MMF route (``modulated_fuse`` on the
(n,32,32,32) maps), one encoder layer's attention op (``attention`` on the
(n,256,32) queries, keys and values, 4 heads, scale 1/sqrt(head_dim)), and
the matmuls whose right operand is a 2-D weight: the TGCN's
(n,6,1024) @ (1024,1024) and a transformer MLP's (n,256,32) @ (32,64). The
attention op's recorded batch-2 forward also records ``peak_mb``: its
(n,4,256,256) probabilities are the one score-sized array it allocates.
Backward times one call of the op's backward closure with a fixed upstream
gradient, so tape bookkeeping outside the op is not included. Every forward
is also timed tape-free (inside ``no_grad``) at batch 8, the batch
``evaluate_model`` runs; there conv2d reuses one patch tile buffer for every
sample. Each conv and transposed-conv case also runs once under
``tracemalloc`` before it is timed and records the peak traced memory of
that call, output and gradients included, as ``peak_mb`` in the case's
``extra_info`` (``--benchmark-json`` writes it out).

The UNet's ten 3x3 convs run as ``conv2d_relu``, one tape node that clamps
conv2d's output in place, so each of their shapes also has a recorded-forward
and a backward ``conv2d_relu`` case. Next to the plain conv2d case's
``peak_mb``, the forward's shows that the clamp allocates no second
output-sized map, where ``relu(conv2d(...))`` keeps one on the tape; the
backward's adds the masked gradient, which relu's own node allocated.

Four layers of the default model are also timed whole, each with a recorded
batch-2 forward, a tape-free batch-8 forward and the backward of
``(out * g).sum()`` over its recorded outputs (``Tensor.backward``, tape
bookkeeping included), all with ``peak_mb``: ``UNetBranch.forward`` and
``TransformerBranch.forward`` on the recentered image, ``HeatmapHead.logits``
on the (n,32,32,32) fused maps, and ``TopologicalRefiner.forward`` on the
(n,6,32,32) heatmaps and their logits. The UNet's tape-free ``peak_mb`` shows
which encoder outputs it keeps: only the skips its decoder reads outlive
their pool.

End to end, ``test_detect_batch8`` times ``experiments.detect`` on 8
default-size images, one tape-free batch-8 forward of the whole model plus
the decode, with ``peak_mb``: the batch-8 inference latency and peak traced
memory that ``evaluate_model`` sees per batch.

Run from the repository root (pytest-benchmark prints min/median/max per
case; pin BLAS to one thread for numbers comparable with ``perfbench``):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/bench_window.py \
        -p no:cacheprovider --benchmark-columns=median,iqr,rounds

The file lives outside ``tests/``, so the tier-1 run never collects it.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from hipgraf.autodiff import Tensor, attention, conv2d, conv2d_relu, matmul, maxpool2d, no_grad, transpose_conv2d
from hipgraf.config import ModelConfig
from hipgraf.experiments import detect
from hipgraf.nets.fusion import modulated_fuse
from hipgraf.nets.model import INPUT_GAIN, N_LANDMARKS, build_model

BATCH = 2
EVAL_BATCH = 8

# (c_in, h, c_out, k, padding): UNet encoders, bottleneck, decoder, MMF
# projection and heatmap head, in forward order
CONV_SHAPES = [
    (1, 128, 16, 3, 1),
    (16, 128, 16, 3, 1),
    (16, 64, 32, 3, 1),
    (32, 64, 32, 3, 1),
    (32, 32, 64, 3, 1),
    (64, 32, 64, 3, 1),
    (64, 16, 128, 3, 1),
    (128, 16, 128, 3, 1),
    (128, 32, 32, 3, 1),
    (32, 32, 32, 3, 1),
    (64, 32, 32, 1, 0),
    (32, 32, 6, 1, 0),
]

# the UNet's convs, each a conv2d_relu block
UNET_SHAPES = [shape for shape in CONV_SHAPES if shape[3] == 3]

# (c_in, h, c_out): UNet up-sampler, transformer up-sampler; 2x2 kernels, stride 2
TCONV_SHAPES = [
    (128, 16, 64),
    (32, 16, 32),
]

# (c, h): the input of each UNet encoder's 2x2 pool
POOL_SHAPES = [
    (16, 128),
    (32, 64),
    (64, 32),
]

# (rows, width, out): per-sample rows times a (width, out) weight: the TGCN's
# node features times one of its (1024, 1024) weights, and a transformer
# MLP's tokens times its first weight
MATMUL_SHAPES = [
    (6, 1024, 1024),
    (256, 32, 64),
]

# (channels, h, window): the maps one MMF route fuses
FUSE_SHAPE = (32, 32, 3)

# (heads, tokens, head_dim): the attention of one encoder layer
ATTENTION_SHAPE = (4, 256, 8)


def _tensors(x_shape, w_shape, seed=0, x_grad=True):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(x_shape).astype(np.float32), requires_grad=x_grad)
    w = Tensor(rng.standard_normal(w_shape).astype(np.float32), requires_grad=True)
    return x, w


def _conv(shape, batch=BATCH, op=conv2d):
    ci, h, co, k, pad = shape
    # the image, the only single-channel input, needs no gradient
    x, w = _tensors((batch, ci, h, h), (co, ci, k, k), x_grad=ci > 1)
    return x, w, lambda: op(x, w, padding=pad)


def _tconv(shape):
    ci, h, co = shape
    x, w = _tensors((BATCH, ci, h, h), (ci, co, 2, 2))
    return x, w, lambda: transpose_conv2d(x, w, stride=2)


def _pool(shape, batch=BATCH):
    c, h = shape
    x = Tensor(np.random.default_rng(0).standard_normal((batch, c, h, h)).astype(np.float32), requires_grad=True)
    return x, lambda: maxpool2d(x, 2)


def _matmul(shape, batch=BATCH):
    rows, width, out = shape
    a, w = _tensors((batch, rows, width), (width, out))
    return a, w, lambda: matmul(a, w)


def _fuse(batch=BATCH):
    c, h, window = FUSE_SHAPE
    source, guide = _tensors((batch, c, h, h), (batch, c, h, h))
    return source, guide, lambda: modulated_fuse(source, guide, window)


def _attention(batch=BATCH):
    heads, tokens, head_dim = ATTENTION_SHAPE
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.standard_normal((batch, tokens, heads * head_dim)).astype(np.float32), requires_grad=True) for _ in range(3))
    return (q, k, v), lambda: attention(q, k, v, heads, 1.0 / np.sqrt(head_dim))[0]


@functools.cache
def _default_model():
    return build_model(ModelConfig())


def _image(model, batch, rng):
    """A batch of images recentered and amplified as ``LandmarkNet.forward`` hands them to both branches."""
    size = model.config.backbone.input_size
    return Tensor(((rng.random((batch, 1, size, size)) - 0.5) * INPUT_GAIN).astype(np.float32))


def _unet_case(model, batch, rng):
    image = _image(model, batch, rng)
    return [], lambda: [model.unet.forward(image)]


def _transformer_case(model, batch, rng):
    image = _image(model, batch, rng)
    return [], lambda: [model.transformer.forward(image)]


def _head_case(model, batch, rng):
    bb = model.config.backbone
    fused = Tensor(rng.standard_normal((batch, bb.channels, bb.feature_size, bb.feature_size)).astype(np.float32), requires_grad=True)
    return [fused], lambda: [model.head.logits(fused)]


def _refiner_case(model, batch, rng):
    f = model.config.backbone.feature_size
    logits = rng.standard_normal((batch, N_LANDMARKS, f, f)).astype(np.float32)
    heatmaps, skip = Tensor(1.0 / (1.0 + np.exp(-logits)), requires_grad=True), Tensor(logits, requires_grad=True)
    return [heatmaps, skip], lambda: list(model.refiner.forward(heatmaps, skip))


# layer -> (inputs that need gradients, a call returning the layer's outputs)
LAYER_CASES = {"unet": _unet_case, "transformer": _transformer_case, "head_logits": _head_case, "refiner": _refiner_case}


def _layer(name, batch=BATCH):
    model = _default_model()
    inputs, op = LAYER_CASES[name](model, batch, np.random.default_rng(0))
    return model, inputs, op


def _no_grad(op):
    def forward():
        with no_grad():
            return op()

    return forward


def _run_backward(op, *inputs):
    out = op()
    g = np.ones_like(out.data)

    def backward():
        for t in inputs:
            t.grad = None
        out._backward(g)

    return backward


def _run_loss_backward(model, inputs, op):
    """Backward of (out * g).sum() summed over the layer's outputs, g fixed and random."""
    rng = np.random.default_rng(1)
    terms = [(out * Tensor(rng.standard_normal(out.shape).astype(out.dtype))).sum() for out in op()]
    loss = sum(terms[1:], terms[0])
    leaves = inputs + list(model.parameters().values())

    def backward():
        for t in leaves:
            t.grad = None
        loss.backward()

    return backward


def _peak_mb(fn):
    """MB of the peak traced memory above the start of one call of fn."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        tracemalloc.stop()


def _timed_with_peak(benchmark, fn):
    benchmark.extra_info["peak_mb"] = _peak_mb(fn)
    benchmark(fn)


def _id(shape):
    return "x".join(str(v) for v in shape)


@pytest.mark.parametrize("shape", CONV_SHAPES, ids=_id)
def test_conv2d_forward(benchmark, shape):
    _, _, op = _conv(shape)
    _timed_with_peak(benchmark, op)


@pytest.mark.parametrize("shape", CONV_SHAPES, ids=_id)
def test_conv2d_forward_no_grad_batch8(benchmark, shape):
    _, _, op = _conv(shape, batch=EVAL_BATCH)
    _timed_with_peak(benchmark, _no_grad(op))


@pytest.mark.parametrize("shape", CONV_SHAPES, ids=_id)
def test_conv2d_backward(benchmark, shape):
    x, w, op = _conv(shape)
    _timed_with_peak(benchmark, _run_backward(op, x, w))


@pytest.mark.parametrize("shape", UNET_SHAPES, ids=_id)
def test_conv2d_relu_forward(benchmark, shape):
    _, _, op = _conv(shape, op=conv2d_relu)
    _timed_with_peak(benchmark, op)


@pytest.mark.parametrize("shape", UNET_SHAPES, ids=_id)
def test_conv2d_relu_backward(benchmark, shape):
    x, w, op = _conv(shape, op=conv2d_relu)
    _timed_with_peak(benchmark, _run_backward(op, x, w))


@pytest.mark.parametrize("shape", TCONV_SHAPES, ids=_id)
def test_transpose_conv2d_forward(benchmark, shape):
    _, _, op = _tconv(shape)
    _timed_with_peak(benchmark, op)


@pytest.mark.parametrize("shape", TCONV_SHAPES, ids=_id)
def test_transpose_conv2d_backward(benchmark, shape):
    x, w, op = _tconv(shape)
    _timed_with_peak(benchmark, _run_backward(op, x, w))


@pytest.mark.parametrize("shape", POOL_SHAPES, ids=_id)
def test_maxpool2d_forward(benchmark, shape):
    _, op = _pool(shape)
    benchmark(op)


@pytest.mark.parametrize("shape", POOL_SHAPES, ids=_id)
def test_maxpool2d_forward_no_grad_batch8(benchmark, shape):
    _, op = _pool(shape, batch=EVAL_BATCH)
    benchmark(_no_grad(op))


@pytest.mark.parametrize("shape", POOL_SHAPES, ids=_id)
def test_maxpool2d_backward(benchmark, shape):
    x, op = _pool(shape)
    benchmark(_run_backward(op, x))


@pytest.mark.parametrize("shape", MATMUL_SHAPES, ids=_id)
def test_matmul_2d_weight_forward_no_grad_batch8(benchmark, shape):
    _, _, op = _matmul(shape, batch=EVAL_BATCH)
    benchmark(_no_grad(op))


@pytest.mark.parametrize("shape", MATMUL_SHAPES, ids=_id)
def test_matmul_2d_weight_backward(benchmark, shape):
    a, w, op = _matmul(shape)
    benchmark(_run_backward(op, a, w))


def test_modulated_fuse_forward_no_grad_batch8(benchmark):
    _, _, op = _fuse(batch=EVAL_BATCH)
    benchmark(_no_grad(op))


def test_modulated_fuse_backward(benchmark):
    source, guide, op = _fuse()
    benchmark(_run_backward(op, source, guide))


def test_attention_forward(benchmark):
    _, op = _attention()
    _timed_with_peak(benchmark, op)


def test_attention_forward_no_grad_batch8(benchmark):
    _, op = _attention(batch=EVAL_BATCH)
    benchmark(_no_grad(op))


def test_attention_backward(benchmark):
    inputs, op = _attention()
    benchmark(_run_backward(op, *inputs))


@pytest.mark.parametrize("layer", LAYER_CASES)
def test_layer_forward(benchmark, layer):
    _, _, op = _layer(layer)
    _timed_with_peak(benchmark, op)


@pytest.mark.parametrize("layer", LAYER_CASES)
def test_layer_forward_no_grad_batch8(benchmark, layer):
    _, _, op = _layer(layer, batch=EVAL_BATCH)
    _timed_with_peak(benchmark, _no_grad(op))


@pytest.mark.parametrize("layer", LAYER_CASES)
def test_layer_backward(benchmark, layer):
    _timed_with_peak(benchmark, _run_loss_backward(*_layer(layer)))


def test_detect_batch8(benchmark):
    model = _default_model()
    size = model.config.backbone.input_size
    images = np.random.default_rng(0).random((EVAL_BATCH, size, size)).astype(np.float32)
    _timed_with_peak(benchmark, lambda: detect(model, images, batch_size=EVAL_BATCH))
