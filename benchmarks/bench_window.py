"""Forward and backward time of every sliding-window kernel shape in the default model,
and of the non-conv ops around them.

Covers the 12 conv2d calls, the 2 transpose_conv2d calls and the 3 maxpool2d
calls of one forward pass of the default ``full`` model at batch 2 (128 px
input), in float32. The first conv's input is the image, which needs no
gradient, so its backward times the weight gradient alone, as a training
step does. The non-conv cases are one MMF route (``modulated_fuse`` on the
(n,32,32,32) maps), the attention softmax over the (n,4,256,256) scores with
its 1/sqrt(head_dim) scale, and the matmuls whose right operand is a 2-D
weight: the TGCN's (n,6,1024) @ (1024,1024) and a transformer MLP's
(n,256,32) @ (32,64). Backward times one call of the op's backward closure
with a fixed upstream gradient, so tape bookkeeping outside the op is not
included. Every forward is also timed tape-free (inside ``no_grad``) at
batch 8, the batch ``evaluate_model`` runs; there conv2d reuses one patch
tile buffer for every sample. Each conv and transposed-conv case also runs
once under ``tracemalloc`` before it is timed and records the peak traced
memory of that call, output and gradients included, as ``peak_mb`` in the
case's ``extra_info`` (``--benchmark-json`` writes it out).

The UNet's ten 3x3 convs run as ``conv2d_relu``, one tape node that clamps
conv2d's output in place, so each of their shapes also has a recorded-forward
and a backward ``conv2d_relu`` case. Next to the plain conv2d case's
``peak_mb``, the forward's shows that the clamp allocates no second
output-sized map, where ``relu(conv2d(...))`` keeps one on the tape; the
backward's adds the masked gradient, which relu's own node allocated.

Run from the repository root (pytest-benchmark prints min/median/max per
case; pin BLAS to one thread for numbers comparable with ``perfbench``):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/bench_window.py \
        -p no:cacheprovider --benchmark-columns=median,iqr,rounds

The file lives outside ``tests/``, so the tier-1 run never collects it.
"""

import tracemalloc

import numpy as np
import pytest

from hipgraf.autodiff import Tensor, conv2d, conv2d_relu, matmul, maxpool2d, no_grad, softmax, transpose_conv2d
from hipgraf.nets.fusion import modulated_fuse

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

# (heads, tokens, head_dim): the attention scores one encoder layer softmaxes
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
    scores = Tensor(np.random.default_rng(0).standard_normal((batch, heads, tokens, tokens)).astype(np.float32), requires_grad=True)
    return scores, lambda: softmax(scores, axis=-1, scale=1.0 / np.sqrt(head_dim))


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


def test_attention_softmax_forward_no_grad_batch8(benchmark):
    _, op = _attention(batch=EVAL_BATCH)
    benchmark(_no_grad(op))


def test_attention_softmax_backward(benchmark):
    scores, op = _attention()
    benchmark(_run_backward(op, scores))
