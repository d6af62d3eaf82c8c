"""Forward and backward time of every sliding-window kernel shape in the default model.

Covers the 12 conv2d calls, the 2 transpose_conv2d calls and the 3 maxpool2d
calls of one forward pass of the default ``full`` model at batch 2 (128 px
input), in float32, and the backward of the TGCN's (2,6,1024) @ (1024,1024)
matmul, whose two gradients each fold the batch axis into one product.
Backward times one call of the op's backward closure with a fixed upstream
gradient, so tape bookkeeping outside the op is not included. The conv2d and
maxpool2d forwards are also timed tape-free (inside ``no_grad``) at batch 8,
the batch ``evaluate_model`` runs; there conv2d reuses one patch buffer for
every sample.

Run from the repository root (pytest-benchmark prints min/median/max per
case; pin BLAS to one thread for numbers comparable with ``perfbench``):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/bench_window.py \
        -p no:cacheprovider --benchmark-columns=median,iqr,rounds

The file lives outside ``tests/``, so the tier-1 run never collects it.
"""

import numpy as np
import pytest

from hipgraf.autodiff import Tensor, conv2d, matmul, maxpool2d, no_grad, transpose_conv2d

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

# (nodes, width): TGCN node features times one of its (width, width) weights
GRAPH_SHAPE = (6, 1024)


def _tensors(x_shape, w_shape, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(x_shape).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal(w_shape).astype(np.float32), requires_grad=True)
    return x, w


def _conv(shape, batch=BATCH):
    ci, h, co, k, pad = shape
    x, w = _tensors((batch, ci, h, h), (co, ci, k, k))
    return x, w, lambda: conv2d(x, w, padding=pad)


def _tconv(shape):
    ci, h, co = shape
    x, w = _tensors((BATCH, ci, h, h), (ci, co, 2, 2))
    return x, w, lambda: transpose_conv2d(x, w, stride=2)


def _pool(shape, batch=BATCH):
    c, h = shape
    x = Tensor(np.random.default_rng(0).standard_normal((batch, c, h, h)).astype(np.float32), requires_grad=True)
    return x, lambda: maxpool2d(x, 2)


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


def _id(shape):
    return "x".join(str(v) for v in shape)


@pytest.mark.parametrize("shape", CONV_SHAPES, ids=_id)
def test_conv2d_forward(benchmark, shape):
    _, _, op = _conv(shape)
    benchmark(op)


@pytest.mark.parametrize("shape", CONV_SHAPES, ids=_id)
def test_conv2d_forward_no_grad_batch8(benchmark, shape):
    _, _, op = _conv(shape, batch=EVAL_BATCH)
    benchmark(_no_grad(op))


@pytest.mark.parametrize("shape", CONV_SHAPES, ids=_id)
def test_conv2d_backward(benchmark, shape):
    x, w, op = _conv(shape)
    benchmark(_run_backward(op, x, w))


@pytest.mark.parametrize("shape", TCONV_SHAPES, ids=_id)
def test_transpose_conv2d_forward(benchmark, shape):
    _, _, op = _tconv(shape)
    benchmark(op)


@pytest.mark.parametrize("shape", TCONV_SHAPES, ids=_id)
def test_transpose_conv2d_backward(benchmark, shape):
    x, w, op = _tconv(shape)
    benchmark(_run_backward(op, x, w))


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


def test_graph_matmul_backward(benchmark):
    nodes, width = GRAPH_SHAPE
    a, w = _tensors((BATCH, nodes, width), (width, width))
    benchmark(_run_backward(lambda: matmul(a, w), a, w))
