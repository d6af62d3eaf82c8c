"""Differentiable network operations built on the tensor tape.

Spatial tensors are (batch, channels, height, width) throughout. Every
sliding-window op (conv2d, transpose_conv2d and the fusion module's
neighborhood stack) moves data through one helper, ``_windows``, which yields
the kh*kw strided (n, c, oh, ow) views of an array, one per kernel offset.
Convolutions keep their patch matrix channel-major, (n, c*kh*kw, oh*ow), so
both passes are plain BLAS products: ``W @ cols`` is already (n, c_out,
oh*ow) and reshapes to the output with no transpose copy. conv2d gathers and
multiplies one sample at a time into a preallocated output, through one
reused (1, c, kh, kw, oh, ow) slot whether or not it records a tape, so the
working set does not grow with the batch. It keeps no patch matrix for
backward, which gathers each sample's patches again from the input into one
slot for the weight gradient (recompute instead of store, as in Chen et al.
2016, "Training Deep Nets with Sublinear Memory Cost") and scatters the
input gradient one sample at a time.

That recompute rests on the tape's contract (see ``make_op``): a recorded
op may read its inputs' ``.data`` again when backward runs, so no op may
write in place into an array that a recorded op took as input before
backward has run.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor, _accumulate, add, as_tensor, make_op, matmul, reshape


def _as_4d(x: Tensor) -> tuple[Tensor, bool]:
    if x.ndim == 4:
        return x, False
    if x.ndim == 3:
        return reshape(x, (1, *x.shape)), True
    raise DimensionError(f"expected a (c,h,w) or (n,c,h,w) tensor, got shape {x.shape}")


def _finish(out: Tensor, bias: Tensor | None, squeeze: bool) -> Tensor:
    """Add a per-channel bias, then drop the batch axis that _as_4d added."""
    if bias is not None:
        out = add(out, reshape(bias, (bias.shape[0], 1, 1)))
    return reshape(out, out.shape[1:]) if squeeze else out


def _windows(x: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int):
    """Yield (u, v, view): the strided (n,c,oh,ow) view of x at kernel offset (u,v)."""
    for u in range(kh):
        for v in range(kw):
            yield u, v, x[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride]


def _gather(x: np.ndarray, slots: np.ndarray, stride: int) -> np.ndarray:
    """Copy every window view of x into ``slots[:, :, u, v]``; slots is (n,c,kh,kw,oh,ow)."""
    _, _, kh, kw, oh, ow = slots.shape
    for u, v, view in _windows(x, kh, kw, stride, oh, ow):
        slots[:, :, u, v] = view
    return slots


def _scatter(slots: np.ndarray, out: np.ndarray, stride: int) -> np.ndarray:
    """Adjoint of _gather: add ``slots[:, :, u, v]`` onto every window view of out."""
    _, _, kh, kw, oh, ow = slots.shape
    for u, v, view in _windows(out, kh, kw, stride, oh, ow):
        view += slots[:, :, u, v]
    return out


def _batched_outer(a: np.ndarray, bs) -> np.ndarray:
    """Sum over the batch of a[i] @ b[i].T for (n,p,L) a and the n (q,L) matrices b[i] of bs.

    Each b[i] is used before the next is drawn, so bs may be a generator that
    refills one buffer. Computed as the transpose of the sum of b[i] @ a[i].T:
    with a long L and the wider patch operand b on the left, OpenBLAS runs up
    to twice as fast.
    """
    pairs = zip(a, bs)
    ai, bi = next(pairs)
    out = bi @ ai.T
    for ai, bi in pairs:
        out += bi @ ai.T
    return out.T


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of (n,c_in,h,w) input with (c_out,c_in,kh,kw) kernels."""
    x4, squeeze = _as_4d(x)
    co, ci, kh, kw = weight.shape
    n, c, h, w = x4.shape
    if c != ci:
        raise DimensionError(f"conv2d channels disagree: input {x4.shape} vs kernels {weight.shape}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(f"conv2d kernel {weight.shape} larger than padded input ({n},{c},{hp},{wp})")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    q, pixels = ci * kh * kw, oh * ow
    w_mat = weight.data.reshape(co, q)
    # a 1x1 stride-1 window over every pixel is the input itself
    per_pixel = kh == kw == 1 and stride == 1

    def patches():
        """Each sample's (c*kh*kw, oh*ow) patch matrix in turn, gathered into one reused slot."""
        xd = _pad(x4.data, padding)
        slot = np.empty((1, ci, kh, kw, oh, ow), dtype=xd.dtype)
        for i in range(n):
            yield _gather(xd[i : i + 1], slot, stride).reshape(q, pixels)

    if per_pixel:
        data = (w_mat @ _pad(x4.data, padding).reshape(n, ci, pixels)).reshape(n, co, oh, ow)
    else:
        data = np.empty((n, co, oh, ow), dtype=np.result_type(w_mat, x4.data))
        out = data.reshape(n, co, pixels)
        for i, cols in enumerate(patches()):
            np.matmul(w_mat, cols, out=out[i])

    def backward(g: np.ndarray) -> None:
        g_mat = g.reshape(n, co, pixels)
        if weight.requires_grad:
            cols = _pad(x4.data, padding).reshape(n, ci, pixels) if per_pixel else patches()
            _accumulate(weight, _batched_outer(g_mat, cols).reshape(weight.shape))
        if x4.requires_grad:
            if per_pixel:
                gx = (w_mat.T @ g_mat).reshape(n, ci, hp, wp)
            else:
                gx = np.zeros((n, ci, hp, wp), dtype=np.result_type(w_mat, g))
                g_slot = np.empty((1, ci, kh, kw, oh, ow), dtype=gx.dtype)
                for i in range(n):
                    np.matmul(w_mat.T, g_mat[i], out=g_slot.reshape(q, pixels))
                    _scatter(g_slot, gx[i : i + 1], stride)
            if padding:
                gx = gx[:, :, padding : padding + h, padding : padding + w]
            _accumulate(x4, gx)

    return _finish(make_op(data, (x4, weight), backward), bias, squeeze)


def transpose_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1) -> Tensor:
    """Learned upsampling; kernels are (c_in,c_out,kh,kw), no implicit padding.

    Output spatial size is (in-1)*stride + k, so k == stride gives exactly
    stride times the input size. This is the adjoint of conv2d: each input
    pixel's (c_out,kh,kw) product is scattered onto the output windows.
    """
    x4, squeeze = _as_4d(x)
    ci, co, kh, kw = weight.shape
    n, c, h, w = x4.shape
    if c != ci:
        raise DimensionError(f"transpose_conv2d channels disagree: input {x4.shape} vs kernels {weight.shape}")
    oh = (h - 1) * stride + kh
    ow = (w - 1) * stride + kw
    w_mat = weight.data.reshape(ci, co * kh * kw)
    x_mat = x4.data.reshape(n, ci, h * w)
    cols = (w_mat.T @ x_mat).reshape(n, co, kh, kw, h, w)
    data = _scatter(cols, np.zeros((n, co, oh, ow), dtype=cols.dtype), stride)

    def backward(g: np.ndarray) -> None:
        g_cols = _gather(g, np.empty((n, co, kh, kw, h, w), dtype=g.dtype), stride).reshape(n, co * kh * kw, h * w)
        if weight.requires_grad:
            _accumulate(weight, _batched_outer(x_mat, g_cols).reshape(weight.shape))
        if x4.requires_grad:
            _accumulate(x4, (w_mat @ g_cols).reshape(n, ci, h, w))

    return _finish(make_op(data, (x4, weight), backward), bias, squeeze)


def maxpool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pooling; ties route the gradient to the first slot."""
    x4, squeeze = _as_4d(x)
    n, c, h, w = x4.shape
    if h % kernel or w % kernel:
        raise DimensionError(f"maxpool2d needs dims divisible by {kernel}, got {x4.shape}")
    oh, ow = h // kernel, w // kernel
    tiles = x4.data.reshape(n, c, oh, kernel, ow, kernel).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, kernel * kernel)
    arg = tiles.argmax(axis=-1)
    data = np.take_along_axis(tiles, arg[..., None], axis=-1)[..., 0]

    def backward(g: np.ndarray) -> None:
        gt = np.zeros_like(tiles)
        np.put_along_axis(gt, arg[..., None], g[..., None], axis=-1)
        gx = gt.reshape(n, c, oh, ow, kernel, kernel).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        _accumulate(x4, gx)

    return _finish(make_op(data, (x4,), backward), None, squeeze)


# -- pointwise activations ------------------------------------------------------

def pointwise(x: Tensor, kind: str) -> Tensor:
    """Elementwise nonlinearity; kind is relu or sigmoid."""
    if kind == "relu":
        data = np.maximum(x.data, 0)

        def backward(g: np.ndarray) -> None:
            _accumulate(x, g * (x.data > 0))

    elif kind == "sigmoid":
        data = _sigmoid(x.data)

        def backward(g: np.ndarray) -> None:
            _accumulate(x, g * data * (1 - data))

    else:
        raise ConfigError(f"unknown pointwise kind {kind!r}; expected relu or sigmoid")
    return make_op(data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    return pointwise(x, "relu")


def sigmoid(x: Tensor) -> Tensor:
    return pointwise(x, "sigmoid")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Normalized exponential along one axis, computed with max subtraction."""
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax axis {axis} out of range for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(x, data * (g - dot))

    return make_op(data, (x,), backward)


def layer_norm(x: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize each slice along ``axis`` to zero mean and unit variance."""
    mu = x.data.mean(axis=axis, keepdims=True)
    centered = x.data - mu
    var = (centered**2).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    data = centered * inv

    def backward(g: np.ndarray) -> None:
        g_mean = g.mean(axis=axis, keepdims=True)
        proj = (g * data).mean(axis=axis, keepdims=True)
        _accumulate(x, inv * (g - g_mean - data * proj))

    return make_op(data, (x,), backward)


# -- losses ---------------------------------------------------------------------


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean of squared differences over all elements."""
    target = as_tensor(target, like=pred)
    if pred.shape != target.shape:
        raise DimensionError(f"mse_loss shapes disagree: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    data = np.asarray((diff**2).mean(), dtype=pred.data.dtype)
    scale = 2.0 / diff.size

    def backward(g: np.ndarray) -> None:
        grad = g * scale * diff
        if pred.requires_grad:
            _accumulate(pred, grad)
        if target.requires_grad:
            _accumulate(target, -grad)

    return make_op(data, (pred, target), backward)


def bce_loss(logit: Tensor, label) -> Tensor:
    """Binary cross entropy from logits, mean over elements.

    Uses the log-sum-exp form max(z,0) - z*y + log(1+exp(-|z|)) so large
    logits cannot overflow. Labels must be 0 or 1.
    """
    label_arr = label.data if isinstance(label, Tensor) else np.asarray(label, dtype=logit.data.dtype)
    label_arr = np.broadcast_to(np.asarray(label_arr, dtype=logit.data.dtype), logit.shape)
    if not np.isin(label_arr, (0.0, 1.0)).all():
        raise ContractError("bce_loss labels must be 0 or 1")
    z = logit.data
    per = np.maximum(z, 0) - z * label_arr + np.log1p(np.exp(-np.abs(z)))
    data = np.asarray(per.mean(), dtype=z.dtype)
    n = z.size

    def backward(g: np.ndarray) -> None:
        _accumulate(logit, g * (_sigmoid(z) - label_arr) / n)

    return make_op(data, (logit,), backward)


# -- neighborhood windows (used by the fusion module) ----------------------------


def pad_edge(x: Tensor, pad: int) -> Tensor:
    """Replicate the border of the last two axes ``pad`` pixels outward."""
    if x.ndim != 4:
        raise DimensionError(f"pad_edge expects (n,c,h,w), got shape {x.shape}")
    if pad == 0:
        return x
    n, c, h, w = x.shape
    data = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="edge")

    def backward(g: np.ndarray) -> None:
        gx = g[:, :, pad : pad + h, pad : pad + w].copy()
        gx[:, :, :1, :] += g[:, :, :pad, pad : pad + w].sum(axis=2, keepdims=True)
        gx[:, :, -1:, :] += g[:, :, pad + h :, pad : pad + w].sum(axis=2, keepdims=True)
        gx[:, :, :, :1] += g[:, :, pad : pad + h, :pad].sum(axis=3, keepdims=True)
        gx[:, :, :, -1:] += g[:, :, pad : pad + h, pad + w :].sum(axis=3, keepdims=True)
        gx[:, :, 0, 0] += g[:, :, :pad, :pad].sum(axis=(2, 3))
        gx[:, :, 0, -1] += g[:, :, :pad, pad + w :].sum(axis=(2, 3))
        gx[:, :, -1, 0] += g[:, :, pad + h :, :pad].sum(axis=(2, 3))
        gx[:, :, -1, -1] += g[:, :, pad + h :, pad + w :].sum(axis=(2, 3))
        _accumulate(x, gx)

    return make_op(data, (x,), backward)


def window_stack(x: Tensor, window: int) -> Tensor:
    """Stack the window*window shifted views of a padded map.

    Input (n,c,h+2p,w+2p) with p = window//2 yields (n, window^2, c, h, w);
    slot u*window+v holds the view shifted by (u-p, v-p), row-major.
    """
    if x.ndim != 4:
        raise DimensionError(f"window_stack expects (n,c,hp,wp), got shape {x.shape}")
    n, c, hp, wp = x.shape
    h = hp - window + 1
    w = wp - window + 1
    if h < 1 or w < 1:
        raise DimensionError(f"window {window} larger than padded input {x.shape}")
    data = np.empty((n, window * window, c, h, w), dtype=x.data.dtype)
    _gather(x.data, _slot_view(data, window), 1)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, _scatter(_slot_view(g, window), np.zeros_like(x.data), 1))

    return make_op(data, (x,), backward)


def _slot_view(stack: np.ndarray, window: int) -> np.ndarray:
    """(n, window^2, c, h, w) stack seen as the (n, c, window, window, h, w) slots of _gather."""
    n, _, c, h, w = stack.shape
    return stack.reshape(n, window, window, c, h, w).transpose(0, 3, 1, 2, 4, 5)


def unfold_neighborhoods(x: Tensor, window: int) -> Tensor:
    """Edge-replicated (n, window^2, c, h, w) neighborhoods of every pixel."""
    if window % 2 == 0 or window < 1:
        raise ConfigError(f"neighborhood window must be odd and positive, got {window}")
    return window_stack(pad_edge(x, window // 2), window)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map along the last axis: x @ weight (+ bias)."""
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out
