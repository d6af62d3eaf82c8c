"""Differentiable network operations built on the tensor tape.

Spatial tensors are (batch, channels, height, width) throughout. Every
sliding-window op reads its windows through one primitive, ``_windows``,
which yields the kh*kw strided (n, c, oh, ow) views of an array, one per
kernel offset: maxpool2d folds them, the fusion module's neighborhood stack
copies them, the transposed conv's forward (``_scatter``) adds onto them,
and conv2d's patches are copied from them. Convolutions keep their patch
matrix channel-major, (c*kh*kw, pixels), so both passes are plain BLAS
products: ``W @ cols`` is already (c_out, pixels) and lands in the output
with no transpose copy. conv2d never builds a whole sample's patch matrix
(9.4 MB for a 16-channel 128 px map, beyond a 2 MiB L2): ``_tiles`` copies
the source rows of a band of output rows into one reused band, which writes
the padding (a negative one crops) and any dilation gaps, so no padded or
dilated copy of any conv operand is made, and gathers that band's window
views into one reused buffer of about ``TILE_BYTES`` (half the L2). Each pass
consumes a tile before the next is drawn, whether or not it records a tape,
so the working set grows with neither the batch nor the image. The forward
(``_correlate``) multiplies each tile into its columns of a preallocated
output. It keeps no patch matrix for backward, which gathers the tiles again
from the input for the weight gradient (``_weight_grad``) and sums their
products (recompute instead of store, as in Chen et al. 2016, "Training Deep
Nets with Sublinear Memory Cost"). Its input gradient runs through the same
``_correlate``: it is the correlation of the upstream gradient, which
``_tiles`` reads dilated by the stride and offset by the kernel size less one
less the padding, with the flipped, channel-swapped kernels (Dumoulin &
Visin 2016, "A guide to convolution arithmetic for deep learning"), so no
read-modify-write scatter is needed. The transposed conv is conv2d's
adjoint, so its backward is conv2d's forward and weight gradient with the
roles of input and output swapped, both products running on each tile of
one gather (``_products``). maxpool2d's backward compares the window views
with the output, keeping nothing the tape does not already hold, and
unfold_neighborhoods keeps no edge-padded copy: its backward scatters into
a zeroed padded buffer and folds the border back. conv2d and
transpose_conv2d add their bias in place on the output they allocated, so
a biased conv is one tape node. conv2d_relu clamps that same fresh output
in place and masks the upstream gradient by the clamped values (``y > 0``
exactly where ``x > 0``, NaN and -0.0 included), so a conv + relu block is
one node too and keeps no pre-activation map, as the in-place activations
of Rota Bulò et al. 2018, "In-Place Activated BatchNorm for
Memory-Optimized Training of DNNs". The clamp is safe under the contract
below because no op has read that array yet. For the same reason the
attention op scales, exponentiates and normalizes its fresh score array in
place (``softmax_inplace``), so multi-head attention is one tape node that
keeps its probabilities and no score array, the fused op of Dao et al. 2022,
"FlashAttention", except that P is kept rather than recomputed.

That recompute rests on the tape's contract (see ``make_op``): a recorded
op may read its inputs' ``.data`` again when backward runs, so no op may
write in place into an array that a recorded op took as input before
backward has run.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor, _accumulate, add, as_tensor, make_op, matmul


def _add_bias(data: np.ndarray, bias: Tensor | None) -> np.ndarray:
    """Add a per-channel bias in place to the (n,c,h,w) output array an op just allocated."""
    if bias is not None:
        data += bias.data.reshape(-1, 1, 1)
    return data


def _bias_grad(bias: Tensor | None, g: np.ndarray) -> None:
    """Sum g over all but the channel axis in _unbroadcast's order, the bits a separate add node gave."""
    if bias is not None and bias.requires_grad:
        _accumulate(bias, g.sum(axis=0).sum(axis=(1, 2)))


def _parents(x: Tensor, weight: Tensor, bias: Tensor | None) -> tuple[Tensor, ...]:
    return (x, weight) if bias is None else (x, weight, bias)


def _windows(x: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int):
    """Yield (u, v, view): the strided (n,c,oh,ow) view of x at kernel offset (u,v)."""
    for u in range(kh):
        for v in range(kw):
            yield u, v, x[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride]


def _scatter(slots: np.ndarray, out: np.ndarray, stride: int) -> np.ndarray:
    """Add ``slots[:, :, u, v]``, (n,c,kh,kw,oh,ow), onto the (u,v) window view of out: the transposed conv's forward."""
    _, _, kh, kw, oh, ow = slots.shape
    for u, v, view in _windows(out, kh, kw, stride, oh, ow):
        view += slots[:, :, u, v]
    return out


# Bytes of one conv patch tile: half the 2 MiB L2, so the tile and the GEMM's
# packed operands stay in cache between the gather and the product
TILE_BYTES = 1 << 20


def _landing(size: int, dilation: int, offset: int, extent: int) -> tuple[slice, slice]:
    """(source, band) slices of one axis: source index j lands at offset + j*dilation when that is in [0, extent)."""
    lo = max(0, -(offset // dilation))
    hi = max(lo, min(size, -((offset - extent) // dilation)))
    return slice(lo, hi), slice(offset + lo * dilation, offset + hi * dilation, dilation)


def _tiles(x: np.ndarray, kh: int, kw: int, stride: int, padding: tuple[int, int], oh: int, ow: int, dilation: int = 1):
    """Yield (i, r0, r, cols): sample i's (c*kh*kw, r*ow) patches of x for output rows r0 .. r0+r.

    The patches read x dilated (dilation - 1 zeros between its pixels) and
    offset by padding, a (rows, columns) pair, with zeros beyond it on every
    side; a negative offset crops that many pixels of x. A 1x1 stride-1
    window over x itself yields each sample's (c, pixels) view and copies
    nothing. Otherwise the pixels a tile reads are copied to their dilated,
    offset places in one reused band, which writes every zero, so no padded
    or dilated copy of x is made, and the patches are copied from the band's
    ``_windows`` views into one reused buffer. The band's other columns are
    zeroed once, the rows the copy skips per tile. A tile holds at most
    R = TILE_BYTES // (c*kh*kw*ow*itemsize) output rows, and at least one,
    so a small map is one tile per sample and the buffer exceeds TILE_BYTES
    only when a single output row's patches do. The ceil(oh / R) tiles of a
    sample are as equal in height as they can be, so no thin last tile runs
    a narrow product.
    """
    n, c, h, w = x.shape
    if kh == kw == stride == dilation == 1 and padding == (0, 0):
        for i in range(n):
            yield i, 0, oh, x[i].reshape(c, oh * ow)
        return
    k = c * kh * kw
    count = -(-oh // max(1, TILE_BYTES // (k * ow * x.itemsize)))
    rows = -(-oh // count)
    band = np.zeros((1, c, (rows - 1) * stride + kh, (ow - 1) * stride + kw), dtype=x.dtype)
    x_cols, band_cols = _landing(w, dilation, padding[1], band.shape[3])
    buffer = np.empty(k * rows * ow, dtype=x.dtype)
    for i in range(n):
        for r0 in range(0, oh, rows):
            r = min(rows, oh - r0)
            x_rows, band_rows = _landing(h, dilation, padding[0] - r0 * stride, (r - 1) * stride + kh)
            if dilation > 1:  # the skipped rows between copied ones move from tile to tile
                band[:] = 0
            else:
                band[:, :, : band_rows.start] = 0
                band[:, :, band_rows.stop :] = 0
            band[0, :, band_rows, band_cols] = x[i, :, x_rows, x_cols]
            slots = buffer[: k * r * ow].reshape(1, c, kh, kw, r, ow)
            for u, v, view in _windows(band, kh, kw, stride, r, ow):
                slots[:, :, u, v] = view
            yield i, r0, r, slots.reshape(k, r * ow)


def _products(tiles, w_mat: np.ndarray, out: np.ndarray):
    """Yield each tile of ``tiles`` after multiplying w_mat with it into its columns of out, (n, rows, oh, ow)."""
    n, rows, oh, ow = out.shape
    flat = out.reshape(n, rows, oh * ow)
    for i, r0, r, cols in tiles:
        np.matmul(w_mat, cols, out=flat[i, :, r0 * ow : (r0 + r) * ow])
        yield i, r0, r, cols


def _correlate(
    x: np.ndarray, w_mat: np.ndarray, kh: int, kw: int, stride: int, padding: tuple[int, int], oh: int, ow: int, dilation: int = 1
) -> np.ndarray:
    """(n, rows, oh, ow) product of w_mat, (rows, c*kh*kw), with every sample's patches of x as ``_tiles`` reads them.

    x is read dilated and offset by the padding pair, a negative offset
    cropping it, through the band ``_tiles`` fills, so no padded or dilated
    copy of x is made. Each row tile is multiplied into its columns of the
    preallocated output in turn: the patch working set is one L2-sized
    buffer rather than a whole sample's patch matrix (9.4 MB for a
    16-channel 128 px map), as in the output-row blocking of Georganas et
    al. 2018, "Anatomy of High-Performance Deep Learning Convolutions on SIMD
    Architectures", and the partial im2col of Anderson et al. 2017,
    "Low-memory GEMM-based convolution algorithms for deep neural networks".
    Each output element is still one dot product over the same c*kh*kw
    terms: the model's float32 convs keep their untiled bits, though BLAS may
    pick another kernel, and so another summation order, for a narrower
    product (float64 does on small maps).
    """
    out = np.empty((x.shape[0], w_mat.shape[0], oh, ow), dtype=np.result_type(w_mat, x))
    deque(_products(_tiles(x, kh, kw, stride, padding, oh, ow, dilation), w_mat, out), maxlen=0)
    return out


def _weight_grad(tiles, g: np.ndarray) -> np.ndarray:
    """(p, c*kh*kw) sum over samples and row tiles of g's (p, pixels) rows times the patch tiles of the conv input.

    g is (n, p, oh, ow), and tiles are ``_tiles`` of the input over (oh, ow).
    Each tile is used before the next is gathered, and the tile loop runs to
    its end, so its buffers are freed before this returns. Computed as the
    transpose of the sum of cols @ g.T: with a long pixel axis and the wider
    patch operand on the left, OpenBLAS runs up to twice as fast.
    """
    n, p, oh, ow = g.shape
    gf = g.reshape(n, p, oh * ow)
    products = (cols @ gf[i, :, r0 * ow : (r0 + r) * ow].T for i, r0, r, cols in tiles)
    out = next(products)
    for part in products:
        out += part
    return out.T


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of (n,c_in,h,w) input with (c_out,c_in,kh,kw) kernels."""
    if x.ndim != 4:
        raise DimensionError(f"conv2d expects (n,c,h,w), got shape {x.shape}")
    co, ci, kh, kw = weight.shape
    n, c, h, w = x.shape
    if c != ci:
        raise DimensionError(f"conv2d channels disagree: input {x.shape} vs kernels {weight.shape}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(f"conv2d kernel {weight.shape} larger than padded input ({n},{c},{hp},{wp})")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    pad = (padding, padding)
    data = _add_bias(_correlate(x.data, weight.data.reshape(co, ci * kh * kw), kh, kw, stride, pad, oh, ow), bias)

    def backward(g: np.ndarray) -> None:
        if weight.requires_grad:
            _accumulate(weight, _weight_grad(_tiles(x.data, kh, kw, stride, pad, oh, ow), g).reshape(weight.shape))
        if x.requires_grad:
            # correlate g, dilated by the stride and offset by the kernel less
            # one less the padding, with the flipped, channel-swapped kernels;
            # only the rows and columns of the unpadded input are computed
            w_flip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, co * kh * kw)
            _accumulate(x, _correlate(g, w_flip, kh, kw, 1, (kh - 1 - padding, kw - 1 - padding), h, w, dilation=stride))
        _bias_grad(bias, g)

    return make_op(data, _parents(x, weight, bias), backward)


def transpose_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1) -> Tensor:
    """Learned upsampling; kernels are (c_in,c_out,kh,kw), no implicit padding.

    Output spatial size is (in-1)*stride + k, so k == stride gives exactly
    stride times the input size. This is the adjoint of conv2d: each input
    pixel's (c_out,kh,kw) product is scattered onto the output windows.
    """
    if x.ndim != 4:
        raise DimensionError(f"transpose_conv2d expects (n,c,h,w), got shape {x.shape}")
    ci, co, kh, kw = weight.shape
    n, c, h, w = x.shape
    if c != ci:
        raise DimensionError(f"transpose_conv2d channels disagree: input {x.shape} vs kernels {weight.shape}")
    oh = (h - 1) * stride + kh
    ow = (w - 1) * stride + kw
    w_mat = weight.data.reshape(ci, co * kh * kw)
    cols = (w_mat.T @ x.data.reshape(n, ci, h * w)).reshape(n, co, kh, kw, h, w)
    data = _add_bias(_scatter(cols, np.zeros((n, co, oh, ow), dtype=cols.dtype), stride), bias)

    # conv2d's passes with the roles swapped (g is the conv input, x its output gradient), on one gather of g
    def backward(g: np.ndarray) -> None:
        tiles = _tiles(g, kh, kw, stride, (0, 0), h, w)
        if x.requires_grad:
            gx = np.empty((n, ci, h, w), dtype=np.result_type(w_mat, g))
            tiles = _products(tiles, w_mat, gx)
        if weight.requires_grad:
            _accumulate(weight, _weight_grad(tiles, x.data).reshape(weight.shape))
        if x.requires_grad:
            deque(tiles, maxlen=0)  # drains the tiles when no weight gradient consumed them
            _accumulate(x, gx)
        _bias_grad(bias, g)

    return make_op(data, _parents(x, weight, bias), backward)


def conv2d_relu(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """``relu(conv2d(...))`` as one tape node that keeps no pre-activation map.

    The clamp runs in place on the array conv2d just allocated, which no op
    has read yet. The recorded closure masks g by that clamped array, which
    it captures rather than the output tensor, and passes the product to
    conv2d's own closure. conv2d is looked up in this module when called, so
    a wrapper installed there sees every conv.
    """
    out = conv2d(x, weight, bias, stride=stride, padding=padding)
    data = np.maximum(out.data, 0, out=out.data)
    conv_backward = out._backward
    if conv_backward is not None:

        def backward(g: np.ndarray) -> None:
            conv_backward(g * (data > 0))

        out._backward = backward
    return out


def maxpool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pooling over kernel x kernel windows.

    The forward folds the window views of ``_windows`` (stride = kernel)
    into a copy of the first with ``np.maximum``, so a window holding a NaN
    pools to NaN. The backward walks the same views in row-major order and
    writes ``g`` into the input slot of the first view that equals the
    output, and ``g * 0`` into the others, so ties route the gradient to the
    first maximum. No slot equals a NaN output, so every slot of a NaN window
    gets ``g * 0``: zero when ``g`` is finite, NaN when it is not.
    """
    if x.ndim != 4:
        raise DimensionError(f"maxpool2d expects (n,c,h,w), got shape {x.shape}")
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise DimensionError(f"maxpool2d needs dims divisible by {kernel}, got {x.shape}")
    oh, ow = h // kernel, w // kernel
    views = _windows(x.data, kernel, kernel, kernel, oh, ow)
    data = next(views)[2].copy()
    for _, _, view in views:
        np.maximum(data, view, out=data)

    def backward(g: np.ndarray) -> None:
        gx = np.empty((n, c, h, w), dtype=g.dtype)
        hit, taken = np.empty(data.shape, dtype=bool), np.zeros(data.shape, dtype=bool)
        slots = _windows(gx, kernel, kernel, kernel, oh, ow)
        for (_, _, view), (_, _, slot) in zip(_windows(x.data, kernel, kernel, kernel, oh, ow), slots):
            np.greater(np.equal(view, data, out=hit), taken, out=hit)  # equal to the max and none before
            np.multiply(g, hit, out=slot)
            taken |= hit
        _accumulate(x, gx)

    return make_op(data, (x,), backward)


# -- activations ----------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * (x.data > 0))

    return make_op(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    data = _sigmoid(x.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * data * (1 - data))

    return make_op(data, (x,), backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax_inplace(scores: np.ndarray, axis: int) -> np.ndarray:
    """softmax of ``scores`` along ``axis``, computed with max subtraction in place and returned.

    Only for an array the caller just allocated and no op has read, such as
    the score arrays the attention op and the fusion module compute.
    """
    scores -= scores.max(axis=axis, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=axis, keepdims=True)
    return scores


def softmax_backward(data: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Gradient of the softmax input, for output ``data`` and output gradient ``g``."""
    dot = (g * data).sum(axis=axis, keepdims=True)
    return data * (g - dot)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float) -> tuple[Tensor, np.ndarray]:
    """Multi-head attention of (b, n, d) queries, keys and values as one tape node.

    Returns the attended (b, n, d) tokens, a tape node with parents (q, k, v),
    and the (b, heads, n, n) row-stochastic probabilities
    P = softmax(scale * Q K^T) as a plain array. Each head is the
    d // heads wide column block of q, k and v, read as a strided view. The
    scores are computed into one fresh array, which is then scaled and
    normalized in place: no op has read it yet. The heads of P V are merged
    into a fresh C-contiguous output. The closure keeps P and reads the
    parents' data again; nothing else of the forward stays on the tape.
    Backward: dV = P^T g, dS = scale * softmax'(P, g V^T), dQ = dS K and
    dK = dS^T Q, each merged into a fresh C-contiguous (b, n, d) array.
    """
    if q.ndim != 3 or not q.shape == k.shape == v.shape:
        raise DimensionError(f"attention expects equal (b,n,d) queries, keys and values, got {q.shape}, {k.shape}, {v.shape}")
    b, n, d = q.shape
    if heads < 1 or d % heads:
        raise DimensionError(f"attention width {d} does not split into {heads} heads")

    def split(x: np.ndarray) -> np.ndarray:
        """(b, n, d) -> (b, heads, n, d // heads) view."""
        return x.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)

    def merged(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Each head's product x @ y, merged into one fresh (b, n, d) array by the reshape's copy."""
        return np.matmul(x, y).transpose(0, 2, 1, 3).reshape(b, n, d)

    qs, ks, vs = split(q.data), split(k.data), split(v.data)
    probabilities = np.matmul(qs, ks.swapaxes(-1, -2))
    probabilities *= scale
    softmax_inplace(probabilities, -1)
    data = merged(probabilities, vs)

    def backward(g: np.ndarray) -> None:
        gs = split(g)
        if v.requires_grad:
            _accumulate(v, merged(probabilities.swapaxes(-1, -2), gs))
        if not (q.requires_grad or k.requires_grad):
            return
        d_scores = softmax_backward(probabilities, np.matmul(gs, vs.swapaxes(-1, -2)), -1)
        d_scores *= scale
        if q.requires_grad:
            _accumulate(q, merged(d_scores, ks))
        if k.requires_grad:
            _accumulate(k, merged(d_scores.swapaxes(-1, -2), qs))

    return make_op(data, (q, k, v), backward), probabilities


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


def unfold_neighborhoods(x: Tensor, window: int) -> Tensor:
    """Edge-replicated (n, window^2, c, h, w) neighborhoods of every pixel.

    Slot u*window+v holds the map shifted by (u-p, v-p), p = window//2,
    row-major: the (u, v) view of ``_windows`` over one edge-padded copy of
    x, which the forward frees once the slots are copied. The backward adds
    each slot's gradient onto its view of one zeroed padded buffer, then
    folds that buffer's border back onto the edge pixels it replicated.
    """
    if window % 2 == 0 or window < 1:
        raise ConfigError(f"neighborhood window must be odd and positive, got {window}")
    if x.ndim != 4:
        raise DimensionError(f"unfold_neighborhoods expects (n,c,h,w), got shape {x.shape}")
    n, c, h, w = x.shape
    p = window // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p)), mode="edge")
    data = np.empty((n, window * window, c, h, w), dtype=x.data.dtype)
    for u, v, view in _windows(xp, window, window, 1, h, w):
        data[:, u * window + v] = view

    def backward(g: np.ndarray) -> None:
        gp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.data.dtype)
        for u, v, view in _windows(gp, window, window, 1, h, w):
            view += g[:, u * window + v]
        # interior first, then each border strip onto the edge row or column
        # it copied, then each corner block onto its corner pixel (with p = 0
        # every strip is empty and adds zeros)
        gx = gp[:, :, p : p + h, p : p + w].copy()
        gx[:, :, :1, :] += gp[:, :, :p, p : p + w].sum(axis=2, keepdims=True)
        gx[:, :, -1:, :] += gp[:, :, p + h :, p : p + w].sum(axis=2, keepdims=True)
        gx[:, :, :, :1] += gp[:, :, p : p + h, :p].sum(axis=3, keepdims=True)
        gx[:, :, :, -1:] += gp[:, :, p : p + h, p + w :].sum(axis=3, keepdims=True)
        gx[:, :, 0, 0] += gp[:, :, :p, :p].sum(axis=(2, 3))
        gx[:, :, 0, -1] += gp[:, :, :p, p + w :].sum(axis=(2, 3))
        gx[:, :, -1, 0] += gp[:, :, p + h :, :p].sum(axis=(2, 3))
        gx[:, :, -1, -1] += gp[:, :, p + h :, p + w :].sum(axis=(2, 3))
        _accumulate(x, gx)

    return make_op(data, (x,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map along the last axis: x @ weight (+ bias)."""
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out
