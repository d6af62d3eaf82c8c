"""Forward-value contracts of the tensor ops: hand-computable cases, and the gradient ownership contract."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hipgraf.autodiff import (
    Tensor,
    add,
    bce_loss,
    concat,
    conv2d,
    conv2d_relu,
    layer_norm,
    matmul,
    maxpool2d,
    mse_loss,
    mul,
    no_grad,
    pointwise,
    reduce_mean,
    relu,
    reshape,
    sigmoid,
    softmax,
    transpose,
    transpose_conv2d,
    unfold_neighborhoods,
)
from hipgraf.autodiff import ops
from hipgraf.errors import ConfigError, ContractError, DimensionError
from hipgraf.nets.graph import build_node_features
from hipgraf.nets.model import build_model
from hipgraf.training import total_loss

from gradcheck import check_gradients


def rnd(*shape, seed=0, dtype=np.float32):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def conv2d_reference(x, w, stride, padding):
    """Nested-loop cross-correlation: one patch dot product per output pixel."""
    n, _, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, co, oh, ow))
    for b in range(n):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, o, i, j] = np.sum(patch * w[o])
    return out


def conv2d_grad_reference(x, w, g, stride, padding):
    """Nested-loop weight and input gradients of conv2d_reference for the upstream gradient g."""
    n, _, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gw, gxp = np.zeros(w.shape), np.zeros(xp.shape)
    for b in range(n):
        for o in range(co):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    rows, cols = slice(i * stride, i * stride + kh), slice(j * stride, j * stride + kw)
                    gw[o] += g[b, o, i, j] * xp[b, :, rows, cols]
                    gxp[b, :, rows, cols] += g[b, o, i, j] * w[o]
    return gw, gxp[:, :, padding : padding + h, padding : padding + wd]


def arrays_held(t):
    """Every array the tape keeps for t: its data, its parents' data and whatever its closure reaches."""
    found, todo = [t.data], [*t._parents, t._backward]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, Tensor):
            found.append(item.data)
        elif callable(item) and getattr(item, "__closure__", None):
            todo.extend(cell.cell_contents for cell in item.__closure__)
    return found


def transpose_conv2d_reference(x, w, stride):
    """Nested-loop transposed convolution: each input pixel stamps its scaled kernel."""
    n, ci, h, wd = x.shape
    _, co, kh, kw = w.shape
    out = np.zeros((n, co, (h - 1) * stride + kh, (wd - 1) * stride + kw))
    for b in range(n):
        for c in range(ci):
            for i in range(h):
                for j in range(wd):
                    out[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw] += x[b, c, i, j] * w[c]
    return out


def maxpool2d_reference(x, kernel, g):
    """Nested-loop max pooling and its gradient for upstream g.

    A window holding a NaN pools to NaN and passes g * 0 to every slot;
    otherwise the gradient goes to the first maximum in row-major order.
    """
    n, c, h, w = x.shape
    out, gx = np.zeros((n, c, h // kernel, w // kernel)), np.zeros(x.shape)
    for b in range(n):
        for ch in range(c):
            for i in range(h // kernel):
                for j in range(w // kernel):
                    rows, cols = slice(i * kernel, (i + 1) * kernel), slice(j * kernel, (j + 1) * kernel)
                    window = x[b, ch, rows, cols]
                    if np.isnan(window).any():
                        out[b, ch, i, j] = np.nan
                        gx[b, ch, rows, cols] = g[b, ch, i, j] * 0.0
                        continue
                    first = int(np.argmax(window))  # argmax returns the first maximum
                    out[b, ch, i, j] = window.flat[first]
                    gx[b, ch, rows, cols].flat[first] = g[b, ch, i, j]
    return out, gx


def window_stack_reference(x, window):
    """Nested-loop neighborhood stack of the edge-padded map: slot u*window+v holds pixel (i+u, j+v)."""
    pad = window // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="edge")
    n, c, h, w = x.shape
    out = np.zeros((n, window * window, c, h, w))
    for u in range(window):
        for v in range(window):
            for i in range(h):
                for j in range(w):
                    out[:, u * window + v, :, i, j] = xp[:, :, i + u, j + v]
    return out


def window_stack_grad_reference(g, window):
    """Nested-loop input gradient of the stack: each slot's gradient lands on the pixel it copied."""
    pad = window // 2
    n, _, c, h, w = g.shape
    gx = np.zeros((n, c, h, w))
    for u in range(window):
        for v in range(window):
            for i in range(h):
                for j in range(w):
                    # the padded pixel (i+u, j+v) replicates the input pixel nearest to it
                    src_i = min(max(i + u - pad, 0), h - 1)
                    src_j = min(max(j + v - pad, 0), w - 1)
                    gx[:, :, src_i, src_j] += g[:, u * window + v, :, i, j]
    return gx


class TestMatmul:
    def test_identity_leaves_operand_unchanged(self):
        b = rnd(3, 3, seed=1)
        out = matmul(Tensor(np.eye(3, dtype=np.float32)), Tensor(b))
        np.testing.assert_allclose(out.data, b, rtol=1e-6)

    def test_row_sums(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_allclose(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(Tensor(rnd(2, 3)), Tensor(rnd(4, 5)))

    def test_batched_against_numpy(self):
        a, b = rnd(2, 3, 4, seed=2), rnd(2, 4, 5, seed=3)
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, a @ b, rtol=1e-6)

    def test_two_d_operand_gradients_sum_over_the_leading_axes(self):
        # a 2-D b folds a's leading axes into one product in backward
        a, b, g = rnd(2, 3, 4, 5, seed=40, dtype=np.float64), rnd(5, 6, seed=41, dtype=np.float64), rnd(2, 3, 4, 6, seed=42, dtype=np.float64)
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (matmul(at, bt) * Tensor(g)).sum().backward()
        np.testing.assert_allclose(at.grad, g @ b.T, rtol=1e-12)
        np.testing.assert_allclose(bt.grad, sum(a[i, j].T @ g[i, j] for i in range(2) for j in range(3)), rtol=1e-12)


    @pytest.mark.parametrize("a_shape", [(4, 6, 5), (2, 3, 4, 5)], ids=["3d", "4d"])
    def test_two_d_operand_forward_folds_against_numpy(self, a_shape):
        a, b = rnd(*a_shape, seed=43), rnd(5, 7, seed=44)
        out = matmul(Tensor(a), Tensor(b)).data
        assert out.shape == (*a_shape[:-1], 7)
        np.testing.assert_allclose(out, np.matmul(a, b), rtol=1e-6)

    def test_two_d_operand_with_empty_axes(self):
        a = Tensor(np.zeros((3, 4, 0), dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros((0, 2), dtype=np.float32), requires_grad=True)
        out = matmul(a, b)
        np.testing.assert_array_equal(out.data, np.zeros((3, 4, 2)))
        out.sum().backward()
        assert a.grad.shape == (3, 4, 0) and b.grad.shape == (0, 2)


@pytest.mark.parametrize(
    "op, shape",
    [
        (lambda x: conv2d(x, Tensor(rnd(3, 2, 3, 3))), (2, 5, 5)),
        (lambda x: transpose_conv2d(x, Tensor(rnd(2, 3, 2, 2)), stride=2), (2, 3, 3)),
        (lambda x: maxpool2d(x, 2), (2, 4, 4)),
        (build_node_features, (6, 4, 4)),
        (lambda x: unfold_neighborhoods(x, 3), (2, 5, 5)),
    ],
    ids=["conv2d", "transpose_conv2d", "maxpool2d", "build_node_features", "unfold_neighborhoods"],
)
def test_unbatched_input_is_rejected(op, shape):
    # below the model's entry point every spatial tensor is (n, c, h, w)
    with pytest.raises(DimensionError, match=re.escape(f"got shape {shape}")):
        op(Tensor(rnd(*shape)))


class TestConv2d:
    def test_one_by_one_unit_kernel_is_identity(self):
        x = rnd(1, 2, 5, 5, seed=4)
        w = np.zeros((2, 2, 1, 1), dtype=np.float32)
        w[0, 0] = w[1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, x)

    def test_ones_kernel_counts_neighbors(self):
        x = Tensor(np.ones((1, 1, 5, 5), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = conv2d(x, w, padding=1)
        assert out.data[0, 0, 2, 2] == 9.0
        assert out.data[0, 0, 0, 0] == 4.0  # zero pad corner

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(DimensionError, match="larger than padded input"):
            conv2d(Tensor(rnd(1, 1, 2, 2)), Tensor(rnd(1, 1, 5, 5)))

    def test_stride_two_shape(self):
        out = conv2d(Tensor(rnd(1, 1, 8, 8, seed=5)), Tensor(rnd(3, 1, 2, 2, seed=6)), stride=2)
        assert out.shape == (1, 3, 4, 4)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_matches_loop_reference_non_square_kernel(self, stride, padding):
        x, w = rnd(2, 3, 9, 8, seed=19, dtype=np.float64), rnd(4, 3, 3, 2, seed=20, dtype=np.float64)
        out = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, conv2d_reference(x, w, stride, padding), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0)])
    def test_one_by_one_matches_loop_reference(self, stride, padding):
        x, w, b = rnd(2, 5, 6, 7, seed=21, dtype=np.float64), rnd(3, 5, 1, 1, seed=22, dtype=np.float64), rnd(3, seed=23, dtype=np.float64)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = conv2d_reference(x, w, stride, padding) + b[:, None, None]
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)

    def test_one_by_one_input_gradient_is_a_new_array(self):
        # an identity 1x1 kernel passes the upstream gradient (the multiplier)
        # through unchanged, but the input must receive its own buffer
        x = Tensor(rnd(2, 3, 4, 4, seed=26), requires_grad=True)
        w = Tensor(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1), requires_grad=True)
        multiplier = Tensor(rnd(2, 3, 4, 4, seed=27))
        out = conv2d(x, w)
        (out * multiplier).sum().backward()
        np.testing.assert_array_equal(x.grad, multiplier.data)
        assert not np.shares_memory(x.grad, multiplier.data)
        assert not np.shares_memory(x.grad, out.data)
        assert not np.shares_memory(x.grad, w.grad)


    @pytest.mark.parametrize("kernel", [(3, 2), (1, 1)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_no_grad_matches_recording_bit_for_bit(self, kernel, stride, padding):
        x = Tensor(rnd(3, 4, 9, 8, seed=28), requires_grad=True)
        w = Tensor(rnd(5, 4, *kernel, seed=29), requires_grad=True)
        b = Tensor(rnd(5, seed=30), requires_grad=True)
        recorded = conv2d(x, w, b, stride=stride, padding=padding)
        with no_grad():
            free = conv2d(x, w, b, stride=stride, padding=padding)
        assert recorded.requires_grad and not free.requires_grad
        assert free.data.dtype == recorded.data.dtype and free.shape == recorded.shape
        assert free.data.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("op", ["conv2d", "transpose_conv2d"])
    def test_bias_is_added_inside_the_op(self, op):
        # one tape node, the bits of a separate broadcast add, and _unbroadcast's bias gradient
        x = Tensor(rnd(2, 3, 6, 6, seed=43), requires_grad=True)
        b = Tensor(rnd(4, seed=45), requires_grad=True)
        if op == "conv2d":
            w = Tensor(rnd(4, 3, 3, 3, seed=44), requires_grad=True)
            make = lambda bias: conv2d(x, w, bias, padding=1)
        else:
            w = Tensor(rnd(3, 4, 2, 2, seed=44), requires_grad=True)
            make = lambda bias: transpose_conv2d(x, w, bias, stride=2)
        out = make(b)
        assert out._parents == (x, w, b)
        assert out.data.tobytes() == add(make(None), reshape(b, (4, 1, 1))).data.tobytes()
        g = rnd(*out.shape, seed=46)
        (out * Tensor(g)).sum().backward()
        assert b.grad.tobytes() == g.sum(axis=0).sum(axis=(1, 2)).tobytes()


    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_recorded_gradients_match_loop_reference(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        ci, co = data.draw(st.integers(1, 4), label="c_in"), data.draw(st.integers(1, 4), label="c_out")
        h, wd = data.draw(st.integers(3, 9), label="h"), data.draw(st.integers(3, 9), label="w")
        kh, kw = data.draw(st.integers(1, 3), label="kh"), data.draw(st.integers(1, 3), label="kw")
        stride, padding = data.draw(st.integers(1, 3), label="stride"), data.draw(st.integers(0, 2), label="padding")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        x, w, b = rng.standard_normal((n, ci, h, wd)), rng.standard_normal((co, ci, kh, kw)), rng.standard_normal(co)
        xt = Tensor(x, requires_grad=True)
        wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        out = conv2d(xt, wt, bt, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        gw, gx = conv2d_grad_reference(x, w, g, stride, padding)
        np.testing.assert_allclose(wt.grad, gw, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(xt.grad, gx, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(bt.grad, g.sum(axis=(0, 2, 3)), rtol=1e-10, atol=1e-10)

    def test_recorded_forward_keeps_no_patch_matrix(self):
        n, c, kh, kw, size = 4, 8, 3, 3, 16
        x = Tensor(rnd(n, c, size, size, seed=33), requires_grad=True)
        w = Tensor(rnd(4, c, kh, kw, seed=34), requires_grad=True)
        patch_bytes = n * c * kh * kw * size * size * x.data.itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, padding=1)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # less than one sample's patch slot beyond the output
        assert retained < out.data.nbytes + patch_bytes // n
        held = arrays_held(out)
        assert all(a.size != patch_bytes // x.data.itemsize for a in held)
        owners = {id(x.data), id(w.data), id(out.data)}
        assert all(id(a if a.base is None else a.base) in owners for a in held)

    @pytest.mark.parametrize("rows", [1, 2, 4])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_row_tiles_match_one_tile(self, monkeypatch, rows, stride, padding):
        # the default tile holds these maps whole; a smaller one cuts them into
        # bands of at most `rows` output rows, the last one shorter when their
        # count does not divide oh
        n, ci, co, kh, kw, h, wd = 2, 3, 4, 3, 2, 17, 11
        oh, ow = (h + 2 * padding - kh) // stride + 1, (wd + 2 * padding - kw) // stride + 1
        rng = np.random.default_rng(rows * 100 + stride * 10 + padding)
        x, w = rng.standard_normal((n, ci, h, wd)), rng.standard_normal((co, ci, kh, kw))
        x32, w32 = Tensor(x.astype(np.float32), requires_grad=True), Tensor(w.astype(np.float32))
        g32 = rng.standard_normal((n, co, oh, ow)).astype(np.float32)

        def forward_and_input_grad():
            x32.grad = None
            out = conv2d(x32, w32, stride=stride, padding=padding)
            (out * Tensor(g32)).sum().backward()
            return out.data.tobytes(), x32.grad.tobytes()

        whole = forward_and_input_grad()
        monkeypatch.setattr(ops, "TILE_BYTES", rows * ci * kh * kw * ow * 8)
        tiles = [(i, r0, r) for i, r0, r, _ in ops._tiles(x, kh, kw, stride, (padding, padding), oh, ow)]
        count, height = -(-oh // rows), max(r for _, _, r in tiles)
        assert height <= rows and tiles == [(i, r0, min(height, oh - r0)) for i in range(n) for r0 in range(0, oh, height)]
        assert len(tiles) == n * count
        # the model's float32 forward and input gradient keep their bits, the
        # gradient read dilated across the band's tile boundaries; float64 BLAS
        # may pick another kernel for a narrower product, so it is held to the
        # reference instead
        assert forward_and_input_grad() == whole
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv2d(xt, wt, stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, conv2d_reference(x, w, stride, padding), rtol=1e-10, atol=1e-10)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        gw, gx = conv2d_grad_reference(x, w, g, stride, padding)
        np.testing.assert_allclose(wt.grad, gw, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(xt.grad, gx, rtol=1e-10, atol=1e-10)

    def test_one_by_one_tiles_are_views_of_the_input(self):
        # a 1x1 stride-1 unpadded window over every pixel is the input itself: nothing is gathered
        x = rnd(3, 4, 5, 6, seed=50)
        tiles = list(ops._tiles(x, 1, 1, 1, (0, 0), 5, 6))
        assert [(i, r0, r) for i, r0, r, _ in tiles] == [(0, 0, 5), (1, 0, 5), (2, 0, 5)]
        for i, _, _, cols in tiles:
            assert cols.shape == (4, 30) and np.shares_memory(cols, x[i])
            assert cols.tobytes() == x[i].tobytes()

    def test_working_set_is_one_tile_not_a_patch_matrix(self):
        # 16 -> 16 channels at 128 px, batch 2: one sample's patch matrix would be 9.4 MB
        x = Tensor(rnd(2, 16, 128, 128, seed=47), requires_grad=True)
        w = Tensor(rnd(16, 16, 3, 3, seed=48), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with no_grad():
                out = conv2d(x, w, padding=1)
            forward = tracemalloc.get_traced_memory()[1] - before - out.data.nbytes
            recorded, g = conv2d(x, w, padding=1), rnd(*out.shape, seed=49)
            x.grad, w.grad = np.zeros_like(x.data), np.zeros_like(w.data)  # accumulate in place, as a pass does
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            recorded._backward(g)
            backward = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # one tile buffer beyond the output, and a tile is far smaller than the
        # sample's patch matrix; the backward adds only the input gradient, x's
        # size, since its tiles read the upstream gradient padded in the band
        assert forward < 2 * ops.TILE_BYTES < 16 * 3 * 3 * 128 * 128 * x.data.itemsize // 4
        assert backward < x.data.nbytes + 2 * ops.TILE_BYTES

    def test_one_by_one_input_gradient_allocates_only_its_result(self):
        # 64 -> 64 channels at 32 px, batch 8: each sample's tile is a view of
        # the upstream gradient, so nothing of g's size is copied
        x = Tensor(rnd(8, 64, 32, 32, seed=51), requires_grad=True)
        w = Tensor(rnd(64, 64, 1, 1, seed=52))
        out, g = conv2d(x, w), rnd(8, 64, 32, 32, seed=53)
        x.grad = np.zeros_like(x.data)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out._backward(g)
            backward = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert x.data.nbytes <= backward < x.data.nbytes + 4 * w.data.nbytes

    def test_gradients_unchanged_when_a_later_op_reads_the_input(self):
        # backward re-reads the input's data, so an op that reads it after the
        # conv (and must not write into it) leaves the conv's gradients alone
        x = Tensor(rnd(2, 3, 8, 8, seed=35), requires_grad=True)
        w1, b1 = Tensor(rnd(4, 3, 3, 3, seed=36), requires_grad=True), Tensor(rnd(4, seed=37), requires_grad=True)
        w2 = Tensor(rnd(2, 4, 3, 3, seed=38), requires_grad=True)
        m = rnd(2, 2, 8, 8, seed=39)

        def w2_grad(later_read):
            for t in (x, w1, b1, w2):
                t.zero_grad()
            hidden = relu(conv2d(x, w1, b1, padding=1))
            kept = hidden.data.copy()
            loss = (conv2d(hidden, w2, padding=1) * Tensor(m)).sum()
            if later_read:
                loss = add(loss, (relu(hidden) * hidden).sum())
            loss.backward()
            assert hidden.data.tobytes() == kept.tobytes()
            return w2.grad, kept

        alone, kept = w2_grad(False)
        read, _ = w2_grad(True)
        assert read.tobytes() == alone.tobytes()
        gw, _ = conv2d_grad_reference(kept.astype(np.float64), w2.data.astype(np.float64), m.astype(np.float64), 1, 1)
        np.testing.assert_allclose(read, gw, rtol=1e-4, atol=1e-4)


class TestTransposeConv2d:
    def test_unit_kernel_stride_one_is_identity(self):
        x = rnd(1, 1, 4, 4, seed=7)
        out = transpose_conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1), dtype=np.float32)))
        np.testing.assert_allclose(out.data, x)

    def test_stride_two_broadcasts_single_pixel(self):
        v = 3.5
        x = Tensor(np.full((1, 1, 1, 1), v, dtype=np.float32))
        w = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        out = transpose_conv2d(x, w, stride=2)
        np.testing.assert_allclose(out.data, np.full((1, 1, 2, 2), v))

    def test_output_dims_track_stride(self):
        out = transpose_conv2d(Tensor(rnd(1, 2, 5, 5, seed=8)), Tensor(rnd(2, 3, 2, 2, seed=9)), stride=2)
        assert out.shape == (1, 3, 10, 10)

    @pytest.mark.parametrize("stride", [1, 2, 3], ids=["overlapping", "tiling", "gapped"])
    def test_matches_loop_reference(self, stride):
        # kernel 2x3: stride 1 overlaps windows, 2 tiles rows, 3 leaves gaps between them
        x, w = rnd(2, 3, 4, 5, seed=28, dtype=np.float64), rnd(3, 2, 2, 3, seed=29, dtype=np.float64)
        out = transpose_conv2d(Tensor(x), Tensor(w), stride=stride)
        np.testing.assert_allclose(out.data, transpose_conv2d_reference(x, w, stride), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2, 3], ids=["overlapping", "tiling", "gapped"])
    def test_gradients_through_row_tiles(self, monkeypatch, stride):
        # backward reads the upstream gradient through conv2d's row tiles; a
        # budget of one row's patches cuts it into one tile per input row
        x, w = rnd(2, 3, 4, 5, seed=28, dtype=np.float64), rnd(3, 2, 2, 3, seed=29, dtype=np.float64)
        (n, _, h, wd), (_, co, kh, kw) = x.shape, w.shape
        m = rnd(n, co, (h - 1) * stride + kh, (wd - 1) * stride + kw, seed=30, dtype=np.float64)
        monkeypatch.setattr(ops, "TILE_BYTES", co * kh * kw * wd * m.itemsize)
        assert [r for _, _, r, _ in ops._tiles(m, kh, kw, stride, (0, 0), h, wd)] == [1] * (n * h)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        errors = check_gradients(lambda: (transpose_conv2d(xt, wt, stride=stride) * Tensor(m)).sum(), {"x": xt, "w": wt})
        assert max(errors.values()) < 1e-6, errors

    @pytest.mark.parametrize("needs", ["x", "w"])
    def test_either_gradient_alone_matches_both(self, needs):
        # both gradients read one gather of g's tiles; each must also come out right without the other
        x, w, m = rnd(2, 3, 4, 5, seed=28), rnd(3, 2, 2, 3, seed=29), rnd(2, 2, 8, 11, seed=30)
        both = [Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)]
        (transpose_conv2d(*both, stride=2) * Tensor(m)).sum().backward()
        alone = [Tensor(x, requires_grad=needs == "x"), Tensor(w, requires_grad=needs == "w")]
        (transpose_conv2d(*alone, stride=2) * Tensor(m)).sum().backward()
        i = "xw".index(needs)
        assert alone[i].grad.tobytes() == both[i].grad.tobytes() and alone[1 - i].grad is None


def conv_relu_case(dtype, special):
    """x, w, b and an output multiplier for a 3x3, padding-1 conv with exact zero pre-activations.

    x's last three rows are zeros, some of them -0.0, so the last two output
    rows are the bias alone, and the bias holds 0.0 and -0.0. With
    ``special`` x also holds NaN and +-inf.
    """
    x, w, b = rnd(2, 3, 7, 6, seed=60, dtype=dtype), rnd(4, 3, 3, 3, seed=61, dtype=dtype), rnd(4, seed=62, dtype=dtype)
    x[:, :, 4:] = 0.0
    x[:, 1:, 5] = -0.0
    b[1], b[2] = 0.0, -0.0
    if special:
        x[0, 0, 1, 1], x[0, 1, 2, 3], x[1, 2, 1, 4] = np.nan, np.inf, -np.inf
    m = rnd(2, 4, 7, 6, seed=63, dtype=dtype)
    return x, w, b, m


class TestConv2dRelu:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("special", [False, True], ids=["finite", "nan_inf"])
    def test_bytes_match_relu_of_conv2d(self, dtype, special):
        x, w, b, m = conv_relu_case(dtype, special)
        results = []
        for fused in (True, False):
            xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
            out = conv2d_relu(xt, wt, bt, padding=1) if fused else relu(conv2d(xt, wt, bt, padding=1))
            (out * Tensor(m)).sum().backward()
            results.append([a.tobytes() for a in (out.data, xt.grad, wt.grad, bt.grad)])
        assert results[0] == results[1]
        assert (out.data == 0).any() and (out.data > 0).any()
        if special:
            assert np.isnan(out.data).any() and np.isposinf(out.data).any()

    def test_one_node_that_keeps_no_pre_activation(self):
        x, w, b, _ = conv_relu_case(np.float32, False)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = conv2d_relu(xt, wt, bt, padding=1)
        assert len(out._parents) == 3 and all(p is q for p, q in zip(out._parents, (xt, wt, bt)))
        # the closure holds the clamped array, not its own tensor, so no reference cycle delays freeing it
        assert not any(cell.cell_contents is out for cell in out._backward.__closure__)
        # relu(conv2d(...)) holds a second output-sized array: the pre-activation map
        for t, extra in ((out, 0), (relu(conv2d(xt, wt, bt, padding=1)), 1)):
            held = {id(a) for a in arrays_held(t) if a.shape == t.shape and not np.shares_memory(a, t.data)}
            assert len(held) == extra

    def test_no_grad_records_nothing_and_returns_conv2ds_array(self, monkeypatch):
        x, w, b, _ = conv_relu_case(np.float32, False)
        made, conv = [], ops.conv2d

        def spy(*args, **kwargs):
            t = conv(*args, **kwargs)
            made.append((t, t.data))
            return t

        monkeypatch.setattr(ops, "conv2d", spy)
        with no_grad():
            out = conv2d_relu(*(Tensor(a, requires_grad=True) for a in (x, w, b)), padding=1)
        assert len(made) == 1 and made[0][0] is out and made[0][1] is out.data
        assert not out.requires_grad and out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.data, np.maximum(conv(Tensor(x), Tensor(w), Tensor(b), padding=1).data, 0))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_closure_leaves_its_gradient_unwritten(self):
        x, w, b, m = conv_relu_case(np.float32, True)
        out = conv2d_relu(*(Tensor(a, requires_grad=True) for a in (x, w, b)), padding=1)
        m.flags.writeable = False  # an in-place write raises
        out._backward(m)
        assert m.tobytes() == conv_relu_case(np.float32, True)[3].tobytes()

    def test_second_backward_doubles_the_leaf_gradients(self):
        x, w, b, m = conv_relu_case(np.float64, False)
        leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        loss = (conv2d_relu(*leaves, padding=1) * Tensor(m)).sum()
        loss.backward()
        first = [t.grad.copy() for t in leaves]
        loss.backward()
        for t, g in zip(leaves, first):
            np.testing.assert_array_equal(t.grad, 2 * g)


class TestSoftmax:
    def test_equal_inputs_give_uniform_weights(self):
        n = 3
        out = softmax(Tensor(np.zeros(n * n, dtype=np.float32)), axis=0)
        np.testing.assert_allclose(out.data, np.full(n * n, 1.0 / (n * n)), atol=1e-7)

    def test_log_two_case(self):
        out = softmax(Tensor(np.array([0.0, math.log(2.0)])), axis=0)
        np.testing.assert_allclose(out.data, [1.0 / 3.0, 2.0 / 3.0], atol=1e-7)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, values, shift):
        x = np.asarray(values, dtype=np.float64)
        a = softmax(Tensor(x), axis=0).data
        b = softmax(Tensor(x + shift), axis=0).data
        assert np.abs(a - b).max() < 1e-6

    def test_leaves_its_input_unmodified(self):
        x = rnd(3, 9, seed=11)
        for scale in (None, 0.25):
            t = Tensor(x.copy())
            softmax(t, axis=1, scale=scale)
            np.testing.assert_array_equal(t.data, x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scale_matches_a_separate_multiply(self, dtype):
        # attention's scores times 1/sqrt(head_dim), as the transformer passes it
        scale = 1.0 / math.sqrt(8)
        g = rnd(2, 4, 6, 6, seed=12, dtype=dtype)
        results = []
        for fused in (True, False):
            x = Tensor(rnd(2, 4, 6, 6, seed=13, dtype=dtype), requires_grad=True)
            out = softmax(x, axis=-1, scale=scale) if fused else softmax(mul(x, scale), axis=-1)
            (out * Tensor(g)).sum().backward()
            results.append((out.data, x.grad))
        for fused, separate in zip(*results):
            np.testing.assert_array_equal(fused, separate)

    def test_rows_sum_to_one_and_positive(self):
        out = softmax(Tensor(rnd(4, 7, seed=10)), axis=1).data
        np.testing.assert_allclose(out.sum(axis=1), np.ones(4), atol=1e-6)
        assert (out > 0).all() and (out < 1).all()


class TestPointwise:
    def test_relu_values(self):
        out = pointwise(Tensor(np.array([-1.0, 2.0])), "relu")
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(np.array([0.0]))).data[0] == pytest.approx(0.5)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown pointwise kind"):
            pointwise(Tensor(np.array([1.0])), "tanh")


class TestLayerNorm:
    def test_normalizes_slices(self):
        out = layer_norm(Tensor(rnd(3, 16, seed=11)), axis=-1).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(3), atol=1e-5)
        np.testing.assert_allclose(out.var(axis=-1), np.ones(3), atol=1e-3)


class TestLosses:
    def test_mse_of_identical_inputs_is_zero(self):
        x = Tensor(rnd(4, 4, seed=12))
        assert mse_loss(x, x.data).item() == 0.0

    def test_mse_hand_case(self):
        assert mse_loss(Tensor(np.array([0.0, 2.0])), np.array([1.0, 1.0])).item() == pytest.approx(1.0)

    def test_mse_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse_loss(Tensor(rnd(2, 2)), np.zeros((2, 3)))

    def test_bce_at_zero_logit(self):
        assert bce_loss(Tensor(np.array([0.0])), np.array([1.0])).item() == pytest.approx(math.log(2.0), abs=1e-6)

    def test_bce_rejects_soft_labels(self):
        with pytest.raises(ContractError, match="labels must be 0 or 1"):
            bce_loss(Tensor(np.array([0.0])), np.array([0.5]))

    def test_bce_stable_at_huge_logits(self):
        val = bce_loss(Tensor(np.array([500.0])), np.array([0.0])).item()
        assert val == pytest.approx(500.0)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = Tensor(rnd(3, 4, seed=13), requires_grad=True)
        w.sum().backward()
        np.testing.assert_allclose(w.grad, np.ones((3, 4)))

    def test_non_scalar_loss_rejected(self):
        w = Tensor(rnd(3), requires_grad=True)
        with pytest.raises(ContractError, match="scalar"):
            w.backward()

    def test_repeated_backward_accumulates(self):
        w = Tensor(rnd(2, 2, seed=14), requires_grad=True)
        loss = w.sum()
        loss.backward()
        loss.backward()
        np.testing.assert_allclose(w.grad, 2 * np.ones((2, 2)))

    @pytest.mark.parametrize("op", ["conv2d", "transpose_conv2d"])
    def test_closure_called_outside_a_pass_writes_grad(self, op):
        # benchmarks/bench_window.py times an op's closure alone, with no backward pass running
        x = Tensor(rnd(2, 3, 6, 6, seed=21), requires_grad=True)
        if op == "conv2d":
            w = Tensor(rnd(4, 3, 3, 3, seed=22), requires_grad=True)
            make = lambda: conv2d(x, w, padding=1)
        else:
            w = Tensor(rnd(3, 4, 2, 2, seed=22), requires_grad=True)
            make = lambda: transpose_conv2d(x, w, stride=2)
        g = rnd(*make().data.shape, seed=23)
        mul(make(), Tensor(g)).sum().backward()
        expected = (x.grad.copy(), w.grad.copy())
        x.grad = w.grad = None
        out = make()
        out._backward(g)
        np.testing.assert_array_equal(x.grad, expected[0])
        np.testing.assert_array_equal(w.grad, expected[1])
        out._backward(g)
        np.testing.assert_allclose(x.grad, 2 * expected[0], rtol=1e-6)
        np.testing.assert_allclose(w.grad, 2 * expected[1], rtol=1e-6)

    def test_tensor_used_twice_sums_contributions(self):
        w = Tensor(np.array([[2.0]]), requires_grad=True)
        loss = (matmul(w, w)).sum()  # d/dw (w*w) = 2w
        loss.backward()
        np.testing.assert_allclose(w.grad, [[4.0]])


def graph_tensors(loss):
    """Every tensor reachable from loss through the recorded parents."""
    found, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in found:
            found[id(t)] = t
            stack.extend(t._parents)
    return list(found.values())


def leaf_cases():
    """(name, loss, leaves, expected grads): closures that hand one gradient array to several owners."""
    c = rnd(2, 3, seed=63)
    a = Tensor(rnd(2, 3, seed=60), requires_grad=True)
    yield "add(a, a)", add(a, a).sum(), [a], [np.full((2, 3), 2.0)]
    a, b = Tensor(rnd(2, 3, seed=61), requires_grad=True), Tensor(rnd(2, 3, seed=62), requires_grad=True)
    yield "add(a, b)", (add(a, b) * Tensor(c)).sum(), [a, b], [c, c]
    a, b = Tensor(rnd(2, 3, seed=64), requires_grad=True), Tensor(rnd(6, seed=65), requires_grad=True)
    yield "reshape", (add(reshape(a, (6,)), b) * Tensor(c.reshape(6))).sum(), [a, b], [c, c.reshape(6)]
    a, b = Tensor(rnd(2, 3, seed=67), requires_grad=True), Tensor(rnd(3, 2, seed=68), requires_grad=True)
    yield "transpose", (add(transpose(a, (1, 0)), b) * Tensor(c.T)).sum(), [a, b], [c, c.T]
    a, b = Tensor(rnd(2, 3, seed=70), requires_grad=True), Tensor(rnd(2, 3, seed=71), requires_grad=True)
    yield "reduce_mean", add(reduce_mean(a), reduce_mean(add(a, b))), [a, b], [np.full((2, 3), 2 / 6), np.full((2, 3), 1 / 6)]
    # a's first contribution is the array add() also hands to b; its second must not change b's
    a, b, d = Tensor(rnd(2, 3, seed=72), requires_grad=True), Tensor(rnd(2, 3, seed=73), requires_grad=True), rnd(2, 3, seed=74)
    yield "shared, then added", add(mul(add(a, b), Tensor(c)), mul(a, Tensor(d))).sum(), [a, b], [c + d, c]


CASES = len(list(leaf_cases()))


def contiguity_seen_by_closures(loss):
    """Wrap every recorded closure to note whether its upstream gradient is C-contiguous."""
    seen = []
    for t in graph_tensors(loss):
        if t._backward is not None:

            def watched(g, backward=t._backward):
                seen.append(g.flags.c_contiguous)
                backward(g)

            t._backward = watched
    return seen


class TestLeafGradients:
    """backward() leaves each leaf a private gradient and no intermediate one."""

    @pytest.mark.parametrize("case", range(CASES))
    def test_leaf_grads_are_correct_and_share_no_memory(self, case):
        name, loss, leaves, expected = list(leaf_cases())[case]
        loss.backward()
        tensors = graph_tensors(loss)
        for i, leaf in enumerate(leaves):
            np.testing.assert_allclose(leaf.grad, expected[i], rtol=1e-6, err_msg=name)
            assert leaf.grad.flags.writeable and leaf.grad.flags.c_contiguous, name
            for other in leaves[i + 1 :]:
                assert not np.shares_memory(leaf.grad, other.grad), name
            for t in tensors:
                assert not np.shares_memory(leaf.grad, t.data), name

    @pytest.mark.parametrize("case", range(CASES))
    def test_second_backward_doubles_the_first(self, case):
        name, loss, leaves, _ = list(leaf_cases())[case]
        loss.backward()
        first = [leaf.grad.copy() for leaf in leaves]
        loss.backward()
        for leaf, g in zip(leaves, first):
            np.testing.assert_array_equal(leaf.grad, 2 * g, err_msg=name)

    @pytest.mark.parametrize("case", range(CASES))
    def test_intermediates_keep_no_grad(self, case):
        name, loss, leaves, _ = list(leaf_cases())[case]
        loss.backward()
        for t in graph_tensors(loss):
            if t._backward is not None:
                assert t.grad is None, name
        assert all(leaf.grad is not None for leaf in leaves)

    @pytest.mark.parametrize("case", range(CASES))
    def test_closures_see_contiguous_gradients(self, case):
        # transposed and broadcast contributions are copied before a closure reads them
        name, loss, _, _ = list(leaf_cases())[case]
        seen = contiguity_seen_by_closures(loss)
        loss.backward()
        assert seen and all(seen), name

    def test_model_parameter_grads_are_private_and_accumulate(self, toy_model_config):
        model = build_model(toy_model_config, seed=0)
        x = rnd(2, 16, 16, seed=75)
        out = model.forward(x)
        loss = total_loss(out.heatmaps, out.refined, rnd(2, 6, 4, 4, seed=76), out.logit, np.array([0.0, 1.0]), 0.5).total
        seen = contiguity_seen_by_closures(loss)
        loss.backward()
        assert all(seen)
        params = list(model.parameters().values())
        first = [p.grad.copy() for p in params]
        tensors = graph_tensors(loss)
        for i, p in enumerate(params):
            for other in params[i + 1 :]:
                assert not np.shares_memory(p.grad, other.grad)
            for t in tensors:
                assert not np.shares_memory(p.grad, t.data)
        assert all(t.grad is None for t in tensors if t._backward is not None)
        loss.backward()
        for p, g in zip(params, first):
            np.testing.assert_array_equal(p.grad, 2 * g)


class TestShapeOps:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = maxpool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_rejects_odd_dims(self):
        with pytest.raises(DimensionError):
            maxpool2d(Tensor(rnd(1, 1, 3, 4)), 2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_maxpool_matches_loop_reference(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        c, kernel = data.draw(st.integers(1, 3), label="c"), data.draw(st.integers(1, 3), label="kernel")
        oh, ow = data.draw(st.integers(1, 4), label="oh"), data.draw(st.integers(1, 4), label="ow")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        # integer-valued floats from a short range, so most windows hold ties
        x = rng.integers(-2, 3, size=(n, c, oh * kernel, ow * kernel)).astype(np.float64)
        if data.draw(st.booleans(), label="nan"):
            x.flat[data.draw(st.integers(0, x.size - 1), label="nan_at")] = np.nan
        g = rng.standard_normal((n, c, oh, ow))
        xt = Tensor(x, requires_grad=True)
        out = maxpool2d(xt, kernel)
        (out * Tensor(g)).sum().backward()
        expected, gx = maxpool2d_reference(x, kernel, g)
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(xt.grad, gx)

    def test_maxpool_gradient_goes_to_the_first_maximum(self):
        x = Tensor(np.array([[[[1.0, 3.0], [3.0, 3.0]], [[2.0, 2.0], [2.0, 2.0]]]]), requires_grad=True)
        (maxpool2d(x, 2) * Tensor(np.array([5.0, 7.0]).reshape(1, 2, 1, 1))).sum().backward()
        np.testing.assert_array_equal(x.grad, [[[[0.0, 5.0], [0.0, 0.0]], [[7.0, 0.0], [0.0, 0.0]]]])

    def test_maxpool_nan_window_pools_to_nan(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        x[0, 0, 2, 1] = np.nan
        xt = Tensor(x, requires_grad=True)
        out = maxpool2d(xt, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[5, 7], [np.nan, 15]])
        out.sum().backward()
        np.testing.assert_array_equal(xt.grad[0, 0, 2:, :2], np.zeros((2, 2)))

    def test_maxpool_closure_keeps_only_the_tape_arrays(self):
        x = Tensor(rnd(2, 3, 8, 8, seed=19), requires_grad=True)
        out = maxpool2d(x, 2)
        owners = {id(x.data), id(out.data)}
        assert all(id(a if a.base is None else a.base) in owners for a in arrays_held(out))

    def test_concat_and_split_gradients(self):
        a = Tensor(rnd(1, 2, 2, 2, seed=15), requires_grad=True)
        b = Tensor(rnd(1, 3, 2, 2, seed=16), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (1, 5, 2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones_like(a.data))
        np.testing.assert_allclose(b.grad, np.ones_like(b.data))

    def test_transpose_reshape_round_trip(self):
        x = Tensor(rnd(2, 3, 4, seed=17), requires_grad=True)
        out = reshape(transpose(x, (2, 0, 1)), (4, 6))
        assert out.shape == (4, 6)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(x.data))

    def test_window_stack_replicates_border(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2)
        out = unfold_neighborhoods(Tensor(x), 3).data
        assert out.shape == (1, 9, 1, 2, 2)
        # slot 0 looks up-left, slot 8 down-right: the corners see their own pixel past the border
        assert out[0, 0, 0, 0, 0] == 0.0 and out[0, 8, 0, 1, 1] == 3.0

    def test_window_stack_center_slot_is_input(self):
        x = Tensor(rnd(1, 2, 6, 6, seed=18))
        stacked = unfold_neighborhoods(x, 3)
        assert stacked.shape == (1, 9, 2, 6, 6)
        np.testing.assert_array_equal(stacked.data[:, 4], x.data)

    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_window_stack_matches_loop_reference(self, window):
        x = rnd(2, 3, 7, 8, seed=30, dtype=np.float64)
        stacked = unfold_neighborhoods(Tensor(x), window)
        np.testing.assert_array_equal(stacked.data, window_stack_reference(x, window))

    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_window_stack_gradient_matches_loop_reference(self, window):
        # small integer gradients keep every sum exact, so any order of adding them agrees
        x = Tensor(rnd(2, 3, 4, 5, seed=31, dtype=np.float64), requires_grad=True)
        g = np.random.default_rng(32).integers(-8, 9, size=(2, window * window, 3, 4, 5)).astype(np.float64)
        (unfold_neighborhoods(x, window) * Tensor(g)).sum().backward()
        np.testing.assert_array_equal(x.grad, window_stack_grad_reference(g, window))

    @pytest.mark.parametrize("window", [0, 2, -1])
    def test_window_stack_needs_an_odd_positive_window(self, window):
        with pytest.raises(ConfigError, match="odd and positive"):
            unfold_neighborhoods(Tensor(rnd(1, 1, 3, 3)), window)
