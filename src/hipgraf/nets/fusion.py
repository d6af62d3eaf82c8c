"""Mutual modulation fusion of the local and global feature maps.

Each output pixel of one branch is rebuilt as a convex combination of its
own n x n neighborhood, weighted by softmax similarity between those
neighbors and the *other* branch's center pixel. Two synchronous routes run
with the roles swapped, and the two modulated maps are then combined along
the channel axis and projected back to the branch width so downstream heads
never see the fusion choice.

``modulated_fuse`` records two tape nodes. ``unfold_neighborhoods`` pads
and stacks the edge-replicated (n, window^2, c, h, w) neighborhoods of the
source in one op; then one op scores each slot by its channel dot product
with the guide pixel (``einsum("nkchw,nchw->nkhw")``), softmaxes the scores
over the slots and sums the slots under those weights
(``einsum("nkchw,nkhw->nchw")``). Its backward keeps only the stack and the
weights, so no (n, window^2, c, h, w) product array and no intermediate tape
node is built (the fused-op idea of Dao et al. 2022, "FlashAttention").
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Module, Tensor, concat, conv2d, glorot_uniform, unfold_neighborhoods
from ..autodiff.ops import softmax_backward, softmax_inplace
from ..autodiff.tensor import _accumulate, make_op
from ..config import FusionConfig
from ..errors import DimensionError


def _weights(neighbors: np.ndarray, guide: np.ndarray) -> np.ndarray:
    """Softmax over slots of each neighbor's channel dot product with the guide pixel.

    ``neighbors`` is the (n, window^2, c, h, w) unfold of the source map. The
    scores are a fresh array, normalized in place.
    """
    return softmax_inplace(np.einsum("nkchw,nchw->nkhw", neighbors, guide), axis=1)


def modulated_fuse(source: Tensor, guide: Tensor, window: int) -> Tensor:
    """Rebuild each source pixel from its neighborhood, guided by the other map."""
    _check_pair(source, guide)
    neighbors = unfold_neighborhoods(source, window)
    stack = neighbors.data
    weights = _weights(stack, guide.data)
    data = np.einsum("nkchw,nkhw->nchw", stack, weights)

    def backward(g: np.ndarray) -> None:
        # out = sum_k N_k w_k with w = softmax_k(sum_c N_k * guide)
        d_scores = softmax_backward(weights, np.einsum("nkchw,nchw->nkhw", stack, g), axis=1)
        if guide.requires_grad:
            _accumulate(guide, np.einsum("nkchw,nkhw->nchw", stack, d_scores))
        if neighbors.requires_grad:
            g_stack = weights[:, :, None] * g[:, None]
            g_stack += d_scores[:, :, None] * guide.data[:, None]
            _accumulate(neighbors, g_stack)

    return make_op(data, (neighbors, guide), backward)


def _check_pair(a: Tensor, b: Tensor) -> None:
    if a.ndim != 4 or b.ndim != 4:
        raise DimensionError(f"fusion expects (n,c,h,w) maps, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise DimensionError(f"fusion inputs must match, got {a.shape} and {b.shape}")


class MutualModulationFusion(Module):
    """The two modulation routes plus the channel combine and 1x1 projection."""

    def __init__(self, rng: np.random.Generator, channels: int, window: int, mode: str):
        FusionConfig(window=window, mode=mode).validate()
        self.window = window
        self.mode = mode
        in_channels = 2 * channels if mode == "concat" else channels
        # no projection bias: the heatmap head normalizes each channel map to
        # zero mean, so a per-channel constant offset could never act
        self.proj_weight = glorot_uniform(rng, (channels, in_channels, 1, 1), in_channels, channels)

    def forward(self, f_local: Tensor, f_global: Tensor) -> Tensor:
        # local-to-global route: local neighborhoods re-weighted by the global center pixel;
        # global-to-local route: global neighborhoods re-weighted by the local center pixel
        updated_local = modulated_fuse(f_local, f_global, self.window)
        updated_global = modulated_fuse(f_global, f_local, self.window)
        if self.mode == "concat":
            combined = concat([updated_local, updated_global], axis=1)
        else:
            combined = updated_local + updated_global
        return conv2d(combined, self.proj_weight)


class ConcatFusion(Module):
    """Plain channel concatenation + the same 1x1 projection (ablation path)."""

    def __init__(self, rng: np.random.Generator, channels: int):
        self.proj_weight = glorot_uniform(rng, (channels, 2 * channels, 1, 1), 2 * channels, channels)

    def forward(self, f_local: Tensor, f_global: Tensor) -> Tensor:
        _check_pair(f_local, f_global)
        return conv2d(concat([f_local, f_global], axis=1), self.proj_weight)
