"""Patch-token branch extracting global features.

Images are cut into non-overlapping patches, linearly embedded, tagged with
learned position embeddings (kept in a separate parameter so tests can zero
them), and passed through pre-norm self-attention blocks. There is no class
token; every token keeps a spatial identity so the grid can be reshaped into
a map and upsampled to the shared feature resolution.
"""

from __future__ import annotations

import math

import numpy as np

from ..autodiff import (
    Module,
    Tensor,
    add,
    conv2d,
    glorot_uniform,
    layer_norm,
    linear,
    matmul,
    mul,
    no_grad,
    ones_param,
    relu,
    reshape,
    softmax,
    table_param,
    transpose,
    zeros_param,
)
from ..config import BackboneConfig
from ..errors import DimensionError
from .unet import Upsample2x

MLP_RATIO = 2

# keeps the positional signal comparable to the amplified patch content
POS_EMBEDDING_GAIN = 4.0
OUTPUT_POS_GAIN = 1.0


def sincos_position_grid(grid: int, dim: int) -> np.ndarray:
    """2D sin/cos position codes, (grid*grid, dim), amplitude 1.

    A smooth Fourier basis over the token grid: linear readouts can then
    synthesize localized spatial bumps directly, which random codes only
    support through deeper processing. Used as the init of the *learned*
    position embeddings.
    """
    quarter = max(dim // 4, 1)
    freqs = (2.0 ** np.arange(quarter)) * np.pi / grid
    coords = np.arange(grid, dtype=np.float64)
    ys, xs = np.meshgrid(coords, coords, indexing="ij")
    parts = []
    for axis in (xs, ys):
        angles = axis.reshape(-1, 1) * freqs[None, :]
        parts.append(np.sin(angles))
        parts.append(np.cos(angles))
    table = np.concatenate(parts, axis=1)
    if table.shape[1] < dim:
        table = np.concatenate([table, np.zeros((grid * grid, dim - table.shape[1]))], axis=1)
    return table[:, :dim]


class LayerNorm(Module):
    """Layer normalization over the last axis, then a learned gain and shift."""

    def __init__(self, dim: int):
        self.gain = ones_param((dim,))
        self.shift = zeros_param((dim,))

    def forward(self, x: Tensor) -> Tensor:
        return add(mul(layer_norm(x, axis=-1), self.gain), self.shift)


class SelfAttention(Module):
    def __init__(self, rng: np.random.Generator, dim: int, heads: int):
        self.heads = heads
        self.head_dim = dim // heads
        self.wq = glorot_uniform(rng, (dim, dim), dim, dim)
        self.wk = glorot_uniform(rng, (dim, dim), dim, dim)
        self.wv = glorot_uniform(rng, (dim, dim), dim, dim)
        self.wo = glorot_uniform(rng, (dim, dim), dim, dim)
        self.bq = zeros_param((dim,))
        # no key bias: shifting every key moves all scores in a row equally,
        # which the softmax cancels, leaving the parameter gradient-free
        self.bv = zeros_param((dim,))
        self.bo = zeros_param((dim,))

    def _split(self, t: Tensor) -> Tensor:
        """(b, n, dim) -> (b, heads, n, head_dim)."""
        b, n, _ = t.shape
        return transpose(reshape(t, (b, n, self.heads, self.head_dim)), (0, 2, 1, 3))

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """The attended tokens, and the row-stochastic (b, heads, n, n) attention of x over itself."""
        b, n, d = x.shape
        q = self._split(linear(x, self.wq, self.bq))
        k = self._split(linear(x, self.wk))
        attention = softmax(matmul(q, transpose(k, (0, 1, 3, 2))), axis=-1, scale=1.0 / math.sqrt(self.head_dim))
        mixed = matmul(attention, self._split(linear(x, self.wv, self.bv)))
        merged = reshape(transpose(mixed, (0, 2, 1, 3)), (b, n, d))
        return linear(merged, self.wo, self.bo), attention


class EncoderLayer(Module):
    """Pre-norm block: x + attn(norm(x)), then x + mlp(norm(x)); forward also returns the attention."""

    def __init__(self, rng: np.random.Generator, dim: int, heads: int):
        self.norm1 = LayerNorm(dim)
        self.attention = SelfAttention(rng, dim, heads)
        self.norm2 = LayerNorm(dim)
        hidden = MLP_RATIO * dim
        self.w1 = glorot_uniform(rng, (dim, hidden), dim, hidden)
        self.b1 = zeros_param((hidden,))
        self.w2 = glorot_uniform(rng, (hidden, dim), hidden, dim)
        self.b2 = zeros_param((dim,))

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        attended, attention = self.attention.forward(self.norm1.forward(x))
        x = add(x, attended)
        mlp = linear(relu(linear(self.norm2.forward(x), self.w1, self.b1)), self.w2, self.b2)
        return add(x, mlp), attention


class TransformerBranch(Module):
    """(n,1,H,H) image -> (n,channels,feature,feature) global feature map."""

    def __init__(self, config: BackboneConfig, rng: np.random.Generator):
        config.validate()
        self.config = config
        p, dim, channels, f = map(int, (config.patch_size, config.token_dim, config.channels, config.feature_size))  # Python ints, which cannot wrap
        grid = int(config.input_size) // p
        self.grid = grid
        self.embed_w = glorot_uniform(rng, (p * p, dim), p * p, dim)
        self.embed_b = zeros_param((dim,))
        # learned, but initialized to a sin/cos grid scaled to the magnitude
        # of the amplified patch tokens; a weak positional signal would
        # vanish under the attention layer norms
        self.pos_embedding = table_param((grid * grid, dim), lambda: POS_EMBEDDING_GAIN * sincos_position_grid(grid, dim))
        self.layers = [EncoderLayer(rng, dim, int(config.heads)) for _ in range(int(config.transformer_layers))]
        ups = []
        size = grid
        current = dim
        while size < f:
            target = channels if size * 2 == f else dim
            ups.append(Upsample2x(rng, current, target))
            current = target
            size *= 2
        self.ups = ups
        self.project = None
        if grid == f:
            self.project = _Project1x1(rng, dim, channels)
        # learnable positional bias on the branch output, sin/cos initialized
        # at feature resolution: downstream 1x1 readouts can synthesize
        # location-specific responses without relying on what survives of the
        # token-level codes through attention and upsampling. Kept an order
        # of magnitude below the content scale so it biases rather than
        # dominates the fused features.
        self.output_pos = table_param((channels, f, f), lambda: OUTPUT_POS_GAIN * sincos_position_grid(f, channels).T)

    def embed(self, image: Tensor) -> Tensor:
        """Position-tagged patch embeddings, shape (n, grid^2, token_dim)."""
        size = self.config.input_size
        if image.ndim != 4 or image.shape[1] != 1 or image.shape[2] != size or image.shape[3] != size:
            raise DimensionError(f"expected images of shape (n,1,{size},{size}), got {image.shape}")
        b = image.shape[0]
        p = self.config.patch_size
        g = self.grid
        patches = reshape(image, (b, g, p, g, p))
        patches = transpose(patches, (0, 1, 3, 2, 4))
        patches = reshape(patches, (b, g * g, p * p))
        return add(linear(patches, self.embed_w, self.embed_b), self.pos_embedding)

    def tokens(self, image: Tensor) -> Tensor:
        """Patch tokens after the encoder stack, shape (n, grid^2, token_dim)."""
        x = self.embed(image)
        for layer in self.layers:
            x = layer.forward(x)[0]  # drops the attention before the next layer computes its own
        return x

    def forward(self, image: Tensor) -> Tensor:
        x = self.tokens(image)
        b = image.shape[0]
        g = self.grid
        grid_map = transpose(reshape(x, (b, g, g, self.config.token_dim)), (0, 3, 1, 2))
        if self.project is not None:
            out = self.project.forward(grid_map)
        else:
            out = grid_map
            for i, up in enumerate(self.ups):
                out = up.forward(out)
                if i < len(self.ups) - 1:
                    out = relu(out)
        return add(out, self.output_pos)

    def attention_maps(self, image: Tensor) -> list[np.ndarray]:
        """Each encoder layer's (n, heads, grid^2, grid^2) attention for ``image``.

        One encoder pass on no tape, one softmax per layer; the branch keeps no state.
        """
        maps = []
        with no_grad():
            x = self.embed(image)
            for layer in self.layers:
                x, attention = layer.forward(x)
                maps.append(attention.data)
        return maps


class _Project1x1(Module):
    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int):
        self.weight = glorot_uniform(rng, (c_out, c_in, 1, 1), c_in, c_out)
        self.bias = zeros_param((c_out,))

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias)
