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


class LayerScale(Module):
    """Learned gain and shift applied after a normalization."""

    def __init__(self, dim: int, dtype=None):
        self.gain = ones_param((dim,), dtype=dtype)
        self.shift = zeros_param((dim,), dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return add(mul(x, self.gain), self.shift)


class SelfAttention(Module):
    def __init__(self, rng: np.random.Generator, dim: int, heads: int, dtype=None):
        self.heads = heads
        self.head_dim = dim // heads
        self.wq = glorot_uniform(rng, (dim, dim), dim, dim, dtype=dtype)
        self.wk = glorot_uniform(rng, (dim, dim), dim, dim, dtype=dtype)
        self.wv = glorot_uniform(rng, (dim, dim), dim, dim, dtype=dtype)
        self.wo = glorot_uniform(rng, (dim, dim), dim, dim, dtype=dtype)
        self.bq = zeros_param((dim,), dtype=dtype)
        # no key bias: shifting every key moves all scores in a row equally,
        # which the softmax cancels, leaving the parameter gradient-free
        self.bv = zeros_param((dim,), dtype=dtype)
        self.bo = zeros_param((dim,), dtype=dtype)

    def _split(self, t: Tensor) -> Tensor:
        """(b, n, dim) -> (b, heads, n, head_dim)."""
        b, n, _ = t.shape
        return transpose(reshape(t, (b, n, self.heads, self.head_dim)), (0, 2, 1, 3))

    def weights(self, x: Tensor) -> Tensor:
        """Row-stochastic (b, heads, n, n) attention of the tokens x over each other."""
        q = self._split(linear(x, self.wq, self.bq))
        k = self._split(linear(x, self.wk))
        scores = mul(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(self.head_dim))
        return softmax(scores, axis=-1)

    def forward(self, x: Tensor) -> Tensor:
        b, n, d = x.shape
        mixed = matmul(self.weights(x), self._split(linear(x, self.wv, self.bv)))
        merged = reshape(transpose(mixed, (0, 2, 1, 3)), (b, n, d))
        return linear(merged, self.wo, self.bo)


class EncoderLayer(Module):
    """Pre-norm block: x + attn(norm(x)), then x + mlp(norm(x))."""

    def __init__(self, rng: np.random.Generator, dim: int, heads: int, dtype=None):
        self.norm1 = LayerScale(dim, dtype=dtype)
        self.attention = SelfAttention(rng, dim, heads, dtype=dtype)
        self.norm2 = LayerScale(dim, dtype=dtype)
        hidden = MLP_RATIO * dim
        self.w1 = glorot_uniform(rng, (dim, hidden), dim, hidden, dtype=dtype)
        self.b1 = zeros_param((hidden,), dtype=dtype)
        self.w2 = glorot_uniform(rng, (hidden, dim), hidden, dim, dtype=dtype)
        self.b2 = zeros_param((dim,), dtype=dtype)

    def attention_input(self, x: Tensor) -> Tensor:
        return self.norm1.forward(layer_norm(x, axis=-1))

    def forward(self, x: Tensor) -> Tensor:
        x = add(x, self.attention.forward(self.attention_input(x)))
        mlp = linear(relu(linear(self.norm2.forward(layer_norm(x, axis=-1)), self.w1, self.b1)), self.w2, self.b2)
        return add(x, mlp)


class TransformerBranch(Module):
    """(n,1,H,H) image -> (n,channels,feature,feature) global feature map."""

    def __init__(self, config: BackboneConfig, rng: np.random.Generator, dtype=None):
        config.validate()
        self.config = config
        p = config.patch_size
        dim = config.token_dim
        grid = config.input_size // p
        self.grid = grid
        self.embed_w = glorot_uniform(rng, (p * p, dim), p * p, dim, dtype=dtype)
        self.embed_b = zeros_param((dim,), dtype=dtype)
        # learned, but initialized to a sin/cos grid scaled to the magnitude
        # of the amplified patch tokens; a weak positional signal would
        # vanish under the attention layer norms
        self.pos_embedding = zeros_param((grid * grid, dim), dtype=dtype)
        self.pos_embedding.data += (POS_EMBEDDING_GAIN * sincos_position_grid(grid, dim)).astype(self.pos_embedding.data.dtype)
        self.layers = [EncoderLayer(rng, dim, config.heads, dtype=dtype) for _ in range(config.transformer_layers)]
        ups = []
        size = grid
        current = dim
        while size < config.feature_size:
            target = config.channels if size * 2 == config.feature_size else dim
            ups.append(Upsample2x(rng, current, target, dtype=dtype))
            current = target
            size *= 2
        self.ups = ups
        self.project = None
        if grid == config.feature_size:
            self.project = _Project1x1(rng, dim, config.channels, dtype=dtype)
        # learnable positional bias on the branch output, sin/cos initialized
        # at feature resolution: downstream 1x1 readouts can synthesize
        # location-specific responses without relying on what survives of the
        # token-level codes through attention and upsampling. Kept an order
        # of magnitude below the content scale so it biases rather than
        # dominates the fused features.
        f = config.feature_size
        # the parameter before its table, so restore_model's shape check runs before any allocation
        self.output_pos = zeros_param((config.channels, f, f), dtype=dtype)
        table = sincos_position_grid(f, config.channels).T.reshape(config.channels, f, f)
        self.output_pos.data += (OUTPUT_POS_GAIN * table).astype(self.output_pos.data.dtype)

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
            x = layer.forward(x)
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

        Computed afresh on no tape; the branch keeps no state between calls.
        """
        maps = []
        with no_grad():
            x = self.embed(image)
            for layer in self.layers:
                maps.append(layer.attention.weights(layer.attention_input(x)).data)
                x = layer.forward(x)
        return maps


class _Project1x1(Module):
    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int, dtype=None):
        self.weight = glorot_uniform(rng, (c_out, c_in, 1, 1), c_in, c_out, dtype=dtype)
        self.bias = zeros_param((c_out,), dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias)
