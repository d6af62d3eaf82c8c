"""Encoder-decoder branch extracting local features.

The decoder stops at the shared feature resolution rather than climbing back
to full input resolution, so its output shape matches the global branch
directly. Channel widths double per encoder level and are sized so the last
decoder level lands exactly on the configured channel count.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Module, Tensor, concat, conv2d_relu, glorot_uniform, maxpool2d, transpose_conv2d, zeros_param
from ..config import BackboneConfig
from ..errors import DimensionError


class Conv3x3(Module):
    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int):
        self.weight = glorot_uniform(rng, (c_out, c_in, 3, 3), fan_in=c_in * 9, fan_out=c_out * 9)
        self.bias = zeros_param((c_out,))

    def forward(self, x: Tensor) -> Tensor:
        return conv2d_relu(x, self.weight, self.bias, stride=1, padding=1)


class ConvBlock(Module):
    """Two 3x3 conv + relu stages."""

    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int):
        self.first = Conv3x3(rng, c_in, c_out)
        self.second = Conv3x3(rng, c_out, c_out)

    def forward(self, x: Tensor) -> Tensor:
        return self.second.forward(self.first.forward(x))


class Upsample2x(Module):
    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int):
        self.weight = glorot_uniform(rng, (c_in, c_out, 2, 2), fan_in=c_in * 4, fan_out=c_out * 4)
        self.bias = zeros_param((c_out,))

    def forward(self, x: Tensor) -> Tensor:
        return transpose_conv2d(x, self.weight, self.bias, stride=2)


# internal widths run twice the width dictated by the output channel count;
# the last block projects down to the configured channels
WIDTH_MULT = 2


class UNetBranch(Module):
    """(n,1,H,H) image -> (n,channels,feature,feature) local feature map."""

    def __init__(self, config: BackboneConfig, rng: np.random.Generator):
        config.validate()
        self.config = config
        depth, out_channels = int(config.unet_depth), int(config.channels)  # Python ints, which cannot wrap
        n_up = depth - (config.upscale.bit_length() - 1)
        base = (out_channels >> (depth - n_up)) * WIDTH_MULT
        self.n_up = n_up
        enc_channels = [base << i for i in range(depth)]
        self.encoders = [
            ConvBlock(rng, 1 if i == 0 else enc_channels[i - 1], enc_channels[i]) for i in range(depth)
        ]
        bottleneck_channels = base << depth
        if n_up == 0:
            bottleneck_channels = out_channels
        self.bottleneck = ConvBlock(rng, enc_channels[-1], bottleneck_channels)
        ups = []
        decoders = []
        current = bottleneck_channels
        for j in range(1, n_up + 1):
            skip_channels = enc_channels[depth - j]
            block_out = out_channels if j == n_up else skip_channels
            ups.append(Upsample2x(rng, current, skip_channels))
            decoders.append(ConvBlock(rng, 2 * skip_channels, block_out))
            current = block_out
        self.ups = ups
        self.decoders = decoders

    def forward(self, image: Tensor) -> Tensor:
        size = self.config.input_size
        if image.ndim != 4 or image.shape[1] != 1 or image.shape[2] != size or image.shape[3] != size:
            raise DimensionError(f"expected images of shape (n,1,{size},{size}), got {image.shape}")
        skips = []
        x = image
        for encoder in self.encoders:
            x = encoder.forward(x)
            skips.append(x)
            x = maxpool2d(x, 2)
        x = self.bottleneck.forward(x)
        for j, (up, decoder) in enumerate(zip(self.ups, self.decoders), start=1):
            x = up.forward(x)
            x = concat([x, skips[len(skips) - j]], axis=1)
            x = decoder.forward(x)
        return x
