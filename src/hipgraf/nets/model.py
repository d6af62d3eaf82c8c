"""Full detector: two branches, fusion, heatmap head, optional graph refiner.

Variants used by the ablation harness:

    full             mutual modulation fusion + graph refinement
    no_mmf           plain concatenation fusion + graph refinement
    no_tgcn          mutual modulation fusion only (no refiner, no class head)
    concat_baseline  plain concatenation fusion only

Images are floats in [0,1]; the forward pass recenters them to roughly
[-2,2] before the branches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import Module, Tensor, conv2d, glorot_uniform, layer_norm, reshape, sigmoid, zeros_param
from ..config import ModelConfig, TrainConfig
from ..errors import DimensionError
from .fusion import ConcatFusion, MutualModulationFusion
from .graph import TopologicalRefiner
from .transformer import TransformerBranch
from .unet import UNetBranch

N_LANDMARKS = 6

INIT_STREAM = 0x1A17

# images in [0,1] are recentered and moderately amplified; stronger gains
# saturate the fusion softmax scores and drown the positional signal
INPUT_GAIN = 4.0


@dataclass
class ModelOutput:
    heatmaps: Tensor
    refined: Tensor | None
    logit: Tensor | None

    def detection_stack(self) -> Tensor:
        """The stack landmark decoding reads: refined when present."""
        return self.refined if self.refined is not None else self.heatmaps


# head-input conditioning: each channel map is normalized over its spatial
# extent (zero mean, unit variance per channel), so every unit of weight
# travel the optimizer can afford goes into the spatial shape of the logits,
# while the amplified bias pathway handles the uniform background level.
# The fixed gains set how far the bounded per-weight travel (lr * steps)
# can swing the logits; weights start well below glorot scale so initial
# logits stay in the responsive region of the sigmoid on both sides.
HEAD_INPUT_GAIN = 20.0
HEAD_BIAS_GAIN = 64.0
HEAD_INIT_SCALE = 1.0 / 64.0


class HeatmapHead(Module):
    """Spatially normalized input, fixed gains, 1x1 conv + sigmoid."""

    def __init__(self, rng: np.random.Generator, channels: int):
        self.weight = glorot_uniform(rng, (N_LANDMARKS, channels, 1, 1), channels, N_LANDMARKS)
        self.weight.data = self.weight.data * self.weight.data.dtype.type(HEAD_INIT_SCALE)
        self.bias = zeros_param((N_LANDMARKS,))

    def logits(self, fused: Tensor) -> Tensor:
        b, c, h, w = fused.shape
        flat = reshape(fused, (b, c, h * w))
        conditioned = reshape(layer_norm(flat, axis=-1), (b, c, h, w)) * HEAD_INPUT_GAIN
        return conv2d(conditioned, self.weight, HEAD_BIAS_GAIN * self.bias)

    def forward(self, fused: Tensor) -> Tensor:
        return sigmoid(self.logits(fused))


class LandmarkNet(Module):
    def __init__(self, config: ModelConfig, seed: int):
        config.validate()
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence([seed, INIT_STREAM]))
        bb = config.backbone
        self.unet = UNetBranch(bb, rng)
        self.transformer = TransformerBranch(bb, rng)
        # Python ints, which cannot wrap as numpy ints can
        channels, feature, window = int(bb.channels), int(bb.feature_size), int(config.fusion.window)
        if config.uses_mmf:
            self.fusion = MutualModulationFusion(rng, channels, window=window, mode=config.fusion.mode)
        else:
            self.fusion = ConcatFusion(rng, channels)
        self.head = HeatmapHead(rng, channels)
        self.refiner = None
        if config.uses_tgcn:
            self.refiner = TopologicalRefiner(
                rng,
                feature_hw=(feature, feature),
                layers=int(config.graph.layers),
                hidden=int(config.graph.hidden),
            )

    @property
    def upscale(self) -> int:
        return self.config.backbone.upscale

    def prepare_images(self, images) -> Tensor:
        """Stack plain arrays into a (n,1,H,H) constant input tensor."""
        if isinstance(images, Tensor):
            return images
        arr = np.asarray(images)
        if arr.ndim == 2:
            arr = arr[None, None]
        elif arr.ndim == 3:
            arr = arr[:, None]
        elif arr.ndim != 4:
            raise DimensionError(f"expected (h,w), (n,h,w) or (n,1,h,w) images, got shape {arr.shape}")
        # read the dtype from a tensor directly: parameters() skips frozen ones
        param_dtype = self.head.weight.data.dtype
        return Tensor(arr.astype(param_dtype, copy=False), requires_grad=False, dtype=param_dtype)

    def forward(self, images) -> ModelOutput:
        x = self.prepare_images(images)
        x = (x - 0.5) * INPUT_GAIN
        f_local = self.unet.forward(x)
        f_global = self.transformer.forward(x)
        fused = self.fusion.forward(f_local, f_global)
        head_logits = self.head.logits(fused)
        heatmaps = sigmoid(head_logits)
        if self.refiner is None:
            return ModelOutput(heatmaps=heatmaps, refined=None, logit=None)
        refined, logit = self.refiner.forward(heatmaps, skip_logits=head_logits)
        return ModelOutput(heatmaps=heatmaps, refined=refined, logit=logit)


def build_model(config: ModelConfig, seed: int = TrainConfig.seed) -> LandmarkNet:
    return LandmarkNet(config, seed=seed)
