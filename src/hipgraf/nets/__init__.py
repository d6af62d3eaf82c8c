"""Network components: branches, fusion, graph refinement, full model."""

from .unet import UNetBranch
from .transformer import TransformerBranch
from .fusion import ConcatFusion, MutualModulationFusion, modulated_fuse
from .graph import (
    TopologicalRefiner,
    build_adjacency,
    build_node_features,
    classify_nodes,
    gcn_layer,
    normalize_adjacency,
    refine_heatmaps,
)
from .model import HeatmapHead, LandmarkNet, ModelOutput, build_model

__all__ = [
    "ConcatFusion",
    "HeatmapHead",
    "LandmarkNet",
    "ModelOutput",
    "MutualModulationFusion",
    "TopologicalRefiner",
    "TransformerBranch",
    "UNetBranch",
    "build_adjacency",
    "build_model",
    "build_node_features",
    "classify_nodes",
    "gcn_layer",
    "modulated_fuse",
    "normalize_adjacency",
    "refine_heatmaps",
]
