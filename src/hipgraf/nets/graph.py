"""Topological graph refinement of the landmark heatmaps.

Each of the six heatmaps becomes one graph node whose feature vector is the
flattened map. Edges join the three landmark pairs that lie on the same
anatomical line (baseline, bony roof, cartilage roof), so message passing
lets collinear partners correct each other. The final node features are
reshaped back into heatmaps (the refined stack used for decoding) and also
pooled through a two-stage linear head into a single abnormality logit.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import (
    Module,
    Tensor,
    add,
    as_tensor,
    glorot_uniform,
    matmul,
    reduce_mean,
    relu,
    reshape,
    sigmoid,
)
from ..errors import DimensionError

# The collinear landmark pairs, 1-based: baseline, bony roof, cartilage roof.
PAIRS = ((1, 2), (3, 4), (5, 6))
NODE_COUNT = 2 * len(PAIRS)


def build_adjacency() -> np.ndarray:
    """Symmetric 0/1 adjacency with one edge per collinear pair."""
    adjacency = np.zeros((NODE_COUNT, NODE_COUNT), dtype=np.float64)
    for a, b in PAIRS:
        adjacency[a - 1, b - 1] = 1.0
        adjacency[b - 1, a - 1] = 1.0
    return adjacency


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric renormalization D^-1/2 (A + I) D^-1/2 with self loops added.

    Entry (i,j) is computed as a_ij / sqrt(d_i * d_j), which is exact when
    the degree product is a perfect square; the pair graph then yields
    (A + I) / 2 to the bit.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise DimensionError(f"adjacency must be square, got shape {adjacency.shape}")
    if not np.allclose(adjacency, adjacency.T):
        raise DimensionError("adjacency must be symmetric")
    with_self = adjacency + np.eye(adjacency.shape[0])
    degree = with_self.sum(axis=1)
    return with_self / np.sqrt(np.outer(degree, degree))


def build_node_features(heatmaps: Tensor) -> Tensor:
    """Flatten an (n,k,h,w) heatmap stack into (n,k,h*w) node rows."""
    if heatmaps.ndim != 4:
        raise DimensionError(f"expected an (n,k,h,w) heatmap stack, got shape {heatmaps.shape}")
    n, k, h, w = heatmaps.shape
    if k != NODE_COUNT:
        raise DimensionError(f"expected {NODE_COUNT} heatmap channels, got {k}")
    return reshape(heatmaps, (n, k, h * w))


def gcn_mix(features: Tensor, adjacency_norm: np.ndarray, weight: Tensor) -> Tensor:
    """A_hat @ features @ W, the pre-activation graph mix."""
    features = as_tensor(features)
    k = adjacency_norm.shape[0]
    if features.shape[-2] != k:
        raise DimensionError(f"features {features.shape} do not match adjacency with {k} nodes")
    if weight.shape[0] != features.shape[-1]:
        raise DimensionError(f"weight {weight.shape} does not match feature width {features.shape[-1]}")
    mixed = matmul(as_tensor(adjacency_norm.astype(features.dtype)), features)
    return matmul(mixed, weight)


def gcn_layer(features: Tensor, adjacency_norm: np.ndarray, weight: Tensor) -> Tensor:
    """relu(A_hat @ features @ W); feature shape is preserved."""
    return relu(gcn_mix(features, adjacency_norm, weight))


def refine_heatmaps(node_features: Tensor, height: int, width: int) -> Tensor:
    """Unflatten (n,k,height*width) node features into an (n,k,height,width) sigmoid heatmap stack."""
    n, k, _ = node_features.shape
    return reshape(sigmoid(node_features), (n, k, height, width))


def classify_nodes(node_features: Tensor, w_mid: Tensor, w_out: Tensor) -> Tensor:
    """Two-stage per-node projection then mean pooling over nodes.

    Returns a scalar logit per batch item; sigmoid of it is the abnormality
    probability.
    """
    projected = matmul(matmul(node_features, w_mid), w_out)
    pooled = reduce_mean(projected, axis=-2)
    return reshape(pooled, pooled.shape[:-1])


class TopologicalRefiner(Module):
    """Multi-layer GCN producing the refined stack and the class logit."""

    def __init__(self, rng: np.random.Generator, feature_hw: tuple[int, int], layers: int, hidden: int):
        h, w = feature_hw
        d = h * w
        self.feature_hw = feature_hw
        self.adjacency_norm = normalize_adjacency(build_adjacency())
        self.weights = [glorot_uniform(rng, (d, d), d, d) for _ in range(layers)]
        self.w_mid = glorot_uniform(rng, (d, hidden), d, hidden)
        self.w_out = glorot_uniform(rng, (hidden, 1), hidden, 1)

    def forward(self, heatmaps: Tensor, skip_logits: Tensor) -> tuple[Tensor, Tensor]:
        """Refined stack plus class logit.

        Two structural constraints shape this read-out. The activation sits
        between layers only, with the last mix linear, because a relu tail
        would floor every sigmoid output at 0.5. And the refined stack is
        sigmoid(skip + graph output) rather than the graph output alone: the
        normalized adjacency of the pair topology averages each pair
        exactly, so the graph path assigns both nodes of a pair identical
        features and on its own would decode both landmarks of a pair to the
        same point. The skip keeps per-node identity; the graph path learns
        the topology-consistent correction. ``skip_logits`` are the
        pre-sigmoid heatmap logits, for their full dynamic range.
        """
        features = build_node_features(heatmaps)
        for weight in self.weights[:-1]:
            features = gcn_layer(features, self.adjacency_norm, weight)
        features = gcn_mix(features, self.adjacency_norm, self.weights[-1])
        h, w = self.feature_hw
        refined = refine_heatmaps(add(build_node_features(skip_logits), features), h, w)
        logit = classify_nodes(features, self.w_mid, self.w_out)
        return refined, logit
