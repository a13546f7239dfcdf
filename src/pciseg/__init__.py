"""Desk-scale 3D point-cloud instance segmentation.

Instance-aware farthest-point sampling selects candidate points, local
aggregation encodes them, and per-candidate dynamic convolution decodes
instance masks conditioned on predicted bounding boxes. Ships with a
synthetic scene generator, training with hand-verified analytic gradients,
and a full evaluation suite.
"""

from .core import (
    Aabb,
    Prediction,
    Scene,
    VoxelMap,
    aabb_from_mask,
    binarize,
    mask_iou,
    voxelize,
)

__all__ = [
    "Aabb",
    "Prediction",
    "Scene",
    "VoxelMap",
    "aabb_from_mask",
    "binarize",
    "mask_iou",
    "voxelize",
]

__version__ = "0.1.0"
