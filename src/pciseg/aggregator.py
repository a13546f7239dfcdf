"""Candidate feature encoding: ball query, local aggregation, and heads.

A block gathers each candidate's radius neighborhood, pushes concatenated
neighbor features and radius-normalized offsets through a shared 3-layer
map, max-pools over the neighborhood, and adds the candidate's own feature
back as a residual. Two stacked blocks widen the receptive field; linear
heads then emit class logits, boxes, flat decoder kernels, and a quality
scalar per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Var, as_var


def ball_query(
    positions: np.ndarray,
    centers: np.ndarray,
    radius: float,
    num_neighbors: int,
    center_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Up to Q in-radius neighbors per center, nearest first.

    Neighbors are ordered by ascending distance with ties broken by lower
    index; short lists are padded by repeating the first qualifying
    neighbor. A center with no point in radius pads with its own index
    when given, else with the globally nearest point.
    """
    positions = np.asarray(positions, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if num_neighbors < 1:
        raise ValueError("neighbor count must be at least 1")
    if centers.ndim != 2 or centers.shape[1] != 3:
        raise ValueError("centers must be (K, 3)")
    diff = centers[:, None, :] - positions[None, :, :]
    d2 = np.einsum("kij,kij->ki", diff, diff)
    order = np.argsort(d2, axis=1, kind="stable")
    counts = (d2 <= radius * radius).sum(axis=1)
    q = num_neighbors
    out = order[:, :q].copy()
    if out.shape[1] < q:
        out = np.pad(out, ((0, 0), (0, q - out.shape[1])), mode="edge")
    cols = np.arange(q)[None, :]
    first = out[:, :1]
    out = np.where(cols < counts[:, None], out, first)
    empty = counts == 0
    if empty.any():
        if center_indices is not None:
            fallback = np.asarray(center_indices, dtype=np.int64)[empty, None]
        else:
            fallback = order[empty, :1]
        out[empty] = fallback
    return out.astype(np.int64)


@dataclass(frozen=True)
class AggregatorBlock:
    """One aggregation block: query radius, neighbor count, shared map.

    ``layers`` holds three (weight, bias) pairs with widths
    (D+3)->D->D->D; ReLU follows the first two maps only. Weights may be
    plain arrays or tape variables.
    """

    radius: float
    num_neighbors: int
    layers: tuple

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.num_neighbors < 1:
            raise ValueError("neighbor count must be at least 1")
        if len(self.layers) != 3:
            raise ValueError("the shared map has exactly three layers")
        d = ad.value_of(self.layers[0][0]).shape[1]
        expected = [(d + 3, d), (d, d), (d, d)]
        for (w, b), (c_in, c_out) in zip(self.layers, expected):
            if ad.value_of(w).shape != (c_in, c_out) or ad.value_of(b).shape != (c_out,):
                raise ValueError(f"layer shapes must follow ({d}+3)->{d}->{d}->{d}")

    @property
    def width(self) -> int:
        return ad.value_of(self.layers[0][0]).shape[1]

    @classmethod
    def zeros(cls, radius: float, num_neighbors: int, width: int) -> "AggregatorBlock":
        layers = (
            (np.zeros((width + 3, width)), np.zeros(width)),
            (np.zeros((width, width)), np.zeros(width)),
            (np.zeros((width, width)), np.zeros(width)),
        )
        return cls(radius, num_neighbors, layers)


def _shared_map(block: AggregatorBlock, x: Var) -> Var:
    h = x
    for i, (w, b) in enumerate(block.layers):
        h = ad.add(ad.matmul(h, as_var(w)), as_var(b))
        if i < 2:
            h = ad.relu(h)
    return h


def aggregate_batch(
    block: AggregatorBlock,
    features: Var,
    positions: np.ndarray,
    centers: np.ndarray,
    neighbors: np.ndarray,
) -> Var:
    """Aggregate neighborhoods for a batch of centers.

    features: (M, D) source features; centers: (K,) indices into the source
    set; neighbors: (K, Q) indices from :func:`ball_query` with the block's
    radius. Offsets are divided by the radius, so every coordinate lies in
    [-1, 1] for genuine in-radius neighbors. Returns (K, D).
    """
    features = as_var(features)
    positions = np.asarray(positions, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.int64)
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if neighbors.shape != (centers.shape[0], block.num_neighbors):
        raise ValueError("neighbors must be (K, Q)")
    local_feat = features[neighbors]
    local_pos = (positions[neighbors] - positions[centers][:, None, :]) / block.radius
    x = ad.concat([local_feat, Var(local_pos)], axis=2)
    pooled = ad.amax(_shared_map(block, x), axis=1)
    return ad.add(features[centers], pooled)


def _local_indices(superset: np.ndarray, subset: np.ndarray) -> np.ndarray:
    lookup = {int(g): i for i, g in enumerate(superset)}
    try:
        return np.asarray([lookup[int(g)] for g in subset], dtype=np.int64)
    except KeyError as exc:
        raise ValueError("stage indices must nest: every later stage index "
                         "must appear in the previous stage") from exc


def pa_stack(
    features: np.ndarray,
    positions: np.ndarray,
    stages: Sequence[np.ndarray],
    blocks: Sequence[AggregatorBlock],
) -> np.ndarray:
    """Run stacked aggregation blocks over nested sample stages.

    Block t aggregates at the stage-t samples over the previous stage's
    point set (the raw scene for the first block). Later stages must be
    subsets of earlier ones. Takes and returns plain arrays: the final
    stage's features.
    """
    if len(stages) != len(blocks):
        raise ValueError("one sample stage per block")
    if any(len(s) == 0 for s in stages):
        raise ValueError("empty sample stage")
    feats = Var(features)
    source_idx = np.arange(np.asarray(positions).shape[0], dtype=np.int64)
    source_pos = np.asarray(positions, dtype=np.float64)
    for block, stage in zip(blocks, stages):
        stage = np.asarray(stage, dtype=np.int64)
        local_centers = _local_indices(source_idx, stage)
        neighbors = ball_query(
            source_pos,
            source_pos[local_centers],
            block.radius,
            block.num_neighbors,
            center_indices=local_centers,
        )
        feats = aggregate_batch(block, feats, source_pos, local_centers, neighbors)
        source_idx = stage
        source_pos = source_pos[local_centers]
    return feats.value


@dataclass(frozen=True)
class CandidateHeads:
    """Affine heads mapping candidate features to predictions.

    Boxes are emitted as a 3-D center plus softplus-positive sizes so the
    min corner never exceeds the max corner. The quality head is a single
    raw logit later squashed into a mask-confidence score.
    """

    cls_weight: object
    cls_bias: object
    box_weight: object
    box_bias: object
    kernel_weight: object
    kernel_bias: object
    quality_weight: object
    quality_bias: object


def box_from_raw(raw: Var) -> Var:
    """(..., 6) raw head output -> (..., 6) min/max-corner boxes."""
    center = raw[..., :3]
    size = ad.softplus(raw[..., 3:])
    half = ad.mul(size, 0.5)
    return ad.concat([ad.sub(center, half), ad.add(center, half)], axis=-1)


def heads(candidate_features, head_params: CandidateHeads):
    """Class logits, boxes, flat kernels, and quality logits per candidate.

    Returns tape variables (L, B, W, q) with shapes (K, C), (K, 6), (K, H'),
    (K,).
    """
    e = as_var(candidate_features)
    cls = ad.add(ad.matmul(e, as_var(head_params.cls_weight)), as_var(head_params.cls_bias))
    raw_box = ad.add(ad.matmul(e, as_var(head_params.box_weight)), as_var(head_params.box_bias))
    box = box_from_raw(raw_box)
    kernel = ad.add(ad.matmul(e, as_var(head_params.kernel_weight)), as_var(head_params.kernel_bias))
    quality = ad.reshape(
        ad.add(ad.matmul(e, as_var(head_params.quality_weight)), as_var(head_params.quality_bias)),
        (e.shape[0],),
    )
    return cls, box, kernel, quality
