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

import numpy as np

from . import autodiff as ad
from .autodiff import Var


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
    (D+3)->D->D->D; ReLU follows the first two maps only.
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
        d = self.layers[0][0].shape[1]
        expected = [(d + 3, d), (d, d), (d, d)]
        for (w, b), (c_in, c_out) in zip(self.layers, expected):
            if w.shape != (c_in, c_out) or b.shape != (c_out,):
                raise ValueError(f"layer shapes must follow ({d}+3)->{d}->{d}->{d}")


def _shared_map(block: AggregatorBlock, x: Var) -> Var:
    h = x
    for i, (w, b) in enumerate(block.layers):
        h = ad.add(ad.matmul(h, w), b)
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


def box_from_raw(raw: Var) -> Var:
    """(..., 6) raw head output -> (..., 6) min/max-corner boxes."""
    center = raw[..., :3]
    size = ad.softplus(raw[..., 3:])
    half = ad.mul(size, 0.5)
    return ad.concat([ad.sub(center, half), ad.add(center, half)], axis=-1)


def heads(candidate_features: Var, p: dict):
    """Class logits, boxes, flat kernels, and quality logits per candidate.

    Reads the affine heads' weights and biases from the ``head.*`` entries
    of a parameter dict. Boxes are min/max corners (:func:`box_from_raw`);
    quality is a raw logit, squashed later into a mask-confidence score.
    Returns tape variables (L, B, W, q) with shapes (K, C), (K, 6), (K, H'),
    (K,).
    """
    def affine(name: str) -> Var:
        return ad.add(ad.matmul(candidate_features, p[f"head.{name}_w"]), p[f"head.{name}_b"])

    cls = affine("cls")
    box = box_from_raw(affine("box"))
    kernel = affine("ker")
    quality = ad.reshape(affine("q"), (candidate_features.shape[0],))
    return cls, box, kernel, quality
