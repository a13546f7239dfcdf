"""Farthest-point sampling and its instance-aware variants.

The plain sampler greedily maximizes the minimum Euclidean distance to the
points already selected. Instance-aware sampling restricts the eligible
set: at training time to points unlikely to be background (``fps`` with
a foreground ``candidate_filter``), at inference time additionally to
points not yet claimed by the masks decoded for earlier candidates,
refreshed chunk by chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Scene


@dataclass(frozen=True)
class SampleBudget:
    """Chunked sampling budget; the total is the sum of the chunk sizes."""

    chunk_sizes: tuple[int, ...] = (192, 128, 64)

    def __post_init__(self):
        object.__setattr__(self, "chunk_sizes", tuple(int(c) for c in self.chunk_sizes))
        if len(self.chunk_sizes) < 1:
            raise ValueError("at least one chunk is required")
        if any(c < 1 for c in self.chunk_sizes):
            raise ValueError("chunk sizes must be positive")

    @property
    def total(self) -> int:
        return sum(self.chunk_sizes)


@dataclass
class OccupancyState:
    """Per-point background probability and the eligibility threshold.

    A point stays eligible while every probability m tested against it,
    background or a claimed soft mask, satisfies 1 - m > threshold, i.e. it
    is neither probable background nor claimed by a decoded instance mask.
    """

    background_prob: np.ndarray
    threshold: float = 0.5

    def __post_init__(self):
        self.background_prob = np.asarray(self.background_prob, dtype=np.float64)
        if self.background_prob.ndim != 1:
            raise ValueError("background_prob must be 1-D")
        if self.background_prob.min() < 0.0 or self.background_prob.max() > 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie in (0, 1)")

    def foreground(self) -> np.ndarray:
        """Points passing the background test alone."""
        return (1.0 - self.background_prob) > self.threshold

    def available(self, claimed: Sequence[np.ndarray]) -> np.ndarray:
        """Points passing the background test and every claimed-mask test."""
        return self.foreground() & self.unclaimed(claimed)

    def unclaimed(self, claimed: Sequence[np.ndarray]) -> np.ndarray:
        """Points passing the claimed-mask tests, ignoring background."""
        keep = np.ones_like(self.background_prob, dtype=bool)
        for m in claimed:
            keep &= (1.0 - m) > self.threshold
        return keep


class _MaxMinSampler:
    """Greedy max-min selection that can continue across eligibility changes.

    Ties on the minimum distance resolve to the lowest point index, and the
    first pick (when not forced) is the eligible point closest to the
    centroid of the eligible set.
    """

    def __init__(self, positions: np.ndarray):
        self.positions = np.asarray(positions, dtype=np.float64)
        n = self.positions.shape[0]
        self.min_d2 = np.full(n, np.inf)
        self.taken = np.zeros(n, dtype=bool)
        self.order: list[int] = []

    def _take(self, index: int) -> np.ndarray:
        """Select ``index``; returns every point's squared distance to it."""
        self.taken[index] = True
        self.order.append(index)
        delta = self.positions - self.positions[index]
        d2 = np.einsum("ij,ij->i", delta, delta)
        np.minimum(self.min_d2, d2, out=self.min_d2)
        return d2

    def seed(self, allowed: np.ndarray, index: int | None = None) -> None:
        if index is None:
            idx = np.flatnonzero(allowed)
            centroid = self.positions[idx].mean(axis=0)
            delta = self.positions[idx] - centroid
            d2 = np.einsum("ij,ij->i", delta, delta)
            index = int(idx[np.argmin(d2)])
        self._take(index)

    def extend(self, allowed: np.ndarray, count: int) -> list[int]:
        """Up to ``count`` picks among allowed points not yet taken."""
        eligible = allowed & ~self.taken
        if count < 1 or not eligible.any():
            return []
        picks: list[int] = []
        if not self.order:
            self.seed(eligible)
            picks.append(self.order[-1])
            eligible[self.order[-1]] = False
        # One score array per call: an eligible point holds its minimum
        # distance, lowered in place by each pick; any other holds -inf.
        scores = np.where(eligible, self.min_d2, -np.inf)
        while len(picks) < count:
            chosen = int(np.argmax(scores))
            if scores[chosen] == -np.inf:
                break
            d2 = self._take(chosen)
            scores[chosen] = -np.inf
            np.minimum(scores, d2, out=scores)
            picks.append(chosen)
        return picks


def fps(
    positions: np.ndarray,
    budget: int,
    seed_index: int | None = None,
    candidate_filter: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy farthest-point sampling restricted to an optional filter.

    Returns indices in selection order; the output for budget b is a prefix
    of the output for budget b+1 on identical inputs. Without an explicit
    seed the eligible point nearest the eligible centroid starts the chain.
    Only the filtered points are sampled and scored; they keep their
    ascending order, so ties still go to the lowest original index.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if candidate_filter is None:
        idx = np.arange(n)
    else:
        allowed = np.asarray(candidate_filter).astype(bool)
        if allowed.shape != (n,):
            raise ValueError("candidate filter length mismatch")
        idx = np.flatnonzero(allowed)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if budget > idx.size:
        raise ValueError("budget too large")
    local_seed = None
    if seed_index is not None:
        if not 0 <= seed_index < n:
            raise ValueError("seed index out of range")
        local_seed = int(np.searchsorted(idx, seed_index))
        if local_seed == idx.size or idx[local_seed] != seed_index:
            raise ValueError("seed index is filtered out")
    sampler = _MaxMinSampler(positions[idx])
    everywhere = np.ones(idx.size, dtype=bool)
    sampler.seed(everywhere, local_seed)
    sampler.extend(everywhere, budget - 1)
    return idx[np.asarray(sampler.order, dtype=np.int64)]


def ia_fps_infer(
    state: OccupancyState,
    positions: np.ndarray,
    budget: SampleBudget,
    mask_provider: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Chunked sampling with mask feedback between chunks.

    Each chunk continues the max-min chain over the points that are neither
    probable background nor claimed by any mask decoded for earlier chunks.
    After a chunk completes, ``mask_provider`` maps its picked indices to
    per-candidate soft masks over all points, which tighten the filter for
    the following chunks. If the filtered set empties mid-chunk, remaining
    slots are filled from still-unclaimed points with the background test
    dropped; when nothing remains at all, sampling stops early.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape[0] != state.background_prob.shape[0]:
        raise ValueError("positions and occupancy state disagree on N")
    claimed: list[np.ndarray] = []
    sampler = _MaxMinSampler(positions)
    order: list[int] = []
    chunks = budget.chunk_sizes
    for t, size in enumerate(chunks):
        picks = sampler.extend(state.available(claimed), size)
        if len(picks) < size:
            picks += sampler.extend(state.unclaimed(claimed), size - len(picks))
        if not picks:
            break
        order.extend(picks)
        if t + 1 < len(chunks):
            masks = np.asarray(mask_provider(np.asarray(picks, dtype=np.int64)), dtype=np.float64)
            if masks.shape != (len(picks), positions.shape[0]):
                raise ValueError("mask provider returned wrong shape")
            claimed.extend(masks)
    return np.asarray(order, dtype=np.int64)


def instance_recall(candidate_indices: np.ndarray, scene: Scene) -> float:
    """Fraction of ground-truth instances containing at least one candidate."""
    if scene.num_instances == 0:
        raise ValueError("scene has no instances")
    candidate_indices = np.asarray(candidate_indices, dtype=np.int64)
    if candidate_indices.size == 0:
        return 0.0
    hit = np.unique(scene.instance_gt[candidate_indices])
    hit = hit[hit >= 0]
    return hit.size / scene.num_instances


def oracle_background(scene: Scene, background_classes: Sequence[int] = (0,)) -> np.ndarray:
    """Ground-truth background probability: 1 on background classes, else 0."""
    return np.isin(scene.semantic_gt, np.asarray(background_classes)).astype(np.float64)


def oracle_mask_provider(scene: Scene) -> Callable[[np.ndarray], np.ndarray]:
    """Mask callback returning the ground-truth masks of sampled instances.

    Candidates on background (no instance) contribute all-zero masks.
    """

    def provider(indices: np.ndarray) -> np.ndarray:
        masks = np.zeros((len(indices), scene.num_points), dtype=np.float64)
        for row, idx in enumerate(np.asarray(indices, dtype=np.int64)):
            inst = int(scene.instance_gt[idx])
            if inst >= 0:
                masks[row] = scene.instance_mask(inst).astype(np.float64)
        return masks

    return provider


def split_budget(total: int, pattern: Sequence[int] = (192, 128, 64)) -> SampleBudget:
    """Scale a chunk pattern to a new total, preserving proportions."""
    total = int(total)
    if total < 1:
        raise ValueError("total must be positive")
    pattern = np.asarray(pattern, dtype=np.float64)
    raw = pattern / pattern.sum() * total
    sizes = np.floor(raw).astype(int)
    sizes[0] += total - sizes.sum()
    sizes = np.maximum(sizes, 1)
    excess = sizes.sum() - total
    i = len(sizes) - 1
    while excess > 0 and i >= 0:
        shrink = min(excess, sizes[i] - 1)
        sizes[i] -= shrink
        excess -= shrink
        i -= 1
    return SampleBudget(tuple(int(s) for s in sizes))
