"""Farthest-point sampling and its instance-aware variants.

The plain sampler greedily maximizes the minimum Euclidean distance to the
points already selected. Instance-aware sampling draws only from the points
its caller marks eligible, the probable foreground: at training time
through ``fps``'s ``candidate_filter``, at inference time through
``ia_fps_infer``, which also drops the points claimed by the masks decoded
for earlier candidates, refreshed chunk by chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Scene, coordinate_major_d2

# A point is foreground while 1 - P(background) > TAU, and stays unclaimed
# while 1 - m > TAU for every decoded soft mask value m on it.
TAU = 0.5


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


class _MaxMinSampler:
    """Greedy max-min selection that can continue across eligibility changes.

    Ties on the minimum distance resolve to the lowest point index, and the
    first pick (when not forced) is the eligible point closest to the
    centroid of the eligible set.
    """

    def __init__(self, positions: np.ndarray):
        self.positions = np.asarray(positions, dtype=np.float64)
        n = self.positions.shape[0]
        # Coordinate-major copy and buffers: every pass of a pick runs over
        # contiguous n-long rows.
        self.coords = np.ascontiguousarray(self.positions.T)
        self.delta = np.empty((3, n))
        self.d2 = np.empty(n)
        self.min_d2 = np.full(n, np.inf)
        self.taken = np.zeros(n, dtype=bool)
        self.order: list[int] = []

    def _take(self, index: int) -> np.ndarray:
        """Select ``index``; returns every point's squared distance to it
        (the bytes of ``core.coordinate_major_d2``), in a buffer that the
        next call overwrites."""
        self.taken[index] = True
        self.order.append(index)
        delta = np.subtract(self.coords, self.coords[:, index : index + 1], out=self.delta)
        coordinate_major_d2(delta, out=self.d2)
        np.minimum(self.min_d2, self.d2, out=self.min_d2)
        return self.d2

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
    eligible: np.ndarray,
    positions: np.ndarray,
    budget: SampleBudget,
    mask_provider: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Chunked sampling with mask feedback between chunks.

    Only the ``eligible`` points are sampled, mapped by index as ``fps``
    maps its ``candidate_filter``. Each chunk continues the max-min chain
    over the eligible points not yet claimed: after a chunk completes,
    ``mask_provider`` maps its picked indices into ``positions`` to
    per-candidate soft masks over all points, and a point stays unclaimed
    while every mask value m on it satisfies 1 - m > ``TAU``. Sampling
    stops early at the first chunk that finds nothing left to pick.
    """
    positions = np.asarray(positions, dtype=np.float64)
    eligible = np.asarray(eligible, dtype=bool)
    if eligible.shape != (positions.shape[0],):
        raise ValueError("eligibility mask length mismatch")
    idx = np.flatnonzero(eligible)
    sampler = _MaxMinSampler(positions[idx])
    unclaimed = np.ones(idx.size, dtype=bool)
    chunks = budget.chunk_sizes
    for t, size in enumerate(chunks):
        picks = idx[sampler.extend(unclaimed, size)]
        if picks.size == 0:
            break
        if t + 1 < len(chunks):
            masks = np.asarray(mask_provider(picks), dtype=np.float64)
            if masks.shape != (picks.size, positions.shape[0]):
                raise ValueError("mask provider returned wrong shape")
            unclaimed &= ((1.0 - masks[:, idx]) > TAU).all(axis=0)
    return idx[np.asarray(sampler.order, dtype=np.int64)]


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


def oracle_foreground(scene: Scene) -> np.ndarray:
    """Ground-truth foreground: every point not on background class 0."""
    return scene.semantic_gt != 0


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
    """Scale a chunk pattern to a new total, preserving proportions.

    A total below the pattern's chunk count gets that many chunks of 1.
    """
    total = int(total)
    if total < 1:
        raise ValueError("total must be positive")
    if total < len(pattern):
        return SampleBudget((1,) * total)
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
