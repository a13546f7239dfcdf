"""Geometric primitives shared across the package.

Scenes, axis-aligned bounding boxes, soft/binary masks over point clouds,
the exact nearest-neighbour search behind the encoder and the ball
queries, and the voxel mapping used for late feature expansion. All
functions here are pure and operate on plain numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# Soft masks compare strictly against this threshold when binarized.
BINARIZE_THRESHOLD = 0.5
# The same rule on mask logits: ``binarize(expit(x))`` is exactly
# ``x > BINARIZE_LOGIT``. This is 3 * 2**-54: below it scipy's expit(x) still
# rounds to 0.5, and every x <= 0 gives at most 0.5. Found by bisection;
# tests/test_expit.py pins it.
BINARIZE_LOGIT = 1.6653345369377348e-16


def binarize(values: np.ndarray) -> np.ndarray:
    """Threshold a soft mask (values in [0, 1]) into a boolean mask."""
    return np.asarray(values) > BINARIZE_THRESHOLD


@dataclass(frozen=True)
class Scene:
    """A point cloud with ground-truth semantic and instance labels.

    positions are metric xyz coordinates, colors are RGB in [0, 1].
    ``instance_gt`` uses -1 for points that belong to no instance; present
    instance ids form the contiguous range [0, num_instances) and every
    instance lies on one semantic class other than the background class 0.
    ``superpoints`` is an optional partition of the points into region ids.
    """

    positions: np.ndarray
    colors: np.ndarray
    semantic_gt: np.ndarray
    instance_gt: np.ndarray
    num_classes: int
    superpoints: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "positions", np.ascontiguousarray(self.positions, dtype=np.float64))
        object.__setattr__(self, "colors", np.ascontiguousarray(self.colors, dtype=np.float64))
        object.__setattr__(self, "semantic_gt", np.ascontiguousarray(self.semantic_gt, dtype=np.int32))
        object.__setattr__(self, "instance_gt", np.ascontiguousarray(self.instance_gt, dtype=np.int32))
        if self.superpoints is not None:
            object.__setattr__(self, "superpoints", np.ascontiguousarray(self.superpoints, dtype=np.int32))
        n = self.positions.shape[0]
        if n < 1:
            raise ValueError("scene must contain at least one point")
        if self.positions.shape != (n, 3):
            raise ValueError(f"positions must be (N, 3), got {self.positions.shape}")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        if self.colors.shape != (n, 3):
            raise ValueError(f"colors must be (N, 3), got {self.colors.shape}")
        if not np.all((self.colors >= 0.0) & (self.colors <= 1.0)):
            raise ValueError("colors must be finite and lie in [0, 1]")
        if self.semantic_gt.shape != (n,) or self.instance_gt.shape != (n,):
            raise ValueError("label arrays must have shape (N,)")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if self.semantic_gt.min() < 0 or self.semantic_gt.max() >= self.num_classes:
            raise ValueError("semantic labels out of range")
        if self.superpoints is not None and self.superpoints.shape != (n,):
            raise ValueError("superpoints must have shape (N,)")
        ids = np.unique(self.instance_gt)
        if ids[0] < -1:
            raise ValueError("instance ids must be -1 (no instance) or nonnegative")
        ids = ids[ids >= 0]
        j = int(ids.max()) + 1 if ids.size else 0
        if ids.size != j:
            raise ValueError("instance ids must be contiguous from 0")
        for inst in ids:
            classes = np.unique(self.semantic_gt[self.instance_gt == inst])
            if classes.size != 1:
                raise ValueError(f"instance {inst} spans multiple semantic classes")
            if classes[0] == 0:
                raise ValueError(f"instance {inst} lies on background class 0")
        object.__setattr__(self, "_num_instances", j)

    @property
    def num_points(self) -> int:
        return self.positions.shape[0]

    @property
    def num_instances(self) -> int:
        return self._num_instances

    def instance_mask(self, instance_id: int) -> np.ndarray:
        return self.instance_gt == instance_id

    def instance_class(self, instance_id: int) -> int:
        mask = self.instance_mask(instance_id)
        if not mask.any():
            raise ValueError(f"instance {instance_id} owns no points")
        return int(self.semantic_gt[mask][0])

    def instance_box(self, instance_id: int) -> "Aabb":
        return aabb_from_mask(self, self.instance_mask(instance_id))


@dataclass(frozen=True, eq=False)
class Aabb:
    """Axis-aligned bounding box given by min and max corners (meters).

    Degenerate boxes with zero extent along any axis are allowed. Boxes
    compare by identity; compare their :meth:`to_vector` values instead.
    """

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min_corner", np.asarray(self.min_corner, dtype=np.float64).reshape(3))
        object.__setattr__(self, "max_corner", np.asarray(self.max_corner, dtype=np.float64).reshape(3))
        if not (np.all(np.isfinite(self.min_corner)) and np.all(np.isfinite(self.max_corner))):
            raise ValueError("box corners must be finite")
        if np.any(self.min_corner > self.max_corner):
            raise ValueError("min corner must not exceed max corner")

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "Aabb":
        v = np.asarray(v, dtype=np.float64).reshape(6)
        return cls(v[:3], v[3:])

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.min_corner, self.max_corner])


def aabb_from_points(positions: np.ndarray) -> Aabb:
    """Tightest axis-aligned box enclosing the given points."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3 or positions.shape[0] == 0:
        raise ValueError("positions must be a nonempty (M, 3) array")
    return Aabb(positions.min(axis=0), positions.max(axis=0))


def aabb_from_mask(scene: Scene, mask: np.ndarray) -> Aabb:
    """Box enclosing the scene points selected by a binary mask."""
    mask = np.asarray(mask).astype(bool)
    if mask.shape != (scene.num_points,):
        raise ValueError("mask length must match the scene")
    if not mask.any():
        raise ValueError("empty instance")
    return aabb_from_points(scene.positions[mask])


def aabb_iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (P, G) volume intersection-over-union of (P, 6) and (G, 6) boxes.

    Rows are :meth:`Aabb.to_vector` layouts, min corner then max corner.
    When a union has zero volume (both boxes degenerate), the IoU is 1 for
    identical boxes and 0 otherwise.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 1, 6)
    b = np.asarray(b, dtype=np.float64).reshape(1, -1, 6)
    inter_extent = np.minimum(a[..., 3:], b[..., 3:]) - np.maximum(a[..., :3], b[..., :3])
    inter = np.prod(np.maximum(inter_extent, 0.0), axis=-1)
    union = np.prod(a[..., 3:] - a[..., :3], axis=-1) + np.prod(b[..., 3:] - b[..., :3], axis=-1) - inter
    identical = np.all(a == b, axis=-1).astype(np.float64)
    return np.divide(inter, union, out=identical, where=union > 0.0)


# Relative slack between a k-d tree's distances and squared_distances:
# far above float64 rounding, far below any gap that matters.
ROUNDING_MARGIN = 1e-9


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances over the last axis of ``a - b``.

    The shapes broadcast. One einsum fixes the arithmetic, so a pair of
    points gets the same bits whatever the shapes of the call. The exact
    neighbour searches take candidates from a k-d tree and decide with
    these values, as a scan over every point would.
    """
    diff = a - b
    return np.einsum("...i,...i->...", diff, diff)


def coordinate_major_d2(delta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared norms of coordinate-major differences, with the bytes of
    :func:`squared_distances`.

    ``delta`` holds the x, y and z differences along its first axis and is
    squared in place. The sum is (dx² + dz²) + dy², the order in which
    numpy's ``einsum`` adds three contiguous terms (two SIMD lanes take x
    and y, then z joins lane 0), so each value keeps the einsum's bytes
    while every pass runs over contiguous rows.
    """
    dx, dy, dz = np.square(delta, out=delta)
    out = np.add(dx, dz, out=out)
    out += dy
    return out


def nearest(
    points: np.ndarray, queries: np.ndarray, k: int, radius: float | None = None, workers: int = 1
) -> np.ndarray:
    """The k nearest points to each query, ordered by (squared distance, index).

    Returns a (Q, k) index array into ``points``; ties go to the lower
    index. With a radius only points whose squared distance is at most
    radius² count. A slot with no such point holds ``len(points)``.

    A k-d tree proposes k + 1 candidates per query (within radius times
    1 + ``ROUNDING_MARGIN`` for a ball), and their squared distances are
    recomputed with the bytes of :func:`squared_distances`; candidates
    beyond the radius are dropped. Only rows whose candidates the tree did
    not already give in (squared distance, index) order are sorted. A row
    that came back with a free slot holds every point in the ball. A full
    row is exact when its k-th distance is clearly below the spare's, the
    (k + 1)-th: every other point is at least as far as the spare, to
    within rounding. Otherwise, when the two lie within the margin of each
    other or the radius dropped the spare, the row is redone over every
    point within its k-th candidate distance (the radius when that slot
    was dropped) plus the margin, which holds its k true nearest points.
    The tree is built unbalanced and with loose nodes, which is quicker;
    its shape changes no answer, since the exact distances decide. Tree
    queries split over ``workers`` threads; no row depends on the split.
    """
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    n = points.shape[0]
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    bound = np.inf if radius is None else radius * (1.0 + ROUNDING_MARGIN)
    _, idx = tree.query(queries, k=k + 1, distance_upper_bound=bound, workers=workers)
    full = idx[:, k] < n  # the tree fills slots nearest first
    # Column n pads the coordinates for the tree's free slots.
    coords = np.zeros((3, n + 1))
    coords[:, :n] = points.T
    delta = np.take(coords, idx, axis=1)
    delta -= queries.T[:, :, None]
    d2 = coordinate_major_d2(delta)
    drop = idx == n
    if radius is not None:
        drop |= d2 > radius * radius
    np.copyto(d2, np.inf, where=drop)
    np.copyto(idx, n, where=drop)
    ahead, after = d2[:, :-1], d2[:, 1:]
    swapped = (ahead > after) | ((ahead == after) & (idx[:, :-1] > idx[:, 1:]))
    broken = np.flatnonzero(swapped.any(axis=1))
    if broken.size:
        order = np.lexsort((idx[broken], d2[broken]), axis=-1)
        idx[broken] = np.take_along_axis(idx[broken], order, axis=1)
        d2[broken] = np.take_along_axis(d2[broken], order, axis=1)
    kth, spare = d2[:, k - 1], d2[:, k]
    redo = full & ((kth >= spare * (1.0 - ROUNDING_MARGIN)) | (spare == np.inf))
    for i in np.flatnonzero(redo):
        reach = kth[i] if kth[i] < np.inf else radius * radius
        ball = tree.query_ball_point(queries[i], np.sqrt(reach) * (1.0 + ROUNDING_MARGIN))
        near = np.array(ball, dtype=np.intp)
        d2_i = squared_distances(queries[i], points[near])
        if radius is not None:
            inside = d2_i <= radius * radius
            near, d2_i = near[inside], d2_i[inside]
        best = near[np.lexsort((near, d2_i))[:k]]
        idx[i, : best.size] = best
        idx[i, best.size :] = n
    return idx[:, :k]


def mask_iou(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Intersection-over-union of binary masks; 1 where both are empty.

    Two (N,) masks give a float; stacks of shape (P, N) and (G, N) give the
    (P, G) matrix. The intersections come from one matmul of 0/1 values:
    float32 while N < 2**24, where every partial count is an integer that
    float32 holds exactly, and float64 (exact for N < 2**53) from there on.
    Counts and quotients are float64, so every entry equals the pairwise
    value. Each stack is converted once, and only once when ``b`` is ``a``.
    """
    same = b is a
    a, b = np.asarray(a, dtype=bool), np.asarray(b, dtype=bool)
    if a.ndim != b.ndim or a.ndim not in (1, 2) or a.shape[-1] != b.shape[-1]:
        raise ValueError("masks must be two 1-D masks or two 2-D stacks of equal length")
    a2, b2 = np.atleast_2d(a), np.atleast_2d(b)
    counts = np.float32 if a2.shape[1] < 1 << 24 else np.float64
    a01 = a2.astype(counts)
    b01 = a01 if same else b2.astype(counts)
    inter = (a01 @ b01.T).astype(np.float64)
    union = np.count_nonzero(a2, axis=1)[:, None] + np.count_nonzero(b2, axis=1)[None, :] - inter
    iou = np.divide(inter, union, out=np.ones_like(inter), where=union > 0)
    return float(iou[0, 0]) if a.ndim == 1 else iou


@dataclass(frozen=True)
class VoxelMap:
    """Assignment of every point to exactly one voxel of a regular grid."""

    voxel_size: float
    point_to_voxel: np.ndarray
    num_voxels: int

    def __post_init__(self):
        object.__setattr__(self, "point_to_voxel", np.asarray(self.point_to_voxel, dtype=np.int64))
        if self.voxel_size <= 0:
            raise ValueError("voxel size must be positive")
        if self.point_to_voxel.ndim != 1:
            raise ValueError("point_to_voxel must be 1-D")
        if self.num_voxels > self.point_to_voxel.shape[0]:
            raise ValueError("more voxels than points")
        if self.point_to_voxel.size and (
            self.point_to_voxel.min() < 0 or self.point_to_voxel.max() >= self.num_voxels
        ):
            raise ValueError("voxel indices out of range")


def voxelize(scene: Scene, voxel_size: float = 0.02) -> VoxelMap:
    """Map points to voxels of the given edge length.

    Cell index per axis is floor(position / voxel_size); occupied cells are
    numbered in lexicographic (x, y, z) order so the mapping is deterministic
    across runs and point orderings of the same coordinates. A cell index
    that is not finite or lies outside the int64 range is refused.
    """
    if voxel_size <= 0:
        raise ValueError("voxel size must be positive")
    if not np.all(np.isfinite(scene.positions)):
        raise ValueError("positions must be finite")
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        cells = np.floor(scene.positions / voxel_size)
    if not np.all((cells >= -(2.0**63)) & (cells < 2.0**63)):  # False for inf and NaN too
        raise ValueError(f"cell indices of voxel size {voxel_size:g} leave the int64 range")
    cells = cells.astype(np.int64)
    _, inverse = np.unique(cells, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return VoxelMap(voxel_size, inverse, int(inverse.max()) + 1)


@dataclass(frozen=True, eq=False)
class Prediction:
    """One predicted instance: binary mask, class, box, and confidence.
    Predictions compare by identity, as boxes do."""

    class_id: int
    score: float
    box: Aabb
    mask: np.ndarray
    soft_mask: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "mask", np.asarray(self.mask).astype(bool))
        if self.soft_mask is not None:
            object.__setattr__(self, "soft_mask", np.asarray(self.soft_mask, dtype=np.float64))
