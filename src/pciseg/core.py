"""Geometric primitives shared across the package.

Scenes, axis-aligned bounding boxes, soft/binary masks over point clouds,
and the voxel mapping used for late feature expansion. All functions here
are pure and operate on plain numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Soft masks compare strictly against this threshold when binarized.
BINARIZE_THRESHOLD = 0.5


def binarize(values: np.ndarray, threshold: float = BINARIZE_THRESHOLD) -> np.ndarray:
    """Threshold a soft mask (values in [0, 1]) into a boolean mask."""
    return np.asarray(values) > threshold


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


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned bounding box given by min and max corners (meters).

    Degenerate boxes with zero extent along any axis are allowed.
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

    @property
    def extent(self) -> np.ndarray:
        return self.max_corner - self.min_corner

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.min_corner + self.max_corner)

    def __eq__(self, other):
        if not isinstance(other, Aabb):
            return NotImplemented
        return np.array_equal(self.min_corner, other.min_corner) and np.array_equal(
            self.max_corner, other.max_corner
        )


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


def mask_iou(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Intersection-over-union of binary masks; 1 where both are empty.

    Two (N,) masks give a float; stacks of shape (P, N) and (G, N) give the
    (P, G) matrix. The counts come from a float64 matmul of 0/1 values,
    which is exact for N < 2**53, so every entry equals the pairwise value.
    """
    a = np.asarray(a).astype(bool).astype(np.float64)
    b = np.asarray(b).astype(bool).astype(np.float64)
    if a.ndim != b.ndim or a.ndim not in (1, 2) or a.shape[-1] != b.shape[-1]:
        raise ValueError("masks must be two 1-D masks or two 2-D stacks of equal length")
    a2, b2 = np.atleast_2d(a), np.atleast_2d(b)
    inter = a2 @ b2.T
    union = a2.sum(axis=1)[:, None] + b2.sum(axis=1)[None, :] - inter
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


@dataclass(frozen=True)
class Prediction:
    """One predicted instance: binary mask, class, box, and confidence."""

    class_id: int
    score: float
    box: Aabb
    mask: np.ndarray
    soft_mask: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "mask", np.asarray(self.mask).astype(bool))
        if self.soft_mask is not None:
            object.__setattr__(self, "soft_mask", np.asarray(self.soft_mask, dtype=np.float64))

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))
