"""Synthetic indoor scenes plus binary scene/prediction file formats.

Scenes are a floor-and-walls background (class 0) populated with simple
object instances (classes 1..C-1) whose points are sampled on analytic
surfaces and jittered with Gaussian noise. Two stress scenarios are
generated on demand: same-class instances packed almost in contact, and a
single instance split into disjoint blobs. Generation is deterministic
per seed, with each scene drawing from ``seed + scene_index``.
"""

from __future__ import annotations

import logging
import os
import stat
import struct
from dataclasses import dataclass, replace

import numpy as np

from .core import Aabb, Prediction, Scene, voxelize

logger = logging.getLogger(__name__)

SCENE_MAGIC = b"PCSCENE\x00"
SCENE_VERSION = 1
PRED_MAGIC = b"PCPREDS\x00"
PRED_VERSION = 1

SCENARIOS = ("packed", "loose", "uniform")
NOISE_SIGMA = 0.01  # Gaussian position jitter; packed instances sit up to 2 sigma apart
SUPERPOINT_VOXEL = 0.1  # superpoints are the occupied cells of this voxel grid
# Room sides in metres: the floor must fit two 0.3 m wall margins around the
# widest object, a 0.8 m slab; the cap keeps the background area and the
# voxel ids of every coordinate finite.
MIN_ROOM_SIDE, MAX_ROOM_SIDE = 1.4, 1000.0
MIN_POINTS, MAX_POINTS = 64, 4096  # points per generated scene

# Object classes: 1 crate (cube-ish box), 2 ball, 3 drum (cylinder),
# 4 slab (wide flat box). Background is class 0.
_CLASS_COLORS = {
    0: (0.55, 0.55, 0.55),
    1: (0.85, 0.25, 0.20),
    2: (0.20, 0.75, 0.30),
    3: (0.20, 0.35, 0.85),
    4: (0.90, 0.80, 0.25),
}


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the synthetic scene generator."""

    num_scenes: int = 1
    points_per_scene: int = 1024
    num_classes: int = 5
    min_instances: int = 2
    max_instances: int = 8
    scenario_weights: tuple[float, float, float] = (0.3, 0.3, 0.4)
    seed: int = 0
    room_size: tuple[float, float] = (4.0, 4.0)
    background_fraction: float = 0.45

    def __post_init__(self):
        if self.num_scenes < 1 or self.points_per_scene < MIN_POINTS:
            raise ValueError(f"need at least one scene of {MIN_POINTS}+ points")
        if self.points_per_scene > MAX_POINTS:
            raise ValueError(f"points per scene capped at {MAX_POINTS}")
        if self.num_classes < 2 or self.num_classes > 5:
            raise ValueError("num_classes must lie in [2, 5]")
        if not (1 <= self.min_instances <= self.max_instances):
            raise ValueError("bad instance count range")
        w = np.asarray(self.scenario_weights, dtype=np.float64)
        if w.shape != (3,) or w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("scenario weights must be three nonnegative values summing to 1")
        if w[0] > 0 and self.max_instances < 2:
            raise ValueError("a packed scene places at least 2 instances: a packed weight needs max_instances >= 2")
        room = np.asarray(self.room_size, dtype=np.float64)
        if room.shape != (2,) or not np.all((room >= MIN_ROOM_SIDE) & (room <= MAX_ROOM_SIDE)):
            raise ValueError(f"room_size must be two sides in [{MIN_ROOM_SIDE}, {MAX_ROOM_SIDE}] m")
        if not 0.0 <= self.background_fraction < 1.0:
            raise ValueError("background_fraction must lie in [0, 1)")


class _PlacementError(RuntimeError):
    pass


@dataclass
class _Blob:
    kind: str
    center: np.ndarray
    dims: np.ndarray  # box: full sizes; sphere: (r,r,r); cylinder: (r, r, h)

    def half_extent(self) -> np.ndarray:
        if self.kind == "box":
            return self.dims / 2.0
        if self.kind == "sphere":
            return np.full(3, self.dims[0])
        return np.array([self.dims[0], self.dims[0], self.dims[2] / 2.0])

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        h = self.half_extent()
        return self.center - h, self.center + h

    def area(self) -> float:
        if self.kind == "box":
            a, b, c = self.dims
            return 2.0 * (a * b + b * c + a * c)
        if self.kind == "sphere":
            return 4.0 * np.pi * self.dims[0] ** 2
        r, _, h = self.dims
        return 2.0 * np.pi * r * h + 2.0 * np.pi * r * r


@dataclass
class _Object:
    class_id: int
    blobs: list


def _class_kind(class_id: int) -> str:
    return {1: "box", 2: "sphere", 3: "cylinder", 4: "box"}[class_id]


def _random_blob(rng: np.random.Generator, class_id: int) -> _Blob:
    kind = _class_kind(class_id)
    if class_id == 1:
        dims = rng.uniform(0.30, 0.55, size=3)
    elif class_id == 2:
        r = rng.uniform(0.12, 0.22)
        dims = np.array([r, r, r])
    elif class_id == 3:
        r = rng.uniform(0.10, 0.18)
        dims = np.array([r, r, rng.uniform(0.30, 0.50)])
    else:
        dims = np.array([rng.uniform(0.50, 0.80), rng.uniform(0.50, 0.80), rng.uniform(0.08, 0.15)])
    return _Blob(kind, np.zeros(3), dims)


def _sample_surface(rng: np.random.Generator, blob: _Blob, n: int) -> np.ndarray:
    if blob.kind == "box":
        sx, sy, sz = blob.dims
        areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])
        faces = rng.choice(6, size=n, p=areas / areas.sum())
        u = rng.uniform(-0.5, 0.5, size=(n, 2))
        pts = np.zeros((n, 3))
        for face in range(6):
            sel = faces == face
            axis = face // 2
            sign = 1.0 if face % 2 else -1.0
            others = [a for a in range(3) if a != axis]
            pts[sel, axis] = sign * blob.dims[axis] / 2.0
            pts[sel, others[0]] = u[sel, 0] * blob.dims[others[0]]
            pts[sel, others[1]] = u[sel, 1] * blob.dims[others[1]]
    elif blob.kind == "sphere":
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        pts = direction * blob.dims[0]
    else:
        r, _, h = blob.dims
        lateral = 2.0 * np.pi * r * h
        caps = 2.0 * np.pi * r * r
        on_side = rng.uniform(size=n) < lateral / (lateral + caps)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        pts = np.zeros((n, 3))
        side = np.flatnonzero(on_side)
        pts[side, 0] = r * np.cos(theta[side])
        pts[side, 1] = r * np.sin(theta[side])
        pts[side, 2] = rng.uniform(-h / 2.0, h / 2.0, size=side.size)
        cap = np.flatnonzero(~on_side)
        rad = r * np.sqrt(rng.uniform(size=cap.size))
        pts[cap, 0] = rad * np.cos(theta[cap])
        pts[cap, 1] = rad * np.sin(theta[cap])
        pts[cap, 2] = np.where(rng.uniform(size=cap.size) < 0.5, -h / 2.0, h / 2.0)
    return pts + blob.center


def _overlaps(lo_a, hi_a, lo_b, hi_b, margin: float = 0.05) -> bool:
    return bool(np.all(lo_a - margin <= hi_b) and np.all(lo_b - margin <= hi_a))


def _place(rng, blob: _Blob, room: tuple[float, float], occupied, tries: int = 60) -> None:
    """Drop a blob on the floor at a random free spot (mutates its center)."""
    h = blob.half_extent()
    for _ in range(tries):
        cx = rng.uniform(0.3 + h[0], room[0] - 0.3 - h[0])
        cy = rng.uniform(0.3 + h[1], room[1] - 0.3 - h[1])
        blob.center = np.array([cx, cy, h[2]])
        lo, hi = blob.bounds()
        if all(not _overlaps(lo, hi, o_lo, o_hi) for o_lo, o_hi in occupied):
            occupied.append((lo, hi))
            return
    raise _PlacementError("no free spot for instance")


def _build_objects(
    rng: np.random.Generator, config: GenConfig, scenario: str, max_count: int
) -> list[_Object]:
    count = int(rng.integers(config.min_instances, config.max_instances + 1))
    count = min(count, max(config.min_instances, max_count))
    room = config.room_size
    occupied: list = []
    objects: list[_Object] = []

    def add_uniform(class_id: int) -> None:
        blob = _random_blob(rng, class_id)
        _place(rng, blob, room, occupied)
        objects.append(_Object(class_id, [blob]))

    classes = list(range(1, config.num_classes))
    if scenario == "packed":
        # 2 or 3 same-class instances nearly in contact along a random
        # horizontal axis, so no fixed separating plane works scene-wide.
        class_id = int(rng.choice(classes))
        group = 3 if (count >= 3 and rng.uniform() < 0.5) else 2
        axis = int(rng.integers(0, 2))
        members = [_random_blob(rng, class_id) for _ in range(group)]
        _place(rng, members[0], room, occupied)
        for prev, nxt in zip(members, members[1:]):
            gap = rng.uniform(0.0, 2.0 * NOISE_SIGMA)
            offset = prev.half_extent()[axis] + gap + nxt.half_extent()[axis]
            nxt.center = prev.center.copy()
            nxt.center[axis] += offset
            nxt.center[2] = nxt.half_extent()[2]
            lo, hi = nxt.bounds()
            if lo[axis] < 0.1 or hi[axis] > room[axis] - 0.1:
                raise _PlacementError("packed group leaves the room")
            occupied.append((lo, hi))
        for blob in members:
            objects.append(_Object(class_id, [blob]))
        for _ in range(count - group):
            add_uniform(int(rng.choice(classes)))
    elif scenario == "loose":
        class_id = int(rng.choice(classes))
        blobs = []
        n_blobs = int(rng.integers(2, 4))
        axis = int(rng.integers(0, 2))
        anchor = _random_blob(rng, class_id)
        anchor.dims = anchor.dims * 0.7
        _place(rng, anchor, room, occupied)
        blobs.append(anchor)
        cursor = anchor.center.copy()
        for _ in range(n_blobs - 1):
            nxt = _random_blob(rng, class_id)
            nxt.dims = nxt.dims * 0.7
            step = blobs[-1].half_extent()[axis] + rng.uniform(0.25, 0.45) + nxt.half_extent()[axis]
            cursor = cursor.copy()
            cursor[axis] += step
            nxt.center = cursor.copy()
            nxt.center[2] = nxt.half_extent()[2]
            lo, hi = nxt.bounds()
            if hi[0] > room[0] - 0.1 or hi[1] > room[1] - 0.1:
                raise _PlacementError("loose instance leaves the room")
            if any(_overlaps(lo, hi, o_lo, o_hi) for o_lo, o_hi in occupied):
                raise _PlacementError("loose blob collides")
            occupied.append((lo, hi))
            blobs.append(nxt)
        objects.append(_Object(class_id, blobs))
        for _ in range(count - 1):
            add_uniform(int(rng.choice(classes)))
    else:
        for _ in range(count):
            add_uniform(int(rng.choice(classes)))
    return objects


def _background_points(rng, config: GenConfig, n: int) -> np.ndarray:
    lx, ly = config.room_size
    wall_h = 1.2
    areas = np.array([lx * ly, lx * wall_h, lx * wall_h, ly * wall_h, ly * wall_h])
    which = rng.choice(5, size=n, p=areas / areas.sum())
    u = rng.uniform(size=(n, 2))
    pts = np.zeros((n, 3))
    sel = which == 0
    pts[sel, 0] = u[sel, 0] * lx
    pts[sel, 1] = u[sel, 1] * ly
    for idx, (axis, fixed) in enumerate([(1, 0.0), (1, ly), (0, 0.0), (0, lx)], start=1):
        sel = which == idx
        run_axis = 0 if axis == 1 else 1
        run_len = lx if run_axis == 0 else ly
        pts[sel, run_axis] = u[sel, 0] * run_len
        pts[sel, axis] = fixed
        pts[sel, 2] = u[sel, 1] * wall_h
    return pts


def _assemble_scene(rng: np.random.Generator, config: GenConfig, scenario: str) -> Scene:
    n_total = config.points_per_scene
    n_background = max(32, int(round(n_total * config.background_fraction)))
    n_instances = n_total - n_background
    objects = _build_objects(rng, config, scenario, n_instances // 60)

    areas = np.array([sum(b.area() for b in obj.blobs) for obj in objects])
    floor = 40 if n_instances >= 120 else 12
    alloc = np.maximum(np.round(n_instances * areas / areas.sum()).astype(int), floor)
    alloc[np.argmax(alloc)] += n_instances - alloc.sum()
    if alloc.min() < max(8, floor // 2):
        raise _PlacementError("too few points for an instance")

    positions, colors, semantic, instance = [], [], [], []
    for inst_id, (obj, n_pts) in enumerate(zip(objects, alloc)):
        blob_areas = np.array([b.area() for b in obj.blobs])
        blob_alloc = np.maximum(np.round(n_pts * blob_areas / blob_areas.sum()).astype(int), 6)
        blob_alloc[0] += n_pts - blob_alloc.sum()
        if blob_alloc.min() < 4:
            raise _PlacementError("instance too small for its blobs")
        base = np.array(_CLASS_COLORS[obj.class_id]) + rng.uniform(-0.06, 0.06, size=3)
        for blob, n_blob in zip(obj.blobs, blob_alloc):
            pts = _sample_surface(rng, blob, int(n_blob))
            positions.append(pts)
            colors.append(np.tile(base, (int(n_blob), 1)))
            semantic.append(np.full(int(n_blob), obj.class_id, dtype=np.int32))
            instance.append(np.full(int(n_blob), inst_id, dtype=np.int32))

    bg = _background_points(rng, config, n_background)
    positions.append(bg)
    colors.append(np.tile(np.array(_CLASS_COLORS[0]), (n_background, 1)))
    semantic.append(np.zeros(n_background, dtype=np.int32))
    instance.append(np.full(n_background, -1, dtype=np.int32))

    positions = np.concatenate(positions)
    positions += rng.normal(scale=NOISE_SIGMA, size=positions.shape)
    colors = np.clip(np.concatenate(colors) + rng.normal(scale=0.02, size=(positions.shape[0], 3)), 0.0, 1.0)
    semantic = np.concatenate(semantic)
    instance = np.concatenate(instance)

    perm = rng.permutation(positions.shape[0])
    scene = Scene(
        positions=positions[perm],
        colors=colors[perm],
        semantic_gt=semantic[perm],
        instance_gt=instance[perm],
        num_classes=config.num_classes,
    )
    superpoints = voxelize(scene, SUPERPOINT_VOXEL).point_to_voxel.astype(np.int32)
    scene = replace(scene, superpoints=superpoints)

    _check_scenario(scene, objects, scenario)
    return scene


def _check_scenario(scene: Scene, objects: list, scenario: str) -> None:
    if scenario == "packed":
        a, b = objects[0], objects[1]
        if a.class_id != b.class_id:
            raise _PlacementError("packed pair must share a class")
        dist = float(np.linalg.norm(a.blobs[0].center - b.blobs[0].center))
        reach = float(np.linalg.norm(a.blobs[0].half_extent()) + np.linalg.norm(b.blobs[0].half_extent()))
        if dist >= reach:
            raise _PlacementError("packed pair is not close enough")
    if scenario == "loose" and len(objects[0].blobs) < 2:
        raise _PlacementError("loose instance must have multiple blobs")


def generate(config: GenConfig) -> list[Scene]:
    """Generate scenes deterministically; infeasible ones are skipped."""
    scenes = []
    for index in range(config.num_scenes):
        scene = None
        for attempt in range(4):
            rng = np.random.default_rng(config.seed + index + 100_003 * attempt)
            scenario = SCENARIOS[int(rng.choice(3, p=config.scenario_weights))]
            try:
                scene = _assemble_scene(rng, config, scenario)
                break
            except _PlacementError as exc:
                last_error = exc
        if scene is None:
            logger.warning("skipping scene %d: %s", index, last_error)
            continue
        scenes.append(scene)
    return scenes


def bytes_left(handle) -> int | None:
    """Bytes between the read position of an open file and its end.

    None when the handle is not a regular file (a pipe, say): its size is
    unknown until it is read.
    """
    info = os.fstat(handle.fileno())
    return info.st_size - handle.tell() if stat.S_ISREG(info.st_mode) else None


def read_exact(handle, size: int) -> bytes:
    """Read exactly ``size`` bytes; a size a regular file cannot hold is never allocated."""
    left = bytes_left(handle)
    data = handle.read(size) if left is None or size <= left else b""
    if len(data) != size:
        raise ValueError("truncated file")
    return data


def write_scene(path, scene: Scene) -> None:
    """Serialize a scene to the little-endian binary scene format."""
    with open(path, "wb") as f:
        has_spp = scene.superpoints is not None
        f.write(SCENE_MAGIC)
        f.write(struct.pack("<IIII", SCENE_VERSION, scene.num_points, scene.num_classes, int(has_spp)))
        f.write(scene.positions.astype("<f8").tobytes())
        f.write(scene.colors.astype("<f8").tobytes())
        f.write(scene.semantic_gt.astype("<i4").tobytes())
        f.write(scene.instance_gt.astype("<i4").tobytes())
        if has_spp:
            f.write(scene.superpoints.astype("<i4").tobytes())


def read_scene(path) -> Scene:
    """Parse a scene file; any malformed file raises ``ValueError``."""
    with open(path, "rb") as f:
        if read_exact(f, 8) != SCENE_MAGIC:
            raise ValueError("not a scene file (bad magic)")
        version, n, c, has_spp = struct.unpack("<IIII", read_exact(f, 16))
        if version != SCENE_VERSION:
            raise ValueError(f"unsupported scene file version {version}")
        if has_spp not in (0, 1):
            raise ValueError("superpoint flag must be 0 or 1")
        size, left = n * (56 + 4 * has_spp), bytes_left(f)
        if left is not None and size > left:
            raise ValueError(f"truncated file: {n} points need {size} bytes, {left} remain")
        positions = np.frombuffer(read_exact(f, n * 24), dtype="<f8").reshape(n, 3)
        colors = np.frombuffer(read_exact(f, n * 24), dtype="<f8").reshape(n, 3)
        semantic = np.frombuffer(read_exact(f, n * 4), dtype="<i4")
        instance = np.frombuffer(read_exact(f, n * 4), dtype="<i4")
        superpoints = None
        if has_spp:
            superpoints = np.frombuffer(read_exact(f, n * 4), dtype="<i4")
        if f.read(1):
            raise ValueError("trailing data in scene file")
    return Scene(positions, colors, semantic, instance, num_classes=c, superpoints=superpoints)


def write_predictions(path, predictions: list, num_points: int) -> None:
    """Serialize predictions as class, score, box, and sorted mask indices."""
    with open(path, "wb") as f:
        f.write(PRED_MAGIC)
        f.write(struct.pack("<III", PRED_VERSION, num_points, len(predictions)))
        for pred in predictions:
            indices = np.flatnonzero(pred.mask).astype("<i8")
            f.write(struct.pack("<i", int(pred.class_id)))
            f.write(struct.pack("<d", float(pred.score)))
            f.write(pred.box.to_vector().astype("<f8").tobytes())
            f.write(struct.pack("<I", indices.size))
            f.write(indices.tobytes())


def read_predictions(path) -> tuple[list, int]:
    """Parse a prediction file back into Prediction objects plus N."""
    with open(path, "rb") as f:
        if read_exact(f, 8) != PRED_MAGIC:
            raise ValueError("not a prediction file (bad magic)")
        version, num_points, count = struct.unpack("<III", read_exact(f, 12))
        if version != PRED_VERSION:
            raise ValueError(f"unsupported prediction file version {version}")
        predictions = []
        for _ in range(count):
            class_id = struct.unpack("<i", read_exact(f, 4))[0]
            score = struct.unpack("<d", read_exact(f, 8))[0]
            if class_id < 1:
                raise ValueError(f"prediction class id {class_id} is below 1")
            if not np.isfinite(score):
                raise ValueError("prediction score is not finite")
            box = np.frombuffer(read_exact(f, 48), dtype="<f8")
            size = struct.unpack("<I", read_exact(f, 4))[0]
            indices = np.frombuffer(read_exact(f, size * 8), dtype="<i8")
            if indices.size and (indices.min() < 0 or indices.max() >= num_points):
                raise ValueError("mask indices out of range")
            if np.any(np.diff(indices) <= 0):
                raise ValueError("mask indices must be sorted and unique")
            mask = np.zeros(num_points, dtype=bool)
            mask[indices] = True
            predictions.append(
                Prediction(class_id=class_id, score=score, box=Aabb.from_vector(box), mask=mask)
            )
        if f.read(1):
            raise ValueError("trailing data in prediction file")
    return predictions, num_points
