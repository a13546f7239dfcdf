import struct
import warnings

import numpy as np
import pytest

from pciseg.core import Aabb, Prediction
from pciseg.scenegen import (
    GenConfig,
    generate,
    read_predictions,
    read_scene,
    write_predictions,
    write_scene,
)

from conftest import needs_fifo, read_from_fifo


def small_config(**kwargs):
    defaults = dict(num_scenes=3, points_per_scene=512, seed=5)
    defaults.update(kwargs)
    return GenConfig(**defaults)


class TestGenerator:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("background_fraction", 1.0, "background_fraction"),
            ("background_fraction", 1.5, "background_fraction"),
            ("background_fraction", -0.1, "background_fraction"),
            ("background_fraction", float("nan"), "background_fraction"),
            ("room_size", (0.0, 4.0), "room_size"),
            ("room_size", (4.0, -1.0), "room_size"),
            ("room_size", (4.0, float("inf")), "room_size"),
            ("room_size", (4.0, float("nan")), "room_size"),
            ("room_size", (4.0,), "room_size"),
            # Too small for the wall margins and the widest object, or so
            # large that the background area or the voxel ids overflow.
            ("room_size", (0.5, 0.5), "room_size"),
            ("room_size", (1.0, 4.0), "room_size"),
            ("room_size", (4.0, 1.399), "room_size"),
            ("room_size", (1000.5, 4.0), "room_size"),
            ("room_size", (1e150, 1e150), "room_size"),
            ("room_size", (1e308, 1e308), "room_size"),
        ],
    )
    def test_bad_background_fraction_or_room_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            GenConfig(**{field: value})

    def test_packed_weight_needs_two_instances(self):
        # A packed scene places at least two instances, whatever max_instances says.
        with pytest.raises(ValueError, match=r"^a packed scene places at least 2 instances"):
            GenConfig(min_instances=1, max_instances=1, scenario_weights=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"max_instances >= 2$"):
            GenConfig(min_instances=1, max_instances=1, scenario_weights=(0.1, 0.4, 0.5))
        scenes = generate(small_config(min_instances=1, max_instances=1, scenario_weights=(0.0, 0.5, 0.5)))
        assert scenes and all(scene.num_instances == 1 for scene in scenes)
        scenes = generate(small_config(min_instances=1, max_instances=2, scenario_weights=(1.0, 0.0, 0.0)))
        assert scenes and all(scene.num_instances == 2 for scene in scenes)

    def test_edge_background_fraction_and_room_accepted(self):
        assert GenConfig(background_fraction=0.0, room_size=(4, 3.5)).background_fraction == 0.0

    @pytest.mark.parametrize("room", [(1.4, 1.4), (1000.0, 1000.0), (1.4, 1000.0)])
    def test_extreme_rooms_generate(self, room):
        # Scenes that cannot be placed are skipped; nothing may raise or warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenes = generate(small_config(room_size=room, num_scenes=2, points_per_scene=256))
        for scene in scenes:
            assert np.all(np.isfinite(scene.positions))
            assert scene.superpoints.min() >= 0

    def test_deterministic_by_seed(self):
        a = generate(small_config())
        b = generate(small_config())
        assert len(a) == len(b)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.positions, s2.positions)
            assert np.array_equal(s1.colors, s2.colors)
            assert np.array_equal(s1.semantic_gt, s2.semantic_gt)
            assert np.array_equal(s1.instance_gt, s2.instance_gt)
            assert np.array_equal(s1.superpoints, s2.superpoints)

    def test_different_seeds_differ(self):
        a = generate(small_config(seed=5))[0]
        b = generate(small_config(seed=6))[0]
        assert not np.array_equal(a.positions, b.positions)

    def test_instances_single_class_and_nonempty(self):
        for scene in generate(small_config(num_scenes=5)):
            assert scene.num_instances >= 2
            for j in range(scene.num_instances):
                mask = scene.instance_mask(j)
                assert mask.sum() >= 8
                assert np.unique(scene.semantic_gt[mask]).size == 1

    def test_packed_scenario_has_close_same_class_pair(self):
        scenes = generate(small_config(num_scenes=6, scenario_weights=(1.0, 0.0, 0.0)))
        assert scenes
        for scene in scenes:
            found = False
            boxes = [scene.instance_box(j) for j in range(scene.num_instances)]
            centers = [0.5 * (box.min_corner + box.max_corner) for box in boxes]
            diagonals = [np.linalg.norm(box.max_corner - box.min_corner) for box in boxes]
            classes = [scene.instance_class(j) for j in range(scene.num_instances)]
            for a in range(scene.num_instances):
                for b in range(a + 1, scene.num_instances):
                    if classes[a] != classes[b]:
                        continue
                    dist = np.linalg.norm(centers[a] - centers[b])
                    reach = diagonals[a] / 2 + diagonals[b] / 2
                    if dist < reach:
                        found = True
            assert found, "packed scenario must contain a near-contact same-class pair"

    def test_loose_scenario_spans_disjoint_blobs(self):
        scenes = generate(small_config(num_scenes=6, scenario_weights=(0.0, 1.0, 0.0)))
        assert scenes
        for scene in scenes:
            # at least one instance has a bounding box much larger than the
            # median nearest-neighbor spacing would explain for one blob
            boxes = [scene.instance_box(j) for j in range(scene.num_instances)]
            spans = [np.max(box.max_corner - box.min_corner) for box in boxes]
            assert max(spans) > 0.55

    def test_background_present(self):
        scene = generate(small_config())[0]
        assert (scene.instance_gt == -1).sum() > 0
        assert (scene.semantic_gt == 0).sum() > 0

    def test_superpoints_are_spatial_partition(self):
        scene = generate(small_config())[0]
        assert scene.superpoints is not None
        assert scene.superpoints.min() >= 0
        assert np.unique(scene.superpoints).size > 8


class TestSceneIo:
    def test_round_trip(self, tmp_path):
        scene = generate(small_config(num_scenes=1))[0]
        path = tmp_path / "scene.scene"
        write_scene(path, scene)
        loaded = read_scene(path)
        assert np.array_equal(loaded.positions, scene.positions)
        assert np.array_equal(loaded.colors, scene.colors)
        assert np.array_equal(loaded.semantic_gt, scene.semantic_gt)
        assert np.array_equal(loaded.instance_gt, scene.instance_gt)
        assert np.array_equal(loaded.superpoints, scene.superpoints)
        assert loaded.num_classes == scene.num_classes

    def test_truncated_rejected(self, tmp_path):
        scene = generate(small_config(num_scenes=1))[0]
        path = tmp_path / "scene.scene"
        write_scene(path, scene)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            read_scene(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "nonsense.scene"
        path.write_bytes(b"NOTASCENE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_scene(path)

    def test_version_bump_rejected(self, tmp_path):
        scene = generate(small_config(num_scenes=1))[0]
        path = tmp_path / "scene.scene"
        write_scene(path, scene)
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version 99"):
            read_scene(path)

    @pytest.mark.parametrize("n,has_spp", [(2**31, 1), (2**32 - 1, 0), (513, 1), (511, 1), (512, 0)])
    def test_header_size_checked_before_reading(self, tmp_path, n, has_spp):
        # The file holds 512 points with superpoints; any other N, or a
        # dropped superpoint flag, disagrees with the bytes left.
        scene = generate(small_config(num_scenes=1))[0]
        assert scene.num_points == 512 and scene.superpoints is not None
        path = tmp_path / "scene.scene"
        write_scene(path, scene)
        data = bytearray(path.read_bytes())
        data[12:16] = struct.pack("<I", n)
        data[20:24] = struct.pack("<I", has_spp)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="truncated|trailing"):
            read_scene(path)

    def test_superpoint_flag_must_be_boolean(self, tmp_path):
        scene = generate(small_config(num_scenes=1))[0]
        path = tmp_path / "scene.scene"
        write_scene(path, scene)
        data = bytearray(path.read_bytes())
        data[20:24] = struct.pack("<I", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="superpoint flag"):
            read_scene(path)

    def test_trailing_data_rejected(self, tmp_path):
        scene = generate(small_config(num_scenes=1))[0]
        path = tmp_path / "scene.scene"
        write_scene(path, scene)
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            read_scene(path)

    @needs_fifo
    def test_reads_from_a_pipe(self, tmp_path):
        # A pipe has no size up front; it is read as a stream.
        scene = generate(small_config(num_scenes=1))[0]
        path = tmp_path / "scene.scene"
        write_scene(path, scene)
        data = path.read_bytes()
        loaded = read_from_fifo(read_scene, data, tmp_path / "whole")
        assert np.array_equal(loaded.positions, scene.positions)
        with pytest.raises(ValueError, match="truncated"):
            read_from_fifo(read_scene, data[:-4], tmp_path / "short")
        with pytest.raises(ValueError, match="trailing"):
            read_from_fifo(read_scene, data + b"\x00", tmp_path / "long")


def make_prediction(n, idx, class_id=1, score=0.5):
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return Prediction(class_id=class_id, score=score, box=Aabb((0, 0, 0), (1, 1, 1)), mask=mask)


class TestPredictionIo:
    def test_round_trip(self, tmp_path):
        preds = [make_prediction(10, [1, 3, 5], 2, 0.9), make_prediction(10, [0], 1, 0.4)]
        path = tmp_path / "out.pred"
        write_predictions(path, preds, 10)
        loaded, n = read_predictions(path)
        assert n == 10
        assert len(loaded) == 2
        for a, b in zip(preds, loaded):
            assert a.class_id == b.class_id
            assert a.score == b.score
            assert np.array_equal(a.box.to_vector(), b.box.to_vector())
            assert np.array_equal(a.mask, b.mask)

    def test_empty_list_valid(self, tmp_path):
        path = tmp_path / "empty.pred"
        write_predictions(path, [], 7)
        loaded, n = read_predictions(path)
        assert loaded == [] and n == 7

    def test_unsorted_indices_rejected(self, tmp_path):
        path = tmp_path / "bad.pred"
        from pciseg.scenegen import PRED_MAGIC, PRED_VERSION

        with open(path, "wb") as f:
            f.write(PRED_MAGIC)
            f.write(struct.pack("<III", PRED_VERSION, 10, 1))
            f.write(struct.pack("<i", 1))
            f.write(struct.pack("<d", 0.5))
            f.write(np.zeros(6).astype("<f8").tobytes())
            f.write(struct.pack("<I", 2))
            f.write(np.array([5, 3], dtype="<i8").tobytes())
        with pytest.raises(ValueError, match="sorted"):
            read_predictions(path)

    def test_out_of_range_indices_rejected(self, tmp_path):
        path = tmp_path / "oob.pred"
        from pciseg.scenegen import PRED_MAGIC, PRED_VERSION

        with open(path, "wb") as f:
            f.write(PRED_MAGIC)
            f.write(struct.pack("<III", PRED_VERSION, 4, 1))
            f.write(struct.pack("<i", 1))
            f.write(struct.pack("<d", 0.5))
            f.write(np.zeros(6).astype("<f8").tobytes())
            f.write(struct.pack("<I", 1))
            f.write(np.array([9], dtype="<i8").tobytes())
        with pytest.raises(ValueError, match="range"):
            read_predictions(path)

    @pytest.mark.parametrize(
        "class_id,score,message",
        [(0, 0.5, "class id"), (-7, 0.5, "class id"), (1, float("nan"), "score"), (1, float("inf"), "score")],
    )
    def test_bad_class_or_score_rejected(self, tmp_path, class_id, score, message):
        path = tmp_path / "bad.pred"
        write_predictions(path, [make_prediction(10, [1], class_id, score)], 10)
        with pytest.raises(ValueError, match=message):
            read_predictions(path)

    def test_truncation_rejected(self, tmp_path):
        preds = [make_prediction(10, [1, 3, 5])]
        path = tmp_path / "trunc.pred"
        write_predictions(path, preds, 10)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(ValueError, match="truncated"):
            read_predictions(path)
