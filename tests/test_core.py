import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pciseg.core import (
    Aabb,
    Prediction,
    Scene,
    aabb_from_mask,
    aabb_from_points,
    aabb_iou_matrix,
    binarize,
    mask_iou,
    voxelize,
)
from pciseg.pipeline import ModelParams, PipelineConfig, _forward_pointwise

from conftest import aabb_giou, aabb_iou, dice_loss, toy_scene, volume


def unit_cube(origin=(0.0, 0.0, 0.0)):
    origin = np.asarray(origin)
    return Aabb(origin, origin + 1.0)


class TestAabbFromMask:
    def test_single_point_degenerate_box(self):
        scene = toy_scene([[1.0, 2.0, 3.0]], [1], [0])
        box = aabb_from_mask(scene, np.array([True]))
        assert np.allclose(box.min_corner, [1, 2, 3])
        assert np.allclose(box.max_corner, [1, 2, 3])
        assert volume(box) == 0.0

    def test_two_point_envelope(self):
        scene = toy_scene([[0, 0, 0], [1, 2, 3]], [1, 1], [0, 0])
        box = aabb_from_mask(scene, np.array([True, True]))
        assert np.allclose(box.min_corner, [0, 0, 0])
        assert np.allclose(box.max_corner, [1, 2, 3])

    def test_empty_mask_rejected(self):
        scene = toy_scene([[0, 0, 0], [1, 2, 3]], [1, 1], [0, 0])
        with pytest.raises(ValueError, match="empty instance"):
            aabb_from_mask(scene, np.zeros(2, dtype=bool))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        perm = rng.permutation(20)
        a = aabb_from_points(pts)
        b = aabb_from_points(pts[perm])
        assert np.array_equal(a.to_vector(), b.to_vector())


class TestGiou:
    def test_identical_unit_cubes(self):
        assert aabb_giou(unit_cube(), unit_cube()) == 1.0

    def test_face_touching_cubes(self):
        # Hull equals the union (2.0), intersection 0 -> IoU 0, correction 0.
        a, b = unit_cube(), unit_cube((1.0, 0.0, 0.0))
        assert aabb_iou(a, b) == 0.0
        assert aabb_giou(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_separated_cubes(self):
        # Direct volume arithmetic: IoU 0, hull 3x1x1, union 2 -> 0 - 1/3.
        a, b = unit_cube(), unit_cube((2.0, 0.0, 0.0))
        assert aabb_giou(a, b) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_degenerate_identical_boxes(self):
        point = Aabb((1, 1, 1), (1, 1, 1))
        assert aabb_iou(point, point) == 1.0
        assert aabb_giou(point, point) == 1.0

    def test_degenerate_distinct_boxes(self):
        a = Aabb((0, 0, 0), (0, 0, 0))
        b = Aabb((1, 0, 0), (1, 0, 0))
        assert aabb_iou(a, b) == 0.0

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            Aabb((1, 0, 0), (0, 0, 0))


boxes = st.builds(
    lambda lo, extent: Aabb(np.asarray(lo), np.asarray(lo) + np.asarray(extent)),
    st.tuples(*[st.floats(-5, 5) for _ in range(3)]),
    st.tuples(*[st.floats(0, 5) for _ in range(3)]),
)


@settings(max_examples=200, deadline=None)
@given(boxes, boxes)
# Subnormal z extents: the rounded hull volume (1e-323) falls below the
# union volume (1.5e-323); the oracle's hull is at least the union.
@example(
    Aabb(np.array([0.0, 1.0, 5e-324]), np.array([1.5, 2.0, 9.9e-324])),
    Aabb(np.array([1.0, 1.0, 5e-324]), np.array([2.0, 2.0, 1e-323])),
)
def test_giou_symmetric_bounded_below_iou(a, b):
    g1, g2 = aabb_giou(a, b), aabb_giou(b, a)
    assert g1 == pytest.approx(g2, abs=1e-12)
    assert g1 <= aabb_iou(a, b) + 1e-12
    assert -1.0 <= g1 <= 1.0
    if volume(a) > 1e-9 or volume(b) > 1e-9:
        # The open lower bound needs a union volume resolvable against the
        # hull in float64; disjoint (near-)zero-volume boxes reach -1.
        assert g1 > -1.0


class TestAabbIouMatrix:
    """Every entry equals the pairwise ``aabb_iou``, bit for bit."""

    @staticmethod
    def pairwise(a, b):
        return np.array([[aabb_iou(p, g) for g in b] for p in a]).reshape(len(a), len(b))

    @staticmethod
    def matrix(a, b):
        return aabb_iou_matrix(
            np.reshape([box.to_vector() for box in a], (-1, 6)), np.reshape([box.to_vector() for box in b], (-1, 6))
        )

    def test_random_identical_and_zero_volume_boxes(self):
        rng = np.random.default_rng(0)

        def random_boxes(n):
            lo = rng.normal(size=(n, 3))
            extent = rng.random((n, 3)) * rng.choice([0.01, 1.0, 3.0], size=(n, 1))
            extent[rng.random((n, 3)) < 0.15] = 0.0  # some boxes are flat along an axis or more
            return [Aabb(lo[i], lo[i] + extent[i]) for i in range(n)]

        gt = random_boxes(12)
        point = Aabb((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))
        slab = Aabb((0.0, 0.0, 0.0), (1.0, 1.0, 0.0))
        gt += [point, slab, Aabb(gt[0].min_corner, gt[0].max_corner)]
        preds = random_boxes(40) + [gt[0], gt[3], point, slab, Aabb((9, 9, 9), (9, 9, 9))]
        got, want = self.matrix(preds, gt), self.pairwise(preds, gt)
        assert got.tobytes() == want.tobytes()
        # The degenerate rule is exercised: identical zero-volume boxes give 1, distinct ones 0.
        assert got[-3, -3] == 1.0 and got[-2, -2] == 1.0 and got[-1, -3] == 0.0

    def test_empty_sides(self):
        box = [unit_cube()]
        assert self.matrix([], box).shape == (0, 1)
        assert self.matrix(box, []).shape == (1, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(boxes, min_size=1, max_size=4), st.lists(boxes, min_size=1, max_size=4))
    def test_matches_pairwise(self, a, b):
        assert self.matrix(a, b).tobytes() == self.pairwise(a, b).tobytes()


class TestMaskIou:
    def test_equal_nonempty(self):
        m = np.array([1, 0, 1], dtype=bool)
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        assert mask_iou(np.array([1, 0]), np.array([0, 1])) == 0.0

    def test_partial_overlap(self):
        a = np.array([1, 1, 0, 0], dtype=bool)
        b = np.array([0, 1, 1, 0], dtype=bool)
        assert mask_iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_both_empty(self):
        assert mask_iou(np.zeros(3, dtype=bool), np.zeros(3, dtype=bool)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mask_iou(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            mask_iou(np.zeros((2, 3), dtype=bool), np.zeros((5, 4), dtype=bool))
        with pytest.raises(ValueError):
            mask_iou(np.zeros(3, dtype=bool), np.zeros((5, 3), dtype=bool))

    def test_stacks_equal_pairwise_counts(self):
        rng = np.random.default_rng(4)
        for n in (1, 7, 300):
            a = rng.uniform(size=(6, n)) < rng.uniform(size=(6, 1))
            b = rng.uniform(size=(5, n)) < rng.uniform(size=(5, 1))
            a[[1, 4]] = False
            b[2] = False
            got = mask_iou(a, b)
            assert got.shape == (6, 5) and got.dtype == np.float64
            for i in range(6):
                for j in range(5):
                    union = np.count_nonzero(a[i] | b[j])
                    expected = np.count_nonzero(a[i] & b[j]) / union if union else 1.0
                    assert got[i, j] == expected  # bit-identical, not approximate
                    assert mask_iou(a[i], b[j]) == expected
            assert got[1, 2] == got[4, 2] == 1.0
        assert mask_iou(np.zeros((0, 4)), np.ones((3, 4))).shape == (0, 3)


class TestDice:
    def test_exact_match(self):
        m = np.array([1.0, 1.0, 0.0, 0.0])
        assert dice_loss(m, m) == 0.0

    def test_disjoint(self):
        assert dice_loss(np.array([1.0, 1.0, 0, 0]), np.array([0, 0, 1.0, 1.0])) == 1.0

    def test_partial(self):
        # 1 - 2*1 / (1 + 2) = 1/3
        assert dice_loss(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(1.0 / 3.0)

    def test_both_empty(self):
        assert dice_loss(np.zeros(4), np.zeros(4)) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0, 1), min_size=1, max_size=30),
    st.data(),
)
def test_dice_range_and_self(pred, data):
    gt = np.asarray(data.draw(st.lists(st.booleans(), min_size=len(pred), max_size=len(pred))))
    value = dice_loss(np.asarray(pred), gt.astype(float))
    assert 0.0 <= value <= 1.0 + 1e-12
    if gt.any():
        assert dice_loss(gt.astype(float), gt) == pytest.approx(0.0, abs=1e-12)


class TestVoxelize:
    def test_nearby_points_share_voxel(self):
        scene = toy_scene([[0.010, 0.010, 0.010], [0.011, 0.010, 0.010]], [1, 1], [0, 0])
        vm = voxelize(scene, 0.02)
        assert vm.num_voxels == 1
        assert vm.point_to_voxel[0] == vm.point_to_voxel[1]

    def test_separated_points_differ(self):
        scene = toy_scene([[0.00, 0, 0], [0.03, 0, 0]], [1, 1], [0, 0])
        vm = voxelize(scene, 0.02)
        assert vm.num_voxels == 2
        assert vm.point_to_voxel[0] != vm.point_to_voxel[1]

    def test_cube_corners(self):
        # floor(c / 0.5) maps corners at 0 and 1 to cells 0 and 2: all distinct.
        corners = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
        scene = toy_scene(corners, [1] * 8, [0] * 8)
        vm = voxelize(scene, 0.5)
        assert vm.num_voxels == 8
        assert len(set(vm.point_to_voxel.tolist())) == 8

    def test_lexicographic_order(self):
        scene = toy_scene([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [1] * 3, [0] * 3)
        vm = voxelize(scene, 0.5)
        # cells sorted lexicographically: (0,0,2) < (0,2,0) < (2,0,0)
        assert vm.point_to_voxel.tolist() == [2, 0, 1]

    def test_bad_voxel_size(self):
        scene = toy_scene([[0, 0, 0]], [1], [0])
        with pytest.raises(ValueError):
            voxelize(scene, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "x,voxel_size",
        [
            ([0.0, 1e18, 2e18, 5e18], 0.05),  # cells 2e19 and up: the cast merged the far points
            ([0.0, -1e18], 0.05),
            ([0.0, 1e308], 0.02),  # the quotient overflows to inf
        ],
    )
    def test_cell_index_outside_int64_refused(self, x, voxel_size):
        scene = toy_scene([[v, 0.0, 0.0] for v in x], [1] * len(x), [0] * len(x))
        with pytest.raises(ValueError, match="int64"):
            voxelize(scene, voxel_size)

    @pytest.mark.filterwarnings("error")
    def test_cell_index_near_int64_limit_voxelizes(self):
        # Cells of about ±8e18 and exactly -2**63 still fit an int64.
        x = [0.0, 4e17, -4e17, -(2.0**63) * 0.05, 4e17 + 1e3]
        scene = toy_scene([[v, 0.0, 0.0] for v in x], [1] * 5, [0] * 5)
        vm = voxelize(scene, 0.05)
        assert vm.num_voxels == 5
        assert vm.point_to_voxel.tolist() == [2, 3, 1, 0, 4]


def late_rows(scene, voxel_size):
    """Per-point (features, semantic logits, boxes, mask features) of a
    random model, computed per voxel and expanded late; None runs per point."""
    config = PipelineConfig(d_model=8, mask_dim=4, layout_dims=(13, 8, 1), voxel_size=voxel_size)
    p = ModelParams.initialize(config, 3).as_vars()
    return [v.value for v in _forward_pointwise(scene, p, config, None)]


class TestDevoxelize:
    def test_one_point_per_voxel_is_permutation(self):
        scene = toy_scene([[0.0, 0, 0], [1.0, 0, 0], [0.5, 0, 0]], [1] * 3, [0] * 3)
        vm = voxelize(scene, 0.2)
        assert vm.num_voxels == 3
        assert sorted(vm.point_to_voxel.tolist()) == [0, 1, 2]
        for voxel, point in zip(late_rows(scene, 0.2), late_rows(scene, None)):
            assert np.allclose(voxel, point, rtol=0.0, atol=1e-12)

    def test_shared_voxel_rows_identical(self):
        scene = toy_scene([[0.0, 0, 0], [0.001, 0, 0], [1.0, 0, 0]], [1] * 3, [0] * 3)
        assert voxelize(scene, 0.02).num_voxels == 2
        for rows in late_rows(scene, 0.02):
            assert np.array_equal(rows[0], rows[1])
            assert not np.array_equal(rows[0], rows[2])

    def test_round_trip_on_voxel_constant_features(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(50, 3))
        scene = toy_scene(pts, [1] * 50, [0] * 50)
        vm = voxelize(scene, 0.25)
        assert vm.num_voxels < 50
        _, first = np.unique(vm.point_to_voxel, return_index=True)
        for rows in late_rows(scene, 0.25):
            assert np.array_equal(rows[first][vm.point_to_voxel], rows)


class TestPrediction:
    def test_equality_is_identity(self):
        # Masks are arrays: a field-wise __eq__ would raise on two predictions.
        box = unit_cube()
        a, b = (Prediction(class_id=1, score=0.5, box=box, mask=np.array([True, False])) for _ in range(2))
        assert a == a
        assert a != b
        assert [a, b].index(b) == 1


class TestSceneValidation:
    def test_instance_ids_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            toy_scene([[0, 0, 0], [1, 1, 1]], [1, 1], [0, 2])

    def test_instance_single_class(self):
        with pytest.raises(ValueError, match="classes"):
            toy_scene([[0, 0, 0], [1, 1, 1]], [1, 2], [0, 0])

    @pytest.mark.parametrize("bad", [-2, -7])
    def test_instance_ids_below_minus_one_rejected(self, bad):
        # Only -1 means "no instance"; another negative id is a corrupt label.
        with pytest.raises(ValueError, match="-1"):
            toy_scene([[0, 0, 0], [1, 1, 1], [2, 2, 2]], [1, 1, 0], [0, 0, bad])

    def test_instance_on_background_class_rejected(self):
        # Class 0 is background: an instance there would train toward no class.
        with pytest.raises(ValueError, match="background"):
            toy_scene([[0, 0, 0], [1, 1, 1], [2, 2, 2]], [1, 0, 0], [0, 1, -1])
        assert toy_scene([[0, 0, 0], [1, 1, 1]], [0, 1], [-1, 0]).num_instances == 1

    def test_nonfinite_positions_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            toy_scene([[np.nan, 0, 0]], [0], [-1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 7.0, -0.1])
    def test_bad_colors_rejected(self, bad):
        colors = np.full((2, 3), 0.5)
        colors[1, 2] = bad
        with pytest.raises(ValueError, match="colors"):
            toy_scene([[0, 0, 0], [1, 1, 1]], [1, 1], [0, 0], colors=colors)

    def test_color_range_is_inclusive(self):
        colors = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert toy_scene([[0, 0, 0], [1, 1, 1]], [1, 1], [0, 0], colors=colors).num_points == 2

    def test_binarize_strict(self):
        assert binarize(np.array([0.5, 0.500001])).tolist() == [False, True]
