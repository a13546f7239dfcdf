import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pciseg.sampling import (
    OccupancyState,
    SampleBudget,
    fps,
    ia_fps_infer,
    instance_recall,
    oracle_background,
    oracle_mask_provider,
    split_budget,
)

from conftest import toy_scene


def reference_fps(positions, budget, seed_index):
    """Independent O(b*n^2) greedy max-min with lowest-index tie-break."""
    positions = np.asarray(positions, dtype=float)
    selected = [seed_index]
    while len(selected) < budget:
        best_idx, best_dist = -1, -1.0
        for i in range(positions.shape[0]):
            if i in selected:
                continue
            dmin = min(np.linalg.norm(positions[i] - positions[j]) for j in selected)
            if dmin > best_dist + 1e-15:
                best_idx, best_dist = i, dmin
        selected.append(best_idx)
    return selected


def line_points(n=10):
    return np.stack([np.arange(float(n)), np.zeros(n), np.zeros(n)], axis=1)


class TestFps:
    def test_full_budget_is_permutation(self):
        pts = np.random.default_rng(3).normal(size=(12, 3))
        out = fps(pts, 12)
        assert sorted(out.tolist()) == list(range(12))

    def test_collinear_budget_two(self):
        out = fps(line_points(), 2, seed_index=0)
        assert out.tolist() == [0, 9]

    def test_collinear_budget_three_tie_break(self):
        # Points 4 and 5 tie at min-distance 4 from {0, 9}; lowest index wins.
        out = fps(line_points(), 3, seed_index=0)
        assert out.tolist() == [0, 9, 4]
        assert out.tolist() == reference_fps(line_points(), 3, 0)

    def test_matches_reference_on_random_clouds(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            pts = rng.normal(size=(15, 3))
            assert fps(pts, 7, seed_index=2).tolist() == reference_fps(pts, 7, 2)

    def test_budget_too_large(self):
        with pytest.raises(ValueError, match="budget too large"):
            fps(line_points(), 11)

    def test_seed_filtered_out(self):
        keep = np.ones(10, dtype=bool)
        keep[0] = False
        with pytest.raises(ValueError, match="filtered"):
            fps(line_points(), 2, seed_index=0, candidate_filter=keep)

    def test_seed_inside_filter(self):
        # 2 and 8 tie at distance 3 from the seed 5; the lower index wins.
        keep = np.zeros(10, dtype=bool)
        keep[[2, 5, 8]] = True
        assert fps(line_points(), 3, seed_index=5, candidate_filter=keep).tolist() == [5, 2, 8]

    @pytest.mark.parametrize("seed_index", [-1, 10])
    def test_seed_out_of_range(self, seed_index):
        with pytest.raises(ValueError, match="out of range"):
            fps(line_points(), 2, seed_index=seed_index)

    def test_filter_restricts_selection(self):
        keep = np.zeros(10, dtype=bool)
        keep[[2, 5, 8]] = True
        out = fps(line_points(), 3, candidate_filter=keep)
        assert sorted(out.tolist()) == [2, 5, 8]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 19), st.data())
    def test_prefix_property(self, budget, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        pts = rng.normal(size=(20, 3))
        small = fps(pts, budget, seed_index=0)
        big = fps(pts, min(budget + 1, 20), seed_index=0)
        assert big[: budget].tolist() == small.tolist()


class TestIaFpsTrain:
    """Training-time sampling: farthest points among the predicted foreground."""

    def test_all_foreground_equals_plain_fps(self):
        pts = line_points()
        state = OccupancyState(np.zeros(10))
        assert np.array_equal(fps(pts, 4, candidate_filter=state.foreground()), fps(pts, 4))

    def test_all_background_errors(self):
        state = OccupancyState(np.ones(10))
        with pytest.raises(ValueError, match="budget"):
            fps(line_points(), 1, candidate_filter=state.foreground())

    def test_filter_then_exhaust(self):
        background = np.full(10, 0.9)
        background[[1, 3, 6, 7]] = 0.4
        state = OccupancyState(background)
        out = fps(line_points(), 4, candidate_filter=state.foreground())
        assert sorted(out.tolist()) == [1, 3, 6, 7]

    def test_shortfall_returns_all_foreground(self):
        background = np.full(10, 0.9)
        background[[2, 5]] = 0.0
        state = OccupancyState(background)
        fg = state.foreground()
        out = fps(line_points(), min(8, int(fg.sum())), candidate_filter=fg)
        assert sorted(out.tolist()) == [2, 5]
        with pytest.raises(ValueError, match="budget too large"):
            fps(line_points(), 8, candidate_filter=fg)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5000), st.integers(1, 25))
    def test_output_within_foreground_and_distinct(self, seed, k):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(25, 3))
        background = rng.uniform(size=25)
        state = OccupancyState(background)
        fg = np.flatnonzero(state.foreground())
        if fg.size == 0:
            with pytest.raises(ValueError):
                fps(pts, min(k, fg.size), candidate_filter=state.foreground())
            return
        out = fps(pts, min(k, fg.size), candidate_filter=state.foreground())
        assert len(set(out.tolist())) == len(out)
        assert set(out.tolist()) <= set(fg.tolist())
        assert len(out) == min(k, fg.size)


class TestIaFpsInfer:
    def test_zero_masks_match_single_shot(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(30, 3))
        state = OccupancyState(np.zeros(30))
        provider = lambda idx: np.zeros((len(idx), 30))
        chunked = ia_fps_infer(state, pts, SampleBudget((4, 3, 3)), provider)
        single = fps(pts, 10, candidate_filter=OccupancyState(np.zeros(30)).foreground())
        assert np.array_equal(chunked, single)

    def test_claimed_cluster_excluded_from_next_chunk(self):
        rng = np.random.default_rng(1)
        left = rng.normal(scale=0.1, size=(10, 3))
        right = rng.normal(scale=0.1, size=(10, 3)) + np.array([5.0, 0, 0])
        pts = np.vstack([left, right])
        left_mask = np.zeros(20)
        left_mask[:10] = 1.0
        state = OccupancyState(np.zeros(20))
        chunk_log = []

        def provider(idx):
            chunk_log.append(idx.copy())
            return np.tile(left_mask, (len(idx), 1))

        out = ia_fps_infer(state, pts, SampleBudget((5, 5)), provider)
        assert len(out) == 10
        second_chunk = out[5:]
        assert np.all(second_chunk >= 10), "after the left half is claimed only right points remain"

    def test_exhaustion_stops_early(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(100, 3))
        state = OccupancyState(np.zeros(100))
        provider = lambda idx: np.zeros((len(idx), 100))
        out = ia_fps_infer(state, pts, SampleBudget((192, 128, 64)), provider)
        assert len(out) == 100
        assert sorted(out.tolist()) == list(range(100))

    def test_background_fallback_fills_remaining(self):
        # 4 foreground points, chunk wants 6: the last two come from the
        # unclaimed background once the filtered set empties.
        pts = line_points(8)
        background = np.zeros(8)
        background[4:] = 1.0
        state = OccupancyState(background)
        out = ia_fps_infer(state, pts, SampleBudget((6,)), lambda idx: np.zeros((len(idx), 8)))
        assert len(out) == 6
        assert set(out[:4].tolist()) == {0, 1, 2, 3}

    def test_oracle_masks_reach_full_recall(self, two_cluster_scene):
        scene = two_cluster_scene
        state = OccupancyState(oracle_background(scene))
        budget = SampleBudget((1,) * scene.num_instances)
        out = ia_fps_infer(state, scene.positions, budget, oracle_mask_provider(scene))
        assert instance_recall(out, scene) == 1.0


class TestRecall:
    def test_one_candidate_per_instance(self, two_cluster_scene):
        assert instance_recall(np.array([0, 8]), two_cluster_scene) == 1.0

    def test_empty_candidates(self, two_cluster_scene):
        assert instance_recall(np.array([], dtype=int), two_cluster_scene) == 0.0

    def test_single_instance_covered(self, two_cluster_scene):
        assert instance_recall(np.array([0, 1, 2]), two_cluster_scene) == 0.5

    def test_no_instances_errors(self):
        scene = toy_scene([[0, 0, 0]], [0], [-1])
        with pytest.raises(ValueError):
            instance_recall(np.array([0]), scene)


class TestRecallOrdering:
    def test_instance_aware_beats_plain_on_average(self):
        from pciseg.scenegen import GenConfig, generate

        scenes = generate(GenConfig(num_scenes=12, points_per_scene=512, seed=23))
        for budget in (16, 32):
            plain, aware = [], []
            for scene in scenes:
                plain.append(instance_recall(fps(scene.positions, budget), scene))
                state = OccupancyState(oracle_background(scene))
                idx = ia_fps_infer(
                    state, scene.positions, split_budget(budget), oracle_mask_provider(scene)
                )
                aware.append(instance_recall(idx, scene))
            assert np.mean(aware) >= np.mean(plain)

    def test_recall_monotone_in_budget(self, two_cluster_scene):
        scene = two_cluster_scene
        values = [
            instance_recall(fps(scene.positions, b, seed_index=0), scene)
            for b in range(1, scene.num_points + 1)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestBudget:
    def test_split_budget_preserves_total(self):
        for total in (5, 32, 64, 128, 384):
            assert split_budget(total).total == total

    def test_default_pattern(self):
        assert split_budget(384).chunk_sizes == (192, 128, 64)

    def test_bad_chunks_rejected(self):
        with pytest.raises(ValueError):
            SampleBudget(())
        with pytest.raises(ValueError):
            SampleBudget((4, 0))
