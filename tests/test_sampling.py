import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pciseg import sampling
from pciseg.sampling import (
    TAU,
    SampleBudget,
    fps,
    ia_fps_infer,
    instance_recall,
    oracle_foreground,
    oracle_mask_provider,
    split_budget,
)

from conftest import claimed_mask_ia_fps, toy_scene


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


class EinsumSampler(sampling._MaxMinSampler):
    """The sampler with the row-major einsum distance its ``_take`` used
    before it went coordinate-major."""

    def _take(self, index):
        self.taken[index] = True
        self.order.append(index)
        delta = self.positions - self.positions[index]
        d2 = np.einsum("ij,ij->i", delta, delta)
        np.minimum(self.min_d2, d2, out=self.min_d2)
        return d2


class TestCoordinateMajorTake:
    """``_take`` sums (dx² + dz²) + dy² over coordinate-major rows; its
    distances, and so every pick, keep the einsum sampler's bytes."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_picks_and_distances_equal_the_einsum_sampler(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(seed)
        # Half-unit grid points repeat and tie exactly on distance; the rest
        # spread over many magnitudes; some rows are copies of others.
        grid = rng.integers(-2, 3, size=(n, 3)) * 0.5
        wide = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        pts = np.where(rng.uniform(size=(n, 1)) < data.draw(st.sampled_from([0.0, 0.5, 1.0])), grid, wide)
        copies = rng.integers(0, n, size=rng.integers(0, n + 1))
        pts[copies] = pts[rng.integers(0, n, size=copies.size)]

        new, old = sampling._MaxMinSampler(pts), EinsumSampler(pts)
        for index in rng.permutation(n)[:4]:
            assert new._take(index).tobytes() == old._take(index).tobytes()
            assert new.min_d2.tobytes() == old.min_d2.tobytes()

        allowed = rng.uniform(size=n) < 0.7
        allowed[rng.integers(0, n)] = True
        budget = data.draw(st.integers(1, int(allowed.sum())))
        table = (rng.uniform(size=(n, n)) < 0.2).astype(float)
        chunks = SampleBudget(tuple(data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))))
        runs = []
        for sampler in (sampling._MaxMinSampler, EinsumSampler):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sampling, "_MaxMinSampler", sampler)
                runs.append([
                    fps(pts, budget, candidate_filter=allowed),
                    fps(pts, n),
                    ia_fps_infer(allowed, pts, chunks, lambda idx: table[idx]),
                ])
        for got, want in zip(*runs):
            assert got.tolist() == want.tolist()


class TestIaFpsTrain:
    """Training-time sampling: farthest points among the predicted foreground."""

    def test_all_foreground_equals_plain_fps(self):
        pts = line_points()
        assert np.array_equal(fps(pts, 4, candidate_filter=np.ones(10, bool)), fps(pts, 4))

    def test_all_background_errors(self):
        with pytest.raises(ValueError, match="budget"):
            fps(line_points(), 1, candidate_filter=np.zeros(10, bool))

    def test_filter_then_exhaust(self):
        background = np.full(10, 0.9)
        background[[1, 3, 6, 7]] = 0.4
        out = fps(line_points(), 4, candidate_filter=(1.0 - background) > TAU)
        assert sorted(out.tolist()) == [1, 3, 6, 7]

    def test_shortfall_returns_all_foreground(self):
        background = np.full(10, 0.9)
        background[[2, 5]] = 0.0
        fg = (1.0 - background) > TAU
        out = fps(line_points(), min(8, int(fg.sum())), candidate_filter=fg)
        assert sorted(out.tolist()) == [2, 5]
        with pytest.raises(ValueError, match="budget too large"):
            fps(line_points(), 8, candidate_filter=fg)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5000), st.integers(1, 25))
    def test_output_within_foreground_and_distinct(self, seed, k):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(25, 3))
        foreground = (1.0 - rng.uniform(size=25)) > TAU
        fg = np.flatnonzero(foreground)
        if fg.size == 0:
            with pytest.raises(ValueError):
                fps(pts, min(k, fg.size), candidate_filter=foreground)
            return
        out = fps(pts, min(k, fg.size), candidate_filter=foreground)
        assert len(set(out.tolist())) == len(out)
        assert set(out.tolist()) <= set(fg.tolist())
        assert len(out) == min(k, fg.size)


class TestIaFpsInfer:
    def test_zero_masks_match_single_shot(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(30, 3))
        provider = lambda idx: np.zeros((len(idx), 30))
        for eligible in (np.ones(30, bool), np.arange(30) % 3 != 0):
            chunked = ia_fps_infer(eligible, pts, SampleBudget((4, 3, 3)), provider)
            single = fps(pts, 10, candidate_filter=eligible)
            assert np.array_equal(chunked, single)

    def test_claimed_cluster_excluded_from_next_chunk(self):
        rng = np.random.default_rng(1)
        left = rng.normal(scale=0.1, size=(10, 3))
        right = rng.normal(scale=0.1, size=(10, 3)) + np.array([5.0, 0, 0])
        pts = np.vstack([left, right])
        left_mask = np.zeros(20)
        left_mask[:10] = 1.0
        chunk_log = []

        def provider(idx):
            chunk_log.append(idx.copy())
            return np.tile(left_mask, (len(idx), 1))

        out = ia_fps_infer(np.ones(20, bool), pts, SampleBudget((5, 5)), provider)
        assert len(out) == 10
        second_chunk = out[5:]
        assert np.all(second_chunk >= 10), "after the left half is claimed only right points remain"

    def test_exhaustion_stops_early(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(100, 3))
        provider = lambda idx: np.zeros((len(idx), 100))
        out = ia_fps_infer(np.ones(100, bool), pts, SampleBudget((192, 128, 64)), provider)
        assert len(out) == 100
        assert sorted(out.tolist()) == list(range(100))

    def test_ineligible_points_never_fill_a_chunk(self):
        # 4 eligible points, the first chunk wants 6: IA-FPS returns exactly
        # those 4 and stops, without calling the provider for another chunk.
        pts = line_points(8)
        calls = []

        def provider(idx):
            calls.append(idx.tolist())
            return np.zeros((len(idx), 8))

        out = ia_fps_infer(np.arange(8) < 4, pts, SampleBudget((6, 6)), provider)
        assert sorted(out.tolist()) == [0, 1, 2, 3]
        assert calls == [out.tolist()]

    def test_provider_gets_indices_into_positions(self):
        pts = line_points(10)
        eligible = np.zeros(10, bool)
        eligible[[2, 5, 9]] = True
        calls = []

        def provider(idx):
            calls.append(idx.tolist())
            return np.zeros((len(idx), 10))

        out = ia_fps_infer(eligible, pts, SampleBudget((2, 1)), provider)
        assert sorted(out.tolist()) == [2, 5, 9]
        assert calls == [out[:2].tolist()]

    def test_mask_shape_and_eligibility_length_checked(self):
        pts = line_points(6)
        with pytest.raises(ValueError, match="length"):
            ia_fps_infer(np.ones(5, bool), pts, SampleBudget((2,)), lambda idx: np.zeros((len(idx), 6)))
        with pytest.raises(ValueError, match="shape"):
            ia_fps_infer(np.ones(6, bool), pts, SampleBudget((2, 2)), lambda idx: np.zeros((len(idx), 5)))

    def test_claim_test_is_one_minus_m_above_tau(self):
        # TAU and the float just below it both claim a point, since 1 - m
        # rounds to 0.5 for both; a test written m < TAU would keep point 2.
        pts = line_points(4)
        mask = np.array([0.0, TAU, np.nextafter(TAU, 0.0), 0.25])
        out = ia_fps_infer(np.ones(4, bool), pts, SampleBudget((1, 3)), lambda idx: np.tile(mask, (len(idx), 1)))
        assert sorted(out[1:].tolist()) == [0, 3]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_claimed_mask_rule_on_foreground(self, data):
        # The earlier rule re-tested background and every claimed mask each
        # chunk and filled short chunks from unclaimed background; its picks
        # on the foreground are the new picks, in the same order.
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 40))
        chunks = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        levels = np.array([0.0, np.nextafter(TAU, 0.0), TAU, np.nextafter(TAU, 1.0), 1.0])

        def probabilities(shape):
            # A mix of uniform values and the values at and around the threshold.
            exact = rng.uniform(size=shape) < 0.3
            return np.where(exact, levels[rng.integers(0, levels.size, size=shape)], rng.uniform(size=shape))

        background = probabilities(n)
        # Each point's soft mask is fixed, so both rules see the same mask for a pick.
        table = probabilities((n, n)) * (rng.uniform(size=(n, 1)) < 0.8)
        provider = lambda idx: table[idx]
        budget = SampleBudget(tuple(chunks))
        foreground = (1.0 - background) > TAU
        old = claimed_mask_ia_fps(background, pts, budget, provider)
        new = ia_fps_infer(foreground, pts, budget, provider)
        assert new.tolist() == [i for i in old.tolist() if foreground[i]]

    def test_oracle_masks_reach_full_recall(self, two_cluster_scene):
        scene = two_cluster_scene
        budget = SampleBudget((1,) * scene.num_instances)
        out = ia_fps_infer(oracle_foreground(scene), scene.positions, budget, oracle_mask_provider(scene))
        assert instance_recall(out, scene) == 1.0


class TestRecall:
    def test_one_candidate_per_instance(self, two_cluster_scene):
        assert instance_recall(np.array([0, 8]), two_cluster_scene) == 1.0

    def test_empty_candidates(self, two_cluster_scene):
        assert instance_recall(np.array([], dtype=int), two_cluster_scene) == 0.0

    def test_single_instance_covered(self, two_cluster_scene):
        assert instance_recall(np.array([0, 1, 2]), two_cluster_scene) == 0.5

    def test_oracle_foreground_is_every_non_background_point(self):
        scene = toy_scene(np.zeros((4, 3)), [0, 1, 0, 3], [-1, 0, -1, 1])
        assert oracle_foreground(scene).tolist() == [False, True, False, True]

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
                idx = ia_fps_infer(
                    oracle_foreground(scene), scene.positions, split_budget(budget), oracle_mask_provider(scene)
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
        for total in (1, 2, 5, 32, 64, 128, 384):
            assert sum(split_budget(total).chunk_sizes) == total

    def test_default_pattern(self):
        assert split_budget(384).chunk_sizes == (192, 128, 64)

    def test_bad_chunks_rejected(self):
        with pytest.raises(ValueError):
            SampleBudget(())
        with pytest.raises(ValueError):
            SampleBudget((4, 0))
