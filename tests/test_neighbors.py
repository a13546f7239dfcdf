"""Exact neighbour searches against a brute-force oracle.

``encoder_inputs`` takes each point's 16 nearest points and ``ball_query``
each centre's in-radius points, both ordered by (squared distance, index).
The oracle below scans every pair with the dense formula and sorts whole
rows; it is the reference of these tests only. Coordinates on a grid of
eighths make every squared distance exact, so ties are real ties whatever
the arithmetic.
"""

import tracemalloc

import numpy as np
import pytest

from pciseg import pipeline
from pciseg.aggregator import ball_query
from pciseg.core import squared_distances
from pciseg.pipeline import ENCODER_KNN, encoder_inputs


def dense_d2(centers, positions):
    diff = centers[:, None, :] - positions[None, :, :]
    return np.einsum("kij,kij->ki", diff, diff)


def oracle_encoder_inputs(positions, colors):
    m = positions.shape[0]
    # Blocks of 256 rows keep the dense scan's difference array near 25 MB at 4096 points.
    d2 = np.concatenate([dense_d2(positions[i : i + 256], positions) for i in range(0, m, 256)])
    nn = np.stack([np.lexsort((np.arange(m), row))[: min(ENCODER_KNN, m)] for row in d2])
    npos, ncol = positions[nn], colors[nn]
    return np.concatenate(
        [positions, colors, npos.mean(axis=1), npos.std(axis=1), ncol.mean(axis=1), ncol.std(axis=1)], axis=1
    )


def oracle_ball_query(positions, centers, radius, q, center_indices=None):
    out = []
    for k, row in enumerate(dense_d2(centers, positions)):
        order = np.lexsort((np.arange(row.size), row))
        inside = order[row[order] <= radius * radius][:q]
        if inside.size == 0:
            fill = order[0] if center_indices is None else center_indices[k]
            out.append(np.full(q, fill))
        else:
            out.append(np.concatenate([inside, np.full(q - inside.size, inside[0])]))
    return np.array(out, dtype=np.int64).reshape(len(centers), q)


def eighths(rng, n, cells):
    """``n`` random points on the grid of eighths in a cube of ``cells`` eighths a side."""
    return rng.integers(0, cells + 1, size=(n, 3)) / 8.0


@pytest.fixture
def scans(monkeypatch):
    """Counts the single-row exact redos of ``encoder_inputs``'s tie fallback.

    ``scans()`` counts the fallback rows; ``scans(full=n)`` counts those
    that computed distances to all ``n`` points.
    """
    widths = []

    def spy(a, b):
        if np.ndim(a) == 1:
            widths.append(len(b))
        return squared_distances(a, b)

    monkeypatch.setattr(pipeline, "squared_distances", spy)
    return lambda full=None: sum(1 for w in widths if full is None or w >= full)


def assert_same_rows(positions, colors=None):
    colors = np.random.default_rng(1).random(positions.shape) if colors is None else colors
    got = encoder_inputs(positions, colors)
    assert got.tobytes() == oracle_encoder_inputs(positions, colors).tobytes()


class TestEncoderNeighbors:
    def test_continuous_points_need_no_fallback(self, scans):
        assert_same_rows(np.random.default_rng(0).random((600, 3)))
        assert scans() == 0
        assert scans(full=600) == 0

    def test_duplicated_coordinates(self, scans):
        base = np.random.default_rng(2).random((40, 3))
        positions = np.repeat(base, 12, axis=0)[np.random.default_rng(3).permutation(480)]
        assert_same_rows(positions)
        # With 12 copies of each point, the 16th and the 17th (last, spare)
        # tree candidates are copies of the same second-nearest point.
        assert scans() > 0
        assert scans(full=480) == 0

    def test_grid_ties_cross_the_kth_position(self, scans):
        positions = eighths(np.random.default_rng(4), 900, 8)
        d2 = np.sort(dense_d2(positions, positions), axis=1)
        k = ENCODER_KNN
        assert np.any(d2[:, k - 1] == d2[:, k]), "no tie crosses the k-th position"
        assert_same_rows(positions)
        assert scans() > 0
        assert scans(full=900) == 0

    def test_coarse_grid_fallback_stays_local(self, scans):
        # 4096 points on a 0.1 grid in a 1 m cube: about three points per
        # grid node, so most rows tie across the 16th neighbour. Each
        # fallback row computes distances only within its k-th distance.
        positions = np.round(np.random.default_rng(9).random((4096, 3)), 1)
        assert_same_rows(positions)
        assert scans() > 1000
        assert scans(full=4096) == 0

    @pytest.mark.parametrize("m", [1, 2, 5, 15, 16, 17, 24, 25])
    def test_few_points(self, m):
        assert_same_rows(eighths(np.random.default_rng(m), m, 2))


class TestBallQueryNeighbors:
    @pytest.mark.parametrize("q", [1, 4, 32])
    def test_grid_ties_and_points_on_the_radius(self, q):
        rng = np.random.default_rng(5)
        positions = eighths(rng, 500, 12)
        idx = rng.choice(500, 60, replace=False)
        radius = 0.25  # 2/8: grid points at exactly this distance exist
        assert np.any(dense_d2(positions[idx], positions) == radius * radius)
        got = ball_query(positions, positions[idx], radius, q, idx)
        assert np.array_equal(got, oracle_ball_query(positions, positions[idx], radius, q, idx))

    def test_duplicated_coordinates(self):
        positions = np.repeat(np.random.default_rng(6).random((30, 3)), 5, axis=0)
        centers = positions[::7]
        got = ball_query(positions, centers, 0.3, 12)
        assert np.array_equal(got, oracle_ball_query(positions, centers, 0.3, 12))

    def test_fewer_points_than_neighbors(self):
        positions = eighths(np.random.default_rng(7), 5, 2)
        got = ball_query(positions, positions, 0.3, 8, np.arange(5))
        assert got.shape == (5, 8)
        assert np.array_equal(got, oracle_ball_query(positions, positions, 0.3, 8, np.arange(5)))

    @pytest.mark.parametrize("with_indices", [True, False])
    def test_empty_balls(self, with_indices):
        rng = np.random.default_rng(8)
        # Each point has a twin, so the point nearest to an empty ball's
        # centre is never alone: the fallback must take the lower index.
        positions = np.repeat(eighths(rng, 100, 8), 2, axis=0)[rng.permutation(200)]
        # The last six centres lie far above the cloud.
        centers = np.concatenate([positions[:6], positions[:6] + [0.0, 0.0, 5.0]])
        indices = np.arange(12) + 1000 if with_indices else None
        got = ball_query(positions, centers, 0.2, 6, indices)
        want = oracle_ball_query(positions, centers, 0.2, 6, indices)
        assert np.array_equal(got, want)
        if with_indices:
            assert np.array_equal(got[6:, 0], indices[6:])


def test_neighbor_searches_stay_sparse_at_16k_points():
    """At 16 384 points neither search holds an N-wide block of distances.

    The old chunked encoder scan built a 122 x 16384 x 3 float64 difference
    block (48 MB) per chunk and peaked at about 114 MB; the current one
    holds (N, 17)-sized candidate arrays and the (16, N, 6) neighbour
    gather, about 39 MB. The old dense ball query of 192 centres built a
    192 x 16384 x 3 block (75 MB); the pair query holds only in-radius
    pairs, under 1 MB. Bounds: 48 MB, the old difference chunk alone, and
    8 MB, a third of one dense 192 x 16384 float64 distance matrix.
    """
    rng = np.random.default_rng(0)
    positions = rng.random((16384, 3)) * [4.0, 4.0, 1.0]
    colors = rng.random((16384, 3))
    idx = rng.choice(16384, 192, replace=False)
    tracemalloc.start()
    try:
        ball_query(positions, positions[idx], 0.2, 32, idx)
        ball_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        encoder_inputs(positions, colors)
        encoder_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ball_peak < 8e6, f"ball_query peaked at {ball_peak / 1e6:.1f} MB"
    assert encoder_peak < 48e6, f"encoder_inputs peaked at {encoder_peak / 1e6:.1f} MB"
