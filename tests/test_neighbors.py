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
from hypothesis import given, settings
from hypothesis import strategies as st

from pciseg import core
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
    """Counts the single-row exact redos of ``core.nearest``.

    ``scans()`` counts the fallback rows; ``scans(full=n)`` counts those
    that computed distances to all ``n`` points.
    """
    widths = []

    def spy(a, b):
        if np.ndim(a) == 1:
            widths.append(len(b))
        return squared_distances(a, b)

    monkeypatch.setattr(core, "squared_distances", spy)
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

    def test_continuous_points_need_no_redo(self, scans):
        rng = np.random.default_rng(10)
        positions = rng.random((2000, 3)) * [2.0, 2.0, 0.5]
        idx = rng.choice(2000, 150, replace=False)
        centers = np.concatenate([positions[idx], rng.random((50, 3)) * [2.0, 2.0, 0.5]])
        for radius, q in ((0.1, 8), (0.2, 32), (0.4, 32)):
            got = ball_query(positions, centers, radius, q)
            assert got.tobytes() == oracle_ball_query(positions, centers, radius, q).tobytes()
        assert scans() == 0

    def test_kth_and_spare_tie_is_redone(self, scans):
        # The 2nd and 3rd nearest points of the centre lie 1/8 away.
        positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.125, 0.0], [0.125, 0.0, 0.0], [1.0, 1.0, 1.0]])
        got = ball_query(positions, positions[:1], 0.25, 2, [0])
        assert scans() == 1
        assert got.tobytes() == oracle_ball_query(positions, positions[:1], 0.25, 2, [0]).tobytes()
        assert got.tolist() == [[0, 1]]

    @pytest.mark.parametrize("q,want", [(2, [0, 1]), (3, [0, 1, 0])])
    def test_spare_inside_the_tree_bound_but_outside_the_radius_is_redone(self, scans, q, want):
        # Points 2 and 3 lie 1e-14 beyond the radius: inside the tree's
        # bound of radius * (1 + ROUNDING_MARGIN), outside radius² exactly.
        # At Q = 3 the k-th slot is dropped too, so the redo scans the
        # whole ball and must drop them again.
        edge = 0.25 + 1e-14
        positions = np.array([[0.0, 0.0, 0.0], [0.125, 0.0, 0.0], [edge, 0.0, 0.0], [0.0, edge, 0.0]])
        assert np.all(dense_d2(positions[:1], positions)[0, 2:] > 0.25**2)
        got = ball_query(positions, positions[:1], 0.25, q, [0])
        assert scans() == 1
        assert got.tobytes() == oracle_ball_query(positions, positions[:1], 0.25, q, [0]).tobytes()
        assert got.tolist() == [want]

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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_both_searches_equal_the_dense_oracle_on_grids(data):
    """Eighths grids with repeated points, radii drawn from the grid's own
    distances (so points lie exactly on the radius), centres on and off
    the points, with and without centre indices."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(1, 300), label="n")
    q = data.draw(st.integers(1, 40), label="Q")
    positions = eighths(rng, n, data.draw(st.integers(1, 12), label="cells"))
    copies = rng.integers(0, n, size=rng.integers(0, n + 1))
    positions[copies] = positions[rng.integers(0, n, size=copies.size)]
    idx = rng.integers(0, n, size=rng.integers(1, 41))
    centers = positions[idx] + rng.integers(-3, 4, size=(idx.size, 3)) / 8.0 * (rng.random((idx.size, 1)) < 0.3)
    distances = np.unique(np.sqrt(dense_d2(centers, positions)))
    radius = data.draw(st.sampled_from(distances[distances > 0].tolist() or [0.125]), label="radius")
    indices = idx if data.draw(st.booleans(), label="with_indices") else None
    got = ball_query(positions, centers, radius, q, indices)
    assert got.tobytes() == oracle_ball_query(positions, centers, radius, q, indices).tobytes()
    assert_same_rows(positions)


def test_neighbor_searches_stay_sparse_at_16k_points():
    """At 16 384 points neither search holds an N-wide block of distances.

    The old chunked encoder scan built a 122 x 16384 x 3 float64 difference
    block (48 MB) per chunk and peaked at about 114 MB; the current one
    holds (N, 17)-sized candidate arrays and the (16, N, 6) neighbour
    gather, whose deviations it squares in place, about 19 MB. The old
    dense ball query of 192 centres built a 192 x 16384 x 3 block (75 MB);
    the bounded tree query holds 33 candidates per centre, under 1 MB
    of traced allocations. Bounds:
    48 MB, the old difference chunk alone, and 8 MB, a third of one dense
    192 x 16384 float64 distance matrix.
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
