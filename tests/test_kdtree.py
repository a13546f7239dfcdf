"""Canary for the scipy and numpy facts that ``core.nearest`` relies on.

The exact neighbour search keeps every answer byte-identical to a dense
scan only because (1) ``cKDTree.query`` marks the slots it cannot fill
within ``distance_upper_bound`` with an infinite distance and the index n,
(2) the exact re-rank, not the tree's shape, decides the answer, so the
unbalanced tree it builds answers as a balanced one would, and (3) a
coordinate-major (dx² + dz²) + dy² gives the bytes of the einsum in
``core.squared_distances``. If a scipy or numpy upgrade breaks one of
them, these tests fail first, with a message that names the docstring to
revisit, instead of an opaque parity diff in the neighbour tests.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from pciseg import core
from pciseg.core import coordinate_major_d2, nearest, squared_distances

NEAREST = "see the docstring of pciseg.core.nearest"
D2 = "see the docstring of pciseg.core.coordinate_major_d2"


@pytest.mark.parametrize("balanced", [True, False])
def test_bounded_query_fills_missing_slots_with_inf_and_n(balanced):
    rng = np.random.default_rng(0)
    points = rng.random((50, 3))
    tree = cKDTree(points, balanced_tree=balanced, compact_nodes=balanced)
    dist, idx = tree.query(points[:10], k=60, distance_upper_bound=0.3)
    missing = ~(dist < 0.3)
    assert missing[:, 50:].all(), f"more slots than points were filled; {NEAREST}"
    assert np.all(np.isinf(dist[missing])), f"a free slot has a finite distance; {NEAREST}"
    assert np.all(idx[missing] == 50), f"a free slot does not hold the index n; {NEAREST}"
    assert np.all(np.diff(missing.astype(int), axis=1) >= 0), f"free slots are not last; {NEAREST}"
    truth = squared_distances(points[:10, None, :], points) < 0.09
    assert np.array_equal((~missing).sum(axis=1), truth.sum(axis=1)), f"the bounded query missed points; {NEAREST}"


@pytest.mark.parametrize("radius", [None, 0.25, 0.375])
@pytest.mark.parametrize("k", [1, 4, 16, 33])
def test_answer_does_not_depend_on_the_tree_shape(monkeypatch, k, radius):
    rng = np.random.default_rng(k)
    # Eighths repeat and tie exactly, so the two trees may propose
    # different candidates across a tie; the answers must still agree.
    points = rng.integers(0, 9, size=(400, 3)) / 8.0
    queries = np.concatenate([points[:60], rng.integers(-2, 11, size=(20, 3)) / 8.0])
    unbalanced = nearest(points, queries, k, radius)
    monkeypatch.setattr(core, "cKDTree", lambda data, **_: cKDTree(data))
    balanced = nearest(points, queries, k, radius)
    assert unbalanced.tobytes() == balanced.tobytes(), f"balanced and unbalanced trees answer apart; {NEAREST}"


@pytest.mark.parametrize("shape", [(1,), (37,), (64, 17), (5, 33)])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_coordinate_major_sum_has_the_einsum_bytes(shape, scale):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    a = rng.normal(size=(*shape, 3)) * scale
    b = rng.normal(size=(*shape, 3)) * scale * 10.0 ** rng.uniform(-3, 3, size=(*shape, 1))
    want = squared_distances(a, b)
    delta = np.moveaxis(a - b, -1, 0).copy()
    assert coordinate_major_d2(delta).tobytes() == want.tobytes(), f"coordinate-major d2; {D2}"
    # The one-point broadcast that the exact redo of a row uses.
    q, rows = a.reshape(-1, 3)[0], b.reshape(-1, 3)
    one = coordinate_major_d2(np.ascontiguousarray((q - rows).T))
    assert one.tobytes() == squared_distances(q, rows).tobytes(), f"one-point broadcast; {D2}"
