import numpy as np
import pytest

from pciseg.aggregator import (
    AggregatorBlock,
    CandidateHeads,
    aggregate_batch,
    ball_query,
    heads,
    pa_stack,
)
from pciseg.dynconv import KernelLayout


def ones_block(radius, q, width=1):
    """Layers composing to the all-ones single linear map used by the
    hand-computed cases (identity second and third layers)."""
    layers = (
        (np.ones((width + 3, width)), np.zeros(width)),
        (np.eye(width), np.zeros(width)),
        (np.eye(width), np.zeros(width)),
    )
    return AggregatorBlock(radius, q, layers)


class TestBallQuery:
    def test_isolated_point_repeats_itself(self):
        pts = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        out = ball_query(pts, pts[:1], radius=0.5, num_neighbors=4, center_indices=[0])
        assert out.tolist() == [[0, 0, 0, 0]]

    def test_pad_repeats_first_qualifier(self):
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.3, 0, 0]])
        out = ball_query(pts, pts[:1], radius=0.2, num_neighbors=2, center_indices=[0])
        # center itself qualifies at distance 0, then the 0.1 point; the
        # 0.3 point is out of radius so no third candidate exists.
        assert out.tolist() == [[0, 1]]
        out3 = ball_query(pts[1:], pts[:1], radius=0.2, num_neighbors=2)
        assert out3.tolist() == [[0, 0]]

    def test_single_neighbor_is_nearest(self):
        pts = np.array([[0.0, 0, 0], [0.05, 0, 0], [0.12, 0, 0]])
        out = ball_query(pts, np.array([[0.04, 0.0, 0.0]]), radius=0.2, num_neighbors=1)
        assert out.tolist() == [[1]]

    def test_orders_by_distance_then_index(self):
        pts = np.array([[0.3, 0, 0], [-0.3, 0, 0], [0.1, 0, 0]])
        out = ball_query(pts, np.zeros((1, 3)), radius=0.5, num_neighbors=3)
        assert out.tolist() == [[2, 0, 1]]  # 0.1 first, then tie 0.3 by index

    def test_shape_always_k_by_q(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(30, 3))
        out = ball_query(pts, pts[:7], radius=0.4, num_neighbors=5, center_indices=np.arange(7))
        assert out.shape == (7, 5)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(20, 3)) * 0.3
        perm = rng.permutation(20)
        inverse = np.empty(20, dtype=int)
        inverse[perm] = np.arange(20)
        out = ball_query(pts, pts[:4], 0.5, 6, center_indices=np.arange(4))
        out_p = ball_query(pts[perm], pts[:4], 0.5, 6, center_indices=inverse[:4])
        # mapping the permuted answer back must give neighborhoods with the
        # same multiset of points per center
        for row, row_p in zip(out, out_p):
            assert sorted(perm[row_p].tolist()) == sorted(row.tolist())


class TestLocalAggregate:
    def test_zero_weights_residual_identity(self):
        block = AggregatorBlock.zeros(0.5, 3, width=2)
        feats = np.array([[1.0, -2.0], [0.5, 0.5]])
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0]])
        out = aggregate_batch(block, feats, pts, np.array([0]), np.array([[0, 1, 1]]))
        assert np.array_equal(out.value, feats[:1])

    def test_hand_computed_all_ones_map(self):
        # Neighbors contribute max over relu chains of (feature + offsets/r);
        # rows [2, 0.5, 0, 0] -> 2.5 and [-1, -0.25, 0, 0] -> relu clips to 0,
        # so the pooled value is 2.5 and the residual adds 1.0.
        block = ones_block(radius=1.0, q=2)
        feats = np.array([[1.0], [2.0], [-1.0]])
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [-0.25, 0, 0]])
        out = aggregate_batch(block, feats, pts, np.array([0]), np.array([[1, 2]]))
        assert out.value[0, 0] == pytest.approx(3.5)

    def test_self_neighborhood(self):
        rng = np.random.default_rng(3)
        width = 3
        layers = (
            (rng.normal(size=(width + 3, width)), rng.normal(size=width)),
            (rng.normal(size=(width, width)), rng.normal(size=width)),
            (rng.normal(size=(width, width)), rng.normal(size=width)),
        )
        block = AggregatorBlock(0.4, 2, layers)
        feats = rng.normal(size=(1, width))
        pts = np.zeros((1, 3))
        out = aggregate_batch(block, feats, pts, np.array([0]), np.array([[0, 0]])).value[0]
        x = np.concatenate([feats[0], np.zeros(3)])
        h = np.maximum(x @ layers[0][0] + layers[0][1], 0)
        h = np.maximum(h @ layers[1][0] + layers[1][1], 0)
        expected = feats[0] + (h @ layers[2][0] + layers[2][1])
        assert np.allclose(out, expected)


class TestPaStack:
    def test_single_block_zero_weights_identity(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(10, 3)) * 0.05
        feats = rng.normal(size=(10, 4))
        block = AggregatorBlock.zeros(0.3, 4, width=4)
        out = pa_stack(feats, pts, [np.arange(10)], [block])
        assert np.allclose(out, feats)

    def test_two_blocks_zero_weights_identity_at_final(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 3)) * 0.05
        feats = rng.normal(size=(12, 4))
        blocks = [AggregatorBlock.zeros(0.2, 4, 4), AggregatorBlock.zeros(0.4, 4, 4)]
        stage1 = np.array([0, 2, 4, 6, 8])
        stage2 = np.array([2, 6])
        out = pa_stack(feats, pts, [stage1, stage2], blocks)
        assert np.allclose(out, feats[stage2])

    def test_two_blocks_match_scripted_oracle(self):
        # Independent recomputation of both aggregation rounds on a 3-point
        # line with all-ones maps.
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
        feats = np.array([[1.0], [2.0], [3.0]])
        b1 = ones_block(0.15, 2)
        b2 = ones_block(0.45, 2)
        out = pa_stack(feats, pts, [np.array([0, 1, 2]), np.array([1])], [b1, b2])

        def aggregate(f, p, center, nbrs, r):
            vals = []
            for q in nbrs:
                row = np.concatenate([f[q], (p[q] - p[center]) / r])
                vals.append(max(row.sum(), 0.0))  # relu chain of the ones map
            return f[center] + max(vals)

        stage1_feats = np.array(
            [
                aggregate(feats, pts, 0, [0, 1], 0.15),
                aggregate(feats, pts, 1, [1, 0], 0.15),  # ties by index: self first
                aggregate(feats, pts, 2, [2, 1], 0.15),
            ]
        ).reshape(3, 1)
        expected = aggregate(stage1_feats, pts, 1, [1, 0], 0.45)
        assert np.allclose(out, [[expected[0]]])

    def test_normalized_offsets_within_unit_box(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(40, 3)) * 0.3
        r = 0.25
        nbrs = ball_query(pts, pts[:5], r, 8, center_indices=np.arange(5))
        offsets = (pts[nbrs] - pts[:5][:, None, :]) / r
        assert np.all(np.abs(offsets) <= 1.0 + 1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(15, 3)) * 0.2
        feats = rng.normal(size=(15, 2))
        layers = (
            (rng.normal(size=(5, 2)), rng.normal(size=2)),
            (rng.normal(size=(2, 2)), rng.normal(size=2)),
            (rng.normal(size=(2, 2)), rng.normal(size=2)),
        )
        block = AggregatorBlock(0.5, 4, layers)
        centers = np.array([3, 8])
        out = pa_stack(feats, pts, [centers], [block])
        perm = rng.permutation(15)
        inverse = np.empty(15, dtype=int)
        inverse[perm] = np.arange(15)
        out_p = pa_stack(feats[perm], pts[perm], [inverse[centers]], [block])
        assert np.allclose(out, out_p)

    def test_empty_stage_rejected(self):
        feats = np.zeros((3, 2))
        pts = np.zeros((3, 3))
        with pytest.raises(ValueError, match="empty"):
            pa_stack(feats, pts, [np.array([], dtype=int)], [AggregatorBlock.zeros(0.2, 2, 2)])

    def test_stage_nesting_enforced(self):
        feats = np.zeros((5, 2))
        pts = np.random.default_rng(8).normal(size=(5, 3))
        blocks = [AggregatorBlock.zeros(0.2, 2, 2), AggregatorBlock.zeros(0.4, 2, 2)]
        with pytest.raises(ValueError, match="nest"):
            pa_stack(feats, pts, [np.array([0, 1]), np.array([2])], blocks)


def make_heads(d, c, hp, fill=0.0):
    z = lambda *shape: np.full(shape, fill)
    return CandidateHeads(
        cls_weight=z(d, c),
        cls_bias=z(c),
        box_weight=z(d, 6),
        box_bias=z(6),
        kernel_weight=z(d, hp),
        kernel_bias=z(hp),
        quality_weight=z(d, 1),
        quality_bias=z(1),
    )


class TestHeads:
    def test_zero_weights(self):
        hp = KernelLayout((41, 32, 1)).param_count
        e = np.random.default_rng(0).normal(size=(3, 8))
        cls, box, kernel, quality = (v.value for v in heads(e, make_heads(8, 5, hp)))
        assert np.array_equal(cls, np.zeros((3, 5)))
        softplus0 = np.log(2.0)
        assert np.allclose(box[:, 3:] - box[:, :3], softplus0)
        assert np.allclose(box[:, :3], -softplus0 / 2.0)
        assert np.array_equal(quality, np.zeros(3))

    def test_kernel_width_matches_layout(self):
        hp = KernelLayout((41, 32, 1)).param_count
        assert hp == 1376
        e = np.zeros((2, 8))
        _, _, kernel, _ = heads(e, make_heads(8, 5, hp))
        assert kernel.shape == (2, 1376)

    def test_single_weight_hand_computation(self):
        # D=1 with weight 2 and bias 1 on the class head: logits = 2e + 1.
        head = make_heads(1, 2, 41)
        head = CandidateHeads(
            cls_weight=np.array([[2.0, 0.0]]),
            cls_bias=np.array([1.0, 0.0]),
            box_weight=head.box_weight,
            box_bias=head.box_bias,
            kernel_weight=head.kernel_weight,
            kernel_bias=head.kernel_bias,
            quality_weight=head.quality_weight,
            quality_bias=head.quality_bias,
        )
        e = np.array([[1.0], [2.0]])
        cls = heads(e, head)[0].value
        assert np.allclose(cls, [[3.0, 0.0], [5.0, 0.0]])

    def test_box_invariant_min_leq_max(self):
        rng = np.random.default_rng(9)
        hp = 41
        head = CandidateHeads(
            cls_weight=rng.normal(size=(4, 5)),
            cls_bias=rng.normal(size=5),
            box_weight=rng.normal(size=(4, 6)) * 3,
            box_bias=rng.normal(size=6) * 3,
            kernel_weight=rng.normal(size=(4, hp)),
            kernel_bias=rng.normal(size=hp),
            quality_weight=rng.normal(size=(4, 1)),
            quality_bias=rng.normal(size=1),
        )
        e = rng.normal(size=(20, 4))
        box = heads(e, head)[1].value
        assert np.all(box[:, :3] <= box[:, 3:])

