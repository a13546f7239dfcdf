import numpy as np
import pytest

from pciseg.aggregator import AggregatorBlock, aggregate_batch, ball_query, heads
from pciseg.autodiff import Var
from pciseg.dynconv import KernelLayout
from pciseg.pipeline import PipelineConfig, _candidate_encoder


def ones_block(radius, q, width=1):
    """Layers composing to the all-ones single linear map used by the
    hand-computed cases (identity second and third layers)."""
    layers = (
        (np.ones((width + 3, width)), np.zeros(width)),
        (np.eye(width), np.zeros(width)),
        (np.eye(width), np.zeros(width)),
    )
    return AggregatorBlock(radius, q, layers)


def zero_block(radius, q, width):
    layers = (
        (np.zeros((width + 3, width)), np.zeros(width)),
        (np.zeros((width, width)), np.zeros(width)),
        (np.zeros((width, width)), np.zeros(width)),
    )
    return AggregatorBlock(radius, q, layers)


def aggregate_at(block, feats, pts, centers):
    """One block at the given centers over all points, as the pipeline calls it."""
    nbrs = ball_query(pts, pts[centers], block.radius, block.num_neighbors, center_indices=centers)
    return aggregate_batch(block, Var(feats), pts, centers, nbrs).value


def stacked_features(feats, pts, stage1, local_idx, blocks):
    """Block-2 features at stage-1 rows ``local_idx``, through the pipeline.

    Runs ``pipeline._candidate_encoder`` with the two blocks' weights and a
    class head that copies the features through; the other heads are zero.
    """
    width = feats.shape[1]
    classes = max(width, 2)
    p = {}
    for prefix, block in zip(("pa1", "pa2"), blocks):
        for i, (w, b) in enumerate(block.layers):
            p[f"{prefix}.w{i}"], p[f"{prefix}.b{i}"] = w, b
    p |= make_heads(width, classes, 1)
    p["head.cls_w"] = np.eye(width, classes)
    config = PipelineConfig(radii=(blocks[0].radius, blocks[1].radius), num_neighbors=blocks[0].num_neighbors)
    encode = _candidate_encoder(p, config, Var(feats), pts, np.asarray(stage1))
    return encode(np.asarray(local_idx))[0].value[:, :width]


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
        block = zero_block(0.5, 3, width=2)
        feats = np.array([[1.0, -2.0], [0.5, 0.5]])
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0]])
        out = aggregate_batch(block, Var(feats), pts, np.array([0]), np.array([[0, 1, 1]]))
        assert np.array_equal(out.value, feats[:1])

    def test_hand_computed_all_ones_map(self):
        # Neighbors contribute max over relu chains of (feature + offsets/r);
        # rows [2, 0.5, 0, 0] -> 2.5 and [-1, -0.25, 0, 0] -> relu clips to 0,
        # so the pooled value is 2.5 and the residual adds 1.0.
        block = ones_block(radius=1.0, q=2)
        feats = np.array([[1.0], [2.0], [-1.0]])
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [-0.25, 0, 0]])
        out = aggregate_batch(block, Var(feats), pts, np.array([0]), np.array([[1, 2]]))
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
        out = aggregate_batch(block, Var(feats), pts, np.array([0]), np.array([[0, 0]])).value[0]
        x = np.concatenate([feats[0], np.zeros(3)])
        h = np.maximum(x @ layers[0][0] + layers[0][1], 0)
        h = np.maximum(h @ layers[1][0] + layers[1][1], 0)
        expected = feats[0] + (h @ layers[2][0] + layers[2][1])
        assert np.allclose(out, expected)


class TestPaStack:
    """The two-block aggregation stack over nested sample stages."""

    def test_single_block_zero_weights_identity(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(10, 3)) * 0.05
        feats = rng.normal(size=(10, 4))
        out = aggregate_at(zero_block(0.3, 4, width=4), feats, pts, np.arange(10))
        assert np.allclose(out, feats)

    def test_two_blocks_zero_weights_identity_at_final(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 3)) * 0.05
        feats = rng.normal(size=(12, 4))
        blocks = [zero_block(0.2, 4, 4), zero_block(0.4, 4, 4)]
        stage1 = np.array([0, 2, 4, 6, 8])
        stage2_local = np.array([1, 3])
        out = stacked_features(feats, pts, stage1, stage2_local, blocks)
        assert np.allclose(out, feats[stage1[stage2_local]])

    def test_two_blocks_match_scripted_oracle(self):
        # Independent recomputation of both aggregation rounds on a 3-point
        # line with all-ones maps.
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
        feats = np.array([[1.0], [2.0], [3.0]])
        b1 = ones_block(0.15, 2)
        b2 = ones_block(0.45, 2)
        out = stacked_features(feats, pts, np.array([0, 1, 2]), np.array([1]), [b1, b2])

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
        out = aggregate_at(block, feats, pts, centers)
        perm = rng.permutation(15)
        inverse = np.empty(15, dtype=int)
        inverse[perm] = np.arange(15)
        out_p = aggregate_at(block, feats[perm], pts[perm], inverse[centers])
        assert np.allclose(out, out_p)


def make_heads(d, c, hp, fill=0.0):
    """``head.*`` parameters for D-wide features, C classes and H' kernel entries."""
    widths = {"cls": c, "box": 6, "ker": hp, "q": 1}
    heads_params = {f"head.{name}_w": np.full((d, w), fill) for name, w in widths.items()}
    return heads_params | {f"head.{name}_b": np.full(w, fill) for name, w in widths.items()}


class TestHeads:
    def test_zero_weights(self):
        hp = KernelLayout((41, 32, 1)).param_count
        e = np.random.default_rng(0).normal(size=(3, 8))
        cls, box, kernel, quality = (v.value for v in heads(Var(e), make_heads(8, 5, hp)))
        assert np.array_equal(cls, np.zeros((3, 5)))
        softplus0 = np.log(2.0)
        assert np.allclose(box[:, 3:] - box[:, :3], softplus0)
        assert np.allclose(box[:, :3], -softplus0 / 2.0)
        assert np.array_equal(quality, np.zeros(3))

    def test_kernel_width_matches_layout(self):
        hp = KernelLayout((41, 32, 1)).param_count
        assert hp == 1376
        e = np.zeros((2, 8))
        _, _, kernel, _ = heads(Var(e), make_heads(8, 5, hp))
        assert kernel.shape == (2, 1376)

    def test_single_weight_hand_computation(self):
        # D=1 with weight 2 and bias 1 on the class head: logits = 2e + 1.
        head = make_heads(1, 2, 41)
        head["head.cls_w"] = np.array([[2.0, 0.0]])
        head["head.cls_b"] = np.array([1.0, 0.0])
        e = np.array([[1.0], [2.0]])
        cls = heads(Var(e), head)[0].value
        assert np.allclose(cls, [[3.0, 0.0], [5.0, 0.0]])

    def test_box_invariant_min_leq_max(self):
        rng = np.random.default_rng(9)
        hp = 41
        head = {
            "head.cls_w": rng.normal(size=(4, 5)),
            "head.cls_b": rng.normal(size=5),
            "head.box_w": rng.normal(size=(4, 6)) * 3,
            "head.box_b": rng.normal(size=6) * 3,
            "head.ker_w": rng.normal(size=(4, hp)),
            "head.ker_b": rng.normal(size=hp),
            "head.q_w": rng.normal(size=(4, 1)),
            "head.q_b": rng.normal(size=1),
        }
        e = rng.normal(size=(20, 4))
        box = heads(Var(e), head)[1].value
        assert np.all(box[:, :3] <= box[:, 3:])

