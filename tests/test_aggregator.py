import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pciseg import aggregator, autodiff as ad
from pciseg.aggregator import AggregatorBlock, aggregate_batch, ball_query, heads
from pciseg.autodiff import Var
from pciseg.dynconv import KernelLayout
from pciseg.pipeline import PipelineConfig, _candidate_stage
from pciseg.supervision import fd_gradient_check

from conftest import ROW_KINDS, chained_aggregate, full_walk_aggregate_grads, upstream_with_zero_rows


def tape_block(radius, q, layers):
    """A block whose (weight, bias) arrays are wrapped as tape constants."""
    return AggregatorBlock(radius, q, tuple((Var(w), Var(b)) for w, b in layers))


def ones_block(radius, q, width=1):
    """Layers composing to the all-ones single linear map used by the
    hand-computed cases (identity second and third layers)."""
    layers = (
        (np.ones((width + 3, width)), np.zeros(width)),
        (np.eye(width), np.zeros(width)),
        (np.eye(width), np.zeros(width)),
    )
    return tape_block(radius, q, layers)


def zero_block(radius, q, width):
    layers = (
        (np.zeros((width + 3, width)), np.zeros(width)),
        (np.zeros((width, width)), np.zeros(width)),
        (np.zeros((width, width)), np.zeros(width)),
    )
    return tape_block(radius, q, layers)


def aggregate_at(block, feats, pts, centers):
    """One block at the given centers over all points, as the pipeline calls it."""
    nbrs = ball_query(pts, pts[centers], block.radius, block.num_neighbors, center_indices=centers)
    return aggregate_batch(block, Var(feats), pts, centers, nbrs).value


def stacked_features(feats, pts, stage1, local_idx, blocks):
    """Block-2 features at stage-1 rows ``local_idx``, through the pipeline.

    Runs ``pipeline._candidate_stage`` with the two blocks' weights and a
    class head that copies the features through; the other heads, the mask
    features and the point boxes are zero.
    """
    width = feats.shape[1]
    classes = max(width, 2)
    config = PipelineConfig(radii=(blocks[0].radius, blocks[1].radius), num_neighbors=blocks[0].num_neighbors)
    p = {}
    for prefix, block in zip(("pa1", "pa2"), blocks):
        for i, (w, b) in enumerate(block.layers):
            p[f"{prefix}.w{i}"], p[f"{prefix}.b{i}"] = w, b
    p |= make_heads(width, classes, config.kernel_layout().param_count)
    p["head.cls_w"] = np.eye(width, classes)
    n = pts.shape[0]
    pointwise = (Var(feats), None, Var(np.zeros((n, 6))), Var(np.zeros((n, config.mask_dim))))
    stage = _candidate_stage(p, config, pointwise, pts, np.asarray(stage1))
    return stage(np.asarray(local_idx))[0].value[:, :width]


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
        block = tape_block(0.4, 2, layers)
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
        block = tape_block(0.5, 4, layers)
        centers = np.array([3, 8])
        out = aggregate_at(block, feats, pts, centers)
        perm = rng.permutation(15)
        inverse = np.empty(15, dtype=int)
        inverse[perm] = np.arange(15)
        out_p = aggregate_at(block, feats[perm], pts[perm], inverse[centers])
        assert np.allclose(out, out_p)


def random_case(k, width=32, q=32, m=400, seed=0):
    """A block, features, positions, centres and neighbour lists with
    repeats (padding of short balls) and hand-placed duplicate entries."""
    rng = np.random.default_rng(seed)
    layers = tuple(
        (rng.normal(size=(c_in, width)) / np.sqrt(c_in), rng.normal(size=width) * 0.3)
        for c_in in (width + 3, width, width)
    )
    block = tape_block(0.3, q, layers)
    pts = rng.random((m, 3)) * [2.0, 2.0, 0.5]
    feats = rng.normal(size=(m, width))
    centers = rng.choice(m, k, replace=k > m)
    nbrs = ball_query(pts, pts[centers], block.radius, q, centers)
    nbrs[::3, -2:] = nbrs[::3, :1]  # repeated neighbours beside the padding
    return block, feats, pts, centers, nbrs


def as_parameters(block):
    layers = tuple((ad.parameter(w.value), ad.parameter(b.value)) for w, b in block.layers)
    return AggregatorBlock(block.radius, block.num_neighbors, layers)


class TestFusedAggregation:
    """``aggregate_batch`` against the chain of generic tape ops it fuses."""

    @pytest.mark.parametrize("k", [1, 5, 33, 192])
    def test_inference_bytes_match_the_chain(self, k):
        block, feats, pts, centers, nbrs = random_case(k)
        assert np.any(nbrs[:, -1] == nbrs[:, 0]), "no padded or repeated neighbour list"
        got, digest = ad.capture_signature(lambda: aggregate_batch(block, Var(feats), pts, centers, nbrs))
        want, want_digest = ad.capture_signature(lambda: chained_aggregate(block, Var(feats), pts, centers, nbrs))
        assert got.value.tobytes() == want.value.tobytes()
        assert digest == want_digest
        assert not got.requires_grad

    @pytest.mark.parametrize("k", [1, 5, 33, 192])
    def test_training_bytes_match_the_chain(self, k):
        block, feats, pts, centers, nbrs = random_case(k, seed=k)
        upstream = np.random.default_rng(k).normal(size=(k, feats.shape[1]))
        grads = []
        for aggregate in (aggregate_batch, chained_aggregate):
            leaf, params = ad.parameter(feats), as_parameters(block)
            out = aggregate(params, leaf, pts, centers, nbrs)
            ad.backward(ad.vsum(ad.mul(out, upstream)))
            grads.append([out.value, leaf.grad] + [v.grad for pair in params.layers for v in pair])
        for got, want in zip(*grads):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k, width, q", [(5, 4, 6), (33, 2, 3)])
    def test_gradients_match_finite_differences(self, k, width, q):
        block, feats, pts, centers, nbrs = random_case(k, width=width, q=q, m=40, seed=3)
        params = {"f": feats}
        params |= {f"{kind}{i}": v.value for i, pair in enumerate(block.layers) for kind, v in zip("wb", pair)}

        def loss(p):
            layers = tuple((p[f"w{i}"], p[f"b{i}"]) for i in range(3))
            out = aggregate_batch(AggregatorBlock(block.radius, q, layers), p["f"], pts, centers, nbrs)
            return ad.vsum(ad.mul(out, out))

        assert fd_gradient_check(loss, params, epsilon=1e-6, skip_nonsmooth=True) <= 1e-5

    def test_signature_changes_when_a_relu_or_the_argmax_flips(self):
        # Two neighbours at the centre, so each pre-activation is the
        # neighbour's feature; identity second and third maps.
        block = ones_block(radius=1.0, q=2)
        pts = np.zeros((3, 3))

        def digest(f1, f2):
            feats = Var(np.array([[0.0], [f1], [f2]]))
            return ad.capture_signature(lambda: aggregate_batch(block, feats, pts, np.array([0]), np.array([[1, 2]])))[1]

        base = digest(2.0, 1.0)
        assert digest(3.0, 0.5) == base  # same ReLU patterns, same argmax
        assert digest(1.0, 2.0) != base  # the argmax flips
        assert digest(2.0, -1.0) != base  # a ReLU input flips

    def test_out_of_range_neighbours_rejected(self):
        block = zero_block(0.5, 2, width=2)
        with pytest.raises(ValueError, match="source rows"):
            aggregate_batch(block, Var(np.zeros((3, 2))), np.zeros((3, 3)), np.array([0]), np.array([[0, 3]]))

    def test_inference_memory_stays_within_chunks(self):
        # The chain held about 6.7 MB of (K, Q, ·) arrays for this call; the
        # fused op holds one chunk's buffers (about 1.4 MB peak in all).
        block, feats, pts, centers, nbrs = random_case(192)
        features = Var(feats)
        tracemalloc.start()
        try:
            aggregate_batch(block, features, pts, centers, nbrs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, f"aggregate_batch peaked at {peak / 1e6:.1f} MB"


def fused_vjp(block, feats, pts, centers, nbrs):
    """The vjp of the fused op inside ``aggregate_batch`` (the residual
    add's second parent), taped with every layer a parameter."""
    out = aggregate_batch(as_parameters(block), ad.parameter(feats), pts, centers, nbrs)
    return out._parents[1]._vjp


class TestZeroRowSkip:
    """The vjp walks only the centres whose upstream gradient row has a
    non-zero entry; every gradient keeps the bytes of the full walk
    (``conftest.full_walk_aggregate_grads``), signed zeros included."""

    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=2 * aggregator.CHUNK_CENTERS + 5),
        width=st.integers(1, 4),
        q=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_bytes_equal_the_full_walk(self, kinds, width, q, seed):
        if width == 1:
            # numpy sums (rows, 1) parts pairwise, so the oracle's one-batch
            # sums equal the op's chunk-by-chunk sums only within one chunk.
            kinds = kinds[: aggregator.CHUNK_CENTERS]
        k, m = len(kinds), 12
        rng = np.random.default_rng(seed)
        layers = tuple((rng.normal(size=(c_in, width)), rng.normal(size=width)) for c_in in (width + 3, width, width))
        block = tape_block(0.5, q, layers)
        feats, pts = rng.normal(size=(m, width)), rng.random((m, 3))
        centers, nbrs = rng.integers(0, m, k), rng.integers(0, m, (k, q))
        g = upstream_with_zero_rows(kinds, width, seed)
        got = fused_vjp(block, feats, pts, centers, nbrs)(g)
        want = full_walk_aggregate_grads(block, feats, pts, centers, nbrs, g)
        for i, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(a, b), i
            assert a.tobytes() == b.tobytes(), i

    @pytest.mark.parametrize("sign", [0.0, -0.0])
    def test_all_zero_gradient_gives_zero_arrays(self, sign):
        block, feats, pts, centers, nbrs = random_case(40, width=4, q=3, m=40)
        grads = fused_vjp(block, feats, pts, centers, nbrs)(np.full((40, 4), sign))
        shapes = [feats.shape] + [v.shape for pair in block.layers for v in pair]
        assert len(grads) == len(shapes)
        for grad, shape in zip(grads, shapes):
            assert grad is not None and grad.shape == shape
            assert not grad.any() and not np.signbit(grad).any()

    def test_no_centres_give_no_layer_gradients(self):
        block, feats, pts, _, _ = random_case(1, width=4, q=3, m=40)
        centers, nbrs = np.zeros(0, dtype=np.int64), np.zeros((0, 3), dtype=np.int64)
        grads = fused_vjp(block, feats, pts, centers, nbrs)(np.zeros((0, 4)))
        assert np.array_equal(grads[0], np.zeros(feats.shape))
        assert all(grad is None for grad in grads[1:])


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

