import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from pciseg.autodiff import Var
from pciseg.dynconv import KernelLayout, decoder_logits, layout_param_count
from pciseg.pipeline import _decode_mask_logits

# Published parameter counts for the decoder layer ablation; the flat-kernel
# slicing must reproduce them exactly (bias on every layer except the last).
KNOWN_COUNTS = {
    (41, 1): 41,
    (25, 8, 1): 216,
    (41, 16, 1): 688,
    (41, 32, 1): 1376,
    (41, 16, 16, 1): 960,
}


class TestLayout:
    @pytest.mark.parametrize("dims,expected", sorted(KNOWN_COUNTS.items()))
    def test_param_counts(self, dims, expected):
        assert layout_param_count(dims) == expected

    def test_final_width_must_be_one(self):
        with pytest.raises(ValueError):
            KernelLayout((41, 8))

    def test_split_flatten_round_trip(self):
        rng = np.random.default_rng(0)
        for dims in KNOWN_COUNTS:
            layout = KernelLayout(dims)
            w = rng.normal(size=layout.param_count)
            assert np.array_equal(layout.flatten(layout.split(w)), w)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    def test_round_trip_random_layouts(self, hidden):
        layout = KernelLayout(tuple(hidden) + (1,))
        w = np.random.default_rng(1).normal(size=layout.param_count)
        assert np.array_equal(layout.flatten(layout.split(w)), w)

    def test_kernel_length_checked(self):
        layout = KernelLayout((41, 1))
        with pytest.raises(ValueError):
            layout.split(np.zeros(40))


def read_channels(positions, point_boxes, cand_position, cand_box, mask_dim=1):
    """Every decoder input channel of one candidate over all points, (N, H+9).

    The production decoder runs once per channel c with a one-layer kernel
    that has a unit weight on input c, so its logit is channel c itself:
    mask features (zero here), then the offset from the candidate, then
    the box difference.
    """
    n, width = positions.shape[0], mask_dim + 9
    logits = _decode_mask_logits(
        Var(np.zeros((n, mask_dim))),
        np.asarray(positions, dtype=float),
        Var(np.asarray(point_boxes, dtype=float)),
        np.tile(np.asarray(cand_position, dtype=float), (width, 1)),
        Var(np.tile(np.asarray(cand_box, dtype=float), (width, 1))),
        Var(np.eye(width)),
        KernelLayout((width, 1)),
        "on",
    )
    return logits.value.T


def geo_channels(point_boxes, cand_box):
    point_boxes = np.asarray(point_boxes, dtype=float)
    return read_channels(np.zeros((point_boxes.shape[0], 3)), point_boxes, np.zeros(3), cand_box)[:, 4:]


def pos_channels(positions, cand_position):
    positions = np.asarray(positions, dtype=float)
    return read_channels(positions, np.zeros((positions.shape[0], 6)), cand_position, np.zeros(6))[:, 1:4]


class TestGeoFeature:
    def test_matching_box_gives_zeros(self):
        box = np.array([0.0, 0, 0, 1, 1, 1])
        out = geo_channels(box[None], box)
        assert np.array_equal(out, np.zeros((1, 6)))

    def test_single_component_difference(self):
        point_box = np.array([[0.0, 0, 0, 1, 1, 1]])
        cand = np.array([0.0, 0, 0, 2, 1, 1])
        assert np.array_equal(geo_channels(point_box, cand), [[0, 0, 0, 1, 0, 0]])

    def test_random_boxes_match_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 6))
        cand = rng.normal(size=6)
        expected = np.empty((20, 6))
        for i in range(20):
            for c in range(6):
                expected[i, c] = abs(pts[i, c] - cand[c])
        assert np.allclose(geo_channels(pts, cand), expected)


class TestRelPos:
    def test_point_at_candidate(self):
        out = pos_channels(np.array([[1.0, 2, 3]]), np.array([1.0, 2, 3]))
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_candidate_at_origin_is_identity(self):
        pts = np.random.default_rng(0).normal(size=(5, 3))
        assert np.array_equal(pos_channels(pts, np.zeros(3)), pts)

    def test_translation_invariance(self):
        pts = np.random.default_rng(1).normal(size=(5, 3))
        shift = np.array([3.0, -2.0, 0.5])
        assert np.allclose(pos_channels(pts, pts[0]), pos_channels(pts + shift, pts[0] + shift))


def soft_mask(inputs, kernel, layout):
    """One candidate's soft mask from its (N, c_0) decoder inputs."""
    return expit(decoder_logits(Var(inputs[None]), Var(kernel[None]), layout).value[0])


def single_layer_inputs(geo_values):
    """Decoder inputs of width 41 (32 mask, 3 position, 6 box dims), zero
    except for the first box-difference channel."""
    inputs = np.zeros((len(geo_values), 41))
    inputs[:, 35] = geo_values
    return inputs


class TestForward:
    def test_zero_kernel_gives_half(self):
        layout = KernelLayout((41, 32, 1))
        out = soft_mask(single_layer_inputs([0.3, 1.2]), np.zeros(layout.param_count), layout)
        assert np.allclose(out, 0.5)

    def test_geo_channel_detector(self):
        # Single layer, unit weight on the first geo channel: the logit is
        # the channel value, so 0 -> 0.5 and ln 3 -> 3/4.
        layout = KernelLayout((41, 1))
        kernel = np.zeros(41)
        kernel[35] = 1.0  # geo channel 0 sits after 32 mask + 3 position dims
        point_boxes = np.zeros((2, 6))
        point_boxes[:, 0] = [0.0, np.log(3.0)]
        logits = _decode_mask_logits(
            Var(np.zeros((2, 32))), np.zeros((2, 3)), Var(point_boxes), np.zeros((1, 3)),
            Var(np.zeros((1, 6))), Var(kernel[None]), layout, "on",
        )
        out = expit(logits.value[0])
        assert out[0] == pytest.approx(0.5)
        assert out[1] == pytest.approx(0.75)

    def test_pointwise_permutation(self):
        rng = np.random.default_rng(5)
        layout = KernelLayout((41, 16, 1))
        kernel = rng.normal(size=layout.param_count)
        inputs = rng.normal(size=(10, 41))
        out = soft_mask(inputs, kernel, layout)
        perm = rng.permutation(10)
        out_p = soft_mask(inputs[perm], kernel, layout)
        assert np.allclose(out[perm], out_p)

    def test_matches_straight_line_oracle(self):
        # Recompute the sliced layers with plain loops.
        rng = np.random.default_rng(7)
        layout = KernelLayout((41, 16, 1))
        kernel = rng.normal(size=layout.param_count)
        x = rng.normal(size=(6, 41))
        out = soft_mask(x, kernel, layout)
        w0 = kernel[: 41 * 16].reshape(41, 16)
        b0 = kernel[41 * 16 : 41 * 16 + 16]
        w1 = kernel[41 * 16 + 16 :].reshape(16, 1)
        expected = expit(np.maximum(x @ w0 + b0, 0.0) @ w1).ravel()
        assert np.allclose(out, expected)

    def test_kernel_length_mismatch(self):
        layout = KernelLayout((41, 1))
        with pytest.raises(ValueError):
            soft_mask(single_layer_inputs([0.0]), np.zeros(40), layout)

    def test_box_aware_separation(self):
        # Same mask features and positions, different candidate boxes: a
        # kernel reading the geo channels decodes different masks.
        layout = KernelLayout((41, 16, 1))
        kernel = np.zeros(layout.param_count)
        spec = layout.slices()
        w0 = np.zeros((41, 16))
        w0[35:41, 0] = -8.0  # hidden unit 0 drops with summed geo difference
        b0 = np.zeros(16)
        b0[0] = 4.0
        b0[1] = 1.0  # hidden unit 1 is a constant source
        w1 = np.zeros((16, 1))
        w1[0, 0] = 1.0
        w1[1, 0] = -2.0
        kernel[spec[0][0]] = w0.ravel()
        kernel[spec[0][1]] = b0
        kernel[spec[1][0]] = w1.ravel()

        n = 4
        point_boxes = np.zeros((n, 6))
        point_boxes[:2, 3] = 1.0  # first two points predict one box
        point_boxes[2:, 3] = 3.0  # last two predict another
        cand_boxes = np.array([[0.0, 0, 0, 1.0, 0, 0], [0.0, 0, 0, 3.0, 0, 0]])
        logits = _decode_mask_logits(
            Var(np.zeros((n, 32))), np.zeros((n, 3)), Var(point_boxes), np.zeros((2, 3)),
            Var(cand_boxes), Var(np.tile(kernel, (2, 1))), layout, "on",
        )
        out_a, out_b = expit(logits.value)
        assert np.all((out_a > 0.5) == [True, True, False, False])
        assert np.all((out_b > 0.5) == [False, False, True, True])
