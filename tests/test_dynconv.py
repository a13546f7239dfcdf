import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from pciseg import autodiff as ad
from pciseg import dynconv
from pciseg.autodiff import Var
from pciseg.dynconv import KernelLayout, decode_mask_logits
from pciseg.supervision import fd_gradient_check

from conftest import ROW_KINDS, full_walk_decoder_grads, upstream_with_zero_rows

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
        assert KernelLayout(dims).param_count == expected

    def test_final_width_must_be_one(self):
        with pytest.raises(ValueError):
            KernelLayout((41, 8))

    @staticmethod
    def assert_slices_tile(layout):
        """Per layer: a c_in x c_out weight block, then a bias on every layer
        but the last; together they cover the flat kernel once, in order."""
        w = np.random.default_rng(1).normal(size=layout.param_count)
        parts = []
        specs = layout.slices()
        for layer, (ws, bs, (c_in, c_out)) in enumerate(specs):
            assert (c_in, c_out) == layout.dims[layer : layer + 2]
            assert w[ws].size == c_in * c_out
            parts.append(w[ws])
            if layer < len(specs) - 1:
                assert w[bs].size == c_out
                parts.append(w[bs])
            else:
                assert bs is None
        assert np.array_equal(np.concatenate(parts), w)

    def test_split_flatten_round_trip(self):
        for dims in KNOWN_COUNTS:
            self.assert_slices_tile(KernelLayout(dims))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    def test_round_trip_random_layouts(self, hidden):
        self.assert_slices_tile(KernelLayout(tuple(hidden) + (1,)))

    def test_kernel_length_checked(self):
        layout = KernelLayout((41, 1))
        with pytest.raises(ValueError):
            soft_mask(np.zeros((2, 41)), np.zeros(40), layout)


def read_channels(positions, point_boxes, cand_position, cand_box, mask_dim=1):
    """Every decoder input channel of one candidate over all points, (N, H+9).

    The production decoder runs once per channel c with a one-layer kernel
    that has a unit weight on input c, so its logit is channel c itself:
    mask features (zero here), then the offset from the candidate, then
    the box difference.
    """
    n, width = positions.shape[0], mask_dim + 9
    logits = decode_mask_logits(
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
    """One candidate's soft mask from (N, c_0) decoder inputs.

    The columns enter as mask features, positions and point boxes, against
    a candidate at the origin with an all-zero box, so the decoder reads
    them unchanged except that the box-difference channels read |inputs|.
    """
    h = inputs.shape[1] - 9
    logits = decode_mask_logits(
        Var(inputs[:, :h]), inputs[:, h : h + 3], Var(inputs[:, h + 3 :]), np.zeros((1, 3)),
        Var(np.zeros((1, 6))), Var(kernel[None]), layout, "on",
    )
    return expit(logits.value[0])


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
        logits = decode_mask_logits(
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
        seen = np.concatenate([x[:, :35], np.abs(x[:, 35:])], axis=1)  # box channels read |x|
        w0 = kernel[: 41 * 16].reshape(41, 16)
        b0 = kernel[41 * 16 : 41 * 16 + 16]
        w1 = kernel[41 * 16 + 16 :].reshape(16, 1)
        expected = expit(np.maximum(seen @ w0 + b0, 0.0) @ w1).ravel()
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
        logits = decode_mask_logits(
            Var(np.zeros((n, 32))), np.zeros((n, 3)), Var(point_boxes), np.zeros((2, 3)),
            Var(cand_boxes), Var(np.tile(kernel, (2, 1))), layout, "on",
        )
        out_a, out_b = expit(logits.value)
        assert np.all((out_a > 0.5) == [True, True, False, False])
        assert np.all((out_b > 0.5) == [False, False, True, True])


def repeat_rows(x, k):
    """(N, H) ``x`` broadcast to (K, N, H); the vjp sums the K copies, as
    undoing numpy broadcasting does."""
    return ad.node(np.broadcast_to(x.value, (k,) + x.shape), (x,), lambda g: (g.sum(axis=0),))


def batched_oracle(fmask, positions, point_boxes, cand_positions, cand_boxes, kernels, layout, geo_cue):
    """The reference decoder: all K candidates' (K, N, c_0) inputs at once.

    It concatenates broadcast mask features, offsets and box differences,
    then runs each layer as one batched matmul on the tape's generic ops.
    """
    k, n, h = cand_positions.shape[0], positions.shape[0], fmask.shape[1]
    geo = ad.absolute(ad.sub(ad.reshape(point_boxes, (1, n, 6)), ad.reshape(cand_boxes, (k, 1, 6))))
    if geo_cue == "zero":
        geo = ad.mul(geo, 0.0)
    x = ad.concat(
        [
            repeat_rows(fmask, k),
            Var(positions[None, :, :] - cand_positions[:, None, :]),
            geo,
        ],
        axis=2,
    )
    specs = layout.slices()
    for layer, (w, b, (c_in, c_out)) in enumerate(specs):
        x = ad.matmul(x, ad.reshape(kernels[:, w], (k, c_in, c_out)))
        if b is not None:
            x = ad.add(x, ad.reshape(kernels[:, b], (k, 1, c_out)))
        if layer < len(specs) - 1:
            x = ad.relu(x)
    return ad.reshape(x, (k, n))


def decoder_case(k, n, dims, seed=0):
    """Random differentiable inputs (fmask, point boxes, candidate boxes,
    kernels) and constant positions for K candidates over N points."""
    rng = np.random.default_rng(seed)
    layout = KernelLayout(dims)
    leaves = {
        "fmask": rng.normal(size=(n, dims[0] - 9)),
        "point_boxes": rng.normal(size=(n, 6)),
        "cand_boxes": rng.normal(size=(k, 6)),
        "kernels": rng.normal(size=(k, layout.param_count)),
    }
    return leaves, rng.normal(size=(n, 3)), rng.normal(size=(k, 3)), layout


def decode(decoder, p, positions, cand_positions, layout, geo_cue):
    return decoder(
        p["fmask"], positions, p["point_boxes"], cand_positions, p["cand_boxes"], p["kernels"], layout, geo_cue
    )


class TestFusedDecoder:
    """``decode_mask_logits`` decodes one candidate at a time and recomputes
    its activations in the vjp; it must equal the batched oracle bit for bit."""

    @pytest.mark.parametrize("n", [1, 37])
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("geo_cue", ["on", "zero"])
    @pytest.mark.parametrize("dims", [(13, 1), (13, 8, 1), (13, 4, 4, 1)])
    def test_bit_identical_to_batched_oracle(self, dims, geo_cue, k, n):
        values, positions, cand_positions, layout = decoder_case(k, n, dims)
        upstream = np.random.default_rng(1).normal(size=(k, n))
        results = []
        for decoder in (batched_oracle, decode_mask_logits):
            p = {name: ad.parameter(v) for name, v in values.items()}
            logits = decode(decoder, p, positions, cand_positions, layout, geo_cue)
            ad.backward(ad.vsum(ad.mul(logits, upstream)))
            results.append([logits.value] + [p[name].grad for name in values])
        for name, want, got in zip(["logits", *values], *results):
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("geo_cue", ["on", "zero"])
    def test_finite_difference_gradients(self, geo_cue):
        values, positions, cand_positions, layout = decoder_case(3, 7, (13, 4, 1), seed=2)
        weights = np.random.default_rng(3).normal(size=(3, 7))

        def loss(p):
            logits = decode(decode_mask_logits, p, positions, cand_positions, layout, geo_cue)
            return ad.vsum(ad.mul(ad.sigmoid(logits), weights))

        assert fd_gradient_check(loss, values, epsilon=1e-5, skip_nonsmooth=True) <= 1e-5

    def test_signature_records_relu_and_box_sign_changes(self):
        # One hidden unit reads mask channel 0 (pre-activation = fmask[:, 0]);
        # no weight reads the box channels, so a box sign flip alone changes
        # nothing but the recorded signs.
        layout = KernelLayout((13, 1, 1))
        kernel = np.zeros(layout.param_count)
        (w0, _, _), (w1, _, _) = layout.slices()
        kernel[w0.start] = 1.0
        kernel[w1] = 1.0
        fmask = np.array([[0.5, 0, 0, 0], [-0.3, 0, 0, 0]])
        point_boxes = np.full((2, 6), 0.2)

        def digest(fmask, point_boxes):
            p = {
                "fmask": Var(fmask),
                "point_boxes": Var(point_boxes),
                "cand_boxes": Var(np.zeros((1, 6))),
                "kernels": Var(kernel[None]),
            }
            positions, cand_positions = np.zeros((2, 3)), np.zeros((1, 3))
            return ad.capture_signature(
                lambda: decode(decode_mask_logits, p, positions, cand_positions, layout, "on")
            )[1]

        base = digest(fmask, point_boxes)
        nudged = fmask.copy()
        nudged[0, 0] = 0.6
        assert digest(nudged, point_boxes) == base
        crossed = fmask.copy()
        crossed[0, 0] = -0.5
        assert digest(crossed, point_boxes) != base
        flipped = point_boxes.copy()
        flipped[1, 3] = -0.2
        assert digest(fmask, flipped) != base

    def test_memory_stays_per_candidate(self):
        """96 candidates over 4096 points decode within 16 MB of new allocations.

        The batched decoder built the (96, 4096, 41) float64 input, 129 MB,
        then (96, 4096, 32) hidden and temporary arrays of 100 MB each. The
        fused op holds the (96, 4096) logits (3.1 MB), one (4096, 41) input
        buffer (1.3 MB) and one candidate's hidden arrays (about 1 MB each).
        16 MB is an eighth of the old input alone, with room for those.
        """
        k, n = 96, 4096
        values, positions, cand_positions, layout = decoder_case(k, n, (41, 32, 1))
        p = {name: Var(v) for name, v in values.items()}
        tracemalloc.start()
        try:
            logits = decode(decode_mask_logits, p, positions, cand_positions, layout, "on")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert logits.shape == (k, n)
        assert peak < 16e6, f"decoding peaked at {peak / 1e6:.1f} MB"


class ReadsRows(np.ndarray):
    """Kernels that note every candidate row read from them."""

    def __getitem__(self, k):
        self.rows.append(int(k))
        return np.asarray(self)[k]


class TestZeroRowSkip:
    """The vjp walks only the candidates whose upstream gradient row has a
    non-zero entry, and every gradient keeps the bytes of the full walk
    (``conftest.full_walk_decoder_grads``), signed zeros included."""

    @settings(max_examples=200, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6),
        n=st.sampled_from([1, 2, 7]),
        dims=st.sampled_from([(13, 1), (13, 4, 1), (13, 3, 2, 1)]),
        geo_cue=st.sampled_from(["on", "zero"]),
        seed=st.integers(0, 2**16),
    )
    def test_bytes_equal_the_full_walk(self, kinds, n, dims, geo_cue, seed):
        values, positions, cand_positions, layout = decoder_case(len(kinds), n, dims, seed)
        g = upstream_with_zero_rows(kinds, n, seed)
        p = {name: ad.parameter(v) for name, v in values.items()}
        got = decode(decode_mask_logits, p, positions, cand_positions, layout, geo_cue)._vjp(g)
        want = full_walk_decoder_grads(**values, positions=positions, cand_positions=cand_positions,
                                       layout=layout, geo_cue=geo_cue, g=g)
        for name, a, b in zip(values, got, want):
            assert np.array_equal(a, b), name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("n, walked", [(37, [1, 4]), (1, [0, 1, 2, 3, 4, 5])])
    def test_vjp_reads_only_live_kernel_rows(self, n, walked):
        values, positions, cand_positions, layout = decoder_case(6, n, (13, 8, 1))
        p = {name: ad.parameter(v) for name, v in values.items()}
        logits = decode(decode_mask_logits, p, positions, cand_positions, layout, "on")
        tracked = p["kernels"].value.view(ReadsRows)
        tracked.rows = []
        p["kernels"].value = tracked
        g = upstream_with_zero_rows(["+0", "live", "-0", "signed zeros", "sparse", "+0"], n, 0)
        if n == 1:  # at N = 1 a sparse row may be all zeros; every row is walked regardless
            g[4] = 1.0
        g_kernels = logits._vjp(g)[3]
        assert sorted(set(tracked.rows)) == walked
        assert tracked.rows == sorted(tracked.rows), "candidates walked out of order"
        skipped = [k for k in range(6) if k not in walked]
        assert not np.signbit(g_kernels[skipped]).any() and not g_kernels[skipped].any()

    def test_all_zero_gradient_gives_zero_arrays(self):
        values, positions, cand_positions, layout = decoder_case(4, 9, (13, 8, 1))
        p = {name: ad.parameter(v) for name, v in values.items()}
        logits = decode(decode_mask_logits, p, positions, cand_positions, layout, "on")
        for grad, name in zip(logits._vjp(np.full((4, 9), -0.0)), values):
            assert grad.shape == values[name].shape
            assert not grad.any() and not np.signbit(grad).any(), name


def decode_with_grads(k, n, geo_cue):
    """Logits, the four gradients and the branch-signature digest of one
    decode and backward over a random (K, N) case."""
    values, positions, cand_positions, layout = decoder_case(k, n, (13, 8, 1), seed=k + n)
    upstream = np.random.default_rng(4).normal(size=(k, n))
    p = {name: ad.parameter(v) for name, v in values.items()}

    def run():
        logits = decode(decode_mask_logits, p, positions, cand_positions, layout, geo_cue)
        ad.backward(ad.vsum(ad.mul(logits, upstream)))
        return logits

    logits, digest = ad.capture_signature(run)
    return [logits.value.tobytes()] + [p[name].grad.tobytes() for name in values] + [digest]


class TracksThreads(np.ndarray):
    """Candidate positions that note the thread reading each candidate."""

    def __getitem__(self, k):
        self.readers.add(threading.get_ident())
        return np.asarray(self)[k]


class TestWorkerSplit:
    """The forward splits candidates over ``dynconv.WORKERS`` threads; no
    byte of the result may depend on the split. Unless a test says
    otherwise, a share may be as small as one candidate-point pair."""

    @pytest.fixture(autouse=True)
    def any_share_size(self, monkeypatch):
        monkeypatch.setattr(dynconv, "MIN_SHARE_PAIRS", 1)

    @pytest.mark.parametrize("n", [1, 37, 4096])
    @pytest.mark.parametrize("k", [1, 2, 5, 96])
    @pytest.mark.parametrize("geo_cue", ["on", "zero"])
    def test_bytes_do_not_depend_on_worker_count(self, monkeypatch, geo_cue, k, n):
        results = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(dynconv, "WORKERS", workers)
            results[workers] = decode_with_grads(k, n, geo_cue)
        names = ["logits", "fmask", "point_boxes", "cand_boxes", "kernels", "signature"]
        for workers in (2, 3):
            for name, want, got in zip(names, results[1], results[workers]):
                assert got == want, f"{name} differs with {workers} workers"

    def test_stress_more_workers_than_cores(self, monkeypatch):
        # Eight threads switching every microsecond share the logits and the
        # per-candidate signature marks; a lost or misplaced row changes bytes.
        results = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 8):
                monkeypatch.setattr(dynconv, "WORKERS", workers)
                results[workers] = decode_with_grads(96, 37, "on")
        finally:
            sys.setswitchinterval(switch)
        assert results[8] == results[1]

    @pytest.mark.parametrize("min_share_pairs,threads",[(1, 2), (6 * 37 // 2, 2), (6 * 37 // 2 + 1, 1)])
    def test_shares_hold_min_share_pairs(self, monkeypatch, min_share_pairs, threads):
        monkeypatch.setattr(dynconv, "WORKERS", 2)
        monkeypatch.setattr(dynconv, "MIN_SHARE_PAIRS", min_share_pairs)
        values, positions, cand_positions, layout = decoder_case(6, 37, (13, 8, 1))
        tracked = cand_positions.view(TracksThreads)
        tracked.readers = set()
        p = {name: Var(v) for name, v in values.items()}
        decode(decode_mask_logits, p, positions, tracked, layout, "on")
        assert len(tracked.readers) == threads

    @pytest.mark.parametrize(
        "env,cpus,expected",
        [
            ({}, 2, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
            ({"OPENBLAS_NUM_THREADS": "3"}, 2, 1),
            ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 4, 4),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 4, 2),
            ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1"}, 3, 3),
        ],
    )
    def test_worker_rule(self, monkeypatch, env, cpus, expected):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(dynconv.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert dynconv.worker_count() == expected

    def test_worker_error_raised_after_every_thread_joined(self, monkeypatch):
        # Candidate 1 (share 1 of 3) fails at once; candidate 5 (share 2)
        # is still decoding then. The caller must wait for it, then raise.
        monkeypatch.setattr(dynconv, "WORKERS", 3)
        values, positions, cand_positions, layout = decoder_case(6, 37, (13, 8, 1))
        seen = {}

        class FailsAtOne(np.ndarray):
            def __getitem__(self, k):
                if k == 1:
                    seen["failed_on"] = threading.get_ident()
                    raise RuntimeError("candidate 1 failed")
                if k == 5:
                    time.sleep(0.2)
                    seen["finished_5"] = True
                return np.asarray(self)[k]

        p = {name: Var(v) for name, v in values.items()}
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="candidate 1 failed"):
            decode(decode_mask_logits, p, positions, cand_positions.view(FailsAtOne), layout, "on")
        assert seen["failed_on"] != threading.get_ident()
        assert seen.get("finished_5")
        assert threading.active_count() == threads_before

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    def test_forked_child_decodes_after_threaded_decode(self, monkeypatch):
        monkeypatch.setattr(dynconv, "WORKERS", 2)
        values, positions, cand_positions, layout = decoder_case(5, 37, (13, 8, 1))
        p = {name: Var(v) for name, v in values.items()}

        def logits_bytes():
            return decode(decode_mask_logits, p, positions, cand_positions, layout, "on").value.tobytes()

        want = logits_bytes()
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(target=lambda: writer.send_bytes(logits_bytes()))
        child.start()
        writer.close()
        try:
            assert reader.poll(60.0), "the forked child did not decode within 60 s"
            got = reader.recv_bytes()
        finally:
            child.join(10.0)
            if child.is_alive():
                child.kill()
                child.join()
        assert got == want
