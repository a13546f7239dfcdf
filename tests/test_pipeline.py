import dataclasses
import json
import struct

import numpy as np
import pytest

from pciseg import autodiff as ad
from pciseg import dynconv, pipeline
from pciseg.core import BINARIZE_THRESHOLD, mask_iou
from pciseg.pipeline import (
    MODEL_MAGIC,
    ModelParams,
    PipelineConfig,
    RmsProp,
    _forward_pointwise,
    infer,
    load_model,
    nms,
    save_model,
    scene_loss,
    superpoint_align,
    train,
)
from pciseg.scenegen import GenConfig, generate

from conftest import early_expansion_pointwise, needs_fifo, read_from_fifo, toy_scene


def tiny_config(**kwargs):
    defaults = dict(
        num_classes=5,
        d_model=8,
        mask_dim=4,
        layout_dims=(13, 8, 1),
        stage1_budget=16,
        chunk_sizes=(6, 4),
        k_train=8,
        num_neighbors=8,
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def inverse_softplus(y):
    return float(np.log(np.expm1(y)))


def oracle_model(config) -> ModelParams:
    """Hand-built parameters that segment well-separated clusters exactly.

    The encoder forwards raw positions, both pointwise and candidate box
    heads predict a fixed-size box centered on each point, and the kernel
    head emits a constant two-unit detector that rejects points whose
    box-difference features sum above a separation threshold.
    """
    model = ModelParams.initialize(config, 0)
    p = {name: np.zeros_like(value) for name, value in model.params.items()}
    d = config.d_model

    eye = np.zeros((18, d))
    eye[0:3, 0:3] = np.eye(3)
    p["enc.w0"] = eye
    p["enc.w1"][0:3, 0:3] = np.eye(3)
    p["enc.w2"][0:3, 0:3] = np.eye(3)

    p["point.sem_b"][:] = [-10.0, 10.0, 0.0, 0.0, 0.0]
    p["point.box_w"][0:3, 0:3] = np.eye(3)
    p["point.box_b"][3:] = inverse_softplus(0.5)

    p["head.cls_b"][:] = [10.0, 0.0, 0.0, 0.0, -10.0]
    p["head.box_w"][0:3, 0:3] = np.eye(3)
    p["head.box_b"][3:] = inverse_softplus(0.5)
    p["head.q_b"][:] = 3.0

    layout = config.kernel_layout()
    kernel = np.zeros(layout.param_count)
    spec = layout.slices()
    c0 = config.layout_dims[0]
    w0 = np.zeros((c0, config.layout_dims[1]))
    w0[c0 - 6 :, 0] = 1.0  # unit 0 accumulates the six geo channels
    b0 = np.zeros(config.layout_dims[1])
    b0[0] = -1.5  # separation threshold
    b0[1] = 1.0  # unit 1 is a constant source
    w1 = np.zeros((config.layout_dims[1], 1))
    w1[0, 0] = -4.0
    w1[1, 0] = 4.0
    kernel[spec[0][0]] = w0.ravel()
    kernel[spec[0][1]] = b0
    kernel[spec[1][0]] = w1.ravel()
    p["head.ker_b"] = kernel

    model.params.update(p)
    return model


class TestConfig:
    CONSTANTS = {"tau": 0.5, "nms_iou": 0.2, "binarize_threshold": 0.5, "background_classes": (0,)}

    def test_constants_read_from_an_instance(self):
        config = PipelineConfig()
        for name, value in self.CONSTANTS.items():
            assert getattr(config, name) == value
        assert PipelineConfig.binarize_threshold == BINARIZE_THRESHOLD

    @pytest.mark.parametrize("name", sorted(CONSTANTS))
    def test_constants_are_not_settings(self, name):
        with pytest.raises(TypeError):
            PipelineConfig(**{name: self.CONSTANTS[name]})

    def test_settable_field_counts(self):
        assert len(dataclasses.fields(PipelineConfig)) == 15
        assert len(dataclasses.fields(GenConfig)) == 9


class TestEncode:
    def test_duplicate_points_identical_rows(self):
        config = tiny_config()
        model = ModelParams.initialize(config, 3)
        pts = np.array([[0.5, 0.5, 0.5]] * 2 + [[1.0, 0.2, 0.0], [0.1, 0.9, 0.4]])
        scene = toy_scene(pts, [1] * 4, [0] * 4)
        feats = _forward_pointwise(scene, model.as_vars(), config, None)[0].value
        assert np.array_equal(feats[0], feats[1])

    def test_encoder_rows_do_not_depend_on_worker_count(self, monkeypatch):
        # Half the points sit on a coarse grid, so ties and the exact
        # fallback occur; the k-d tree queries split over the workers.
        rng = np.random.default_rng(4)
        positions = np.concatenate([np.round(rng.uniform(0, 1, (1000, 3)), 1), rng.uniform(0, 1, (1000, 3))])
        colors = rng.uniform(0, 1, (2000, 3))
        monkeypatch.setattr(dynconv, "MIN_SHARE_PAIRS", 1)
        rows = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(dynconv, "WORKERS", workers)
            rows.append(pipeline.encoder_inputs(positions, colors).tobytes())
        assert rows[1] == rows[0] and rows[2] == rows[0]

    def test_zero_weights_zero_features(self):
        config = tiny_config()
        model = ModelParams.initialize(config, 3)
        for name in model.params:
            if name.startswith("enc."):
                model.params[name] = np.zeros_like(model.params[name])
        scene = toy_scene(np.random.default_rng(0).uniform(0, 1, (6, 3)), [1] * 6, [0] * 6)
        feats = _forward_pointwise(scene, model.as_vars(), config, None)[0].value
        assert np.array_equal(feats, np.zeros((6, config.d_model)))

    def test_early_late_devoxelization_identical(self, two_cluster_scene):
        config = tiny_config(voxel_size=0.08)
        p = ModelParams.initialize(config, 5).as_vars()
        early = early_expansion_pointwise(two_cluster_scene, p, config, None)
        late = _forward_pointwise(two_cluster_scene, p, config, None)
        for a, b in zip(early[1:], late[1:]):  # semantic logits, boxes, mask features
            assert np.max(np.abs(a.value - b.value)) <= 1e-12

    def test_pointwise_box_invariant(self, two_cluster_scene):
        config = tiny_config()
        model = ModelParams.initialize(config, 9)
        boxes = _forward_pointwise(two_cluster_scene, model.as_vars(), config, None)[2].value
        assert np.all(boxes[:, :3] <= boxes[:, 3:])


class TestNms:
    def test_identical_masks_keep_first(self):
        masks = np.array([[1, 1, 0, 0], [1, 1, 0, 0]], dtype=bool)
        assert nms(masks, np.array([0.9, 0.8]), 0.2) == [0]

    def test_low_overlap_keeps_both(self):
        masks = np.array([[1, 1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1, 1, 1, 1, 1]], dtype=bool)
        assert mask_iou(masks[0], masks[1]) == pytest.approx(0.1)
        assert nms(masks, np.array([0.9, 0.8]), 0.2) == [0, 1]

    def test_chain_keeps_ends(self):
        # A~B IoU .5, B~C IoU .5, A~C IoU 0; scores A > B > C -> keep {A, C}
        a = np.array([1, 1, 0, 0], dtype=bool)
        b = np.array([1, 1, 1, 1], dtype=bool)
        c = np.array([0, 0, 1, 1], dtype=bool)
        assert mask_iou(a, b) == 0.5 and mask_iou(b, c) == 0.5 and mask_iou(a, c) == 0.0
        assert nms(np.stack([a, b, c]), np.array([0.9, 0.8, 0.7]), 0.2) == [0, 2]

    def test_threshold_is_strict(self):
        a = np.array([1, 1, 0, 0], dtype=bool)
        b = np.array([1, 1, 1, 1], dtype=bool)
        assert nms(np.stack([a, b]), np.array([0.9, 0.8]), 0.5) == [0, 1]

    def test_score_tie_lower_index_first(self):
        masks = np.array([[1, 1, 0, 0], [1, 1, 0, 0]], dtype=bool)
        assert nms(masks, np.array([0.8, 0.8]), 0.2) == [0]

    def test_matches_pairwise_greedy_oracle(self):
        def oracle(masks, scores, threshold):
            order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
            kept = []
            for i in order:
                ious = []
                for k in kept:
                    union = np.count_nonzero(masks[i] | masks[k])
                    ious.append(np.count_nonzero(masks[i] & masks[k]) / union if union else 1.0)
                if all(iou <= threshold for iou in ious):
                    kept.append(i)
            return kept

        rng = np.random.default_rng(8)
        for _ in range(40):
            k = int(rng.integers(0, 14))
            masks = rng.uniform(size=(k, 30)) < rng.uniform(0.1, 0.7, size=(k, 1))
            scores = rng.choice([0.2, 0.5, 0.9], size=k)  # many ties
            threshold = float(rng.choice([0.0, 0.2, 0.5]))
            assert nms(masks, scores, threshold) == oracle(masks, scores, threshold)


class TestSuperpointAlign:
    def test_fully_covered_superpoint_in(self):
        values = np.array([1.0, 1.0, 0.0, 0.0])
        spp = np.array([0, 0, 1, 1])
        assert superpoint_align(values, spp).tolist() == [True, True, False, False]

    def test_mean_below_half_out(self):
        values = np.array([0.4, 0.4])
        assert superpoint_align(values, np.array([0, 0])).tolist() == [False, False]

    def test_mixed_superpoints(self):
        values = np.array([0.7, 0.5, 0.3, 0.1])
        spp = np.array([0, 0, 1, 1])
        assert superpoint_align(values, spp).tolist() == [True, True, False, False]

    def test_missing_superpoints_binarizes(self):
        values = np.array([0.4, 0.7])
        assert superpoint_align(values, None).tolist() == [False, True]

    def test_output_constant_within_superpoint(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(size=40)
        spp = rng.integers(0, 6, size=40)
        out = superpoint_align(values, spp)
        for s in np.unique(spp):
            assert np.unique(out[spp == s]).size == 1


class TestInfer:
    def test_pure_background_scene_empty(self, two_cluster_scene):
        config = tiny_config()
        model = oracle_model(config)
        model.params["point.sem_b"] = np.array([10.0, -10.0, 0.0, 0.0, 0.0])
        assert infer(two_cluster_scene, model, config) == []

    def test_oracle_params_segment_two_clusters(self, two_cluster_scene):
        config = tiny_config()
        model = oracle_model(config)
        preds = infer(two_cluster_scene, model, config)
        assert len(preds) == 2
        covered = set()
        for pred in preds:
            assert pred.class_id == 1
            ious = [
                mask_iou(pred.mask, two_cluster_scene.instance_mask(j))
                for j in range(two_cluster_scene.num_instances)
            ]
            assert max(ious) == 1.0
            covered.add(int(np.argmax(ious)))
        assert covered == {0, 1}

    def test_deterministic(self, two_cluster_scene):
        config = tiny_config()
        model = ModelParams.initialize(config, 12)
        a = infer(two_cluster_scene, model, config)
        b = infer(two_cluster_scene, model, config)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.score == pb.score
            assert np.array_equal(pa.mask, pb.mask)

    def test_scores_sorted_descending(self, two_cluster_scene):
        config = tiny_config()
        model = ModelParams.initialize(config, 12)
        preds = infer(two_cluster_scene, model, config)
        scores = [p.score for p in preds]
        assert scores == sorted(scores, reverse=True)

    def test_each_candidate_aggregated_and_decoded_once(self, two_cluster_scene, monkeypatch):
        # Three IA-FPS chunks, the last one never fed back; each chunk is
        # decoded in one call.
        config = tiny_config(stage1_budget=12, chunk_sizes=(4, 3, 2))
        model = ModelParams.initialize(config, 1)
        aggregate, decode, sample = pipeline.aggregate_batch, pipeline._decode_mask_logits, pipeline.ia_fps_infer
        block2_rows, decoded_rows, decoded_widths, candidates, decode_calls = [], [], set(), [], []

        def counting_aggregate(block, features, positions, centers, neighbors):
            if block.radius == config.radii[1]:
                block2_rows.extend(centers.tolist())
            return aggregate(block, features, positions, centers, neighbors)

        def counting_decode(fmask, positions, point_boxes, cand_positions, *rest):
            decoded_rows.extend(map(tuple, cand_positions))
            decode_calls.append(cand_positions.shape[0])
            decoded_widths.add(positions.shape[0])
            return decode(fmask, positions, point_boxes, cand_positions, *rest)

        def recording_sample(*args):
            local_order = sample(*args)
            candidates.extend(local_order.tolist())
            return local_order

        monkeypatch.setattr(pipeline, "aggregate_batch", counting_aggregate)
        monkeypatch.setattr(pipeline, "_decode_mask_logits", counting_decode)
        monkeypatch.setattr(pipeline, "ia_fps_infer", recording_sample)
        infer(two_cluster_scene, model, config)
        assert len(candidates) > 4 + 3  # the last chunk ran
        assert sorted(block2_rows) == sorted(candidates)
        assert len(decoded_rows) == len(candidates) == len(set(candidates))
        assert decoded_widths == {two_cluster_scene.num_points}
        assert decode_calls == [4, 3, len(candidates) - 7]

    def test_candidate_stage_same_bytes_on_and_off_the_tape(self, two_cluster_scene):
        # Training records the tape from trainable leaves; inference passes plain values.
        config = tiny_config()
        model = ModelParams.initialize(config, 3)
        positions = two_cluster_scene.positions
        stage1 = pipeline.fps(positions, 12)
        outs = []
        for p in (model.as_vars(), model.as_vars(trainable=True)):
            pointwise = _forward_pointwise(two_cluster_scene, p, config, None)
            outs.append(pipeline._candidate_stage(p, config, pointwise, positions, stage1)(np.array([0, 3, 5, 7])))
        assert [v.requires_grad for v in outs[1]] == [True] * 4
        assert [v.shape for v in outs[1]] == [(4, 5), (4, 6), (4,), (4, 16)]
        assert [v.value.tobytes() for v in outs[0]] == [v.value.tobytes() for v in outs[1]]

    @pytest.mark.parametrize("run", ["infer", "scene_loss"])
    def test_decoder_reached_only_through_the_candidate_stage(self, two_cluster_scene, run, monkeypatch):
        config = tiny_config(stage1_budget=12, chunk_sizes=(4, 3, 2))
        model = ModelParams.initialize(config, 1)
        positions = two_cluster_scene.positions
        sample, make_stage, decode = pipeline.fps, pipeline._candidate_stage, pipeline._decode_mask_logits
        stage1s, inside, wanted, decoded = [], [], [], []

        def recording_fps(*args, **kwargs):
            stage1s.append(sample(*args, **kwargs))
            return stage1s[-1]

        def spying_stage(*args):
            stage = make_stage(*args)

            def spied(local_idx):
                wanted.append(positions[stage1s[-1][local_idx]])
                inside.append(True)
                try:
                    return stage(local_idx)
                finally:
                    inside.pop()

            return spied

        def spying_decode(fmask, point_positions, point_boxes, cand_positions, *rest):
            assert inside, "mask decoded outside the candidate stage"
            assert point_positions is positions
            decoded.append(cand_positions)
            return decode(fmask, point_positions, point_boxes, cand_positions, *rest)

        monkeypatch.setattr(pipeline, "fps", recording_fps)
        monkeypatch.setattr(pipeline, "_candidate_stage", spying_stage)
        monkeypatch.setattr(pipeline, "_decode_mask_logits", spying_decode)
        if run == "infer":
            infer(two_cluster_scene, model, config)
        else:
            scene_loss(two_cluster_scene, model.as_vars(trainable=True), config)
        assert len(stage1s) == 1
        assert len(decoded) == len(wanted) == (3 if run == "infer" else 1)
        for got, want in zip(decoded, wanted):
            assert np.array_equal(got, want)

    def test_early_late_full_pipeline_identical(self, two_cluster_scene, monkeypatch):
        model = ModelParams.initialize(tiny_config(), 5)
        config = tiny_config(voxel_size=0.08)
        outs = []
        with monkeypatch.context() as m:
            m.setattr(pipeline, "_forward_pointwise", early_expansion_pointwise)
            outs.append(infer(two_cluster_scene, model, config))
        outs.append(infer(two_cluster_scene, model, config))
        assert len(outs[0]) == len(outs[1])
        for pa, pb in zip(*outs):
            assert np.max(np.abs(pa.soft_mask - pb.soft_mask)) <= 1e-12
            assert pa.score == pb.score


class TestTraining:
    def test_zero_learning_rate_keeps_params(self):
        scenes = generate(GenConfig(num_scenes=2, points_per_scene=256, seed=3))
        config = tiny_config(learning_rate=0.0, epochs=2, batch_size=2)
        model, history = train(scenes, config, seed=1)
        reference = ModelParams.initialize(config, 1)
        for name in model.params:
            assert np.array_equal(model.params[name], reference.params[name]), name
        assert len(history) == 2

    def test_single_scene_overfit_decreases_instance_loss(self):
        scenes = generate(GenConfig(num_scenes=1, points_per_scene=256, seed=9))
        config = tiny_config(learning_rate=2e-3, epochs=10, batch_size=1)
        _, history = train(scenes, config, seed=2)
        inst = [
            h["cls_loss"] + h["box_loss"] + 5.0 * h["mask_loss"] + h["ms_loss"] for h in history
        ]
        assert all(b <= a + 1e-3 for a, b in zip(inst, inst[1:]))
        assert inst[-1] < inst[0]

    def test_deterministic_given_seed(self):
        scenes = generate(GenConfig(num_scenes=3, points_per_scene=256, seed=21))
        config = tiny_config(learning_rate=2e-3, epochs=2, batch_size=2)
        model_a, _ = train(scenes, config, seed=5)
        model_b, _ = train(scenes, config, seed=5)
        for name in model_a.params:
            assert np.array_equal(model_a.params[name], model_b.params[name]), name

    def test_divergence_aborts_with_diagnostic(self):
        scenes = generate(GenConfig(num_scenes=1, points_per_scene=256, seed=9))
        config = tiny_config(learning_rate=1e12, epochs=10, batch_size=1)
        with pytest.raises(RuntimeError, match="non-finite"):
            with np.errstate(all="ignore"):
                train(scenes, config, seed=2)

    def test_scene_without_instances_trains(self):
        rng = np.random.default_rng(4)
        empty = toy_scene(rng.uniform(0.0, 2.0, size=(200, 3)), [0] * 200, [-1] * 200)
        scenes = [empty] + generate(GenConfig(num_scenes=2, points_per_scene=256, seed=3))
        config = tiny_config(epochs=2, batch_size=2)
        model, history = train(scenes, config, seed=1)
        assert len(history) == 2
        assert all(np.isfinite(entry["total"]) for entry in history)
        leaves = model.as_vars(trainable=True)
        total, report = scene_loss(empty, leaves, config)
        assert report.mask_loss == report.box_loss == report.ms_loss == 0.0  # nothing to match
        ad.backward(total)
        grads = [leaf.grad for leaf in leaves.values() if leaf.grad is not None]
        assert grads and all(np.all(np.isfinite(g)) for g in grads)

    def test_rmsprop_clip_and_step(self):
        params = {"w": np.array([1.0, 1.0])}
        opt = RmsProp(params, lr=0.1, decay=0.5, eps=1e-8, clip=1.0)
        opt.step({"w": np.array([30.0, 40.0])})  # norm 50 -> clipped to 1
        assert np.all(params["w"] < 1.0)
        assert np.all(params["w"] > 0.7)

    def test_gradient_report(self, two_cluster_scene):
        config = tiny_config()
        model = ModelParams.initialize(config, 7)
        leaves = model.as_vars(trainable=True)
        total, _ = scene_loss(two_cluster_scene, leaves, config)
        ad.backward(total)
        grads = [np.zeros_like(leaf.value) if leaf.grad is None else leaf.grad for leaf in leaves.values()]
        vector = np.concatenate([g.ravel() for g in grads])
        assert vector.shape == (sum(value.size for value in model.params.values()),)
        assert np.all(np.isfinite(vector))
        assert np.any(vector != 0.0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        config = tiny_config()
        model = ModelParams.initialize(config, 11)
        path = tmp_path / "model.bin"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.d_model == model.d_model
        assert loaded.layout_dims == model.layout_dims
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])

    @needs_fifo
    def test_reads_from_a_pipe(self, tmp_path):
        model = ModelParams.initialize(tiny_config(), 11)
        path = tmp_path / "model.bin"
        save_model(path, model)
        loaded = read_from_fifo(load_model, path.read_bytes(), tmp_path / "pipe")
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated(self, tmp_path):
        config = tiny_config()
        model = ModelParams.initialize(config, 11)
        path = tmp_path / "model.bin"
        save_model(path, model)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    @staticmethod
    def write_raw(path, header, payload=b"", length=None):
        blob = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
        length = len(blob) if length is None else length
        path.write_bytes(MODEL_MAGIC + struct.pack("<I", length) + blob + payload)

    @staticmethod
    def saved_header(tmp_path):
        model = ModelParams.initialize(tiny_config(), 11)
        path = tmp_path / "model.bin"
        save_model(path, model)
        data = path.read_bytes()
        (length,) = struct.unpack("<I", data[8:12])
        return json.loads(data[12 : 12 + length]), data[12 + length :]

    def test_short_length_field(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(MODEL_MAGIC + b"\x10\x00")
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_header_length_beyond_file(self, tmp_path):
        path = tmp_path / "model.bin"
        self.write_raw(path, {"version": 1}, length=2**32 - 1)
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    @pytest.mark.parametrize("header", [b"\xff\xfe", b"{not json", b"[1, 2]", b"null"])
    def test_header_not_a_json_object(self, tmp_path, header):
        path = tmp_path / "model.bin"
        self.write_raw(path, header)
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("key", ["params", "d_model", "mask_dim", "num_classes", "layout_dims"])
    def test_missing_header_field(self, tmp_path, key):
        header, payload = self.saved_header(tmp_path)
        del header[key]
        path = tmp_path / "bad.bin"
        self.write_raw(path, header, payload)
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("d_model", "8"),
            ("d_model", 8.0),
            ("d_model", True),
            ("mask_dim", 0),
            ("num_classes", 1),
            ("layout_dims", []),
            ("layout_dims", [13]),
            ("layout_dims", [14, 8, 1]),
            ("layout_dims", [13, 8, 2]),
            ("layout_dims", "13,8,1"),
        ],
    )
    def test_malformed_structure(self, tmp_path, field, value):
        header, payload = self.saved_header(tmp_path)
        header[field] = value
        path = tmp_path / "bad.bin"
        self.write_raw(path, header, payload)
        with pytest.raises(ValueError):
            load_model(path)

    def test_parameters_checked_against_structure(self, tmp_path):
        header, payload = self.saved_header(tmp_path)
        cases = []
        swapped = [dict(spec) for spec in header["params"]]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        cases.append(swapped)
        renamed = [dict(spec) for spec in header["params"]]
        renamed[3]["name"] = "enc.bogus"
        cases.append(renamed)
        reshaped = [dict(spec) for spec in header["params"]]
        reshaped[0]["shape"] = list(reversed(reshaped[0]["shape"]))
        cases.append(reshaped)
        cases.append(header["params"][:-1])
        cases.append(header["params"] + [{"name": "extra", "shape": [1]}])
        path = tmp_path / "bad.bin"
        for params in cases:
            self.write_raw(path, header | {"params": params}, payload)
            with pytest.raises(ValueError, match="parameters"):
                load_model(path)

    def test_trailing_data(self, tmp_path):
        header, payload = self.saved_header(tmp_path)
        path = tmp_path / "bad.bin"
        self.write_raw(path, header, payload + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)
