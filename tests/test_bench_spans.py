"""The benchmark's tracer still sees every layer of ``infer``, ``train``
and ``evaluate``.

``bench/spans.py`` rebinds module-level names of ``pipeline`` and
``evalmetrics`` to record per-layer spans and counters, so a refactor that
stops calling through one of those names would silently empty that layer's
metric.
"""

import importlib.util
from pathlib import Path

from pciseg import evalmetrics, pipeline
from pciseg.scenegen import GenConfig, generate

from test_pipeline import tiny_config

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

SHARED_SPANS = {
    "pipeline.encoder_knn",
    "pipeline.pointwise",
    "sampling.stage1_fps",
    "aggregator.ball_query",
    "aggregator.aggregate",
    "aggregator.heads",
}
INFER_SPANS = SHARED_SPANS | {
    "pipeline.infer",
    "sampling.iafps",
    "dynconv.feedback_decode",
    "dynconv.final_decode",
    "pipeline.nms",
    "pipeline.superpoint_align",
}
TRAIN_SPANS = SHARED_SPANS | {
    "pipeline.train",
    "dynconv.train_decode",
    "supervision.matching",
    "supervision.loss",
    "autodiff.backward",
    "pipeline.optimizer",
}


def tracer_class():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def fired(tracer) -> set:
    return {name for name, *_ in tracer.spans}


def test_every_layer_span_fires():
    Tracer = tracer_class()
    scenes = generate(GenConfig(num_scenes=2, points_per_scene=256, seed=3))
    assert scenes[0].superpoints is not None

    # Three IA-FPS chunks: two fed back, then a last chunk decoded after sampling.
    config = tiny_config(stage1_budget=24, chunk_sizes=(8, 6, 4))
    model = pipeline.ModelParams.initialize(config, 0)
    tracer = Tracer(config)
    with tracer:
        predictions = pipeline.infer(scenes[0], model, config)
    assert predictions
    assert fired(tracer) == INFER_SPANS
    assert tracer.counts["sampling.iafps_chunks"] == 3
    assert tracer.counts["sampling.candidates"] > 8 + 6
    assert tracer.counts["pipeline.nms_iou_calls"] == 1  # one IoU matrix per infer call

    # evaluate builds one mask IoU matrix per scene, however many thresholds.
    tracer = Tracer(config)
    with tracer:
        for scene in scenes:
            pipeline.infer(scene, model, config)
        report = evalmetrics.evaluate([predictions, predictions[:1]], scenes)
    assert fired(tracer) >= {"pipeline.infer", "evalmetrics.evaluate"}
    assert tracer.counts["pipeline.nms_iou_calls"] == len(scenes)
    assert tracer.counts["evalmetrics.mask_iou_calls"] == len(scenes)
    assert 0.0 <= report.ap <= 1.0

    config = tiny_config(epochs=1, batch_size=2)
    tracer = Tracer(config)
    with tracer:
        pipeline.train(scenes, config, seed=0)
    assert fired(tracer) == TRAIN_SPANS
    assert tracer.counts["dynconv.decoder_pairs"] > 0
    assert pipeline.infer.__module__ == "pciseg.pipeline"  # the wrappers are gone again
