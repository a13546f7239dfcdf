"""Spans and counters recorded around the calls into pciseg's layers.

The program is not edited: ``Tracer.install`` rebinds the module-level
names that ``pipeline`` (and the benchmark itself) call through, such as
``pipeline.fps`` or ``scenegen.read_scene``, to wrappers that record a span
(name, start, end, parent) and update counters; ``Tracer.uninstall`` puts
the originals back. Spans stay in memory until ``dump`` writes them out.

A layer's self time is its span's duration minus the time covered by its
child spans, so per-layer self times plus the root span's own remainder
add up to the root span.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

import numpy as np

from pciseg import autodiff, evalmetrics, pipeline, scenegen

# Root spans opened by the benchmark's own loop around each timed operation.
ROOTS = ("bench.scene", "bench.train_call")

# Span name -> per-layer metric name (time in ms).
LAYER_METRICS = {
    "pipeline.encoder_knn": "pipeline.encoder_knn_ms",
    "pipeline.pointwise": "pipeline.pointwise_ms",
    "sampling.stage1_fps": "sampling.stage1_fps_ms",
    "sampling.iafps": "sampling.iafps_ms",
    "aggregator.ball_query": "aggregator.ball_query_ms",
    "aggregator.aggregate": "aggregator.aggregate_ms",
    "aggregator.heads": "aggregator.heads_ms",
    "dynconv.feedback_decode": "dynconv.feedback_decode_ms",
    "dynconv.final_decode": "dynconv.final_decode_ms",
    "dynconv.train_decode": "dynconv.train_decode_ms",
    "pipeline.nms": "pipeline.nms_ms",
    "pipeline.superpoint_align": "pipeline.superpoint_align_ms",
    "pipeline.infer": "pipeline.infer_self_ms",
    "scenegen.io": "scenegen.io_ms",
    "supervision.matching": "supervision.matching_ms",
    "supervision.loss": "supervision.loss_ms",
    "autodiff.backward": "autodiff.backward_ms",
    "pipeline.optimizer": "pipeline.optimizer_ms",
    "pipeline.train": "pipeline.train_self_ms",
}

# Counters summed over the traced operations, reported per scene.
SCENE_COUNTS = (
    "sampling.foreground_points",
    "sampling.stage1_points",
    "sampling.candidates",
    "sampling.iafps_chunks",
    "dynconv.decoder_pairs",
    "pipeline.nms_iou_calls",
    "pipeline.nms_kept",
    "pipeline.predictions",
    "supervision.matched_pairs",
)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self, config: pipeline.PipelineConfig):
        self.config = config
        self.clock = time.perf_counter
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.decoder_input_mb = 0.0
        self.scene = None  # scene of the operation in progress, for recall
        self.last: dict = {}  # arrays of the latest call, for the checks
        self._stack: list[int] = []
        self._stage1 = None
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, fn, name, after=None):
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            idx = self.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, fn, key):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- counter hooks -----------------------------------------------------

    def _after_encoder(self, args, kwargs, result):
        self.last["encoder_inputs"] = result

    def _after_pointwise(self, args, kwargs, result):
        self.last["semantic_logits"] = result[1].value

    def _after_fps(self, args, kwargs, result):
        allowed = kwargs.get("candidate_filter")
        self.counts["sampling.foreground_points"] += int(np.count_nonzero(allowed))
        self.counts["sampling.stage1_points"] += int(result.size)
        self._stage1 = result
        self.last["fps_filter"] = np.asarray(allowed, dtype=bool)
        self.last["stage1"] = result

    def _after_iafps(self, args, kwargs, result):
        budget = args[2]
        decodes = self.counts.pop("_feedback_decodes", 0)
        covered = sum(budget.chunk_sizes[:decodes])
        chunks = decodes + (1 if result.size > covered else 0)
        self.counts["sampling.iafps_chunks"] += chunks
        self.last["local_order"] = result
        self._candidates(self._stage1[result])

    def _candidates(self, candidates: np.ndarray) -> None:
        self.counts["sampling.candidates"] += int(candidates.size)
        scene = self.scene
        if scene is not None and scene.num_instances:
            hit = np.unique(scene.instance_gt[candidates])
            self.counts["sampling.gt_hit"] += int(np.count_nonzero(hit >= 0))
            self.counts["sampling.gt_instances"] += scene.num_instances

    def _after_aggregate(self, args, kwargs, result):
        block, centers = args[0], args[3]
        if block.radius == self.config.radii[1]:
            self.counts["aggregator.block2_rows"] += int(np.asarray(centers).size)

    def _decode_name(self, args) -> str:
        k, m = args[3].shape[0], args[1].shape[0]
        width = args[6].dims[0]
        self.counts["dynconv.decoder_pairs"] += k * m
        self.decoder_input_mb = max(self.decoder_input_mb, k * m * width * 8 / 1e6)
        if self._inside("sampling.iafps"):
            self.counts["_feedback_decodes"] += 1
            return "dynconv.feedback_decode"
        if self._inside("pipeline.train"):
            self._candidates(self._stage1[:k])
            return "dynconv.train_decode"
        return "dynconv.final_decode"

    def _after_nms(self, args, kwargs, result):
        self.counts["pipeline.nms_kept"] += len(result)

    def _after_infer(self, args, kwargs, result):
        self.counts["pipeline.predictions"] += len(result)

    def _after_read(self, args, kwargs, result):
        self.scene = result

    def _after_match(self, args, kwargs, result):
        self.counts["supervision.matched_pairs"] += len(result.pairs)

    def _scene_loss_hook(self, fn):
        def wrapper(scene, *args, **kwargs):
            self.scene = scene
            return fn(scene, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        p, w = pipeline, self._wrap
        self._patch(p, "encoder_inputs", w(p.encoder_inputs, "pipeline.encoder_knn", self._after_encoder))
        self._patch(p, "_forward_pointwise", w(p._forward_pointwise, "pipeline.pointwise", self._after_pointwise))
        self._patch(p, "fps", w(p.fps, "sampling.stage1_fps", self._after_fps))
        self._patch(p, "ia_fps_infer", w(p.ia_fps_infer, "sampling.iafps", self._after_iafps))
        self._patch(p, "ball_query", w(p.ball_query, "aggregator.ball_query"))
        self._patch(p, "aggregate_batch", w(p.aggregate_batch, "aggregator.aggregate", self._after_aggregate))
        self._patch(p, "heads", w(p.heads, "aggregator.heads"))
        self._patch(p, "_decode_mask_logits", w(p._decode_mask_logits, self._decode_name))
        self._patch(p, "nms", w(p.nms, "pipeline.nms", self._after_nms))
        self._patch(p, "mask_iou", self._counting(p.mask_iou, "pipeline.nms_iou_calls"))
        self._patch(p, "superpoint_align", w(p.superpoint_align, "pipeline.superpoint_align"))
        self._patch(p, "infer", w(p.infer, "pipeline.infer", self._after_infer))
        self._patch(p, "train", w(p.train, "pipeline.train"))
        self._patch(p, "scene_loss", self._scene_loss_hook(p.scene_loss))
        self._patch(p, "pointwise_terms", w(p.pointwise_terms, "supervision.loss"))
        self._patch(p, "instance_loss_terms", w(p.instance_loss_terms, "supervision.loss"))
        self._patch(p, "matching_cost_matrix", w(p.matching_cost_matrix, "supervision.matching"))
        self._patch(p, "one_to_many_match", w(p.one_to_many_match, "supervision.matching", self._after_match))
        self._patch(autodiff, "backward", w(autodiff.backward, "autodiff.backward"))
        tracer, base = self, p.RmsProp

        class TracedRmsProp(base):
            def step(self, grads):
                idx = tracer.open("pipeline.optimizer")
                try:
                    base.step(self, grads)
                finally:
                    tracer.close(idx)

        self._patch(p, "RmsProp", TracedRmsProp)
        self._patch(scenegen, "read_scene", w(scenegen.read_scene, "scenegen.io", self._after_read))
        self._patch(scenegen, "write_predictions", w(scenegen.write_predictions, "scenegen.io"))
        self._patch(evalmetrics, "evaluate", w(evalmetrics.evaluate, "evalmetrics.evaluate"))
        self._patch(evalmetrics, "mask_iou", self._counting(evalmetrics.mask_iou, "evalmetrics.mask_iou_calls"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @contextlib.contextmanager
    def recording(self, root: str):
        """Install the wrappers and record one root span around the body."""
        with self:
            idx = self.open(root)
            try:
                yield
            finally:
                self.close(idx)

    # -- reports -----------------------------------------------------------

    def self_times_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += (end - start - inner) * 1e3
        return dict(totals)

    def root_durations_ms(self, root: str) -> list[float]:
        return [(end - start) * 1e3 for name, start, end, parent in self.spans if name == root and parent < 0]

    def dump(self, path, extra: dict) -> None:
        data = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "counters": dict(self.counts),
            "decoder_input_mb": self.decoder_input_mb,
        } | extra
        with open(path, "w") as f:
            json.dump(data, f)
