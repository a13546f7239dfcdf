"""End-to-end orchestration: encoder, pointwise predictor, candidate
pipeline, mask decoding, scoring, and the desk-scale training loop.

The feature encoder is a pluggable stand-in for a heavy backbone: simple
per-point statistics (position, color, and mean/std over the 16 nearest
neighbors) pushed through a seeded 3-layer map. Everything downstream runs
on the differentiation tape so inference and training share one forward
path.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import expit, softmax

from . import autodiff as ad, dynconv
from .aggregator import AggregatorBlock, aggregate_batch, ball_query, box_from_raw, heads
from .autodiff import Var
from .core import (
    BINARIZE_LOGIT,
    BINARIZE_THRESHOLD,
    Aabb,
    Prediction,
    Scene,
    binarize,
    mask_iou,
    nearest,
    voxelize,
)
# _candidate_stage decodes through this module-level name, which bench/spans.py rebinds.
from .dynconv import KernelLayout, decode_mask_logits as _decode_mask_logits
from .evalmetrics import average_precision
from .sampling import TAU, SampleBudget, fps, ia_fps_infer
from .scenegen import read_exact
from .supervision import (
    Assignment,
    InstanceTargets,
    LossReport,
    instance_loss_terms,
    matching_cost_matrix,
    one_to_many_match,
    pointwise_terms,
)

logger = logging.getLogger(__name__)

ENCODER_KNN = 16
ENCODER_INPUT_DIM = 18
DUPLICATION = 4  # candidates that matching may assign to one ground-truth instance
GRAD_CLIP = 5.0  # global gradient-norm bound of each training step
RMS_DECAY = 0.9  # decay of the squared-gradient average
RMS_EPS = 1e-8  # added to the root of that average before dividing

MODEL_MAGIC = b"PCMODEL\x00"
MODEL_VERSION = 1


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline settings: architecture, sampling, decoding, and training.

    The class constants are fixed parts of the method, not settings.
    """

    # foreground: 1 - P(background classes) > tau
    tau: ClassVar[float] = TAU
    background_classes: ClassVar[tuple[int, ...]] = (0,)
    nms_iou: ClassVar[float] = 0.2
    binarize_threshold: ClassVar[float] = BINARIZE_THRESHOLD

    num_classes: int = 5
    d_model: int = 32
    mask_dim: int = 32
    layout_dims: tuple[int, ...] = (41, 32, 1)
    geo_cue: str = "on"  # "on" | "zero" (box-difference features zeroed)
    chunk_sizes: tuple[int, ...] = (192, 128, 64)
    k_train: int = 256
    stage1_budget: int = 512
    radii: tuple[float, float] = (0.2, 0.4)
    num_neighbors: int = 32
    voxel_size: float | None = None
    # training
    learning_rate: float = 5e-3
    batch_size: int = 4
    epochs: int = 40
    eval_every: int = 10

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need background plus at least one instance class")
        if self.geo_cue not in ("on", "zero"):
            raise ValueError("geo_cue must be on or zero")
        for name in ("d_model", "mask_dim", "num_neighbors", "batch_size", "eval_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        self.kernel_layout()  # raises on a malformed layout
        self.sample_budget()  # raises on malformed chunks
        # decoder input: mask features, 3 offsets, 6 box differences
        if self.layout_dims[0] != self.mask_dim + 9:
            raise ValueError(
                f"layout input width {self.layout_dims[0]} does not match the decoder "
                f"input ({self.mask_dim + 9})"
            )
        if self.k_train < 1 or self.stage1_budget < 1:
            raise ValueError("sampling budgets must be positive")
        if len(self.radii) != 2 or not all(np.isfinite(r) and r > 0 for r in self.radii):
            raise ValueError("radii must be two positive finite values")
        if self.voxel_size is not None and not (np.isfinite(self.voxel_size) and self.voxel_size > 0):
            raise ValueError("voxel_size must be None or positive and finite")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be non-negative and finite")

    def kernel_layout(self) -> KernelLayout:
        return KernelLayout(self.layout_dims)

    def sample_budget(self) -> SampleBudget:
        return SampleBudget(self.chunk_sizes)


def default_config_for(model: "ModelParams") -> PipelineConfig:
    """A config matching a model's structure."""
    return PipelineConfig(
        num_classes=model.num_classes,
        d_model=model.d_model,
        mask_dim=model.mask_dim,
        layout_dims=tuple(model.layout_dims),
    )


def _param_specs(config: PipelineConfig) -> list[tuple[str, tuple[int, ...]]]:
    d, h, c = config.d_model, config.mask_dim, config.num_classes
    hp = config.kernel_layout().param_count
    specs: list[tuple[str, tuple[int, ...]]] = []
    widths = [ENCODER_INPUT_DIM, d, d, d]
    for i in range(3):
        specs.append((f"enc.w{i}", (widths[i], widths[i + 1])))
        specs.append((f"enc.b{i}", (widths[i + 1],)))
    specs += [
        ("point.sem_w", (d, c)),
        ("point.sem_b", (c,)),
        ("point.box_w", (d, 6)),
        ("point.box_b", (6,)),
        ("point.mask_w", (d, h)),
        ("point.mask_b", (h,)),
    ]
    for name in ("pa1", "pa2"):
        pa_widths = [d + 3, d, d, d]
        for i in range(3):
            specs.append((f"{name}.w{i}", (pa_widths[i], pa_widths[i + 1])))
            specs.append((f"{name}.b{i}", (pa_widths[i + 1],)))
    # candidate classes: the instance classes 1..C-1 plus a trailing no-object slot
    specs += [
        ("head.cls_w", (d, c)),
        ("head.cls_b", (c,)),
        ("head.box_w", (d, 6)),
        ("head.box_b", (6,)),
        ("head.ker_w", (d, hp)),
        ("head.ker_b", (hp,)),
        ("head.q_w", (d, 1)),
        ("head.q_b", (1,)),
    ]
    return specs


@dataclass
class ModelParams:
    """Learnable parameters plus the structural facts needed to use them."""

    d_model: int
    mask_dim: int
    num_classes: int
    layout_dims: tuple[int, ...]
    params: dict

    @classmethod
    def initialize(cls, config: PipelineConfig, seed: int) -> "ModelParams":
        """Seeded uniform init in +-1/sqrt(fan_in); each bias follows its weight."""
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        fan_in = ENCODER_INPUT_DIM
        for name, shape in _param_specs(config):
            if len(shape) == 2:
                fan_in = shape[0]
            bound = 1.0 / np.sqrt(fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape)
        return cls(config.d_model, config.mask_dim, config.num_classes, tuple(config.layout_dims), params)

    def as_vars(self, trainable: bool = False) -> dict:
        if trainable:
            return {name: ad.parameter(value) for name, value in self.params.items()}
        return {name: Var(value) for name, value in self.params.items()}

    def check_finite(self) -> None:
        for name, value in self.params.items():
            if not np.all(np.isfinite(value)):
                raise RuntimeError(f"parameter {name} became non-finite")


def check_class_counts(scenes: list[Scene], num_classes: int, owner: str) -> None:
    """Raise ValueError at the first scene whose class count differs from
    the ``num_classes`` of ``owner`` (the model or the config)."""
    for scene in scenes:
        if scene.num_classes != num_classes:
            raise ValueError(f"scene has {scene.num_classes} classes, the {owner} {num_classes}")


def match_config(model: ModelParams, config: PipelineConfig) -> None:
    """Raise when a config cannot drive the given parameters."""
    if (
        model.d_model != config.d_model
        or model.mask_dim != config.mask_dim
        or model.num_classes != config.num_classes
        or tuple(model.layout_dims) != tuple(config.layout_dims)
    ):
        raise ValueError("model structure does not match the pipeline config")


def encoder_inputs(positions: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Per-point raw encoder features: self plus k-nearest-neighbor stats.

    Neighborhoods are the 16 nearest points, self included, ordered by
    (squared distance, index): ties go to the lower index, so duplicated
    coordinates always receive identical rows. :func:`core.nearest` finds
    them exactly; its tree queries split over ``dynconv.share_count``
    threads. The mean and standard deviation over a neighbourhood are
    numpy's ``mean`` and ``std`` bytes: the std reuses the mean and squares
    the deviations in place.
    """
    positions = np.asarray(positions, dtype=np.float64)
    colors = np.asarray(colors, dtype=np.float64)
    m = positions.shape[0]
    k = min(ENCODER_KNN, m)
    workers = dynconv.share_count(m * (ENCODER_KNN + 1))
    nn = nearest(positions, positions, ENCODER_KNN, workers=workers)[:, :k]
    # One neighbour-major (k, N, 6) gather of positions and colours: the
    # statistics reduce over whole (N, 6) slices, with the same additions
    # in the same order per entry. ``np.take`` copies the same rows as the
    # fancy index ``rows[nn.T]`` in about a third of the time.
    near = np.take(np.concatenate([positions, colors], axis=1), nn.T, axis=0)
    mean = near.sum(axis=0)
    mean /= k
    near -= mean
    np.square(near, out=near)
    std = near.sum(axis=0)
    std /= k
    np.sqrt(std, out=std)
    return np.concatenate(
        [positions, colors, mean[:, :3], std[:, :3], mean[:, 3:], std[:, 3:]],
        axis=1,
    )


def _voxel_means(values: np.ndarray, vmap) -> np.ndarray:
    sums = ad.scatter_rows(vmap.point_to_voxel, values, vmap.num_voxels)
    counts = np.bincount(vmap.point_to_voxel, minlength=vmap.num_voxels).astype(np.float64)
    return sums / counts[:, None]


@dataclass
class EncoderCache:
    """Precomputed raw encoder inputs (and the voxel map in voxel mode)."""

    inputs: np.ndarray
    vmap: object = None


def build_encoder_cache(scene: Scene, config: PipelineConfig) -> EncoderCache:
    if config.voxel_size is None:
        return EncoderCache(encoder_inputs(scene.positions, scene.colors))
    vmap = voxelize(scene, config.voxel_size)
    vpos = _voxel_means(scene.positions, vmap)
    vcol = _voxel_means(scene.colors, vmap)
    return EncoderCache(encoder_inputs(vpos, vcol), vmap)


def _mlp3(x: Var, p: dict, prefix: str) -> Var:
    h = ad.relu(ad.add(ad.matmul(x, p[f"{prefix}.w0"]), p[f"{prefix}.b0"]))
    h = ad.relu(ad.add(ad.matmul(h, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
    return ad.add(ad.matmul(h, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])


def _affine(x: Var, p: dict, name: str) -> Var:
    return ad.add(ad.matmul(x, p[f"{name}_w"]), p[f"{name}_b"])


def _forward_pointwise(scene: Scene, p: dict, config: PipelineConfig, cache: EncoderCache | None):
    """Backbone features plus pointwise heads, all at point resolution.

    In voxel mode the encoder and the pointwise heads run at voxel
    resolution, and their rows are then gathered to points through the
    voxel map (late expansion). Every map is pointwise, so gathering right
    after the encoder instead would give identical per-point rows.
    """
    if cache is None:
        cache = build_encoder_cache(scene, config)
    feats = _mlp3(Var(cache.inputs), p, "enc")
    sem = _affine(feats, p, "point.sem")
    boxes = box_from_raw(_affine(feats, p, "point.box"))
    fmask = _affine(feats, p, "point.mask")
    if cache.vmap is not None:
        idx = cache.vmap.point_to_voxel
        feats, sem, boxes, fmask = feats[idx], sem[idx], boxes[idx], fmask[idx]
    return feats, sem, boxes, fmask


def _foreground(sem: Var) -> np.ndarray:
    """Points whose predicted background probability passes 1 - P > tau."""
    background = softmax(sem.value, axis=1)[:, list(PipelineConfig.background_classes)].sum(axis=1)
    return (1.0 - background) > PipelineConfig.tau


def _candidate_stage(p: dict, config: PipelineConfig, pointwise: tuple, positions: np.ndarray, stage1: np.ndarray):
    """The candidate stage that inference and training share.

    Block 1 aggregates the scene at the stage-1 points once. The returned
    function maps local indices into stage 1 to those candidates' class
    logits, boxes, quality logits and raw mask logits: block 2, the heads,
    then each kernel decoded over every point.
    """
    feats, _, point_boxes, fmask = pointwise
    layout = config.kernel_layout()

    def block(prefix: str, radius: float) -> AggregatorBlock:
        layers = tuple((p[f"{prefix}.w{i}"], p[f"{prefix}.b{i}"]) for i in range(3))
        return AggregatorBlock(radius, config.num_neighbors, layers)

    block1, block2 = block("pa1", config.radii[0]), block("pa2", config.radii[1])
    nb1 = ball_query(positions, positions[stage1], block1.radius, block1.num_neighbors, stage1)
    feats1 = aggregate_batch(block1, feats, positions, stage1, nb1)
    sub_pos = positions[stage1]

    def stage(local_idx: np.ndarray):
        nb2 = ball_query(sub_pos, sub_pos[local_idx], block2.radius, block2.num_neighbors, local_idx)
        cls_logits, boxes, kernels, quality = heads(aggregate_batch(block2, feats1, sub_pos, local_idx, nb2), p)
        centers = stage1[local_idx]
        mask_logits = _decode_mask_logits(
            fmask, positions, point_boxes, positions[centers], point_boxes[centers], kernels, layout, config.geo_cue
        )
        return cls_logits, boxes, quality, mask_logits

    return stage


def nms(masks: np.ndarray, scores: np.ndarray, iou_threshold: float) -> list[int]:
    """Greedy mask suppression by descending score, ties to lower index.

    A mask is dropped when its IoU with an already-kept mask strictly
    exceeds the threshold. The first mask in that order is always kept;
    every other mask compares the running maximum of its IoUs with the
    kept masks, read from the one pairwise IoU matrix.
    """
    masks = np.asarray(masks)
    scores = np.asarray(scores, dtype=np.float64)
    if masks.shape[0] != scores.shape[0]:
        raise ValueError("masks and scores must align")
    ious = mask_iou(masks, masks)
    order = np.lexsort((np.arange(scores.size), -scores))
    kept: list[int] = []
    highest = np.zeros(scores.size)  # each mask's highest IoU with a kept mask
    for idx in order:
        if not kept or highest[idx] <= iou_threshold:
            kept.append(int(idx))
            np.maximum(highest, ious[:, idx], out=highest)
    return kept


def superpoint_align(mask_values: np.ndarray, superpoints: np.ndarray | None) -> np.ndarray:
    """Snap soft masks to whole superpoints by mean value; strict > 0.5.

    ``mask_values`` is one (N,) soft mask or a (P, N) stack of them, and
    the result has its shape. A stack inverts the superpoint ids once and
    sums all its rows in one ``bincount``, each row over its own bins in
    ascending point order, so every row gets the bytes it gets alone.
    Falls back to plain binarization when no superpoints are given.
    """
    mask_values = np.asarray(mask_values, dtype=np.float64)
    if superpoints is None:
        return binarize(mask_values)
    groups, inverse = np.unique(np.asarray(superpoints), return_inverse=True)
    stack = np.atleast_2d(mask_values)
    shape = (stack.shape[0], groups.size)
    bins = np.arange(shape[0])[:, None] * groups.size + inverse
    sums = np.bincount(bins.ravel(), weights=stack.ravel(), minlength=shape[0] * shape[1]).reshape(shape)
    keep = sums / np.bincount(inverse) > 0.5
    return keep[:, inverse].reshape(mask_values.shape)


def _score_candidates(class_logits: np.ndarray, quality_logits: np.ndarray):
    """Semantic class ids and confidence scores.

    Confidence is the best instance-class probability times the squashed
    quality logit; the trailing no-object column never wins a class.
    """
    inst_probs = softmax(class_logits, axis=1)[:, :-1]
    best_col = inst_probs.argmax(axis=1)
    scores = inst_probs.max(axis=1) * expit(quality_logits)
    return best_col + 1, scores


def infer(
    scene: Scene,
    model: ModelParams,
    config: PipelineConfig | None = None,
) -> list[Prediction]:
    """Full inference pass; deterministic given (scene, model, config).

    Returns predictions sorted by descending confidence with masks
    binarized (and superpoint-aligned when the scene carries a partition).
    A scene with no predicted-foreground points yields an empty list. A
    scene whose class count differs from the model's raises ValueError.

    Each chunk keeps its raw mask logits. The sigmoid is taken only where
    it is read: IA-FPS feedback takes it at the stage-1 points, NMS
    binarizes the logits as ``x > BINARIZE_LOGIT`` (the same bits as
    ``binarize(expit(x))``), and each mask that NMS keeps gets its own
    sigmoid. So every prediction owns its N-point ``soft_mask``, and a
    caller that keeps predictions keeps no (K, N) block of the scene.
    """
    config = config or default_config_for(model)
    match_config(model, config)
    check_class_counts([scene], config.num_classes, "model")
    p = model.as_vars()
    pointwise = _forward_pointwise(scene, p, config, None)  # features, semantic logits, boxes, mask features

    positions = scene.positions
    foreground = _foreground(pointwise[1])
    if not foreground.any():
        logger.debug("inference stopped early: no foreground")
        return []

    stage1 = fps(positions, min(config.stage1_budget, int(foreground.sum())), candidate_filter=foreground)
    stage = _candidate_stage(p, config, pointwise, positions, stage1)
    chunks: list[tuple] = []  # (class logits, boxes, quality, mask logits) per candidate chunk

    def decode(local_idx: np.ndarray) -> np.ndarray:
        """One chunk through the candidate stage; returns its mask logits."""
        cls_logits, boxes, quality, mask_logits = stage(local_idx)
        chunks.append((cls_logits.value, boxes.value, quality.value, mask_logits.value))
        return mask_logits.value

    def feedback(local_idx: np.ndarray) -> np.ndarray:
        """One chunk decoded; returns its soft masks at the stage-1 points only."""
        return expit(decode(local_idx)[:, stage1])

    # Every stage-1 point is foreground, so the first chunk always picks.
    local_order = ia_fps_infer(foreground[stage1], positions[stage1], config.sample_budget(), feedback)
    decoded = sum(logits.shape[0] for *_, logits in chunks)
    if decoded < local_order.size:
        decode(local_order[decoded:])  # the last chunk, which IA-FPS does not feed back
    cls_logits, boxes, quality = (np.concatenate(parts) for parts in list(zip(*chunks))[:3])
    # Candidate rows of the chunks' logits, which are never concatenated.
    logit_rows = [row for *_, logits in chunks for row in logits]

    class_ids, scores = _score_candidates(cls_logits, quality)
    binary = np.empty((len(logit_rows), scene.num_points), dtype=bool)
    start = 0
    for *_, logits in chunks:
        # binarize(expit(logits)) in one pass, without the sigmoid
        np.greater(logits, BINARIZE_LOGIT, out=binary[start : start + logits.shape[0]])
        start += logits.shape[0]
    nonempty = np.flatnonzero(binary.any(axis=1))
    kept = [int(nonempty[i]) for i in nms(binary[nonempty], scores[nonempty], config.nms_iou)]
    if not kept:
        return []

    # Only the kept rows get a sigmoid, each into an N-vector of its own.
    soft = [expit(logit_rows[idx]) for idx in kept]
    aligned = superpoint_align(np.stack(soft), scene.superpoints)
    predictions = []
    for idx, soft_mask, mask in zip(kept, soft, aligned):
        if not mask.any():
            continue
        box_vec = boxes[idx]
        predictions.append(
            Prediction(
                class_id=int(class_ids[idx]),
                score=float(scores[idx]),
                box=Aabb(box_vec[:3], box_vec[3:]),
                mask=mask,
                soft_mask=soft_mask,
            )
        )
    return predictions


class RmsProp:
    """Momentum-free adaptive step; gradients whose global norm exceeds
    ``GRAD_CLIP`` are scaled down to it first."""

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.accum = {name: np.zeros_like(value) for name, value in params.items()}

    def step(self, grads: dict) -> None:
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if norm > GRAD_CLIP:
            grads = {name: g * (GRAD_CLIP / norm) for name, g in grads.items()}
        for name, g in grads.items():
            acc = self.accum[name]
            acc *= RMS_DECAY
            acc += (1.0 - RMS_DECAY) * g * g
            self.params[name] -= self.lr * g / (np.sqrt(acc) + RMS_EPS)


def scene_loss(
    scene: Scene,
    model_vars: dict,
    config: PipelineConfig,
    cache: EncoderCache | None = None,
) -> tuple[Var, LossReport]:
    """Composite training loss of one scene on the tape.

    Sampling and matching are discrete decisions taken on values; the
    gradients flow through the pointwise heads, the aggregation stack, the
    candidate heads, and the mask decoder.
    """
    pointwise = _forward_pointwise(scene, model_vars, config, cache)
    _, sem, point_boxes, _ = pointwise
    targets = InstanceTargets.from_scene(scene)
    pt_terms = pointwise_terms(sem, point_boxes, scene, targets.boxes)

    positions = scene.positions
    foreground = _foreground(sem)
    if not foreground.any():
        # Degenerate early-training state: fall back to sampling everywhere.
        foreground = np.ones(scene.num_points, dtype=bool)
    ad.record(foreground)
    stage1 = fps(positions, min(config.stage1_budget, int(foreground.sum())), candidate_filter=foreground)
    ad.record(stage1)
    stage = _candidate_stage(model_vars, config, pointwise, positions, stage1)
    # bench/spans.py counts training's candidates as the first k_train stage-1 points.
    cls_logits, boxes, quality, mask_logits = stage(np.arange(min(config.k_train, stage1.size)))

    if targets.masks.shape[0] > 0:
        costs = matching_cost_matrix(
            expit(mask_logits.value),
            softmax(cls_logits.value, axis=1),
            targets.masks,
            targets.classes,
        )
        assignment = one_to_many_match(costs, DUPLICATION)
        ad.record(np.asarray(assignment.pairs))
    else:
        assignment = Assignment((), 1)
    inst_terms = instance_loss_terms(assignment, mask_logits, cls_logits, boxes, quality, targets)

    total = ad.add(pt_terms["total"], inst_terms["total"])
    values = {
        "cls_loss": float(inst_terms["cls"].value),
        "box_loss": float(inst_terms["box"].value),
        "mask_loss": float(inst_terms["mask"].value),
        "ms_loss": float(inst_terms["ms"].value),
        "semantic_loss": float(pt_terms["semantic"].value),
        "point_box_loss": float(pt_terms["point_box"].value),
    }
    if not all(np.isfinite(v) for v in values.values()):
        raise RuntimeError(f"non-finite loss (diverged): {values}")
    return total, LossReport(**values)


def train(
    dataset: list[Scene],
    config: PipelineConfig,
    seed: int,
    val_scenes: list[Scene] | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Desk-scale training: per-batch adaptive steps over a fixed scene order.

    Logs per-epoch mean loss components and, every ``eval_every`` epochs
    (and at the end), the validation mask AP at IoU 0.5. Aborts on a
    non-finite loss. A training or validation scene whose class count
    differs from the config's raises ValueError before any step.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    check_class_counts([*dataset, *(val_scenes or [])], config.num_classes, "config")
    model = ModelParams.initialize(config, seed)
    caches = [build_encoder_cache(scene, config) for scene in dataset]
    optimizer = RmsProp(model.params, config.learning_rate)
    history: list[dict] = []
    for epoch in range(config.epochs):
        sums: dict[str, float] = {}
        for start in range(0, len(dataset), config.batch_size):
            batch = range(start, min(start + config.batch_size, len(dataset)))
            grads = {name: np.zeros_like(value) for name, value in model.params.items()}
            for idx in batch:
                model_vars = model.as_vars(trainable=True)
                total, report = scene_loss(dataset[idx], model_vars, config, caches[idx])
                if not np.isfinite(total.value):
                    raise RuntimeError(f"non-finite loss at epoch {epoch}, scene {idx}: {report}")
                ad.backward(total)
                for name, leaf in model_vars.items():
                    if leaf.grad is not None:
                        grads[name] += leaf.grad
                for key, value in vars(report).items():
                    sums[key] = sums.get(key, 0.0) + value
                sums["total"] = sums.get("total", 0.0) + report.total
            scale = 1.0 / len(batch)
            optimizer.step({name: g * scale for name, g in grads.items()})
        model.check_finite()
        entry = {"epoch": epoch} | {key: value / len(dataset) for key, value in sums.items()}
        if val_scenes and (epoch == config.epochs - 1 or (epoch + 1) % config.eval_every == 0):
            entry["val_ap50"] = validation_ap50(model, val_scenes, config)
        history.append(entry)
        logger.info(
            "epoch %d: loss %.4f%s",
            epoch,
            entry["total"],
            f", val AP50 {entry['val_ap50']:.3f}" if "val_ap50" in entry else "",
        )
    return model, history


def validation_ap50(model: ModelParams, scenes: list[Scene], config: PipelineConfig) -> float:
    predictions = [infer(scene, model, config) for scene in scenes]
    ap50, _ = average_precision(predictions, scenes, thresholds=(0.5,))
    return ap50


def save_model(path, model: ModelParams) -> None:
    """Little-endian flat parameter dump behind a JSON header."""
    header = {
        "version": MODEL_VERSION,
        "d_model": model.d_model,
        "mask_dim": model.mask_dim,
        "num_classes": model.num_classes,
        "layout_dims": list(model.layout_dims),
        "params": [{"name": name, "shape": list(value.shape)} for name, value in model.params.items()],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for value in model.params.values():
            f.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def load_model(path) -> ModelParams:
    """Read a model file; any malformed file raises ``ValueError``.

    The header's structural fields must describe a valid config, and its
    parameter list must name exactly the parameters and shapes that config
    needs, in the order ``_param_specs`` gives them.
    """
    with open(path, "rb") as f:
        if f.read(8) != MODEL_MAGIC:
            raise ValueError("not a model file (bad magic)")
        (length,) = struct.unpack("<I", read_exact(f, 4))
        try:
            header = json.loads(read_exact(f, length).decode("utf-8"))
        except RecursionError as exc:
            raise ValueError("model header is not valid JSON") from exc
        if not isinstance(header, dict):
            raise ValueError("model header must be a JSON object")
        if header.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {header.get('version')}")
        dims = header.get("layout_dims")
        sizes = [header.get(key) for key in ("d_model", "mask_dim", "num_classes")]
        sizes += dims if isinstance(dims, list) and dims else [None]
        if not all(type(v) is int and v >= 1 for v in sizes):
            raise ValueError("model header sizes must be positive integers")
        model = ModelParams(*sizes[:3], tuple(dims), {})
        specs = _param_specs(default_config_for(model))
        if header.get("params") != [{"name": name, "shape": list(shape)} for name, shape in specs]:
            raise ValueError("model parameters do not match the header's structure")
        for name, shape in specs:
            data = read_exact(f, 8 * int(np.prod(shape)))
            model.params[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
        if f.read(1):
            raise ValueError("trailing data in model file")
    return model
