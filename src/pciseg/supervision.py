"""Candidate-to-instance matching, the training losses, and gradients.

Matching duplicates every ground-truth column S times and solves a
rectangular minimum-cost assignment, so up to S candidates supervise one
object. The loss stack (classification, box, mask, mask-scoring, plus the
pointwise semantic and box terms) is written on the differentiation tape.
The tests check each term's gradient against central differences with
``fd_gradient_check`` in ``tests/conftest.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from .autodiff import Var
from .core import Scene, binarize, mask_iou

LOG_EPS = 1e-12

# Weights of the matching cost (mask dice against class likelihood) and of
# the instance-loss terms; unmatched candidates' classification rows count
# NO_OBJECT_WEIGHT each.
GAMMA_MASK = 5.0
LAMBDA_BOX = 1.0
LAMBDA_MASK = 5.0
LAMBDA_MS = 1.0
NO_OBJECT_WEIGHT = 0.5


@dataclass(frozen=True)
class Assignment:
    """Candidate-to-ground-truth pairs under an S-fold duplication cap."""

    pairs: tuple
    duplication: int

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((int(k), int(j)) for k, j in self.pairs))
        if self.duplication < 1:
            raise ValueError("duplication must be at least 1")
        cands = [k for k, _ in self.pairs]
        if len(set(cands)) != len(cands):
            raise ValueError("a candidate may be matched at most once")
        if max(Counter(j for _, j in self.pairs).values(), default=0) > self.duplication:
            raise ValueError("ground-truth multiplicity exceeds the duplication cap")

    @property
    def matched_candidates(self) -> np.ndarray:
        return np.asarray([k for k, _ in self.pairs], dtype=np.int64)

    @property
    def matched_targets(self) -> np.ndarray:
        return np.asarray([j for _, j in self.pairs], dtype=np.int64)


def matching_cost_matrix(
    pred_masks: np.ndarray,
    class_probs: np.ndarray,
    gt_masks: np.ndarray,
    gt_classes: np.ndarray,
) -> np.ndarray:
    """All-pairs matching costs, (K, J)."""
    pred_masks = np.asarray(pred_masks, dtype=np.float64)
    gt = np.asarray(gt_masks, dtype=np.float64)
    sums = pred_masks.sum(axis=1)[:, None] + gt.sum(axis=1)[None, :]
    cross = pred_masks @ gt.T
    with np.errstate(invalid="ignore", divide="ignore"):
        dice = np.where(sums > 0.0, 1.0 - 2.0 * cross / sums, 0.0)
    probs = np.maximum(np.asarray(class_probs, dtype=np.float64)[:, np.asarray(gt_classes)], LOG_EPS)
    return GAMMA_MASK * dice - np.log(probs)


def one_to_many_match(cost: np.ndarray, duplication: int) -> Assignment:
    """Minimum-cost assignment with every ground truth duplicated S times.

    Solves the rectangular problem on the K x (J*S) duplicated matrix, so
    min(K, J*S) candidates are matched and each ground truth receives at
    most S of them; the total cost is the global minimum.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] < 1 or cost.shape[1] < 1:
        raise ValueError("cost matrix must be (K, J) with K, J >= 1")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    if duplication < 1:
        raise ValueError("duplication must be at least 1")
    tiled = np.repeat(cost, duplication, axis=1)
    rows, cols = linear_sum_assignment(tiled)
    pairs = sorted((int(r), int(c) // duplication) for r, c in zip(rows, cols))
    return Assignment(tuple(pairs), duplication)


def dice_term(probs: Var, gt: np.ndarray) -> Var:
    """Soft dice loss of each mask row against its ground truth, (M,).

    Sums run over the last axis, so one (N,) mask gives a scalar. Sigmoid
    probabilities are positive, so every denominator is too.
    """
    gt = np.asarray(gt, dtype=np.float64)
    cross = ad.vsum(probs * Var(gt), axis=-1)
    denom = ad.vsum(probs, axis=-1) + Var(gt.sum(axis=-1))
    return 1.0 - 2.0 * cross / denom


def bce_with_logits(logits: Var, targets: np.ndarray) -> Var:
    """Mean binary cross-entropy evaluated stably from raw logits."""
    targets = np.asarray(targets, dtype=np.float64)
    return ad.mean(ad.softplus(logits) - logits * Var(targets))


def cross_entropy(logits: Var, targets: np.ndarray, sample_weights: np.ndarray | None = None) -> Var:
    """(Weighted) mean negative log-likelihood over rows of (K, C) logits."""
    targets = np.asarray(targets, dtype=np.int64)
    logp = ad.log_softmax(logits, axis=1)
    picked = logp[(np.arange(targets.shape[0]), targets)]
    if sample_weights is None:
        return -ad.mean(picked)
    w = np.asarray(sample_weights, dtype=np.float64)
    if w.sum() == 0.0:
        return Var(0.0)
    return -(ad.vsum(picked * Var(w)) / float(w.sum()))


def box_l1(pred: Var, gt: np.ndarray) -> Var:
    """Sum of absolute corner differences per box pair, (M,)."""
    return ad.vsum(ad.absolute(pred - Var(np.asarray(gt, dtype=np.float64))), axis=1)


def box_giou(pred: Var, gt: np.ndarray) -> Var:
    """Differentiable generalized IoU per box pair, (M,).

    Assumes the union has positive volume (softplus-parameterized predicted
    boxes guarantee it); at touching faces the subgradient follows the
    overlapping side.
    """
    gt = np.asarray(gt, dtype=np.float64)
    pmin, pmax = pred[:, :3], pred[:, 3:]
    gmin, gmax = Var(gt[:, :3]), Var(gt[:, 3:])

    def box_volume(extent: Var) -> Var:
        return extent[:, 0] * extent[:, 1] * extent[:, 2]

    inter_extent = ad.maximum(ad.minimum(pmax, gmax) - ad.maximum(pmin, gmin), 0.0)
    inter = box_volume(inter_extent)
    union = box_volume(pmax - pmin) + box_volume(gmax - gmin) - inter
    hull = box_volume(ad.maximum(pmax, gmax) - ad.minimum(pmin, gmin))
    return inter / union - (hull - union) / hull


def mask_scoring(quality_logits: Var, target_iou: np.ndarray) -> Var:
    """Mean squared error between squashed quality and realized mask IoU."""
    return ad.mean((ad.sigmoid(quality_logits) - Var(np.asarray(target_iou, dtype=np.float64))) ** 2.0)


@dataclass
class InstanceTargets:
    """Ground-truth instances: binary masks, class columns, and boxes."""

    masks: np.ndarray
    classes: np.ndarray
    boxes: np.ndarray

    def __post_init__(self):
        self.masks = np.asarray(self.masks).astype(bool)
        self.classes = np.asarray(self.classes, dtype=np.int64)
        self.boxes = np.asarray(self.boxes, dtype=np.float64)

    @classmethod
    def from_scene(cls, scene: Scene) -> "InstanceTargets":
        ids = range(scene.num_instances)
        # A scene without instances gives (0, N) masks, (0,) classes and (0, 6) boxes.
        masks = np.array([scene.instance_mask(j) for j in ids], dtype=bool).reshape(-1, scene.num_points)
        classes = np.asarray([scene.instance_class(j) - 1 for j in ids], dtype=np.int64)
        boxes = np.array([scene.instance_box(j).to_vector() for j in ids], dtype=np.float64).reshape(-1, 6)
        return cls(masks, classes, boxes)


def instance_loss_terms(
    assignment: Assignment,
    mask_logits: Var,
    class_logits: Var,
    boxes: Var,
    quality_logits: Var,
    targets: InstanceTargets,
) -> dict[str, Var]:
    """Instance-loss components as tape variables.

    The per-candidate predictions are on the tape: ``class_logits`` columns
    enumerate the instance classes followed by one trailing no-object
    column, and ``mask_logits`` are raw decoder outputs. Classification
    covers every candidate, with unmatched ones pushed toward the no-object
    class at reduced weight. Mask, box, and mask-scoring terms average over
    the matched pairs and vanish when nothing is matched.
    """
    k = class_logits.shape[0]
    no_object = class_logits.shape[1] - 1

    cls_targets = np.full(k, no_object, dtype=np.int64)
    sample_w = np.full(k, NO_OBJECT_WEIGHT, dtype=np.float64)
    cands = assignment.matched_candidates
    if cands.size:
        cls_targets[cands] = targets.classes[assignment.matched_targets]
        sample_w[cands] = 1.0
    terms = {"cls": cross_entropy(class_logits, cls_targets, sample_w)}

    if cands.size:
        gts = assignment.matched_targets
        pair_logits = mask_logits[cands]
        gt_masks = targets.masks[gts].astype(np.float64)
        probs = ad.sigmoid(pair_logits)
        terms["mask"] = ad.mean(dice_term(probs, gt_masks)) + bce_with_logits(pair_logits, gt_masks)

        pair_boxes = boxes[cands]
        gt_boxes = targets.boxes[gts]
        terms["box"] = ad.mean(box_l1(pair_boxes, gt_boxes) + (1.0 - box_giou(pair_boxes, gt_boxes)))

        hard = binarize(probs.value)
        ad.record(hard)  # quality targets are a discrete function of the masks
        realized = np.diagonal(mask_iou(hard, targets.masks[gts]))
        terms["ms"] = mask_scoring(quality_logits[cands], realized)
    else:
        terms["mask"] = Var(0.0)
        terms["box"] = Var(0.0)
        terms["ms"] = Var(0.0)

    terms["total"] = (
        terms["cls"] + LAMBDA_BOX * terms["box"] + LAMBDA_MASK * terms["mask"] + LAMBDA_MS * terms["ms"]
    )
    return terms


def pointwise_terms(
    semantic_logits: Var,
    point_boxes: Var,
    scene: Scene,
    gt_boxes: np.ndarray,
) -> dict[str, Var]:
    """Pointwise semantic cross-entropy plus per-point box regression.

    The box term covers only points carrying an instance label; each such
    point regresses its instance's tight box, row ``j`` of the (J, 6)
    ``gt_boxes`` (:attr:`InstanceTargets.boxes`), with summed-L1 plus one
    minus generalized IoU.
    """
    terms = {"semantic": cross_entropy(semantic_logits, scene.semantic_gt.astype(np.int64))}
    inst_points = np.flatnonzero(scene.instance_gt >= 0)
    if inst_points.size:
        per_point_gt = gt_boxes[scene.instance_gt[inst_points]]
        pred = point_boxes[inst_points]
        terms["point_box"] = ad.mean(box_l1(pred, per_point_gt) + (1.0 - box_giou(pred, per_point_gt)))
    else:
        terms["point_box"] = Var(0.0)
    terms["total"] = terms["semantic"] + terms["point_box"]
    return terms


@dataclass
class LossReport:
    """Scalar loss terms of one scene.

    ``instance_total`` is exactly the weighted sum of the instance terms;
    ``total`` additionally includes the pointwise terms.
    """

    cls_loss: float
    box_loss: float
    mask_loss: float
    ms_loss: float
    semantic_loss: float = 0.0
    point_box_loss: float = 0.0

    def __post_init__(self):
        for name in ("cls_loss", "box_loss", "mask_loss", "ms_loss", "semantic_loss", "point_box_loss"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")

    @property
    def instance_total(self) -> float:
        return (
            self.cls_loss + LAMBDA_BOX * self.box_loss + LAMBDA_MASK * self.mask_loss + LAMBDA_MS * self.ms_loss
        )

    @property
    def total(self) -> float:
        return self.instance_total + self.semantic_loss + self.point_box_loss
