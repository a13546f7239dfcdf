"""Instance-segmentation and detection metrics.

Average precision follows the modern convention: per class, predictions
rank by score across scenes, each one greedily matches the unmatched
ground truth of highest IoU at or above the threshold, and the AP is the
area under the precision-recall curve with the all-point interpolation
(precision envelope). Coverage metrics report how well ground-truth
instances are covered by their best-overlapping predictions. Every metric
reads one prediction x ground-truth IoU matrix per scene, for masks and
for boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Prediction, Scene, aabb_iou_matrix, mask_iou

AP_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


def _gt_classes(predictions: Sequence[Sequence[Prediction]], scenes: Sequence[Scene]) -> list[np.ndarray]:
    """Per scene, the class of each ground-truth instance, after checking
    that every prediction's mask covers its scene's points."""
    if len(predictions) != len(scenes):
        raise ValueError("one prediction list per scene")
    for scene, scene_preds in zip(scenes, predictions):
        for pred in scene_preds:
            if pred.mask.shape != (scene.num_points,):
                raise ValueError(f"mask of shape {pred.mask.shape} for a scene of {scene.num_points} points")
    return [
        np.asarray([scene.instance_class(j) for j in range(scene.num_instances)], dtype=np.int64)
        for scene in scenes
    ]


def _classes(predictions: Sequence[Sequence[Prediction]], gt_classes: list[np.ndarray]) -> list[int]:
    """Classes with ground truth or predictions; raises when there are none."""
    present = {int(c) for scene_classes in gt_classes for c in scene_classes}
    present |= {p.class_id for scene_preds in predictions for p in scene_preds}
    if not present:
        raise ValueError("nothing to evaluate: no ground truth and no predictions")
    return sorted(present)


def _mask_ious(predictions: Sequence[Sequence[Prediction]], scenes: Sequence[Scene]) -> list[np.ndarray]:
    """Per scene, the (P, G) mask IoU of its predictions with its instances."""
    ious = []
    for scene, scene_preds in zip(scenes, predictions):
        gt = scene.instance_gt == np.arange(scene.num_instances)[:, None]
        pred = np.array([p.mask for p in scene_preds], dtype=bool).reshape(len(scene_preds), scene.num_points)
        ious.append(mask_iou(pred, gt))
    return ious


def _box_ious(predictions: Sequence[Sequence[Prediction]], scenes: Sequence[Scene]) -> list[np.ndarray]:
    """Per scene, the (P, G) box IoU of its predictions with its instances."""
    ious = []
    for scene, scene_preds in zip(scenes, predictions):
        gt = [scene.instance_box(j).to_vector() for j in range(scene.num_instances)]
        pred = [p.box.to_vector() for p in scene_preds]
        ious.append(aabb_iou_matrix(np.reshape(pred, (-1, 6)), np.reshape(gt, (-1, 6))))
    return ious


def _match_flags(
    ranked: list[tuple[int, int]],
    ious: list[np.ndarray],
    gt_classes: list[np.ndarray],
    class_id: int,
    threshold: float,
) -> np.ndarray:
    """True/false positive flags for score-ranked predictions of one class.

    Each prediction takes the unused same-class instance of its scene with
    the highest strictly positive IoU, ties to the lower instance index,
    and is a true positive when that IoU reaches the threshold.
    """
    blocked = [classes != class_id for classes in gt_classes]
    tp = np.zeros(len(ranked), dtype=bool)
    for rank, (s_idx, p_idx) in enumerate(ranked):
        row = np.where(blocked[s_idx], 0.0, ious[s_idx][p_idx])
        if row.size == 0:
            continue
        best = int(np.argmax(row))
        if row[best] > 0.0 and row[best] >= threshold:
            blocked[s_idx][best] = True
            tp[rank] = True
    return tp


def _ap_from_flags(tp: np.ndarray, num_gt: int) -> float:
    if num_gt == 0 or tp.size == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, tp.size + 1)
    recall = cum_tp / num_gt
    mrec = np.concatenate([[0.0], recall])
    mpre = np.concatenate([[1.0], precision])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def _class_flags(predictions, ious, gt_classes, class_id, thresholds) -> tuple[dict[float, np.ndarray], int]:
    """True-positive flags of one class at each threshold, and its
    ground-truth count, from one IoU matrix per scene."""
    ranked = [
        (s_idx, p_idx)
        for s_idx, scene_preds in enumerate(predictions)
        for p_idx, pred in enumerate(scene_preds)
        if pred.class_id == class_id
    ]
    ranked.sort(key=lambda item: -predictions[item[0]][item[1]].score)  # stable: ties keep scene/file order
    num_gt = sum(int(np.count_nonzero(classes == class_id)) for classes in gt_classes)
    flags = {thr: _match_flags(ranked, ious, gt_classes, class_id, thr) for thr in thresholds}
    return flags, num_gt


def average_precision(
    predictions: Sequence[Sequence[Prediction]],
    scenes: Sequence[Scene],
    thresholds: Sequence[float] = AP_THRESHOLDS,
) -> tuple[float, dict[int, float]]:
    """Mean mask AP over classes and thresholds, plus the per-class breakdown.

    A class enters the mean when it has ground truth or predictions; a
    predicted class with no ground truth contributes 0.
    """
    gt_classes = _gt_classes(predictions, scenes)
    classes = _classes(predictions, gt_classes)
    ious = _mask_ious(predictions, scenes)
    per_class: dict[int, float] = {}
    for class_id in classes:
        flags, num_gt = _class_flags(predictions, ious, gt_classes, class_id, thresholds)
        per_class[class_id] = float(np.mean([_ap_from_flags(flags[thr], num_gt) for thr in thresholds]))
    return float(np.mean(list(per_class.values()))), per_class


@dataclass
class EvalReport:
    """Headline metrics plus a per-class breakdown."""

    ap: float
    ap50: float
    ap25: float
    box_ap50: float
    box_ap25: float
    mcov: float
    mwcov: float
    mprec50: float
    mrec50: float
    per_class: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "AP": self.ap,
            "AP50": self.ap50,
            "AP25": self.ap25,
            "BoxAP50": self.box_ap50,
            "BoxAP25": self.box_ap25,
            "mCov": self.mcov,
            "mWCov": self.mwcov,
            "mPrec50": self.mprec50,
            "mRec50": self.mrec50,
        }


def evaluate(
    predictions: Sequence[Sequence[Prediction]],
    scenes: Sequence[Scene],
) -> EvalReport:
    """Full metric sweep: mask AP, box AP, and coverage.

    Coverage takes each ground-truth instance's best mask IoU against any
    same-scene prediction, class-agnostic; the weighted variant scales by
    instance point count. mPrec50 and mRec50 count the matches of the
    AP50 pass and average per class.
    """
    gt_classes = _gt_classes(predictions, scenes)
    classes = _classes(predictions, gt_classes)
    if not any(scene_classes.size for scene_classes in gt_classes):
        raise ValueError("coverage metrics need at least one ground-truth instance")
    mask_ious = _mask_ious(predictions, scenes)
    box_ious = _box_ious(predictions, scenes)
    per_class: dict[int, dict] = {}
    precisions, recalls = [], []
    for class_id in classes:
        mask_tp, num_gt = _class_flags(predictions, mask_ious, gt_classes, class_id, AP_THRESHOLDS + (0.25,))
        box_tp, _ = _class_flags(predictions, box_ious, gt_classes, class_id, (0.5, 0.25))
        per_class[class_id] = {
            "ap": float(np.mean([_ap_from_flags(mask_tp[thr], num_gt) for thr in AP_THRESHOLDS])),
            "ap50": _ap_from_flags(mask_tp[0.5], num_gt),
            "ap25": _ap_from_flags(mask_tp[0.25], num_gt),
            "box_ap50": _ap_from_flags(box_tp[0.5], num_gt),
            "box_ap25": _ap_from_flags(box_tp[0.25], num_gt),
        }
        matched = int(mask_tp[0.5].sum())
        precisions.append(matched / mask_tp[0.5].size if mask_tp[0.5].size else 0.0)
        recalls.append(matched / num_gt if num_gt else 0.0)

    best = np.concatenate([ious.max(axis=0, initial=0.0) for ious in mask_ious])
    sizes = np.asarray(
        [np.count_nonzero(scene.instance_mask(j)) for scene in scenes for j in range(scene.num_instances)],
        dtype=np.float64,
    )
    mcov = float(best.mean())
    mwcov = float((best * sizes).sum() / sizes.sum())

    def mean(key: str) -> float:
        return float(np.mean([values[key] for values in per_class.values()]))

    return EvalReport(
        mean("ap"), mean("ap50"), mean("ap25"), mean("box_ap50"), mean("box_ap25"),
        mcov, mwcov, float(np.mean(precisions)), float(np.mean(recalls)), per_class,
    )
