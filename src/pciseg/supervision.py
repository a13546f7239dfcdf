"""Candidate-to-instance matching, the training losses, and gradients.

Matching duplicates every ground-truth column S times and solves a
rectangular minimum-cost assignment, so up to S candidates supervise one
object. The loss stack (classification, box, mask, mask-scoring, plus the
pointwise semantic and box terms) is written on the differentiation tape;
:func:`fd_gradient_check` verifies any loss against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from .autodiff import Var
from .core import Scene, binarize, mask_iou

LOG_EPS = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Weights of the matching cost and the instance-loss terms."""

    gamma_mask: float = 5.0
    lambda_box: float = 1.0
    lambda_mask: float = 5.0
    lambda_ms: float = 1.0
    no_object_weight: float = 0.5

    def __post_init__(self):
        for name in ("gamma_mask", "lambda_box", "lambda_mask", "lambda_ms", "no_object_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class Assignment:
    """Candidate-to-ground-truth pairs under an S-fold duplication cap."""

    pairs: tuple
    unmatched: tuple
    duplication: int

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((int(k), int(j)) for k, j in self.pairs))
        object.__setattr__(self, "unmatched", tuple(int(k) for k in self.unmatched))
        if self.duplication < 1:
            raise ValueError("duplication must be at least 1")
        cands = [k for k, _ in self.pairs]
        if len(set(cands)) != len(cands):
            raise ValueError("a candidate may be matched at most once")
        counts: dict[int, int] = {}
        for _, j in self.pairs:
            counts[j] = counts.get(j, 0) + 1
            if counts[j] > self.duplication:
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
    weights: LossWeights = LossWeights(),
) -> np.ndarray:
    """All-pairs matching costs, (K, J)."""
    pred_masks = np.asarray(pred_masks, dtype=np.float64)
    gt = np.asarray(gt_masks, dtype=np.float64)
    sums = pred_masks.sum(axis=1)[:, None] + gt.sum(axis=1)[None, :]
    cross = pred_masks @ gt.T
    with np.errstate(invalid="ignore", divide="ignore"):
        dice = np.where(sums > 0.0, 1.0 - 2.0 * cross / sums, 0.0)
    probs = np.maximum(np.asarray(class_probs, dtype=np.float64)[:, np.asarray(gt_classes)], LOG_EPS)
    return weights.gamma_mask * dice - np.log(probs)


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
    unmatched = sorted(set(range(cost.shape[0])) - {k for k, _ in pairs})
    return Assignment(tuple(pairs), tuple(unmatched), duplication)


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

    def volume(extent: Var) -> Var:
        return extent[:, 0] * extent[:, 1] * extent[:, 2]

    inter_extent = ad.maximum(ad.minimum(pmax, gmax) - ad.maximum(pmin, gmin), 0.0)
    inter = volume(inter_extent)
    union = volume(pmax - pmin) + volume(gmax - gmin) - inter
    hull = volume(ad.maximum(pmax, gmax) - ad.minimum(pmin, gmin))
    return inter / union - (hull - union) / hull


def mask_scoring(quality_logits: Var, target_iou: np.ndarray) -> Var:
    """Mean squared error between squashed quality and realized mask IoU."""
    return ad.mean((ad.sigmoid(quality_logits) - Var(np.asarray(target_iou, dtype=np.float64))) ** 2.0)


@dataclass
class InstancePredictions:
    """Per-candidate predictions entering the instance loss, on the tape.

    ``class_logits`` columns enumerate the instance classes followed by one
    trailing no-object column; ``mask_logits`` are raw decoder outputs.
    """

    mask_logits: Var
    class_logits: Var
    boxes: Var
    quality_logits: Var


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
        masks = np.stack([scene.instance_mask(j) for j in range(scene.num_instances)])
        classes = np.asarray(
            [scene.instance_class(j) - 1 for j in range(scene.num_instances)], dtype=np.int64
        )
        boxes = np.stack(
            [scene.instance_box(j).to_vector() for j in range(scene.num_instances)]
        )
        return cls(masks, classes, boxes)


def instance_loss_terms(
    assignment: Assignment,
    preds: InstancePredictions,
    targets: InstanceTargets,
    weights: LossWeights = LossWeights(),
) -> dict[str, Var]:
    """Instance-loss components as tape variables.

    Classification covers every candidate, with unmatched ones pushed
    toward the trailing no-object class at reduced weight. Mask, box, and
    mask-scoring terms average over the matched pairs and vanish when
    nothing is matched.
    """
    class_logits = preds.class_logits
    k = class_logits.shape[0]
    no_object = class_logits.shape[1] - 1

    cls_targets = np.full(k, no_object, dtype=np.int64)
    sample_w = np.full(k, weights.no_object_weight, dtype=np.float64)
    cands = assignment.matched_candidates
    if cands.size:
        cls_targets[cands] = targets.classes[assignment.matched_targets]
        sample_w[cands] = 1.0
    terms = {"cls": cross_entropy(class_logits, cls_targets, sample_w)}

    if cands.size:
        gts = assignment.matched_targets
        pair_logits = preds.mask_logits[cands]
        gt_masks = targets.masks[gts].astype(np.float64)
        probs = ad.sigmoid(pair_logits)
        terms["mask"] = ad.mean(dice_term(probs, gt_masks)) + bce_with_logits(pair_logits, gt_masks)

        pair_boxes = preds.boxes[cands]
        gt_boxes = targets.boxes[gts]
        terms["box"] = ad.mean(box_l1(pair_boxes, gt_boxes) + (1.0 - box_giou(pair_boxes, gt_boxes)))

        hard = binarize(probs.value)
        ad.record(hard)  # quality targets are a discrete function of the masks
        realized = np.asarray(
            [mask_iou(hard[row], targets.masks[gts[row]]) for row in range(cands.size)]
        )
        terms["ms"] = mask_scoring(preds.quality_logits[cands], realized)
    else:
        terms["mask"] = Var(0.0)
        terms["box"] = Var(0.0)
        terms["ms"] = Var(0.0)

    terms["total"] = (
        terms["cls"]
        + weights.lambda_box * terms["box"]
        + weights.lambda_mask * terms["mask"]
        + weights.lambda_ms * terms["ms"]
    )
    return terms


def pointwise_terms(
    semantic_logits: Var,
    point_boxes: Var,
    scene: Scene,
) -> dict[str, Var]:
    """Pointwise semantic cross-entropy plus per-point box regression.

    The box term covers only points carrying an instance label; each such
    point regresses its instance's tight box with summed-L1 plus one minus
    generalized IoU.
    """
    terms = {"semantic": cross_entropy(semantic_logits, scene.semantic_gt.astype(np.int64))}
    inst_points = np.flatnonzero(scene.instance_gt >= 0)
    if inst_points.size:
        gt_boxes = np.stack(
            [scene.instance_box(j).to_vector() for j in range(scene.num_instances)]
        )
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
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        for name in ("cls_loss", "box_loss", "mask_loss", "ms_loss", "semantic_loss", "point_box_loss"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")

    @property
    def instance_total(self) -> float:
        w = self.weights
        return (
            self.cls_loss
            + w.lambda_box * self.box_loss
            + w.lambda_mask * self.mask_loss
            + w.lambda_ms * self.ms_loss
        )

    @property
    def total(self) -> float:
        return self.instance_total + self.semantic_loss + self.point_box_loss


def fd_gradient_check(
    loss_fn, params: dict, epsilon: float = 1e-5, skip_nonsmooth: bool = False
) -> float:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` maps a dict of named variables to a scalar variable. The
    analytic side runs the tape once; the numeric side re-evaluates the
    loss at +/- epsilon per entry. Returns the maximum relative error
    |a - f| / max(1, |a|, |f|) over every parameter entry.

    With ``skip_nonsmooth`` the two evaluations of an entry also record the
    branch pattern of every kinked operation (and any discrete decision the
    loss reports via ``autodiff.record``); entries whose two points fall on
    different branches straddle a kink where central differences are
    meaningless, so they are excluded. The loss must take at least one
    smooth entry.
    """
    work = {name: np.array(value, dtype=np.float64) for name, value in params.items()}
    leaves = {name: ad.parameter(value) for name, value in work.items()}
    out = loss_fn(leaves)
    if not np.isfinite(out.value):
        raise ValueError("loss is not finite at the evaluation point")
    ad.backward(out)
    analytic = {
        name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value))
        for name, leaf in leaves.items()
    }

    def evaluate():
        result, digest = ad.capture_signature(
            lambda: loss_fn({name: Var(v) for name, v in work.items()})
        )
        if not np.isfinite(result.value):
            raise ValueError("loss is not finite at a perturbed point")
        return float(result.value), digest

    max_err = 0.0
    checked = 0
    for name, arr in work.items():
        grads = analytic[name].ravel()
        if not np.all(np.isfinite(grads)):
            raise ValueError("analytic gradient is not finite")
        for i in range(arr.size):
            original = arr.flat[i]
            arr.flat[i] = original + epsilon
            f_plus, sig_plus = evaluate()
            arr.flat[i] = original - epsilon
            f_minus, sig_minus = evaluate()
            arr.flat[i] = original
            if skip_nonsmooth and sig_plus != sig_minus:
                continue
            checked += 1
            fd = (f_plus - f_minus) / (2.0 * epsilon)
            a = grads[i]
            max_err = max(max_err, abs(a - fd) / max(1.0, abs(a), abs(fd)))
    if checked == 0:
        raise ValueError("every entry straddles a kink; nothing to check")
    return max_err
