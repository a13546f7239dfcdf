"""Correctness checks of the benchmark, written apart from the program.

Every check compares the program's output with a computation made here
from the documented definition, or with a property the method must have.
None compares with stored output. Each failing check appends a message to
``Checks.failures``.
"""

from __future__ import annotations

import numpy as np

from pciseg.core import Aabb, Prediction, Scene

ENCODER_KNN = 16
KNN_TOL = 1e-12
AP_TOL = 1e-12


class Checks:
    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, message: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)
        return ok


def _sq_dist(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    d = points - center
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]


def check_encoder_rows(checks: Checks, positions, colors, rows, rng, samples: int = 32) -> None:
    """Encoder rows are self plus mean/std over the 16 nearest points.

    Neighbours order by (squared distance, index), self included.
    """
    n = positions.shape[0]
    k = min(ENCODER_KNN, n)
    worst = 0.0
    for i in rng.choice(n, size=min(samples, n), replace=False):
        d2 = _sq_dist(positions, positions[i])
        nn = np.lexsort((np.arange(n), d2))[:k]
        want = np.concatenate(
            [
                positions[i],
                colors[i],
                positions[nn].mean(axis=0),
                positions[nn].std(axis=0),
                colors[nn].mean(axis=0),
                colors[nn].std(axis=0),
            ]
        )
        worst = max(worst, float(np.abs(rows[i] - want).max()))
    checks.expect(worst <= KNN_TOL, f"encoder_inputs rows differ from the kNN reference by {worst:.3e}")


def reference_ball_query(positions, center, radius, q, center_index=None) -> np.ndarray:
    """Up to q in-radius neighbours, nearest first, ties to the lower index.

    Short lists repeat the first neighbour; an empty ball yields the
    centre's own index when given, else the globally nearest point.
    """
    n = positions.shape[0]
    d2 = _sq_dist(positions, center)
    order = np.lexsort((np.arange(n), d2))
    inside = order[d2[order] <= radius * radius][:q]
    if inside.size == 0:
        fill = center_index if center_index is not None else order[0]
        return np.full(q, fill, dtype=np.int64)
    return np.concatenate([inside, np.full(q - inside.size, inside[0])]).astype(np.int64)


def check_ball_query(checks: Checks, ball_query, positions, radius, q, rng, samples: int = 16) -> None:
    idx = rng.choice(positions.shape[0], size=min(samples, positions.shape[0]), replace=False)
    got = ball_query(positions, positions[idx], radius, q, idx)
    want = np.stack([reference_ball_query(positions, positions[i], radius, q, i) for i in idx])
    checks.expect(np.array_equal(got, want), f"ball_query (r={radius}) differs from the reference on scene points")
    # Centres far above the room have empty balls and fall back to the nearest point.
    far = positions[idx[:4]] + np.array([0.0, 0.0, 50.0])
    got = ball_query(positions, far, radius, q)
    want = np.stack([reference_ball_query(positions, c, radius, q) for c in far])
    checks.expect(np.array_equal(got, want), f"ball_query (r={radius}) differs from the reference on empty balls")


def check_candidates(checks: Checks, semantic_logits, fps_filter, stage1, local_order, config) -> None:
    """Candidates are distinct, lie in stage 1; stage 1 lies in the foreground."""
    z = semantic_logits - semantic_logits.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    background = probs[:, list(config.background_classes)].sum(axis=1)
    foreground = (1.0 - background) > config.tau
    checks.expect(np.array_equal(foreground, fps_filter), "stage-1 filter is not the predicted foreground")
    checks.expect(np.unique(stage1).size == stage1.size, "stage-1 points repeat")
    checks.expect(bool(foreground[stage1].all()), "stage-1 points outside the predicted foreground")
    checks.expect(
        stage1.size == min(config.stage1_budget, int(foreground.sum())), "stage-1 size is not min(budget, foreground)"
    )
    checks.expect(
        local_order.size > 0 and np.unique(local_order).size == local_order.size, "candidates are empty or repeat"
    )
    checks.expect(
        bool(((local_order >= 0) & (local_order < stage1.size)).all()), "candidates index outside stage 1"
    )
    checks.expect(local_order.size <= sum(config.chunk_sizes), "more candidates than the IA-FPS budget")


def check_predictions(checks: Checks, predictions: list[Prediction], scene: Scene, config) -> None:
    """Order, ranges, boxes, superpoint-aligned masks and the NMS bound."""
    scores = np.array([p.score for p in predictions])
    checks.expect(bool(np.all(np.diff(scores) <= 0)), "predictions are not sorted by descending score")
    checks.expect(bool(np.all((scores >= 0) & (scores <= 1))), "a score lies outside [0, 1]")
    checks.expect(
        all(1 <= p.class_id <= config.num_classes - 1 for p in predictions), "a class lies outside 1..C-1"
    )
    checks.expect(all(np.all(p.box.min_corner <= p.box.max_corner) for p in predictions), "a box has min > max")
    masks = np.array([p.mask for p in predictions], dtype=bool).reshape(len(predictions), scene.num_points)
    checks.expect(bool(masks.any(axis=1).all()), "a predicted mask is empty")
    sp = scene.superpoints.astype(np.int64)
    sp_size = np.bincount(sp)
    for mask in masks:
        inside = np.bincount(sp, weights=mask, minlength=sp_size.size)
        if not checks.expect(
            bool(np.all((inside == 0) | (inside == sp_size))), "a mask splits a superpoint"
        ):
            break
    soft = np.array([p.soft_mask for p in predictions]).reshape(len(predictions), scene.num_points)
    binary = (soft > config.binarize_threshold).astype(np.int64)
    inter = binary @ binary.T
    size = binary.sum(axis=1)
    union = size[:, None] + size[None, :] - inter
    iou = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    np.fill_diagonal(iou, 0.0)
    checks.expect(bool(np.all(iou <= config.nms_iou)), f"kept soft masks overlap above nms_iou ({iou.max():.3f})")


def same_predictions(a: list[Prediction], b: list[Prediction]) -> bool:
    return len(a) == len(b) and all(
        p.class_id == q.class_id
        and p.score == q.score
        and np.array_equal(p.box.to_vector(), q.box.to_vector())
        and np.array_equal(p.mask, q.mask)
        for p, q in zip(a, b)
    )


def _ap_from_ranked(tp: np.ndarray, num_gt: int) -> float:
    """All-point interpolated area under the precision-recall curve."""
    if num_gt == 0 or tp.size == 0:
        return 0.0
    hits = np.cumsum(tp)
    precision = hits / np.arange(1, tp.size + 1)
    recall = hits / num_gt
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    steps = np.diff(np.concatenate([[0.0], recall]))
    return float(np.sum(steps * envelope))


def reference_ap(predictions, scenes, thresholds) -> float:
    """Mask AP from its definition, with one IoU matrix per scene.

    Per class, predictions rank by score (ties keep scene then file order);
    each takes the unmatched same-scene ground truth of highest IoU, when
    that IoU reaches the threshold. A class with ground truth or
    predictions enters the mean; AP averages over thresholds, then classes.
    """
    gts = []  # (scene, class, index within scene)
    ious = []
    for s, (preds, scene) in enumerate(zip(predictions, scenes)):
        gt_masks = np.array([scene.instance_gt == j for j in range(scene.num_instances)], dtype=np.int64)
        gt_masks = gt_masks.reshape(scene.num_instances, scene.num_points)
        gts += [(s, int(scene.semantic_gt[m.astype(bool)][0]), j) for j, m in enumerate(gt_masks)]
        pm = np.array([p.mask for p in preds], dtype=np.int64).reshape(len(preds), scene.num_points)
        inter = pm @ gt_masks.T
        union = pm.sum(axis=1)[:, None] + gt_masks.sum(axis=1)[None, :] - inter
        ious.append(np.where(union > 0, inter / np.maximum(union, 1), 1.0))
    classes = sorted({c for _, c, _ in gts} | {p.class_id for preds in predictions for p in preds})
    per_class = []
    for c in classes:
        ranked = [(s, i, p.score) for s, preds in enumerate(predictions) for i, p in enumerate(preds) if p.class_id == c]
        order = sorted(range(len(ranked)), key=lambda r: -ranked[r][2])
        class_gt = [(s, j) for s, cls, j in gts if cls == c]
        aps = []
        for thr in thresholds:
            used = set()
            tp = np.zeros(len(order), dtype=bool)
            for rank, r in enumerate(order):
                s, i, _ = ranked[r]
                best, best_j = 0.0, None
                for gs, j in class_gt:
                    if gs == s and (gs, j) not in used and ious[s][i, j] > best:
                        best, best_j = ious[s][i, j], j
                if best_j is not None and best >= thr:
                    used.add((s, best_j))
                    tp[rank] = True
            aps.append(_ap_from_ranked(tp, len(class_gt)))
        per_class.append(float(np.mean(aps)))
    return float(np.mean(per_class))


def ground_truth_predictions(scene: Scene) -> list[Prediction]:
    preds = []
    for j in range(scene.num_instances):
        mask = scene.instance_gt == j
        pts = scene.positions[mask]
        preds.append(
            Prediction(
                class_id=int(scene.semantic_gt[mask][0]),
                score=1.0,
                box=Aabb(pts.min(axis=0), pts.max(axis=0)),
                mask=mask,
            )
        )
    return preds
