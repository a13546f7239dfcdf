import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pciseg.core import Aabb, Prediction
from pciseg.evalmetrics import AP_THRESHOLDS, _ap_from_flags, average_precision, evaluate

from conftest import aabb_iou, toy_scene


def scene_with_instances(spans, classes, n=24, num_classes=5):
    """Instances as disjoint index spans on a line of n points."""
    semantic = np.zeros(n, dtype=int)
    instance = np.full(n, -1, dtype=int)
    for j, ((a, b), cls) in enumerate(zip(spans, classes)):
        semantic[a:b] = cls
        instance[a:b] = j
    positions = np.stack([np.arange(n, dtype=float) * 0.1, np.zeros(n), np.zeros(n)], axis=1)
    return toy_scene(positions, semantic, instance, num_classes=num_classes)


def prediction_for(scene, idx, class_id, score):
    mask = np.zeros(scene.num_points, dtype=bool)
    mask[idx] = True
    lo = scene.positions[mask].min(axis=0)
    hi = scene.positions[mask].max(axis=0)
    return Prediction(class_id=class_id, score=score, box=Aabb(lo, hi), mask=mask)


def exact_prediction(scene, j, score=0.9):
    idx = np.flatnonzero(scene.instance_mask(j))
    return prediction_for(scene, idx, scene.instance_class(j), score)


def reference_ap(ranked_tp, num_gt):
    """Brute-force PR-curve area: max precision at recall >= r per TP step."""
    tp = np.asarray(ranked_tp, dtype=bool)
    if num_gt == 0 or tp.size == 0:
        return 0.0
    precision = np.cumsum(tp) / np.arange(1, tp.size + 1)
    recall = np.cumsum(tp) / num_gt
    area = 0.0
    prev_r = 0.0
    for i in range(tp.size):
        if not tp[i]:
            continue
        r = recall[i]
        best_p = max(precision[j] for j in range(tp.size) if recall[j] >= r)
        area += (r - prev_r) * best_p
        prev_r = r
    return area


def loop_envelope_ap(tp, num_gt):
    """All-point AP with the precision envelope taken one entry at a time,
    right to left."""
    if num_gt == 0 or tp.size == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    mrec = np.concatenate([[0.0], cum_tp / num_gt])
    mpre = np.concatenate([[1.0], cum_tp / np.arange(1, tp.size + 1)])
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), max_size=80), st.integers(0, 12))
def test_ap_from_flags_has_the_loop_envelope_bytes(flags, unmatched_gt):
    tp = np.asarray(flags, dtype=bool)
    num_gt = int(tp.sum()) + unmatched_gt
    assert _ap_from_flags(tp, num_gt).hex() == loop_envelope_ap(tp, num_gt).hex()


class TestAveragePrecision:
    def test_perfect_predictions(self):
        scene = scene_with_instances([(0, 6), (8, 14)], [1, 2])
        preds = [[exact_prediction(scene, 0), exact_prediction(scene, 1)]]
        ap, per_class = average_precision(preds, [scene])
        ap50, _ = average_precision(preds, [scene], thresholds=(0.5,))
        ap25, _ = average_precision(preds, [scene], thresholds=(0.25,))
        assert ap == ap50 == ap25 == 1.0
        assert per_class == {1: 1.0, 2: 1.0}

    def test_iou_040_counts_only_at_quarter(self):
        scene = scene_with_instances([(0, 10)], [1])
        pred = prediction_for(scene, np.arange(4), 1, 0.8)  # IoU 0.4 vs the 10-point gt
        ap50, _ = average_precision([[pred]], [scene], thresholds=(0.5,))
        ap25, _ = average_precision([[pred]], [scene], thresholds=(0.25,))
        assert ap50 == 0.0
        assert ap25 == 1.0

    def test_duplicate_wrong_ranked_first(self):
        # Two predictions on one gt: the top-scored one misses (IoU 0), the
        # second is exact. PR: (p=0, r=0) then (p=1/2, r=1) -> AP50 = 0.5.
        scene = scene_with_instances([(0, 6)], [1], n=16)
        miss = prediction_for(scene, np.arange(8, 14), 1, 0.9)
        hit = prediction_for(scene, np.arange(0, 6), 1, 0.5)
        ap50, _ = average_precision([[miss, hit]], [scene], thresholds=(0.5,))
        assert ap50 == pytest.approx(0.5)

    def test_iou_tie_goes_to_lower_gt_index(self):
        # The top prediction overlaps gts 0 and 1 at IoU 1/3 each and takes
        # gt 0, so the exact copy of gt 0 ranked second finds nothing left.
        scene = scene_with_instances([(0, 4), (4, 8)], [1, 1], n=12)
        straddle = prediction_for(scene, np.arange(2, 6), 1, 0.9)
        exact0 = exact_prediction(scene, 0, score=0.8)
        ap25, _ = average_precision([[straddle, exact0]], [scene], thresholds=(0.25,))
        assert ap25 == pytest.approx(0.5)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        scene = scene_with_instances([(0, 6), (8, 14), (16, 22)], [1, 1, 2])
        preds = [
            prediction_for(scene, rng.choice(24, size=rng.integers(3, 9), replace=False), int(c), float(s))
            for c, s in zip([1, 1, 2, 2], rng.uniform(0.2, 1.0, size=4))
        ]
        values = [
            average_precision([preds], [scene], thresholds=(t,))[0] for t in AP_THRESHOLDS
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_agrees_with_bruteforce_on_micro_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_inst = int(rng.integers(1, 4))
            spans = [(6 * j, 6 * j + int(rng.integers(2, 6))) for j in range(n_inst)]
            classes = rng.integers(1, 3, size=n_inst).tolist()
            scene = scene_with_instances(spans, classes, n=24, num_classes=4)
            preds = []
            for _ in range(int(rng.integers(0, 6))):
                size = int(rng.integers(1, 8))
                idx = rng.choice(24, size=size, replace=False)
                preds.append(prediction_for(scene, idx, int(rng.integers(1, 3)), float(rng.uniform())))
            threshold = float(rng.choice([0.25, 0.5, 0.75]))
            got, _ = average_precision([preds], [scene], thresholds=(threshold,))

            # independent recomputation
            classes_present = sorted(
                {scene.instance_class(j) for j in range(scene.num_instances)}
                | {p.class_id for p in preds}
            )
            aps = []
            for cls in classes_present:
                gts = [j for j in range(scene.num_instances) if scene.instance_class(j) == cls]
                cls_preds = sorted(
                    [p for p in preds if p.class_id == cls], key=lambda p: -p.score
                )
                used = set()
                flags = []
                for p in cls_preds:
                    best, best_j = 0.0, -1
                    for j in gts:
                        if j in used:
                            continue
                        inter = np.logical_and(p.mask, scene.instance_mask(j)).sum()
                        union = np.logical_or(p.mask, scene.instance_mask(j)).sum()
                        iou = inter / union if union else 1.0
                        if iou > best:
                            best, best_j = iou, j
                    if best_j >= 0 and best >= threshold:
                        used.add(best_j)
                        flags.append(True)
                    else:
                        flags.append(False)
                aps.append(reference_ap(flags, len(gts)))
            assert got == pytest.approx(float(np.mean(aps)), abs=1e-12)

    def test_nothing_to_evaluate(self):
        scene = scene_with_instances([], [], n=8)
        with pytest.raises(ValueError):
            average_precision([[]], [scene])


def coverage(preds, scene):
    report = evaluate([preds], [scene])
    return report.mcov, report.mwcov, report.mprec50, report.mrec50


class TestCoverage:
    def test_perfect_predictions(self):
        scene = scene_with_instances([(0, 6), (8, 14)], [1, 2])
        preds = [exact_prediction(scene, 0), exact_prediction(scene, 1)]
        assert coverage(preds, scene) == (1.0, 1.0, 1.0, 1.0)

    def test_no_predictions(self):
        scene = scene_with_instances([(0, 6)], [1])
        mcov, mwcov, mprec, mrec = coverage([], scene)
        assert (mcov, mwcov, mrec) == (0.0, 0.0, 0.0)
        assert mprec == 0.0  # defined as 0 without predictions

    def test_weighted_mean_by_instance_size(self):
        # gt sizes 10 and 30 with best IoUs 1.0 and 0.5:
        # mCov = 0.75, mWCov = (10*1.0 + 30*0.5) / 40 = 0.625
        scene = scene_with_instances([(0, 10), (10, 40)], [1, 1], n=48)
        exact0 = exact_prediction(scene, 0)
        half1 = prediction_for(scene, np.arange(10, 25), 1, 0.7)  # 15/30 of gt 1 -> IoU 0.5
        mcov, mwcov, _, _ = coverage([exact0, half1], scene)
        assert mcov == pytest.approx(0.75)
        assert mwcov == pytest.approx(0.625)

    def test_empty_gt_errors(self):
        scene = scene_with_instances([], [], n=8)
        with pytest.raises(ValueError):
            evaluate([[]], [scene])
        with pytest.raises(ValueError, match="ground-truth"):
            evaluate([[prediction_for(scene, np.arange(3), 1, 0.5)]], [scene])


def bruteforce_flags(preds, scene, iou, threshold):
    """Per class, greedy score-ranked matching by a pairwise IoU function."""
    classes = sorted(
        {scene.instance_class(j) for j in range(scene.num_instances)} | {p.class_id for p in preds}
    )
    result = {}
    for cls in classes:
        gts = [j for j in range(scene.num_instances) if scene.instance_class(j) == cls]
        cls_preds = sorted([p for p in preds if p.class_id == cls], key=lambda p: -p.score)
        used, flags = set(), []
        for p in cls_preds:
            best, best_j = 0.0, -1
            for j in gts:
                value = iou(p, j)
                if j not in used and value > best:
                    best, best_j = value, j
            if best_j >= 0 and best >= threshold:
                used.add(best_j)
            flags.append(best_j >= 0 and best >= threshold)
        result[cls] = (flags, len(gts))
    return result


def random_micro_case(rng):
    n_inst = int(rng.integers(1, 4))
    spans = [(6 * j, 6 * j + int(rng.integers(2, 6))) for j in range(n_inst)]
    scene = scene_with_instances(spans, rng.integers(1, 3, size=n_inst).tolist(), n=24, num_classes=4)
    preds = []
    for _ in range(int(rng.integers(0, 6))):
        idx = rng.choice(24, size=int(rng.integers(1, 8)), replace=False)
        # two score levels make ties common; ties keep file order
        preds.append(prediction_for(scene, idx, int(rng.integers(1, 3)), float(rng.choice([0.3, 0.6]))))
    return scene, preds


def pairwise_mask_iou(p, scene, j):
    gt = scene.instance_mask(j)
    union = np.logical_or(p.mask, gt).sum()
    return np.logical_and(p.mask, gt).sum() / union if union else 1.0


class TestEvaluateAgainstBruteForce:
    def test_box_ap_and_coverage_on_micro_cases(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            scene, preds = random_micro_case(rng)
            report = evaluate([preds], [scene])

            def box_iou(p, j):
                return aabb_iou(p.box, scene.instance_box(j))

            def mask_iou_of(p, j):
                return pairwise_mask_iou(p, scene, j)

            for key, iou, thr in [("box_ap50", box_iou, 0.5), ("box_ap25", box_iou, 0.25)]:
                flags = bruteforce_flags(preds, scene, iou, thr)
                expected = np.mean([reference_ap(f, g) for f, g in flags.values()])
                assert getattr(report, key) == pytest.approx(expected, abs=1e-12)

            matches = bruteforce_flags(preds, scene, mask_iou_of, 0.5)
            precision = [sum(f) / len(f) if f else 0.0 for f, _ in matches.values()]
            recall = [sum(f) / g if g else 0.0 for f, g in matches.values()]
            assert report.mprec50 == pytest.approx(np.mean(precision), abs=1e-12)
            assert report.mrec50 == pytest.approx(np.mean(recall), abs=1e-12)

            best = [max([mask_iou_of(p, j) for p in preds], default=0.0) for j in range(scene.num_instances)]
            sizes = [scene.instance_mask(j).sum() for j in range(scene.num_instances)]
            assert report.mcov == pytest.approx(np.mean(best), abs=1e-12)
            assert report.mwcov == pytest.approx(np.dot(best, sizes) / np.sum(sizes), abs=1e-12)


class TestEvaluate:
    def test_report_orders_thresholds(self):
        scene = scene_with_instances([(0, 6), (8, 14)], [1, 2])
        half = prediction_for(scene, np.arange(0, 3), 1, 0.9)  # IoU 0.5 vs gt 0
        report = evaluate([[half, exact_prediction(scene, 1)]], [scene])
        assert report.ap <= report.ap50 <= report.ap25
        assert set(report.per_class) == {1, 2}
        assert 0.0 <= report.mcov <= 1.0

    def test_box_ap_uses_boxes(self):
        scene = scene_with_instances([(0, 6)], [1])
        good_box = exact_prediction(scene, 0)
        # same mask, corrupted box: mask AP stays 1, box AP drops to 0
        bad_box = Prediction(
            class_id=1, score=0.9, box=Aabb((10, 10, 10), (11, 11, 11)), mask=good_box.mask
        )
        report = evaluate([[bad_box]], [scene])
        assert report.ap50 == report.ap25 == 1.0
        assert report.box_ap50 == report.box_ap25 == 0.0
        assert evaluate([[good_box]], [scene]).box_ap50 == 1.0

    def test_matches_average_precision(self):
        rng = np.random.default_rng(5)
        scenes, preds = zip(*(random_micro_case(rng) for _ in range(4)))
        report = evaluate(list(preds), list(scenes))
        ap, per_class = average_precision(list(preds), list(scenes))
        ap50, _ = average_precision(list(preds), list(scenes), thresholds=(0.5,))
        assert (report.ap, report.ap50) == (ap, ap50)
        assert {c: v["ap"] for c, v in report.per_class.items()} == per_class

    @pytest.mark.parametrize("with_gt", [True, False])
    def test_mask_length_mismatch_raises(self, with_gt):
        scene = scene_with_instances([(0, 6)] if with_gt else [], [1] if with_gt else [], n=24)
        short = Prediction(class_id=1, score=0.5, box=Aabb((0, 0, 0), (1, 1, 1)), mask=np.ones(23, dtype=bool))
        with pytest.raises(ValueError, match="23"):
            evaluate([[short]], [scene])
        with pytest.raises(ValueError, match="23"):
            average_precision([[short]], [scene])
