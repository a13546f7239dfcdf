import itertools

import numpy as np
import pytest
from scipy.special import expit, logit

from pciseg import autodiff as ad
from pciseg.autodiff import Var
from pciseg.core import Aabb, mask_iou, binarize
from pciseg.dynconv import KernelLayout, decode_mask_logits
from pciseg.supervision import (
    GAMMA_MASK,
    LAMBDA_BOX,
    LAMBDA_MASK,
    LAMBDA_MS,
    LOG_EPS,
    Assignment,
    InstanceTargets,
    LossReport,
    bce_with_logits,
    box_giou,
    box_l1,
    cross_entropy,
    dice_term,
    fd_gradient_check,
    instance_loss_terms,
    mask_scoring,
    matching_cost_matrix,
    one_to_many_match,
    pointwise_terms,
)

from conftest import aabb_giou, dice_loss, toy_scene


def brute_force_min_cost(cost, duplication):
    """Exhaustive minimum over all assignments respecting the caps."""
    k, j = cost.shape
    columns = [jj for jj in range(j) for _ in range(duplication)]
    m = min(k, len(columns))
    best = np.inf
    for rows in itertools.combinations(range(k), m):
        for cols in itertools.permutations(range(len(columns)), m):
            total = sum(cost[r, columns[c]] for r, c in zip(rows, cols))
            best = min(best, total)
    return best


def assignment_cost(assignment, cost):
    return sum(cost[k, j] for k, j in assignment.pairs)


def matching_cost(pred_mask, class_probs, gt_mask, gt_class):
    """Scalar pairing cost, the reference for the batched matrix: weighted
    dice between masks plus the class negative log-likelihood."""
    p = max(float(class_probs[gt_class]), LOG_EPS)
    dice = dice_loss(pred_mask, np.asarray(gt_mask, dtype=np.float64))
    return GAMMA_MASK * dice - float(np.log(p))


def pair_cost(pred_mask, class_probs, gt_mask, gt_class):
    """Production cost matrix for a single prediction/ground-truth pair."""
    return matching_cost_matrix(
        pred_mask[None], class_probs[None], np.asarray(gt_mask)[None], np.array([gt_class])
    )[0, 0]


class TestMatchingCost:
    def test_exact_mask_confident_class(self):
        mask = np.array([1.0, 0.0, 1.0])
        probs = np.array([0.0, 1.0, 0.0])
        assert pair_cost(mask, probs, mask > 0, 1) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_mask_costs_gamma(self):
        pred = np.array([1.0, 0.0])
        gt = np.array([False, True])
        probs = np.array([1.0, 0.0])
        assert pair_cost(pred, probs, gt, 0) == pytest.approx(GAMMA_MASK)

    def test_uniform_class_distribution(self):
        mask = np.array([1.0, 0.0])
        probs = np.full(4, 0.25)
        value = pair_cost(mask, probs, mask > 0, 2)
        assert value == pytest.approx(-np.log(0.25))
        assert value == pytest.approx(1.3863, abs=1e-4)

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(0)
        masks = rng.uniform(size=(4, 12))
        probs = rng.dirichlet(np.ones(5), size=4)
        gt_masks = rng.uniform(size=(3, 12)) > 0.5
        gt_classes = np.array([0, 3, 1])
        matrix = matching_cost_matrix(masks, probs, gt_masks, gt_classes)
        for k in range(4):
            for j in range(3):
                assert matrix[k, j] == pytest.approx(
                    matching_cost(masks[k], probs[k], gt_masks[j], gt_classes[j])
                )


class TestOneToManyMatch:
    def test_diagonal(self):
        assignment = one_to_many_match(np.array([[0.0, 5.0], [5.0, 0.0]]), 1)
        assert assignment.pairs == ((0, 0), (1, 1))

    def test_three_candidates_one_gt_duplicated_twice(self):
        cost = np.array([[1.0], [2.0], [3.0]])
        assignment = one_to_many_match(cost, 2)
        assert {k for k, _ in assignment.pairs} == {0, 1}
        total = assignment_cost(assignment, cost)
        assert total == pytest.approx(3.0)
        assert total == pytest.approx(brute_force_min_cost(cost, 2))

    def test_random_instances_match_exhaustive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            k = int(rng.integers(1, 7))
            j = int(rng.integers(1, 3))
            s = int(rng.integers(1, 4))
            cost = rng.uniform(0, 10, size=(k, j))
            assignment = one_to_many_match(cost, s)
            assert assignment_cost(assignment, cost) == pytest.approx(
                brute_force_min_cost(cost, s), abs=1e-9
            )

    def test_multiplicity_capped(self):
        cost = np.zeros((5, 1))
        assignment = one_to_many_match(cost, 3)
        assert len(assignment.pairs) == 3

    def test_nonfinite_cost_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            one_to_many_match(np.array([[np.inf]]), 1)

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            Assignment(((0, 0), (0, 1)), 1)  # candidate reused
        with pytest.raises(ValueError):
            Assignment(((0, 0), (1, 0)), 1)  # multiplicity above cap


def perfect_predictions(gt_masks, gt_classes, gt_boxes, num_columns):
    """Mask logits, class logits, boxes and quality logits on the tape."""
    k = gt_masks.shape[0]
    mask_logits = np.where(gt_masks, 40.0, -40.0)
    class_logits = np.full((k, num_columns), -40.0)
    class_logits[np.arange(k), gt_classes] = 40.0
    quality = np.full(k, logit(1.0 - 1e-12))  # realized IoU is exactly 1
    return Var(mask_logits), Var(class_logits), Var(gt_boxes), Var(quality)


class TestInstanceLoss:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.gt_masks = np.array(
            [[True, True, False, False, False], [False, False, True, True, True]]
        )
        self.gt_classes = np.array([0, 2])
        self.gt_boxes = np.array([[0, 0, 0, 1, 1, 1], [1, 1, 1, 2, 2, 2]], dtype=float)
        self.targets = InstanceTargets(self.gt_masks, self.gt_classes, self.gt_boxes)

    def test_perfect_prediction_zero_loss(self):
        preds = perfect_predictions(self.gt_masks, self.gt_classes, self.gt_boxes, 4)
        assignment = Assignment(((0, 0), (1, 1)), 1)
        terms = instance_loss_terms(assignment, *preds, self.targets)
        assert float(terms["total"].value) == pytest.approx(0.0, abs=1e-8)

    def test_single_pair_dice_half_plus_bce(self):
        # One matched candidate over 4 points: gt {1,1,0,0} with probs 0.5
        # everywhere gives dice = 1 - 2*1/(2+2) = 0.5; everything else is
        # perfect, so every other term is about 0 and the total is
        # LAMBDA_MASK * (0.5 + bce) with bce hand-computed below.
        p = 0.5
        probs = np.array([p, p, 1.0 - p, 1.0 - p])
        gt = np.array([True, True, False, False])
        dice = 1.0 - 2.0 * (2 * p) / (probs.sum() + 2.0)
        assert dice == 0.5
        logits = logit(probs)
        bce = float(np.mean(-(gt * np.log(probs) + (~gt) * np.log(1 - probs))))
        masks = logits[None]
        cls = np.array([[40.0, -40.0]])
        boxes = self.gt_boxes[:1].copy()
        realized = mask_iou(binarize(probs), gt)
        quality = np.array([float(logit(np.clip(realized, 1e-12, 1 - 1e-12)))])
        preds = Var(masks), Var(cls), Var(boxes), Var(quality)
        targets = InstanceTargets(gt[None], np.array([0]), boxes)
        terms = instance_loss_terms(Assignment(((0, 0),), 1), *preds, targets)
        assert float(terms["mask"].value) == pytest.approx(dice + bce, abs=1e-9)
        assert float(terms["total"].value) == pytest.approx(LAMBDA_MASK * (dice + bce), abs=1e-7)

    def test_dice_rows_match_core_dice(self):
        # Row-wise dice (the mask term's) equals the scalar dice of each row.
        rng = np.random.default_rng(4)
        probs = rng.uniform(size=(3, 10))
        gt = rng.uniform(size=(3, 10)) > 0.5
        rows = dice_term(Var(probs), gt.astype(float)).value
        assert rows.shape == (3,)
        for row, p, g in zip(rows, probs, gt):
            assert row == pytest.approx(dice_loss(p, g.astype(float)), abs=1e-15)
            assert dice_term(Var(p), g.astype(float)).value == row

    def test_box_term_example(self):
        # L1 sums the six coordinate gaps (1.0); IoU 1/2 with a zero hull
        # correction makes the gIoU term 0.5.
        pred_box = Var(np.array([[0.0, 0, 0, 1, 1, 1]]))
        gt_box = np.array([[0.0, 0, 0, 2, 1, 1]])
        assert box_l1(pred_box, gt_box).value[0] == pytest.approx(1.0)
        assert box_giou(pred_box, gt_box).value[0] == pytest.approx(0.5)
        assert aabb_giou(Aabb.from_vector(pred_box.value[0]), Aabb.from_vector(gt_box[0])) == pytest.approx(0.5)

    def test_unmatched_only_keeps_cls_term(self):
        preds = perfect_predictions(self.gt_masks, self.gt_classes, self.gt_boxes, 4)
        assignment = Assignment((), 1)
        terms = instance_loss_terms(assignment, *preds, self.targets)
        assert float(terms["mask"].value) == 0.0
        assert float(terms["box"].value) == 0.0
        assert float(terms["ms"].value) == 0.0
        assert float(terms["cls"].value) > 0.0

    def test_decomposition_identity(self):
        rng = np.random.default_rng(11)
        report = LossReport(
            cls_loss=rng.uniform(),
            box_loss=rng.uniform(),
            mask_loss=rng.uniform(),
            ms_loss=rng.uniform(),
            semantic_loss=rng.uniform(),
            point_box_loss=rng.uniform(),
        )
        expected = (
            report.cls_loss
            + LAMBDA_BOX * report.box_loss
            + LAMBDA_MASK * report.mask_loss
            + LAMBDA_MS * report.ms_loss
        )
        assert report.instance_total == expected
        assert report.total == expected + report.semantic_loss + report.point_box_loss

    def test_giou_gradient_matches_core(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lo = rng.uniform(-1, 1, size=(1, 3))
            pred = np.concatenate([lo, lo + rng.uniform(0.2, 1.5, size=(1, 3))], axis=1)
            lo2 = rng.uniform(-1, 1, size=(1, 3))
            gt = np.concatenate([lo2, lo2 + rng.uniform(0.2, 1.5, size=(1, 3))], axis=1)
            differentiable = box_giou(Var(pred), gt).value[0]
            reference = aabb_giou(Aabb.from_vector(pred[0]), Aabb.from_vector(gt[0]))
            assert differentiable == pytest.approx(reference, abs=1e-12)


class TestPointwiseLoss:
    def test_confident_correct_predictions(self):
        # One cubic instance: exact boxes and saturated correct logits
        # drive the loss to zero.
        corners = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
        scene = toy_scene(corners, [1] * 8, [0] * 8, num_classes=3)
        logits = np.full((8, 3), -40.0)
        logits[:, 1] = 40.0
        boxes = np.tile(np.array([0.0, 0, 0, 1.0, 1.0, 1.0]), (8, 1))
        terms = pointwise_terms(Var(logits), Var(boxes), scene, InstanceTargets.from_scene(scene).boxes)
        assert float(terms["total"].value) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_logits_cross_entropy(self):
        scene = toy_scene([[0.0, 0, 0], [1.0, 0, 0]], [0, 0], [-1, -1], num_classes=4)
        gt_boxes = InstanceTargets.from_scene(scene).boxes
        terms = pointwise_terms(Var(np.zeros((2, 4))), Var(np.zeros((2, 6))), scene, gt_boxes)
        assert float(terms["total"].value) == pytest.approx(np.log(4.0))

    def test_background_only_scene_has_zero_box_term(self):
        scene = toy_scene([[0.0, 0, 0]], [0], [-1], num_classes=2)
        logits, boxes = ad.parameter(np.zeros((1, 2))), ad.parameter(np.zeros((1, 6)))
        total = pointwise_terms(logits, boxes, scene, InstanceTargets.from_scene(scene).boxes)["total"]
        ad.backward(total)
        assert float(total.value) == pytest.approx(np.log(2.0))
        assert logits.grad is not None
        assert boxes.grad is None  # the box term never reads the boxes


class TestGradientChecks:
    def test_quadratic_toy_loss(self):
        a = np.random.default_rng(0).normal(size=(4, 4))

        def loss(p):
            x = p["x"]
            return ad.vsum(ad.matmul(ad.reshape(x, (1, 4)), Var(a)) * ad.reshape(x, (1, 4)))

        err = fd_gradient_check(loss, {"x": np.random.default_rng(1).normal(size=4)}, epsilon=1e-5)
        assert err <= 1e-9

    def test_individual_losses(self):
        rng = np.random.default_rng(7)
        n = 16
        gt = rng.uniform(size=n) > 0.5
        gt_float = gt.astype(float)
        rows_rng = np.random.default_rng(8)
        gt_rows = (rows_rng.uniform(size=(3, n)) > 0.5).astype(float)
        checks = {
            "dice": (lambda p: dice_term(ad.sigmoid(p["z"]), gt_float), {"z": rng.normal(size=n)}),
            "bce": (lambda p: bce_with_logits(p["z"], gt_float), {"z": rng.normal(size=n)}),
            "ce": (
                lambda p: cross_entropy(p["z"], np.array([0, 2, 1, 3])),
                {"z": rng.normal(size=(4, 4))},
            ),
            "l1": (
                lambda p: ad.mean(box_l1(p["b"], np.array([[0.0, 0, 0, 1, 1, 1]]))),
                {"b": rng.normal(size=(1, 6)) + np.array([0, 0, 0, 2, 2, 2.0])},
            ),
            "ms": (
                lambda p, target=rng.uniform(size=3): mask_scoring(p["q"], target),
                {"q": rng.normal(size=3)},
            ),
            "dice rows": (
                lambda p: ad.mean(dice_term(ad.sigmoid(p["z"]), gt_rows)),
                {"z": rows_rng.normal(size=(3, n))},
            ),
        }
        for name, (fn, params) in checks.items():
            assert fd_gradient_check(fn, params, epsilon=1e-5) <= 1e-5, name

    def test_giou_nondegenerate(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            raw = rng.uniform(-1, 1, size=(2, 6))
            gt = np.concatenate([raw[:, :3], raw[:, :3] + rng.uniform(0.5, 1.5, size=(2, 3))], axis=1)
            start = gt + rng.uniform(-0.2, 0.2, size=(2, 6))
            start[:, 3:] = np.maximum(start[:, 3:], start[:, :3] + 0.3)

            def loss(p):
                return ad.mean(1.0 - box_giou(p["b"], gt))

            assert fd_gradient_check(loss, {"b": start}, epsilon=1e-5) <= 1e-5

    def test_composite_through_decoder(self):
        rng = np.random.default_rng(21)
        n, h = 16, 4
        layout = KernelLayout((h + 9, 3, 1))
        gt = rng.uniform(size=n) > 0.4
        f_pos = rng.normal(size=(1, n, 3))
        f_geo_base = rng.uniform(0.0, 1.0, size=(1, n, 6))
        f_mask = rng.normal(size=(n, h))

        def loss(p):
            # A candidate at the origin with an all-zero box: the decoder reads
            # the offsets as f_pos and the (non-negative) box differences as f_geo_base.
            mask_logits = decode_mask_logits(
                p["fm"], f_pos[0], Var(f_geo_base[0]), np.zeros((1, 3)), Var(np.zeros((1, 6))),
                ad.reshape(p["w"], (1, -1)), layout, "on",
            )
            logits = ad.reshape(mask_logits, (n,))
            return dice_term(ad.sigmoid(logits), gt.astype(float)) + bce_with_logits(logits, gt.astype(float))

        params = {"w": rng.normal(size=layout.param_count) * 0.5, "fm": f_mask}
        assert fd_gradient_check(loss, params, epsilon=1e-5) <= 1e-5

    def test_nonfinite_loss_rejected(self):
        def loss(p):
            return (p["x"] ** 0.5)[0]  # NaN at x = -1

        with pytest.raises(ValueError, match="finite"):
            fd_gradient_check(loss, {"x": np.array([-1.0])})


class TestInstanceTargets:
    def test_from_scene(self, two_cluster_scene):
        targets = InstanceTargets.from_scene(two_cluster_scene)
        assert targets.masks.shape == (2, 16)
        assert targets.classes.tolist() == [0, 0]  # semantic 1 -> column 0
        assert targets.boxes.shape == (2, 6)

    def test_scene_without_instances(self):
        scene = toy_scene(np.zeros((5, 3)), [0] * 5, [-1] * 5)
        targets = InstanceTargets.from_scene(scene)
        assert targets.masks.shape == (0, 5) and targets.masks.dtype == bool
        assert targets.classes.shape == (0,) and targets.classes.dtype == np.int64
        assert targets.boxes.shape == (0, 6) and targets.boxes.dtype == np.float64

    def test_terms_report_matches_instance_loss(self, two_cluster_scene):
        rng = np.random.default_rng(2)
        targets = InstanceTargets.from_scene(two_cluster_scene)
        k, n = 3, 16
        preds = (
            Var(rng.normal(size=(k, n))),
            Var(rng.normal(size=(k, 5))),
            Var(np.concatenate([rng.normal(size=(k, 3)), np.full((k, 3), 2.0)], axis=1)),
            Var(rng.normal(size=k)),
        )
        costs = matching_cost_matrix(
            expit(preds[0].value), np.full((k, 5), 0.2), targets.masks, targets.classes
        )
        assignment = one_to_many_match(costs, 2)
        terms = instance_loss_terms(assignment, *preds, targets)
        report = LossReport(*(float(terms[key].value) for key in ("cls", "box", "mask", "ms")))
        assert report.instance_total == pytest.approx(float(terms["total"].value))
