"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end
criterion trains a model and dominates the runtime; everything else
finishes in seconds.
"""

import itertools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from pciseg import autodiff as ad, pipeline
from pciseg.autodiff import Var
from pciseg.aggregator import ball_query
from pciseg.core import mask_iou
from pciseg.dynconv import KernelLayout
from pciseg.evalmetrics import average_precision
from pciseg.pipeline import (
    ModelParams,
    PipelineConfig,
    _forward_pointwise,
    infer,
    nms,
    train,
)
from pciseg.sampling import (
    SampleBudget,
    fps,
    ia_fps_infer,
    instance_recall,
    oracle_foreground,
    oracle_mask_provider,
    split_budget,
)
from pciseg.scenegen import GenConfig, generate
from pciseg.supervision import (
    LAMBDA_BOX,
    LAMBDA_MASK,
    LAMBDA_MS,
    LossReport,
    bce_with_logits,
    box_giou,
    box_l1,
    cross_entropy,
    dice_term,
    mask_scoring,
    one_to_many_match,
)

from conftest import early_expansion_pointwise, fd_gradient_check
from test_aggregator import stacked_features, zero_block
from test_evalmetrics import prediction_for, reference_ap, scene_with_instances
from test_supervision import assignment_cost, brute_force_min_cost


def report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_1_kernel_parameter_counts():
    expected = {
        (41, 1): 41,
        (25, 8, 1): 216,
        (41, 16, 1): 688,
        (41, 32, 1): 1376,
        (41, 16, 16, 1): 960,
    }
    for dims, count in expected.items():
        assert KernelLayout(dims).param_count == count, dims
    report("criterion-1", f"{len(expected)} published layouts reproduced exactly")


def test_criterion_2_sampling_recall_ordering():
    start = time.time()
    scenes = generate(GenConfig(num_scenes=50, points_per_scene=1024, seed=77))
    assert len(scenes) == 50
    budgets = (32, 64, 128)
    means = {}
    for budget in budgets:
        plain, aware = [], []
        for scene in scenes:
            plain.append(instance_recall(fps(scene.positions, budget), scene))
            idx = ia_fps_infer(
                oracle_foreground(scene), scene.positions, split_budget(budget), oracle_mask_provider(scene)
            )
            aware.append(instance_recall(idx, scene))
        means[budget] = (float(np.mean(aware)), float(np.mean(plain)))
        assert means[budget][0] >= means[budget][1], f"ordering violated at budget {budget}"

    # Oracle masks with per-candidate feedback cover every instance once the
    # budget reaches the instance count.
    for scene in scenes:
        picks = ia_fps_infer(
            oracle_foreground(scene),
            scene.positions,
            SampleBudget((1,) * scene.num_instances),
            oracle_mask_provider(scene),
        )
        assert instance_recall(picks, scene) == 1.0
    elapsed = time.time() - start
    assert elapsed < 30.0
    detail = ", ".join(
        f"K={b}: {means[b][0]:.3f} >= {means[b][1]:.3f}" for b in budgets
    )
    report("criterion-2", f"instance-aware >= plain ({detail}); oracle recall 1.0; {elapsed:.1f}s")


class TestCriterion3Gradients:
    TRIALS = 20
    TOL = 1e-5
    EPS = 1e-5

    def test_individual_losses(self):
        start = time.time()
        rng = np.random.default_rng(101)
        worst = {}
        for name in ("dice", "bce", "ce", "l1", "giou", "ms"):
            errs = []
            for _ in range(self.TRIALS):
                if name == "dice":
                    gt = (rng.uniform(size=24) > 0.5).astype(float)
                    fn = lambda p, g=gt: dice_term(ad.sigmoid(p["z"]), g)
                    params = {"z": rng.normal(size=24)}
                elif name == "bce":
                    gt = (rng.uniform(size=24) > 0.5).astype(float)
                    fn = lambda p, g=gt: bce_with_logits(p["z"], g)
                    params = {"z": rng.normal(size=24)}
                elif name == "ce":
                    targets = rng.integers(0, 5, size=6)
                    weights = rng.uniform(0.25, 1.0, size=6)
                    fn = lambda p, t=targets, w=weights: cross_entropy(p["z"], t, w)
                    params = {"z": rng.normal(size=(6, 5))}
                elif name == "l1":
                    gt = rng.normal(size=(3, 6))
                    fn = lambda p, g=gt: ad.mean(box_l1(p["b"], g))
                    params = {"b": gt + rng.uniform(0.2, 1.0, size=(3, 6))}
                elif name == "giou":
                    lo = rng.uniform(-1, 1, size=(3, 3))
                    gt = np.concatenate([lo, lo + rng.uniform(0.4, 1.6, size=(3, 3))], axis=1)
                    pred = gt + rng.uniform(-0.15, 0.15, size=(3, 6))
                    pred[:, 3:] = np.maximum(pred[:, 3:], pred[:, :3] + 0.3)
                    fn = lambda p, g=gt: ad.mean(1.0 - box_giou(p["b"], g))
                    params = {"b": pred}
                else:
                    target = rng.uniform(size=4)
                    fn = lambda p, t=target: mask_scoring(p["q"], t)
                    params = {"q": rng.normal(size=4)}
                errs.append(fd_gradient_check(fn, params, epsilon=self.EPS))
            worst[name] = max(errs)
            assert worst[name] <= self.TOL, f"{name}: {worst[name]:.2e}"
        detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
        report("criterion-3a", f"per-loss FD errors over {self.TRIALS} trials: {detail} "
                              f"({time.time()-start:.1f}s)")

    def test_composite_through_decoder_and_aggregation(self):
        start = time.time()
        from pciseg.pipeline import scene_loss

        config = PipelineConfig(
            num_classes=5,
            d_model=3,
            mask_dim=2,
            layout_dims=(11, 2, 1),
            stage1_budget=16,
            chunk_sizes=(8,),
            k_train=6,
            num_neighbors=4,
        )
        group_cycle = itertools.cycle(
            [
                ("pa1.w0", "head.ker_w"),
                ("pa2.w1", "point.mask_w"),
                ("enc.w2", "head.box_w"),
                ("pa1.b2", "head.cls_w", "head.q_w"),
                ("point.box_w", "pa2.w0"),
                ("point.sem_w", "head.ker_b"),
            ]
        )
        errs = []
        for trial in range(self.TRIALS):
            scenes = generate(
                GenConfig(
                    num_scenes=1,
                    points_per_scene=64,
                    seed=3000 + trial,
                    min_instances=2,
                    max_instances=2,
                    background_fraction=0.3,
                )
            )
            if not scenes:
                continue
            scene = scenes[0]
            model = ModelParams.initialize(config, 400 + trial)
            checked = next(group_cycle)

            def loss_fn(leaves):
                merged = {
                    name: leaves.get(name, Var(value)) for name, value in model.params.items()
                }
                total, _ = scene_loss(scene, merged, config)
                return total

            errs.append(
                fd_gradient_check(
                    loss_fn,
                    {name: model.params[name] for name in checked},
                    epsilon=self.EPS,
                    skip_nonsmooth=True,
                )
            )
            assert errs[-1] <= self.TOL, f"trial {trial}: {errs[-1]:.2e}"
        assert len(errs) >= self.TRIALS - 2
        report(
            "criterion-3b",
            f"composite loss through decoder+aggregation: worst {max(errs):.1e} over "
            f"{len(errs)} trials ({time.time()-start:.1f}s)",
        )


def test_criterion_4_matching_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    for trial in range(200):
        k = int(rng.integers(1, 7))
        j = int(rng.integers(1, 3))
        s = int(rng.integers(1, 4))
        cost = rng.uniform(0.0, 10.0, size=(k, j))
        assignment = one_to_many_match(cost, s)
        got = assignment_cost(assignment, cost)
        best = brute_force_min_cost(cost, s)
        assert got == pytest.approx(best, abs=1e-9), f"trial {trial}"
    elapsed = time.time() - start
    assert elapsed < 10.0
    report("criterion-4", f"200 random instances match the exhaustive minimum ({elapsed:.1f}s)")


def test_criterion_5_ap_evaluator_oracle():
    rng = np.random.default_rng(555)
    for case in range(50):
        n_inst = int(rng.integers(1, 4))
        spans = [(6 * j, 6 * j + int(rng.integers(2, 6))) for j in range(n_inst)]
        classes = rng.integers(1, 3, size=n_inst).tolist()
        scene = scene_with_instances(spans, classes, n=24, num_classes=4)
        preds = []
        for _ in range(int(rng.integers(0, 6))):
            idx = rng.choice(24, size=int(rng.integers(1, 8)), replace=False)
            preds.append(prediction_for(scene, idx, int(rng.integers(1, 3)), float(rng.uniform())))
        threshold = float(rng.choice([0.25, 0.5, 0.75]))
        got, _ = average_precision([preds], [scene], thresholds=(threshold,))

        classes_present = sorted(
            {scene.instance_class(j) for j in range(scene.num_instances)}
            | {p.class_id for p in preds}
        )
        aps = []
        for cls in classes_present:
            gts = [j for j in range(scene.num_instances) if scene.instance_class(j) == cls]
            ranked = sorted([p for p in preds if p.class_id == cls], key=lambda p: -p.score)
            used, flags = set(), []
            for p in ranked:
                best, best_j = 0.0, -1
                for j in gts:
                    if j in used:
                        continue
                    iou = mask_iou(p.mask, scene.instance_mask(j))
                    if iou > best:
                        best, best_j = iou, j
                if best_j >= 0 and best >= threshold:
                    used.add(best_j)
                    flags.append(True)
                else:
                    flags.append(False)
            aps.append(reference_ap(flags, len(gts)))
        assert got == pytest.approx(float(np.mean(aps)), abs=1e-12), f"case {case}"

    scene = scene_with_instances([(0, 6), (8, 14)], [1, 2])
    exact = [
        prediction_for(scene, np.flatnonzero(scene.instance_mask(j)), scene.instance_class(j), 0.9)
        for j in range(2)
    ]
    for thresholds in (None, (0.5,), (0.25,)):
        kwargs = {} if thresholds is None else {"thresholds": thresholds}
        value, _ = average_precision([exact], [scene], **kwargs)
        assert value == 1.0
    report("criterion-5", "50 micro-cases equal the brute-force PR area; perfect set scores 1.0")


def test_criterion_6_late_devoxelization_equivalence(monkeypatch):
    scenes = generate(GenConfig(num_scenes=10, points_per_scene=512, seed=31))
    assert len(scenes) == 10
    base = dict(
        num_classes=5,
        d_model=8,
        mask_dim=4,
        layout_dims=(13, 8, 1),
        stage1_budget=48,
        chunk_sizes=(16, 8),
        k_train=16,
        num_neighbors=8,
        voxel_size=0.05,
    )
    config = PipelineConfig(**base)
    model = ModelParams.initialize(config, 9)
    worst = 0.0
    for scene in scenes:
        late = infer(scene, model, config)
        with monkeypatch.context() as m:
            m.setattr(pipeline, "_forward_pointwise", early_expansion_pointwise)
            early = infer(scene, model, config)
        assert len(early) == len(late)
        for a, b in zip(early, late):
            worst = max(worst, float(np.max(np.abs(a.soft_mask - b.soft_mask))))
            assert np.array_equal(a.mask, b.mask)
    assert worst <= 1e-12
    report("criterion-6", f"early vs late expansion: max soft-mask gap {worst:.2e} over 10 scenes")


@pytest.mark.slow
class TestCriterion7EndToEnd:
    """Desk-scale training plus the paired box-cue ablation.

    The main run trains on 150 synthetic scenes and validates on 30; the
    ablation trains five compact seed-paired models with the
    box-difference features intact versus zeroed.
    """

    def test_training_reaches_validation_ap50(self):
        start = time.time()
        scenes = generate(GenConfig(num_scenes=185, points_per_scene=768, seed=2026))
        assert len(scenes) >= 180
        train_scenes, val_scenes = scenes[:150], scenes[150:180]
        config = PipelineConfig(
            k_train=48,
            stage1_budget=192,
            chunk_sizes=(96, 64, 32),
            learning_rate=1e-2,
            batch_size=4,
            epochs=30,
            eval_every=30,
        )
        model, history = train(train_scenes, config, seed=0, val_scenes=val_scenes)
        elapsed = time.time() - start
        ap50 = history[-1]["val_ap50"]
        assert elapsed < 1800.0, f"training took {elapsed:.0f}s"
        assert ap50 >= 0.60, f"validation AP50 {ap50:.3f} below target"
        report(
            "criterion-7a",
            f"150-scene training: val AP50 {ap50:.3f} >= 0.60 in {elapsed/60:.1f} min",
        )

    def test_geo_cue_ablation_direction(self):
        start = time.time()
        # The ten trainings are independent and deterministic, so they run
        # in worker processes, one single-threaded BLAS each.
        jobs = [(seed, geo) for seed in range(5) for geo in ("on", "zero")]
        workers = min(2, os.cpu_count() or 1)
        with mock.patch.dict(os.environ, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}):
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
                aps = dict(zip(jobs, pool.map(_ablation_ap, *zip(*jobs), timeout=1800.0)))
        enabled = [aps[seed, "on"] for seed in range(5)]
        zeroed = [aps[seed, "zero"] for seed in range(5)]
        mean_on, mean_zero = float(np.mean(enabled)), float(np.mean(zeroed))
        assert mean_on >= mean_zero, f"geo on {mean_on:.3f} < zeroed {mean_zero:.3f}"
        report(
            "criterion-7b",
            f"box-cue ablation over 5 paired seeds: mean AP {mean_on:.3f} (on) >= "
            f"{mean_zero:.3f} (zeroed) in {(time.time()-start)/60:.1f} min",
        )


def _ablation_ap(seed: int, geo: str) -> float:
    """Criterion 7b's compact training run: validation mask AP of one model."""
    scenes = generate(
        GenConfig(
            num_scenes=40,
            points_per_scene=512,
            seed=700 + seed,
            room_size=(3.0, 3.0),
            scenario_weights=(0.5, 0.2, 0.3),
            min_instances=2,
            max_instances=5,
        )
    )
    tr, val = scenes[:32], scenes[32:]
    config = PipelineConfig(
        k_train=32,
        stage1_budget=128,
        chunk_sizes=(64, 42, 22),
        learning_rate=1e-2,
        batch_size=4,
        epochs=30,
        eval_every=1000,
        geo_cue=geo,
    )
    model, _ = train(tr, config, seed)
    preds = [infer(s, model, config) for s in val]
    ap, _ = average_precision(preds, val)
    return ap


def test_criterion_8_invariant_suites():
    rng = np.random.default_rng(88)

    # farthest-point prefix + deterministic tie-break
    line = np.stack([np.arange(10.0), np.zeros(10), np.zeros(10)], axis=1)
    assert fps(line, 3, seed_index=0).tolist() == [0, 9, 4]
    pts = rng.normal(size=(40, 3))
    for budget in (1, 5, 20, 39):
        assert fps(pts, budget + 1)[:budget].tolist() == fps(pts, budget).tolist()

    # residual identity under zero aggregation weights
    feats = rng.normal(size=(20, 4))
    positions = rng.normal(size=(20, 3)) * 0.1
    blocks = [zero_block(0.2, 4, 4), zero_block(0.4, 4, 4)]
    stage1, stage2 = np.arange(20), np.array([1, 7, 13])
    assert np.array_equal(stacked_features(feats, positions, stage1, stage2, blocks), feats[stage2])

    # NMS contract at 0.2: kept pairs never exceed the threshold
    masks = rng.uniform(size=(12, 40)) > 0.6
    scores = rng.uniform(size=12)
    kept = nms(masks, scores, 0.2)
    for a, b in itertools.combinations(kept, 2):
        assert mask_iou(masks[a], masks[b]) <= 0.2
    kept_scores = [scores[i] for i in kept]
    assert kept_scores == sorted(kept_scores, reverse=True)

    # ball-query offsets normalized into the unit cube
    cloud = rng.normal(size=(60, 3)) * 0.3
    radius = 0.25
    nbrs = ball_query(cloud, cloud[:8], radius, 6, center_indices=np.arange(8))
    offsets = (cloud[nbrs] - cloud[:8][:, None, :]) / radius
    assert np.all(np.abs(offsets) <= 1.0 + 1e-12)

    # box head invariant: min corner never exceeds max corner
    config = PipelineConfig(
        num_classes=5, d_model=8, mask_dim=4, layout_dims=(13, 8, 1), num_neighbors=8
    )
    scenes = generate(GenConfig(num_scenes=1, points_per_scene=256, seed=5))
    model = ModelParams.initialize(config, 19)
    boxes = _forward_pointwise(scenes[0], model.as_vars(), config, None)[2].value
    assert np.all(boxes[:, :3] <= boxes[:, 3:])

    # loss decomposition identity is exact
    rep = LossReport(0.7, 0.3, 0.9, 0.2, 0.4, 0.1)
    assert rep.instance_total == 0.7 + LAMBDA_BOX * 0.3 + LAMBDA_MASK * 0.9 + LAMBDA_MS * 0.2
    assert rep.total == rep.instance_total + 0.5

    report(
        "criterion-8",
        "prefix/tie-break, residual identity, NMS contract, offset bounds, box ordering, "
        "loss decomposition all hold",
    )
