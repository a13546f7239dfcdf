"""The benchmark's three workloads: infer-768, infer-4096 and train-768.

Each runs in its own process, one call at a time in a closed loop, and
returns the end-to-end figures, the per-layer figures of a traced run, the
operation counts and the outcome of its correctness checks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import checks as ck
import common
from spans import LAYER_METRICS, SCENE_COUNTS, Tracer

from pciseg import aggregator, autodiff as ad, evalmetrics, pipeline, scenegen
from pciseg.pipeline import PipelineConfig
from pciseg.scenegen import GenConfig

clock = time.perf_counter

SETUP_REPEATS = 3  # scene generation, writing and model load, timed apart
INFER_POOLS = {"infer-768": (768, 40), "infer-4096": (4096, 8)}  # points, scenes
TRAIN_POINTS, TRAIN_SCENES, TRAIN_EPOCHS = 768, 8, 6
TRAIN_INIT_SEED = 0
# The gradient check runs on inputs that do not depend on --seed.
GRADCHECK_SCENE_SEED = 9_000_000
GRADCHECK_DIRECTION_SEED = 1
GRADCHECK_EPS = 1e-5
GRADCHECK_TOL = 1e-6  # the true derivative reaches ~1e-9; the constant-box path ~1e-3
GRADCHECK_DIRECTIONS = 20
LOADED_CPU_SHARE = 0.9  # less CPU than this per wall second means contention


def pool_scenes(points: int, count: int, seed: int) -> list:
    """``count`` scenes from the default scenario mix, seeded by ``seed``."""
    scenes = scenegen.generate(GenConfig(num_scenes=count + 4, points_per_scene=points, seed=seed))
    if len(scenes) < count:
        raise RuntimeError(f"generator gave {len(scenes)} of {count} scenes")
    return scenes[:count]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class Run:
    """State shared by the workloads: arguments, output dir, op counts."""

    def __init__(self, args, started: float):
        self.args = args
        self.started = started
        self.checks = ck.Checks()
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []
        self.tracer: Tracer | None = None
        self.work = common.OUT_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.rng = np.random.default_rng(common.scene_seed(args.seed))

    def start_tracer(self, config: PipelineConfig) -> Tracer | None:
        if self.args.trace:
            self.tracer = Tracer(config)
        return self.tracer

    def note(self, line: str) -> None:
        self.lines.append(line)

    def operation(self, fn, *args):
        """Run one counted operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - report and go on with the next operation
            self.failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# inference


def run_infer(run: Run) -> tuple[dict, dict]:
    args = run.args
    points, pool = INFER_POOLS[args.workload]
    config = PipelineConfig(**common.INFER_FIELDS)
    import_s = clock() - run.started

    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        scenes = pool_scenes(points, pool, common.scene_seed(args.seed))
        scene_paths = [run.work / f"scene_{i:03d}.scene" for i in range(pool)]
        for path, scene in zip(scene_paths, scenes):
            scenegen.write_scene(path, scene)
        model = pipeline.load_model(common.MODEL_PATH)
        pipeline.match_config(model, config)
        reps.append(clock() - t0)
    pred_paths = [run.work / f"scene_{i:03d}.pred" for i in range(pool)]

    # Warm-up on scene 0 with a capturing tracer; its arrays feed the checks.
    t0 = clock()
    capture = Tracer(config)
    with capture:
        scene0 = scenegen.read_scene(scene_paths[0])
        warm = pipeline.infer(scene0, model, config)
        scenegen.write_predictions(run.work / "warmup.pred", warm, scene0.num_points)
    setup_s = import_s + statistics.median(reps) + (clock() - t0)
    first_bytes = {0: (run.work / "warmup.pred").read_bytes()}

    tracer = run.start_tracer(config)
    untraced_ms, traced_ms = [], []
    last = {}  # pool index -> (scene, predictions)

    def one_scene(j: int, traced: bool) -> None:
        with tracer.recording("bench.scene") if traced else contextlib.nullcontext():
            t0 = clock()
            scene = scenegen.read_scene(scene_paths[j])
            preds = pipeline.infer(scene, model, config)
            scenegen.write_predictions(pred_paths[j], preds, scene.num_points)
            elapsed = (clock() - t0) * 1e3
        (traced_ms if traced else untraced_ms).append(elapsed)
        last[j] = (scene, preds)
        data = pred_paths[j].read_bytes()
        run.checks.expect(first_bytes.setdefault(j, data) == data, f"scene {j}: re-inference wrote different bytes")

    load_before = os.getloadavg()
    cpu0, t_begin = cpu_seconds(), clock()
    i = 0
    while clock() - t_begin < args.seconds or i < pool:
        j = i % pool
        # A traced run processes each scene twice, untraced and traced, in
        # alternating order, so the tracing overhead is measured on equal work.
        modes = ((False, True) if i % 2 == 0 else (True, False)) if tracer else (False,)
        for traced in modes:
            run.operation(one_scene, j, traced)
        i += 1
    cpu_share = (cpu_seconds() - cpu0) / (clock() - t_begin)
    load_after = os.getloadavg()

    order = sorted(last)
    scenes_read = [last[j][0] for j in order]
    predictions = [last[j][1] for j in order]

    with tracer or contextlib.nullcontext():
        t0 = clock()
        report = run.operation(evalmetrics.evaluate, predictions, scenes_read)
        eval_ms = (clock() - t0) * 1e3

    # -- checks ------------------------------------------------------------
    c = run.checks
    c.expect(ck.same_predictions(warm, last[0][1]), "warm-up and timed inference of scene 0 differ")
    for j in order:
        scene, preds = last[j]
        ck.check_predictions(c, preds, scene, config)
        back, n = scenegen.read_predictions(pred_paths[j])
        c.expect(n == scene.num_points and ck.same_predictions(preds, back), f"scene {j}: .pred file reads back differently")
    ck.check_encoder_rows(c, scene0.positions, scene0.colors, capture.last["encoder_inputs"], run.rng)
    ck.check_candidates(
        c,
        capture.last["semantic_logits"],
        capture.last["fps_filter"],
        capture.last["stage1"],
        capture.last["local_order"],
        config,
    )
    for radius in config.radii:
        ck.check_ball_query(c, aggregator.ball_query, scene0.positions, radius, config.num_neighbors, run.rng)
    if report is not None:
        ap = ck.reference_ap(predictions, scenes_read, evalmetrics.AP_THRESHOLDS)
        ap50 = ck.reference_ap(predictions, scenes_read, (0.5,))
        c.expect(abs(ap - report.ap) <= ck.AP_TOL, f"evaluate AP {report.ap!r} != reference {ap!r}")
        c.expect(abs(ap50 - report.ap50) <= ck.AP_TOL, f"evaluate AP50 {report.ap50!r} != reference {ap50!r}")
    gt_report = evalmetrics.evaluate([ck.ground_truth_predictions(s) for s in scenes_read], scenes_read)
    c.expect(gt_report.ap == 1.0 and gt_report.ap50 == 1.0, f"ground truth as predictions scores AP {gt_report.ap}")

    rss = peak_rss_mb()
    samples = len(untraced_ms)
    run.note(f"scenes: {pool} of {points} points; {samples} untraced inferences")
    run.note(f"metric infer_ms = {statistics.median(untraced_ms):.3f} ms/scene (median of {samples})")
    if samples >= 100:
        p90 = statistics.quantiles(untraced_ms, n=10)[-1]
        run.note(f"metric infer_ms_p90 = {p90:.3f} ms/scene ({samples} samples)")
    if report is not None:
        run.note(f"metric eval_ms = {eval_ms:.3f} ms (one evaluate over {len(order)} scenes)")
        run.note(f"metric mask_ap = {report.ap:.4f} AP")
        run.note(f"metric mask_ap50 = {report.ap50:.4f} AP")
        run.note(f"metric box_ap50 = {report.box_ap50:.4f} AP")
    run.note(f"metric peak_rss_mb = {rss:.1f} MB")
    run.note(f"metric setup_s = {setup_s:.3f} s")
    loop = dict(load_before=load_before, load_after=load_after, cpu_share=cpu_share)

    end_to_end = {
        "setup_s": (setup_s, "s"),
        "scene_ms": (statistics.median(untraced_ms), "ms/scene"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = dict(
        loop=loop,
        untraced_ms=untraced_ms,
        traced_ms=traced_ms,
        operations=len(traced_ms) if tracer else 0,
        evaluates=1 if report is not None else 0,
        mask_ap=report.ap if report is not None else 0.0,
        mask_ap50=report.ap50 if report is not None else 0.0,
    )
    return end_to_end, extra


# ---------------------------------------------------------------------------
# training


def gradient_check(scene, model, config) -> tuple[bool, float, int]:
    """Tape directional derivative of ``scene_loss`` vs a central difference.

    Directions are seeded unit vectors over all parameters. Both
    evaluation points must share one branch signature; a direction whose
    points straddle a kink is replaced by the next one.
    """
    leaves = {name: ad.parameter(value) for name, value in model.params.items()}
    total, _ = pipeline.scene_loss(scene, leaves, config)
    ad.backward(total)
    grads = {n: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value) for n, leaf in leaves.items()}
    rng = np.random.default_rng(GRADCHECK_DIRECTION_SEED)

    def loss_at(direction, step):
        point = {n: ad.Var(v + step * direction[n]) for n, v in model.params.items()}
        value, signature = ad.capture_signature(lambda: pipeline.scene_loss(scene, point, config)[0])
        return float(value.value), signature

    for tried in range(1, GRADCHECK_DIRECTIONS + 1):
        direction = {n: rng.standard_normal(v.shape) for n, v in model.params.items()}
        norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        direction = {n: d / norm for n, d in direction.items()}
        plus, sig_plus = loss_at(direction, GRADCHECK_EPS)
        minus, sig_minus = loss_at(direction, -GRADCHECK_EPS)
        if sig_plus != sig_minus:
            continue
        analytic = sum(float((grads[n] * direction[n]).sum()) for n in grads)
        numeric = (plus - minus) / (2.0 * GRADCHECK_EPS)
        err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        return err <= GRADCHECK_TOL, err, tried
    return False, float("nan"), GRADCHECK_DIRECTIONS


def run_train(run: Run) -> tuple[dict, dict]:
    args = run.args
    config = PipelineConfig(**common.TRAIN_FIELDS, epochs=TRAIN_EPOCHS)
    import_s = clock() - run.started

    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        scenes = pool_scenes(TRAIN_POINTS, TRAIN_SCENES, common.scene_seed(args.seed))
        check_scene = pool_scenes(TRAIN_POINTS, 1, GRADCHECK_SCENE_SEED)[0]
        reference = pipeline.load_model(common.MODEL_PATH)
        pipeline.match_config(reference, config)
        reps.append(clock() - t0)
    t0 = clock()
    pipeline.train(scenes[:1], dataclasses.replace(config, epochs=1), seed=TRAIN_INIT_SEED)
    setup_s = import_s + statistics.median(reps) + (clock() - t0)

    initial = pipeline.ModelParams.initialize(config, TRAIN_INIT_SEED).params
    scene_epochs = TRAIN_SCENES * TRAIN_EPOCHS
    tracer = run.start_tracer(config)
    untraced_ms, traced_ms, errors = [], [], []
    first_params = None

    def train_call(traced: bool):
        with tracer.recording("bench.train_call") if traced else contextlib.nullcontext():
            t0 = clock()
            model, history = pipeline.train(scenes, config, seed=TRAIN_INIT_SEED)
            elapsed = (clock() - t0) * 1e3 / scene_epochs
        (traced_ms if traced else untraced_ms).append(elapsed)
        return model, history

    def grad_check():
        ok, err, tried = gradient_check(check_scene, reference, config)
        errors.append((err, tried))
        if not ok:
            raise ArithmeticError(f"directional derivative off by {err:.3e} (tolerance {GRADCHECK_TOL:g})")

    load_before = os.getloadavg()
    cpu0, t_begin = cpu_seconds(), clock()
    rounds = 0
    while rounds < (2 if tracer else 1) or clock() - t_begin < args.seconds:
        traced = tracer is not None and rounds % 2 == 1
        out = run.operation(train_call, traced)
        if out is not None:
            model, history = out
            c = run.checks
            c.expect(
                all(np.isfinite(v) for entry in history for k, v in entry.items() if k != "epoch"),
                "a training loss is not finite",
            )
            c.expect(all(np.all(np.isfinite(v)) for v in model.params.values()), "a trained parameter is not finite")
            c.expect(
                any(not np.array_equal(v, initial[n]) for n, v in model.params.items()), "training changed no parameter"
            )
            if first_params is None:
                first_params = model.params
            c.expect(
                all(np.array_equal(v, first_params[n]) for n, v in model.params.items()),
                "the same training call gave different parameters",
            )
        run.operation(grad_check)
        rounds += 1
    cpu_share = (cpu_seconds() - cpu0) / (clock() - t_begin)
    load_after = os.getloadavg()

    c = run.checks
    rows = pipeline.encoder_inputs(scenes[0].positions, scenes[0].colors)
    ck.check_encoder_rows(c, scenes[0].positions, scenes[0].colors, rows, run.rng)
    for radius in config.radii:
        ck.check_ball_query(c, aggregator.ball_query, scenes[0].positions, radius, config.num_neighbors, run.rng)

    rss = peak_rss_mb()
    train_ms = statistics.median(untraced_ms)
    run.note(f"train call: {TRAIN_SCENES} scenes of {TRAIN_POINTS} points x {TRAIN_EPOCHS} epochs; {rounds} rounds")
    run.note(f"metric train_scene_ms = {train_ms:.3f} ms/scene-epoch (median of {len(untraced_ms)} calls)")
    err, tried = errors[-1]
    run.note(f"gradient check: relative error {err:.3e} after {tried} direction(s), tolerance {GRADCHECK_TOL:g}")
    run.note(f"metric peak_rss_mb = {rss:.1f} MB")
    run.note(f"metric setup_s = {setup_s:.3f} s")
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "scene_ms": (train_ms, "ms/scene"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = dict(
        loop=dict(load_before=load_before, load_after=load_after, cpu_share=cpu_share),
        untraced_ms=untraced_ms,
        traced_ms=traced_ms,
        operations=len(traced_ms) * scene_epochs,
        evaluates=0,
        mask_ap=0.0,
        mask_ap50=0.0,
    )
    return end_to_end, extra


WORKLOADS = {"infer-768": run_infer, "infer-4096": run_infer, "train-768": run_train}


# ---------------------------------------------------------------------------
# per-layer figures


def per_layer(tracer: Tracer, extra: dict, root: str) -> tuple[dict, str]:
    """Per-layer metrics of a traced run, per scene (or scene-epoch), and
    a line showing that they add up to the traced time."""
    ops = max(extra["operations"], 1)
    self_ms = tracer.self_times_ms()
    metrics = {}
    for span, name in LAYER_METRICS.items():
        metrics[name] = (self_ms.get(span, 0.0) / ops, "ms")
    for name in SCENE_COUNTS:
        metrics[name] = (tracer.counts.get(name, 0) / ops, "count")
    counts = tracer.counts
    rows = counts.get("aggregator.block2_rows", 0)
    metrics["aggregator.block2_useful_ratio"] = (counts.get("sampling.candidates", 0) / rows if rows else 0.0, "ratio")
    gt = counts.get("sampling.gt_instances", 0)
    metrics["sampling.candidate_recall"] = (counts.get("sampling.gt_hit", 0) / gt if gt else 0.0, "ratio")
    metrics["dynconv.decoder_input_mb"] = (tracer.decoder_input_mb, "MB")
    evaluates = extra["evaluates"]
    metrics["evalmetrics.mask_iou_calls"] = (
        counts.get("evalmetrics.mask_iou_calls", 0) / evaluates if evaluates else 0.0,
        "count",
    )
    metrics["evalmetrics.evaluate_ms"] = (self_ms.get("evalmetrics.evaluate", 0.0) / max(evaluates, 1), "ms")
    metrics["evalmetrics.mask_ap"] = (extra["mask_ap"], "AP")
    metrics["evalmetrics.mask_ap50"] = (extra["mask_ap50"], "AP")

    traced = statistics.median(extra["traced_ms"])
    untraced = statistics.median(extra["untraced_ms"])
    layers = sum(v for k, (v, unit) in metrics.items() if unit == "ms" and k in LAYER_METRICS.values())
    unattributed = self_ms.get(root, 0.0) / ops
    metrics["trace.traced_scene_ms"] = (traced, "ms")
    metrics["trace.overhead_ms"] = (traced - untraced, "ms")
    metrics["trace.unattributed_ms"] = (unattributed, "ms")
    mean_traced = statistics.fmean(tracer.root_durations_ms(root)) / (ops / len(extra["traced_ms"]))
    accounting = (
        f"traced {mean_traced:.3f} ms/scene (mean) = layers {layers:.3f} + unattributed {unattributed:.3f}; "
        f"median traced {traced:.3f} vs untraced {untraced:.3f}: overhead {traced - untraced:+.3f} ms "
        f"({(traced / untraced - 1) * 100:+.2f}%)"
    )
    return metrics, accounting
