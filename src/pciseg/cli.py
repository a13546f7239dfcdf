"""Command-line entry points.

Subcommands: ``generate`` synthetic scenes, ``recall-bench`` for the
sampling strategies, ``train``, ``infer``, ``eval``, and ``runtime-bench``
for per-stage inference timings.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import pipeline, scenegen
from .evalmetrics import evaluate
from .sampling import (
    OccupancyState,
    fps,
    ia_fps_infer,
    instance_recall,
    oracle_background,
    oracle_mask_provider,
    split_budget,
)

logger = logging.getLogger(__name__)


def _load_dataclass(cls, path: str | None):
    """Build a config dataclass from a JSON file, rejecting unknown keys.

    JSON lists become tuples, the type of every sequence-valued field.
    """
    if path is None:
        return cls()
    raw = json.loads(Path(path).read_text())
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise SystemExit(f"unknown config keys for {cls.__name__}: {sorted(unknown)}")
    return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()})


def _scene_files(directory: Path) -> list[Path]:
    files = sorted(directory.glob("*.scene"))
    if not files:
        raise SystemExit(f"no .scene files under {directory}")
    return files


def cmd_generate(args) -> int:
    config = _load_dataclass(scenegen.GenConfig, args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenes = scenegen.generate(config)
    for index, scene in enumerate(scenes):
        scenegen.write_scene(out / f"scene_{index:04d}.scene", scene)
    logger.info("wrote %d scenes to %s", len(scenes), out)
    return 0


def cmd_recall_bench(args) -> int:
    budgets = [int(b) for b in args.budgets.split(",")]
    config = scenegen.GenConfig(num_scenes=args.scenes, points_per_scene=args.points, seed=args.seed)
    scenes = scenegen.generate(config)
    rows = []
    for budget in budgets:
        recalls = []
        for scene in scenes:
            state = OccupancyState(oracle_background(scene))
            if args.sampler == "fps":
                idx = fps(scene.positions, min(budget, scene.num_points))
            else:
                idx = ia_fps_infer(
                    state, scene.positions, split_budget(budget), oracle_mask_provider(scene)
                )
            recalls.append(instance_recall(idx, scene))
        rows.append((budget, float(np.mean(recalls)), float(np.std(recalls))))
    writer = csv.writer(sys.stdout)
    writer.writerow(["budget", "mean_recall", "std"])
    for row in rows:
        writer.writerow([row[0], f"{row[1]:.6f}", f"{row[2]:.6f}"])
    return 0


def cmd_train(args) -> int:
    config = _load_dataclass(pipeline.PipelineConfig, args.config)
    scenes = [scenegen.read_scene(path) for path in _scene_files(Path(args.data))]
    n_val = max(1, int(round(len(scenes) * args.val_fraction))) if len(scenes) > 1 else 0
    train_scenes = scenes[: len(scenes) - n_val] if n_val else scenes
    val = scenes[len(scenes) - n_val :] if n_val else None
    model, history = pipeline.train(train_scenes, config, args.seed, val)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.save_model(out / "model.bin", model)
    with open(out / "metrics.csv", "w", newline="") as f:
        keys = sorted({key for entry in history for key in entry})
        writer = csv.DictWriter(f, fieldnames=keys)
        writer.writeheader()
        writer.writerows(history)
    logger.info("model and metrics written to %s", out)
    return 0


def cmd_infer(args) -> int:
    model = pipeline.load_model(args.model)
    scene = scenegen.read_scene(args.scene)
    predictions = pipeline.infer(scene, model)
    scenegen.write_predictions(args.out, predictions, scene.num_points)
    logger.info("wrote %d predictions to %s", len(predictions), args.out)
    return 0


def cmd_eval(args) -> int:
    gt_files = _scene_files(Path(args.gt_dir))
    scenes, predictions = [], []
    for path in gt_files:
        pred_path = Path(args.pred_dir) / (path.stem + ".pred")
        if not pred_path.exists():
            raise SystemExit(f"missing predictions for {path.stem}")
        scene = scenegen.read_scene(path)
        preds, n = scenegen.read_predictions(pred_path)
        if n != scene.num_points:
            raise SystemExit(f"prediction point count mismatch for {path.stem}")
        scenes.append(scene)
        predictions.append(preds)
    report = evaluate(predictions, scenes)
    print(json.dumps(report.as_dict() | {"per_class": report.per_class}, indent=2, sort_keys=True))
    if args.csv:
        metric_names = sorted(next(iter(report.per_class.values())))
        with open(args.csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["class"] + metric_names)
            for class_id, values in sorted(report.per_class.items()):
                writer.writerow([class_id] + [f"{values[m]:.6f}" for m in metric_names])
    return 0


def cmd_runtime_bench(args) -> int:
    model = pipeline.load_model(args.model)
    writer = csv.writer(sys.stdout)
    writer.writerow(["scene", "encoder_ms", "instance_encoder_ms", "mask_decoder_ms", "total_ms"])
    for path in _scene_files(Path(args.scenes)):
        scene = scenegen.read_scene(path)
        timings: dict = {}
        pipeline.infer(scene, model, timings=timings)
        total = sum(timings.values())
        writer.writerow(
            [path.stem]
            + [f"{timings[k]:.2f}" for k in ("encoder", "instance_encoder", "mask_decoder")]
            + [f"{total:.2f}"]
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pciseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate synthetic scenes")
    p.add_argument("--config", help="JSON file with generator settings")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("recall-bench", help="instance recall of the samplers")
    p.add_argument("--budgets", default="32,64,128")
    p.add_argument("--scenes", type=int, default=50, help="number of synthetic scenes")
    p.add_argument("--points", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampler", choices=("fps", "iafps"), default="iafps")
    p.set_defaults(func=cmd_recall_bench)

    p = sub.add_parser("train", help="train a model on a scene directory")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON file with pipeline settings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--val-fraction", type=float, default=0.15)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="run inference on one scene file")
    p.add_argument("--model", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--csv", help="optional per-class CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("runtime-bench", help="per-stage inference timings")
    p.add_argument("--scenes", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_runtime_bench)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
