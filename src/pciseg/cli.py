"""Command-line entry points.

Subcommands: ``generate`` synthetic scenes, ``recall-bench`` for the
instance recall of the sampling strategies, ``train`` a model, ``infer``
one scene, and ``eval`` a directory of predictions. Per-layer timings come
from the benchmark, ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
import types
import typing
from pathlib import Path

import numpy as np

from . import pipeline, scenegen
from .evalmetrics import evaluate
from .sampling import (
    fps,
    ia_fps_infer,
    instance_recall,
    oracle_foreground,
    oracle_mask_provider,
    split_budget,
)

logger = logging.getLogger(__name__)


def _load_dataclass(cls, path: str | None):
    """Build a config dataclass from a JSON file, rejecting unreadable
    files, unknown keys, values whose JSON type does not fit the field and
    values the dataclass itself refuses; each exits with a message that
    names the file.

    JSON lists become tuples, the type of every sequence-valued field.
    """
    if path is None:
        return cls()
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise SystemExit(f"{path}: not a readable JSON file: {exc}") from None
    if not isinstance(raw, dict):
        raise SystemExit(f"{path}: a config must be a JSON object, got {type(raw).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise SystemExit(f"{path}: unknown config keys for {cls.__name__}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    for key, value in raw.items():
        if not _fits(value, hints[key]):
            wanted = fields[key].type
            raise SystemExit(f"{path}: config key {key!r} of {cls.__name__} must be {wanted}, got {value!r}")
    try:
        return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()})
    except ValueError as exc:
        raise SystemExit(f"{path}: invalid {cls.__name__}: {exc}") from None


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field type; ints count as floats, bools as neither."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(_fits(v, a) for v, a in zip(value, args))
    if typing.get_origin(hint) is types.UnionType:
        return any(_fits(value, a) for a in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _ranged(kind, ok, rule: str):
    """An argparse type: a ``kind`` value for which ``ok`` holds, ``rule`` in words."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {'an integer' if kind is int else 'a number'}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{value} is not {rule}")
        return value

    return parse


_positive = _ranged(int, lambda v: v >= 1, "at least 1")


def _budgets(text: str) -> list[int]:
    """An argparse type: comma-separated positive sampling budgets."""
    return [_positive(part) for part in text.split(",")]


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
    config = scenegen.GenConfig(num_scenes=args.scenes, points_per_scene=args.points, seed=args.seed)
    scenes = scenegen.generate(config)
    rows = []
    for budget in args.budgets:
        recalls = []
        for scene in scenes:
            if args.sampler == "fps":
                idx = fps(scene.positions, min(budget, scene.num_points))
            else:
                foreground = oracle_foreground(scene)
                provider = oracle_mask_provider(scene)
                idx = ia_fps_infer(foreground, scene.positions, split_budget(budget), provider)
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
    # A nonzero fraction holds out at least one scene and trains on at least one.
    n_val = min(len(scenes) - 1, max(1, round(len(scenes) * args.val_fraction))) if args.val_fraction else 0
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pciseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate synthetic scenes")
    p.add_argument("--config", help="JSON file with generator settings")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("recall-bench", help="instance recall of the samplers")
    p.add_argument("--budgets", type=_budgets, default="32,64,128", help="comma-separated positive budgets")
    p.add_argument("--scenes", type=_positive, default=50, help="number of synthetic scenes")
    lo, hi = scenegen.MIN_POINTS, scenegen.MAX_POINTS
    p.add_argument("--points", type=_ranged(int, lambda v: lo <= v <= hi, f"in [{lo}, {hi}]"), default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampler", choices=("fps", "iafps"), default="iafps")
    p.set_defaults(func=cmd_recall_bench)

    p = sub.add_parser("train", help="train a model on a scene directory")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON file with pipeline settings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    in_unit = _ranged(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
    p.add_argument("--val-fraction", type=in_unit, default=0.15, help="share of scenes held out; 0: no validation")
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

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
