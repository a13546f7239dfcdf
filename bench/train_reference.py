"""Train the benchmark's reference model and write it to bench/model.bin.

Usage: python3 bench/train_reference.py [--out bench/model.bin]

Runs the criterion-7a training of the acceptance suite: 150 scenes of 768
points from generator seed 2026, 30 epochs, training seed 0, then reports
the validation AP50 on the next 30 scenes. One BLAS thread; about eight
minutes on one core.
"""

from __future__ import annotations

import argparse
import json
import time

import common

common.require_checkout_package()

from pciseg.pipeline import PipelineConfig, save_model, train  # noqa: E402
from pciseg.scenegen import GenConfig, generate  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(common.MODEL_PATH))
    args = parser.parse_args()

    start = time.perf_counter()
    scenes = generate(GenConfig(**common.TRAIN_GEN))
    n_train, n_val = common.TRAIN_SPLIT
    if len(scenes) < n_val:
        raise SystemExit(f"generator produced only {len(scenes)} scenes")
    config = PipelineConfig(
        **common.TRAIN_FIELDS, epochs=common.TRAIN_EPOCHS, eval_every=common.TRAIN_EPOCHS
    )
    model, history = train(
        scenes[:n_train], config, seed=common.TRAIN_SEED, val_scenes=scenes[n_train:n_val]
    )
    save_model(args.out, model)
    summary = {
        "out": args.out,
        "val_ap50": history[-1]["val_ap50"],
        "final_loss": history[-1]["total"],
        "seconds": round(time.perf_counter() - start, 1),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
