"""Digests of the outputs that a same-bytes change must leave unchanged.

Usage, from the root of a checkout (no flags):

    python3 tools/parity.py

Importing ``bench/common.py`` pins BLAS to one thread and puts this
checkout's ``src`` first on the path; the scenes, model and settings are
the benchmark's. Each line prints one sha256:

- ``infer-768`` and ``infer-4096``: the seed-0 pools (40 x 768 and
  8 x 4096 points) through ``infer`` with ``INFER_FIELDS`` and
  ``bench/model.bin``. ``pred`` hashes the ``.pred`` bytes of every scene
  in pool order; ``all`` hashes every prediction's class, score, box,
  packed mask and soft mask; ``eval`` hashes every float of
  ``evalmetrics.evaluate``'s report over the pool (``as_dict()``, then
  ``per_class`` by class), each as ``float.hex``.
- ``train``: the parameters and the loss history after the train-768
  workload's ``train`` call (6 epochs of ``TRAIN_FIELDS`` on the 8 seed-0
  scenes of 768 points).
- ``scene_loss``: on those 8 scenes at ``bench/model.bin``, each loss
  value with its gradients, and each branch signature.

Two checkouts give the same bytes exactly when every line matches.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import common  # noqa: E402  (pins BLAS threads before numpy loads)

common.require_checkout_package()

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from pciseg import autodiff as ad, evalmetrics, pipeline, scenegen  # noqa: E402
from pciseg.pipeline import PipelineConfig  # noqa: E402

SEED = 0


def infer_digests(model, points: int, count: int, work: Path) -> tuple[str, str, str]:
    config = PipelineConfig(**common.INFER_FIELDS)
    pred_bytes, fields = hashlib.sha256(), hashlib.sha256()
    scenes = workloads.pool_scenes(points, count, common.scene_seed(SEED))
    predictions = [pipeline.infer(scene, model, config) for scene in scenes]
    for i, (scene, preds) in enumerate(zip(scenes, predictions)):
        path = work / f"scene_{points}_{i:03d}.pred"
        scenegen.write_predictions(path, preds, scene.num_points)
        pred_bytes.update(path.read_bytes())
        for pred in preds:
            fields.update(np.int64(pred.class_id).tobytes())
            fields.update(np.float64(pred.score).tobytes())
            fields.update(pred.box.to_vector().tobytes())
            fields.update(np.packbits(pred.mask).tobytes())
            fields.update(pred.soft_mask.tobytes())
    report = evalmetrics.evaluate(predictions, scenes)
    floats = list(report.as_dict().items())
    floats += [(f"{c}.{key}", value) for c, per in sorted(report.per_class.items()) for key, value in per.items()]
    report_bytes = "".join(f"{key} {value.hex()}\n" for key, value in floats).encode()
    return pred_bytes.hexdigest(), fields.hexdigest(), hashlib.sha256(report_bytes).hexdigest()


def train_digests(scenes, config) -> tuple[str, str]:
    model, history = pipeline.train(scenes, config, seed=workloads.TRAIN_INIT_SEED)
    params = hashlib.sha256()
    for name, value in model.params.items():
        params.update(name.encode())
        params.update(np.ascontiguousarray(value).tobytes())
    return params.hexdigest(), hashlib.sha256(repr(history).encode()).hexdigest()


def loss_digests(scenes, model, config) -> tuple[str, str]:
    values, signatures = hashlib.sha256(), hashlib.sha256()
    for scene in scenes:
        leaves = {name: ad.parameter(value) for name, value in model.params.items()}
        total, _ = pipeline.scene_loss(scene, leaves, config)
        ad.backward(total)
        values.update(total.value.tobytes())
        for name, leaf in leaves.items():
            values.update(name.encode())
            values.update(b"-" if leaf.grad is None else leaf.grad.tobytes())
        point = model.as_vars()
        _, signature = ad.capture_signature(lambda: pipeline.scene_loss(scene, point, config)[0])
        signatures.update(signature)
    return values.hexdigest(), signatures.hexdigest()


def main() -> int:
    model = pipeline.load_model(common.MODEL_PATH)
    lines = []
    with tempfile.TemporaryDirectory() as work:
        for workload, (points, count) in workloads.INFER_POOLS.items():
            pred, fields, report = infer_digests(model, points, count, Path(work))
            lines += [f"{workload} pred {pred}", f"{workload} all {fields}", f"{workload} eval {report}"]
    scenes = workloads.pool_scenes(workloads.TRAIN_POINTS, workloads.TRAIN_SCENES, common.scene_seed(SEED))
    config = PipelineConfig(**common.TRAIN_FIELDS, epochs=workloads.TRAIN_EPOCHS)
    params, history = train_digests(scenes, config)
    lines += [f"train params {params}", f"train history {history}"]
    values, signatures = loss_digests(scenes, model, config)
    lines += [f"scene_loss gradients {values}", f"scene_loss signatures {signatures}"]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
