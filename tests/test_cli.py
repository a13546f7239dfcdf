import csv
import dataclasses
import io
import json
import re
from pathlib import Path

import pytest

from pciseg.cli import main
from pciseg.pipeline import PipelineConfig
from pciseg.scenegen import GenConfig, generate, read_predictions, read_scene, write_predictions, write_scene

from conftest import toy_scene


@pytest.fixture
def scene_dir(tmp_path):
    config = {
        "num_scenes": 6,
        "points_per_scene": 256,
        "seed": 12,
        "min_instances": 2,
        "max_instances": 3,
    }
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "scenes"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def test_generate_writes_readable_scenes(scene_dir):
    files = sorted(scene_dir.glob("*.scene"))
    assert len(files) == 6
    scene = read_scene(files[0])
    assert scene.num_points == 256


def test_recall_bench_csv(capsys):
    assert main(["recall-bench", "--budgets", "8,16", "--scenes", "4", "--points", "256",
                 "--seed", "1", "--sampler", "iafps"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["budget", "mean_recall", "std"]
    assert [r[0] for r in rows[1:]] == ["8", "16"]
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows[1:])


def test_recall_bench_fps_sampler(capsys):
    assert main(["recall-bench", "--budgets", "8", "--scenes", "2", "--points", "256",
                 "--sampler", "fps"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2


def test_train_infer_eval_round_trip(tmp_path, scene_dir, capsys):
    train_cfg = {
        "num_classes": 5,
        "d_model": 8,
        "mask_dim": 4,
        "layout_dims": [13, 8, 1],
        "stage1_budget": 24,
        "chunk_sizes": [6, 4],
        "k_train": 8,
        "num_neighbors": 8,
        "epochs": 2,
        "batch_size": 3,
        "learning_rate": 0.002,
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(train_cfg))
    run_dir = tmp_path / "run"
    assert main(["train", "--data", str(scene_dir), "--config", str(cfg_path),
                 "--seed", "3", "--out", str(run_dir)]) == 0
    model_path = run_dir / "model.bin"
    assert model_path.exists()
    assert (run_dir / "metrics.csv").exists()

    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    for scene_path in sorted(scene_dir.glob("*.scene")):
        out_path = pred_dir / (scene_path.stem + ".pred")
        assert main(["infer", "--model", str(model_path), "--scene", str(scene_path),
                     "--out", str(out_path)]) == 0
        read_predictions(out_path)
    capsys.readouterr()

    csv_path = tmp_path / "per_class.csv"
    assert main(["eval", "--pred-dir", str(pred_dir), "--gt-dir", str(scene_dir),
                 "--csv", str(csv_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("AP", "AP50", "AP25", "BoxAP50", "BoxAP25", "mCov", "mWCov", "mPrec50", "mRec50"):
        assert key in report
        assert 0.0 <= report[key] <= 1.0
    assert csv_path.exists()

    # Per-stage timings come from the benchmark; the subcommand is gone.
    with pytest.raises(SystemExit) as exc:
        main(["runtime-bench", "--scenes", str(scene_dir), "--model", str(model_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'runtime-bench'" in capsys.readouterr().err


def test_eval_ap_only(tmp_path, scene_dir, capsys):
    pred_dir = tmp_path / "empty_preds"
    pred_dir.mkdir()
    from pciseg.scenegen import write_predictions

    for scene_path in sorted(scene_dir.glob("*.scene")):
        scene = read_scene(scene_path)
        write_predictions(pred_dir / (scene_path.stem + ".pred"), [], scene.num_points)
    assert main(["eval", "--pred-dir", str(pred_dir), "--gt-dir", str(scene_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["AP"] == 0.0
    assert report["mCov"] == report["mRec50"] == 0.0
    with pytest.raises(SystemExit):  # the full report is the only one
        main(["eval", "--pred-dir", str(pred_dir), "--gt-dir", str(scene_dir), "--metrics", "ap"])


def test_bad_model_file_exits_naming_it(tmp_path, scene_dir):
    model = tmp_path / "model.bin"
    model.write_bytes(b"not a model at all")
    scene = next(scene_dir.glob("*.scene"))
    with pytest.raises(SystemExit, match=f"^{re.escape(str(model))}: not a model file"):
        main(["infer", "--model", str(model), "--scene", str(scene), "--out", str(tmp_path / "out.pred")])


def test_truncated_scene_exits_naming_it(tmp_path, scene_dir):
    scene = tmp_path / "cut.scene"
    scene.write_bytes(next(scene_dir.glob("*.scene")).read_bytes()[:100])
    model = Path(__file__).resolve().parents[1] / "bench" / "model.bin"
    with pytest.raises(SystemExit, match=f"^{re.escape(str(scene))}: truncated"):
        main(["infer", "--model", str(model), "--scene", str(scene), "--out", str(tmp_path / "out.pred")])


@pytest.fixture
def three_class_dir(tmp_path):
    out = tmp_path / "three_class"
    out.mkdir()
    for index, scene in enumerate(generate(GenConfig(num_scenes=2, points_per_scene=128, seed=5, num_classes=3))):
        write_scene(out / f"scene_{index:04d}.scene", scene)
    return out


def test_class_count_mismatch_in_infer_exits_naming_the_scene(tmp_path, three_class_dir):
    # The 5-class reference model would write class-3 predictions for a 3-class scene.
    scene = next(three_class_dir.glob("*.scene"))
    model = Path(__file__).resolve().parents[1] / "bench" / "model.bin"
    out = tmp_path / "out.pred"
    with pytest.raises(SystemExit, match=f"^{re.escape(str(scene))}: scene has 3 classes, the model 5$"):
        main(["infer", "--model", str(model), "--scene", str(scene), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("with_config", [True, False])
def test_class_count_mismatch_in_train_exits_naming_data_and_config(tmp_path, three_class_dir, with_config):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"epochs": 1}))
    args = ["train", "--data", str(three_class_dir), "--out", str(tmp_path / "run")]
    named = f"--data {three_class_dir} with --config {cfg if with_config else '(not given: defaults)'}"
    with pytest.raises(SystemExit, match=f"^{re.escape(named)}: scene has 3 classes, the config 5$"):
        main(args + (["--config", str(cfg)] if with_config else []))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "infer"])
def test_errors_past_the_class_count_check_are_not_blamed_on_the_inputs(tmp_path, scene_dir, monkeypatch, command):
    # Only the input check is named; a later ValueError keeps its traceback.
    from pciseg import pipeline

    def broken(*args):
        raise ValueError("a defect inside the pipeline")

    monkeypatch.setattr(pipeline, command, broken)
    model = Path(__file__).resolve().parents[1] / "bench" / "model.bin"
    scene = sorted(scene_dir.glob("*.scene"))[0]
    args = {
        "train": ["train", "--data", str(scene_dir), "--out", str(tmp_path / "run")],
        "infer": ["infer", "--model", str(model), "--scene", str(scene), "--out", str(tmp_path / "out.pred")],
    }[command]
    with pytest.raises(ValueError, match="^a defect inside the pipeline$"):
        main(args)


def test_truncated_predictions_exit_naming_them(tmp_path, scene_dir):
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    for scene_path in sorted(scene_dir.glob("*.scene")):
        write_predictions(pred_dir / (scene_path.stem + ".pred"), [], read_scene(scene_path).num_points)
    cut = sorted(pred_dir.glob("*.pred"))[-1]
    cut.write_bytes(cut.read_bytes()[:-1])
    with pytest.raises(SystemExit, match=f"^{re.escape(str(cut))}: "):
        main(["eval", "--pred-dir", str(pred_dir), "--gt-dir", str(scene_dir)])


def test_nothing_to_evaluate_exits_naming_the_predictions(tmp_path):
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "preds"
    gt_dir.mkdir()
    pred_dir.mkdir()
    write_scene(gt_dir / "empty.scene", toy_scene([[0.0, 0, 0], [1.0, 0, 0]], [0, 0], [-1, -1]))
    write_predictions(pred_dir / "empty.pred", [], 2)
    with pytest.raises(SystemExit, match=f"^{re.escape(str(pred_dir))}: nothing to evaluate"):
        main(["eval", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir)])


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus_knob": 3}))
    with pytest.raises(SystemExit, match="bogus_knob"):
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])


REMOVED_KEYS = [
    ("train", "tau", 0.5),
    ("train", "nms_iou", 0.2),
    ("train", "binarize_threshold", 0.5),
    ("train", "background_classes", [0]),
    ("train", "duplication", 4),
    ("train", "rms_decay", 0.9),
    ("train", "rms_eps", 1e-8),
    ("train", "pointwise_box_weight", 1.0),
    ("train", "loss_weights", {"gamma_mask": 5.0}),
    ("train", "decode_chunk", 96),
    ("train", "devoxelization", "late"),
    ("train", "grad_clip", 5.0),
    ("generate", "noise_sigma", 0.01),
    ("generate", "superpoint_voxel", 0.1),
]


@pytest.mark.parametrize("command, key, value", REMOVED_KEYS, ids=[f"{c}-{k}" for c, k, _ in REMOVED_KEYS])
def test_removed_config_key_rejected(tmp_path, command, key, value):
    # Constants of the method or deleted knobs, no longer settings: an old config naming one fails loudly.
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({key: value}))
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "train":
        args += ["--data", str(tmp_path)]
    with pytest.raises(SystemExit, match=f"unknown config keys.*'{key}'"):
        main(args)


MISTYPED_KEYS = [
    ("generate", "num_scenes", "3", "int"),
    ("generate", "seed", 1.5, "int"),
    ("generate", "room_size", [4.0], r"tuple\[float, float\]"),
    ("train", "chunk_sizes", 5, r"tuple\[int, \.\.\.\]"),
    ("train", "num_neighbors", True, "int"),
    ("train", "voxel_size", "0.1", r"float \| None"),
]


@pytest.mark.parametrize("command, key, value, wanted", MISTYPED_KEYS, ids=[f"{c}-{k}" for c, k, _, _ in MISTYPED_KEYS])
def test_mistyped_config_value_rejected(tmp_path, command, key, value, wanted):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({key: value}))
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "train":
        args += ["--data", str(tmp_path)]
    with pytest.raises(SystemExit, match=f"config key '{key}' .* must be {wanted}, got"):
        main(args)
    assert not (tmp_path / "out").exists()


BAD_CONFIGS = [
    pytest.param("generate", "null", "a config must be a JSON object, got NoneType", id="generate-null"),
    pytest.param("generate", "{bad", "not a readable JSON file", id="generate-unparsable"),
    pytest.param("generate", "[" * 100_000, "not a readable JSON file", id="generate-too-deep"),
    pytest.param("generate", '{"num_classes": 1}', "invalid GenConfig: num_classes must lie in", id="generate-refused"),
    pytest.param(
        "generate", '{"background_fraction": 1.5}', "invalid GenConfig: background_fraction", id="generate-all-background"
    ),
    pytest.param(
        "generate", '{"background_fraction": -1}', "invalid GenConfig: background_fraction", id="generate-negative-background"
    ),
    pytest.param("generate", '{"room_size": [0, 0]}', "invalid GenConfig: room_size", id="generate-empty-room"),
    pytest.param("generate", '{"room_size": [0.5, 0.5]}', "invalid GenConfig: room_size", id="generate-small-room"),
    pytest.param("generate", '{"room_size": [1.0, 4.0]}', "invalid GenConfig: room_size", id="generate-narrow-room"),
    pytest.param("generate", '{"room_size": [1e308, 1e308]}', "invalid GenConfig: room_size", id="generate-huge-room"),
    pytest.param("generate", '{"room_size": [1e150, 1e150]}', "invalid GenConfig: room_size", id="generate-vast-room"),
    pytest.param("train", "[1, 2]", "a config must be a JSON object, got list", id="train-list"),
    pytest.param("train", '{"num_classes": 1}', "invalid PipelineConfig: need background", id="train-refused"),
    pytest.param("train", '{"layout_dims": []}', "invalid PipelineConfig: layout needs", id="train-empty-layout"),
    pytest.param("train", '{"chunk_sizes": []}', "invalid PipelineConfig: at least one chunk", id="train-empty-chunks"),
    pytest.param("train", None, "not a readable JSON file", id="train-missing-file"),
    pytest.param("train", '{"batch_size": 0}', "invalid PipelineConfig: batch_size must be at least 1", id="train-no-batch"),
    pytest.param(
        "train", '{"batch_size": -1}', "invalid PipelineConfig: batch_size must be at least 1", id="train-negative-batch"
    ),
    pytest.param("train", '{"eval_every": 0}', "invalid PipelineConfig: eval_every must be at least 1", id="train-no-eval"),
    pytest.param(
        "train", '{"num_neighbors": 0}', "invalid PipelineConfig: num_neighbors must be at least 1", id="train-no-neighbors"
    ),
    pytest.param("train", '{"radii": [0, 0.4]}', "invalid PipelineConfig: radii must be", id="train-zero-radius"),
    pytest.param("train", '{"radii": [0.2, -0.4]}', "invalid PipelineConfig: radii must be", id="train-negative-radius"),
    pytest.param("train", '{"radii": [0.2, Infinity]}', "invalid PipelineConfig: radii must be", id="train-infinite-radius"),
    pytest.param("train", '{"voxel_size": -1}', "invalid PipelineConfig: voxel_size must be", id="train-negative-voxel"),
    pytest.param("train", '{"voxel_size": 0}', "invalid PipelineConfig: voxel_size must be", id="train-zero-voxel"),
    pytest.param("train", '{"voxel_size": NaN}', "invalid PipelineConfig: voxel_size must be", id="train-nan-voxel"),
    pytest.param(
        "train", '{"learning_rate": NaN}', "invalid PipelineConfig: learning_rate must be", id="train-nan-learning-rate"
    ),
    pytest.param(
        "train", '{"learning_rate": -1}', "invalid PipelineConfig: learning_rate must be", id="train-negative-learning-rate"
    ),
    pytest.param("train", '{"d_model": 0}', "invalid PipelineConfig: d_model must be at least 1", id="train-no-width"),
    pytest.param(
        "train",
        '{"mask_dim": -8, "layout_dims": [1, 1]}',
        "invalid PipelineConfig: mask_dim must be at least 1",
        id="train-negative-mask-dim",
    ),
]


@pytest.mark.parametrize("command, text, wanted", BAD_CONFIGS)
def test_bad_config_file_exits_with_message(tmp_path, command, text, wanted):
    # Unparsable, non-object, refused or missing configs exit with a message naming the file.
    cfg = tmp_path / "bad.json"
    if text is not None:
        cfg.write_text(text)
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "train":
        args += ["--data", str(tmp_path)]
    with pytest.raises(SystemExit, match=f"^{re.escape(str(cfg))}: {wanted}"):
        main(args)
    assert not (tmp_path / "out").exists()


BAD_ARGUMENTS = [
    ("train", "--val-fraction", "1.0"),
    ("train", "--val-fraction", "-0.1"),
    ("train", "--val-fraction", "nan"),
    ("train", "--val-fraction", "half"),
    ("recall-bench", "--budgets", "x"),
    ("recall-bench", "--budgets", "0"),
    ("recall-bench", "--budgets", "8,,16"),
    ("recall-bench", "--scenes", "0"),
    ("recall-bench", "--points", "5000"),
    ("recall-bench", "--points", "63"),
]


@pytest.mark.parametrize("command, flag, value", BAD_ARGUMENTS, ids=[f"{c}{f}={v}" for c, f, v in BAD_ARGUMENTS])
def test_bad_argument_is_a_usage_error(tmp_path, capsys, command, flag, value):
    args = [command, flag, value]
    if command == "train":
        args += ["--data", str(tmp_path), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"error: argument {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fraction, held_out", [("0", 0), ("0.15", 1), ("0.99", 5)])
def test_val_fraction_holds_out_trailing_scenes(tmp_path, scene_dir, monkeypatch, fraction, held_out):
    # 0 trains on every scene without validation; any other fraction holds out at least one
    # scene and keeps at least one for training.
    from pciseg import pipeline

    seen = {}

    def recording_train(scenes, config, seed, val):
        seen.update(train=len(scenes), val=val)
        return pipeline.ModelParams.initialize(config, seed), []

    monkeypatch.setattr(pipeline, "train", recording_train)
    assert main(["train", "--data", str(scene_dir), "--out", str(tmp_path / "run"), "--val-fraction", fraction]) == 0
    assert seen["train"] == 6 - held_out
    assert (seen["val"] is None) if held_out == 0 else len(seen["val"]) == held_out


def test_readme_lists_the_accepted_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    accepted = re.search(r"accepted\s+keys\s+are:(.*?)These\s+former\s+keys", readme, re.S).group(1)
    for cls in (GenConfig, PipelineConfig):
        bullet = re.search(rf"^- `{cls.__name__}`:(.*?)(?=^- |\Z)", accepted, re.M | re.S)
        assert bullet, f"README lists no accepted keys for {cls.__name__}"
        assert re.findall(r"`(\w+)`", bullet.group(1)) == [f.name for f in dataclasses.fields(cls)]


def test_config_values_of_the_field_types_accepted(tmp_path):
    from pciseg.cli import _load_dataclass

    cfg = tmp_path / "typed.json"
    # JSON integers are valid floats; null is a valid optional value.
    cfg.write_text(json.dumps({"chunk_sizes": [8, 4], "radii": [1, 0.5], "voxel_size": None, "learning_rate": 1}))
    config = _load_dataclass(PipelineConfig, str(cfg))
    assert config.chunk_sizes == (8, 4) and config.radii == (1, 0.5) and config.voxel_size is None
