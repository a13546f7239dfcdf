"""Fuzzing the three binary readers.

Every input either parses into a valid object or raises ``ValueError``:
arbitrary bytes (with and without a valid header prefix), truncations of
a valid file, and single-byte mutations of one.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pciseg.core import Aabb, Prediction, Scene
from pciseg.pipeline import (
    MODEL_MAGIC,
    ModelParams,
    PipelineConfig,
    _param_specs,
    default_config_for,
    load_model,
    save_model,
)
from pciseg.scenegen import (
    SCENE_MAGIC,
    read_predictions,
    read_scene,
    write_predictions,
    write_scene,
)

from conftest import toy_scene

FUZZ = settings(max_examples=300, deadline=None)

# The 4-byte point count N of a .pred header (bytes 12-16, after the magic
# and the version). Masks are dense N-point arrays and N is not bounded by
# the file size, so an arbitrary N can ask for gigabytes: .pred inputs keep
# the valid N, both in the mutations and ahead of arbitrary tails.
PRED_N_FIELD = range(12, 16)


def file_bytes(write):
    """The bytes that ``write(path)`` puts in a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        write(path)
        return path.read_bytes()


def parse(read, data):
    """``read`` applied to a file holding ``data``; None on ``ValueError``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        path.write_bytes(data)
        try:
            return read(path)
        except ValueError:
            return None


def inputs(valid: bytes, prefix: bytes, frozen=()):
    """Arbitrary bytes, ``prefix`` plus arbitrary bytes, truncations and
    single-byte mutations of ``valid`` outside the ``frozen`` positions."""
    arbitrary = st.binary(max_size=2 * len(valid))
    positions = [i for i in range(len(valid)) if i not in frozen]

    def mutate(edit):
        pos, value = edit
        return valid[:pos] + bytes([value]) + valid[pos + 1 :]

    return st.one_of(
        arbitrary,
        arbitrary.map(lambda tail: prefix + tail),
        st.integers(0, len(valid) - 1).map(lambda k: valid[:k]),
        st.tuples(st.sampled_from(positions), st.integers(0, 255)).map(mutate),
    )


def _scene():
    positions = np.random.default_rng(0).uniform(0, 1, size=(12, 3))
    return toy_scene(
        positions,
        [0] * 4 + [1] * 4 + [2] * 4,
        [-1] * 4 + [0] * 4 + [1] * 4,
        num_classes=3,
        superpoints=np.arange(12) // 3,
    )


def _predictions():
    box = Aabb((0, 0, 0), (1, 1, 1))
    masks = np.zeros((2, 12), dtype=bool)
    masks[0, [1, 4, 5]] = True
    masks[1, 7:] = True
    return [Prediction(1, 0.9, box, masks[0]), Prediction(2, 0.4, box, masks[1])]


# The smallest model the format allows: a one-layer decoder over 1 mask
# channel, 3 offsets and 6 box differences.
TINY_MODEL = ModelParams.initialize(
    PipelineConfig(num_classes=2, d_model=2, mask_dim=1, layout_dims=(10, 1)), 0
)
SCENE_BYTES = file_bytes(lambda path: write_scene(path, _scene()))
PRED_BYTES = file_bytes(lambda path: write_predictions(path, _predictions(), 12))
MODEL_BYTES = file_bytes(lambda path: save_model(path, TINY_MODEL))


def test_valid_files_parse():
    assert isinstance(parse(read_scene, SCENE_BYTES), Scene)
    assert len(parse(read_predictions, PRED_BYTES)[0]) == 2
    assert parse(load_model, MODEL_BYTES).params.keys() == TINY_MODEL.params.keys()


@FUZZ
@given(inputs(SCENE_BYTES, SCENE_MAGIC))
def test_read_scene_valid_or_value_error(data):
    scene = parse(read_scene, data)
    if scene is not None:
        assert isinstance(scene, Scene)
        assert np.all(np.isfinite(scene.positions))
        assert np.all((scene.colors >= 0.0) & (scene.colors <= 1.0))
        assert file_bytes(lambda path: write_scene(path, scene)) == data


@FUZZ
@given(inputs(PRED_BYTES, PRED_BYTES[: PRED_N_FIELD.stop], frozen=PRED_N_FIELD))
def test_read_predictions_valid_or_value_error(data):
    parsed = parse(read_predictions, data)
    if parsed is not None:
        predictions, n = parsed
        assert all(isinstance(p, Prediction) and p.mask.shape == (n,) for p in predictions)
        assert all(p.class_id >= 1 and np.isfinite(p.score) for p in predictions)
        assert file_bytes(lambda path: write_predictions(path, predictions, n)) == data


@FUZZ
@given(inputs(MODEL_BYTES, MODEL_MAGIC))
def test_load_model_valid_or_value_error(data):
    model = parse(load_model, data)
    if model is not None:
        specs = _param_specs(default_config_for(model))
        assert [(name, value.shape) for name, value in model.params.items()] == specs
