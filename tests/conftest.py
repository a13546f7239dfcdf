import os
import threading

import numpy as np
import pytest

from pciseg.core import Scene


def toy_scene(positions, semantic, instance, num_classes=5, colors=None, superpoints=None):
    positions = np.asarray(positions, dtype=np.float64)
    if colors is None:
        colors = np.full((positions.shape[0], 3), 0.5)
    return Scene(
        positions=positions,
        colors=colors,
        semantic_gt=np.asarray(semantic, dtype=np.int32),
        instance_gt=np.asarray(instance, dtype=np.int32),
        num_classes=num_classes,
        superpoints=superpoints,
    )


def read_from_fifo(read, data, fifo):
    """``read`` applied to a new named pipe at ``fifo`` that a thread fills with ``data``."""
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join()


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")


@pytest.fixture
def two_cluster_scene():
    """Two well-separated same-class clusters of 8 points each."""
    rng = np.random.default_rng(11)
    left = rng.normal(scale=0.05, size=(8, 3)) + np.array([1.0, 1.0, 0.3])
    right = rng.normal(scale=0.05, size=(8, 3)) + np.array([3.0, 1.0, 0.3])
    positions = np.vstack([left, right])
    semantic = np.full(16, 1)
    instance = np.array([0] * 8 + [1] * 8)
    return toy_scene(positions, semantic, instance)
