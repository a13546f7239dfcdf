import os
import threading

import numpy as np
import pytest

from pciseg import autodiff as ad, pipeline, sampling
from pciseg.aggregator import box_from_raw
from pciseg.autodiff import Var
from pciseg.core import Aabb, Scene


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


# Scalar oracles, one pair or one mask at a time. The running code computes
# these quantities batched: core.aabb_iou_matrix, supervision.box_giou and
# supervision.dice_term; their tests compare against the functions below.


def _intersection_union(a: Aabb, b: Aabb) -> tuple[float, float]:
    inter_extent = np.minimum(a.max_corner, b.max_corner) - np.maximum(a.min_corner, b.min_corner)
    inter = float(np.prod(np.maximum(inter_extent, 0.0)))
    union = a.volume + b.volume - inter
    return inter, union


def aabb_iou(a: Aabb, b: Aabb) -> float:
    """Volume intersection-over-union of two boxes.

    When both boxes are degenerate (union volume 0) the IoU is 1 for
    identical boxes and 0 otherwise.
    """
    inter, union = _intersection_union(a, b)
    if union <= 0.0:
        return 1.0 if a == b else 0.0
    return inter / union


def aabb_giou(a: Aabb, b: Aabb) -> float:
    """Generalized IoU: IoU minus the hull fraction not covered by the union.

    Ranges over (-1, 1]; symmetric; equals the plain IoU when one box
    contains the other. Identical boxes score exactly 1, including the
    degenerate zero-volume case. A zero-volume hull makes the correction
    term vanish.
    """
    inter, union = _intersection_union(a, b)
    hull_extent = np.maximum(a.max_corner, b.max_corner) - np.minimum(a.min_corner, b.min_corner)
    hull = float(np.prod(hull_extent))
    iou = aabb_iou(a, b)
    if hull <= 0.0:
        return iou
    return iou - (hull - union) / hull


def dice_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """Soft dice loss 1 - 2|p.g| / (|p| + |g|) of two 1-D masks; 0 when both are empty."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    denom = pred.sum() + gt.sum()
    if denom == 0.0:
        return 0.0
    return float(1.0 - 2.0 * np.dot(pred, gt) / denom)


def amax(x, axis: int) -> Var:
    """Maximum along one axis; gradient flows to the first maximal entry."""
    x = ad.as_var(x)
    out = x.value.max(axis=axis)
    winners = x.value.argmax(axis=axis)
    ad.record(winners)

    def vjp(g):
        buf = np.zeros_like(x.value)
        np.put_along_axis(buf, np.expand_dims(winners, axis), np.expand_dims(g, axis), axis)
        return (buf,)

    return ad.node(out, (x,), vjp)


def chained_aggregate(block, features, positions, centers, neighbors):
    """Reference for ``aggregator.aggregate_batch``: the same block as a
    chain of generic tape ops (gather, concat, three affine maps with ReLU
    after the first two, max over neighbours, residual add)."""
    features = ad.as_var(features)
    local_feat = features[np.asarray(neighbors)]
    local_pos = (positions[neighbors] - positions[centers][:, None, :]) / block.radius
    h = ad.concat([local_feat, Var(local_pos)], axis=2)
    for i, (w, b) in enumerate(block.layers):
        h = ad.add(ad.matmul(h, w), b)
        if i < 2:
            h = ad.relu(h)
    return ad.add(features[np.asarray(centers)], amax(h, axis=1))


# Kinds of upstream gradient rows for the zero-row skips of the fused vjps.
ROW_KINDS = ("live", "sparse", "+0", "-0", "signed zeros")


def upstream_with_zero_rows(kinds, width, seed):
    """A (len(kinds), width) upstream gradient, one row per kind: "live"
    normal values, "sparse" normal values with about half the entries
    zeros of random sign, "+0" and "-0" rows, and "signed zeros" rows of
    zeros of random sign."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(len(kinds), width))
    zeros = np.where(rng.random(g.shape) < 0.5, -0.0, 0.0)
    for k, kind in enumerate(kinds):
        if kind == "sparse":
            g[k] = np.where(rng.random(width) < 0.5, zeros[k], g[k])
        elif kind == "signed zeros":
            g[k] = zeros[k]
        elif kind != "live":
            g[k] = float(kind)
    return g


def full_walk_aggregate_grads(block, features, positions, centers, neighbors, g):
    """Reference for the vjp of ``aggregator.aggregate_batch``'s fused op
    as it was before it skipped zero rows of ``g``: every centre is walked,
    here in one batch (the op's chunked sums add the same terms in the same
    order). Returns the gradients of the features and of the six layer
    arrays, (w0, b0, w1, b1, w2, b2)."""
    m, d = features.shape
    offsets = (positions[neighbors] - positions[centers][:, None, :]) / block.radius
    acts = [np.concatenate([features[neighbors], offsets], axis=2)]
    for layer, (w, b) in enumerate(block.layers):
        h = acts[-1] @ w + b
        acts.append(np.maximum(h, 0.0) if layer < 2 else h)
    g_out = np.zeros(acts[3].shape)
    np.put_along_axis(g_out, acts[3].argmax(axis=1)[:, None, :], g[:, None, :], axis=1)
    layer_grads = []
    for layer in (2, 1, 0):
        if layer < 2:
            g_out = g_out * (acts[layer + 1] > 0.0)
        weight_grad = (np.swapaxes(acts[layer], 1, 2) @ g_out).sum(axis=0)
        layer_grads = [weight_grad, g_out.reshape(-1, d).sum(axis=0), *layer_grads]
        g_out = g_out @ block.layers[layer][0].T
    return (ad.scatter_rows(neighbors, g_out[..., :d], m), *layer_grads)


def full_walk_decoder_grads(fmask, positions, point_boxes, cand_positions, cand_boxes, kernels, layout, geo_cue, g):
    """Reference for the vjp of ``dynconv.decode_mask_logits`` as it was
    before it skipped zero rows of ``g``: every candidate is recomputed and
    back-propagated, in ascending k. Takes arrays; returns the gradients of
    ``fmask``, ``point_boxes``, ``cand_boxes`` and ``kernels``."""
    k_count, n, mask_dim = cand_positions.shape[0], positions.shape[0], fmask.shape[1]
    g_fmask = np.full((n, mask_dim), -0.0 if k_count == 1 else 0.0)
    g_point_boxes = np.full((n, 6), -0.0 if k_count == 1 else 0.0)
    g_cand_boxes = np.zeros((k_count, 6))
    g_kernels = np.zeros(kernels.shape)
    specs = layout.slices()
    for k in range(k_count):
        diff = point_boxes - cand_boxes[k]
        geo = np.abs(diff) if geo_cue == "on" else np.zeros_like(diff)
        acts = [np.concatenate([fmask, positions - cand_positions[k], geo], axis=1)]
        for w, b, shape in specs:
            h = acts[-1] @ kernels[k][w].reshape(shape)
            acts.append(h if b is None else np.maximum(h + kernels[k][b], 0.0))
        gh = g[k][:, None]
        for layer in reversed(range(len(specs))):
            w, b, shape = specs[layer]
            if b is not None:
                gh = gh * (acts[layer + 1] > 0.0)
                g_kernels[k][b] += gh.sum(axis=0)
            g_kernels[k][w] += (acts[layer].T @ gh).ravel()
            gh = gh @ kernels[k][w].reshape(shape).T
        g_fmask += gh[:, :mask_dim]
        g_geo = gh[:, mask_dim + 3 :] * (1.0 if geo_cue == "on" else 0.0) * np.sign(diff)
        g_point_boxes += g_geo
        g_cand_boxes[k] = (-g_geo).sum(axis=0, initial=-0.0 if n == 1 else 0.0)
    return g_fmask, g_point_boxes, g_cand_boxes, g_kernels


def early_expansion_pointwise(scene, p, config, cache):
    """Reference for ``pipeline._forward_pointwise`` with the other voxel
    expansion order: in voxel mode the encoder's voxel rows are gathered to
    points first, and the pointwise heads then run at point resolution."""
    if cache is None:
        cache = pipeline.build_encoder_cache(scene, config)
    feats = pipeline._mlp3(Var(cache.inputs), p, "enc")
    if cache.vmap is not None:
        feats = feats[cache.vmap.point_to_voxel]
    sem = pipeline._affine(feats, p, "point.sem")
    boxes = box_from_raw(pipeline._affine(feats, p, "point.box"))
    fmask = pipeline._affine(feats, p, "point.mask")
    return feats, sem, boxes, fmask


def claimed_mask_ia_fps(background, positions, budget, mask_provider, threshold=0.5):
    """Reference for ``sampling.ia_fps_infer`` under its earlier rule.

    Every chunk re-tests each point against its background probability and
    every mask claimed so far, over all N points; a chunk that runs short
    is filled from the unclaimed points with the background test dropped.
    """
    positions = np.asarray(positions, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    claimed = []

    def unclaimed():
        keep = np.ones(background.shape, dtype=bool)
        for m in claimed:
            keep &= (1.0 - m) > threshold
        return keep

    sampler = sampling._MaxMinSampler(positions)
    order = []
    chunks = budget.chunk_sizes
    for t, size in enumerate(chunks):
        picks = sampler.extend(((1.0 - background) > threshold) & unclaimed(), size)
        if len(picks) < size:
            picks += sampler.extend(unclaimed(), size - len(picks))
        if not picks:
            break
        order.extend(picks)
        if t + 1 < len(chunks):
            claimed.extend(np.asarray(mask_provider(np.asarray(picks, dtype=np.int64)), dtype=np.float64))
    return np.asarray(order, dtype=np.int64)


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
