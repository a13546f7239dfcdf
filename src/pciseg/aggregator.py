"""Candidate feature encoding: ball query, local aggregation, and heads.

A block gathers each candidate's radius neighborhood, pushes concatenated
neighbor features and radius-normalized offsets through a shared 3-layer
map, max-pools over the neighborhood, and adds the candidate's own feature
back as a residual. Two stacked blocks widen the receptive field; linear
heads then emit class logits, boxes, flat decoder kernels, and a quality
scalar per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .core import nearest


def ball_query(
    positions: np.ndarray,
    centers: np.ndarray,
    radius: float,
    num_neighbors: int,
    center_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Up to Q in-radius neighbors per center, nearest first.

    Neighbors are the points whose squared distance is at most radius²,
    ordered by (squared distance, index), so ties go to the lower index;
    :func:`core.nearest` finds the first Q exactly from Q + 1 tree
    candidates per center. Short lists are padded by repeating the first
    neighbor. A center with no point in radius pads with its own index when
    given, else with the globally nearest point (the lowest index among
    equally near ones).
    """
    positions = np.asarray(positions, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if num_neighbors < 1:
        raise ValueError("neighbor count must be at least 1")
    if centers.ndim != 2 or centers.shape[1] != 3:
        raise ValueError("centers must be (K, 3)")
    n = positions.shape[0]
    out = nearest(positions, centers, num_neighbors, radius)
    first = out[:, 0].copy()
    empty = first == n
    if center_indices is not None:
        first[empty] = np.asarray(center_indices, dtype=np.int64)[empty]
    elif empty.any():
        first[empty] = nearest(positions, centers[empty], 1)[:, 0]
    return np.where(out < n, out, first[:, None])


@dataclass(frozen=True)
class AggregatorBlock:
    """One aggregation block: query radius, neighbor count, shared map.

    ``layers`` holds three (weight, bias) pairs of tape variables with
    widths (D+3)->D->D->D; ReLU follows the first two maps only.
    """

    radius: float
    num_neighbors: int
    layers: tuple

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.num_neighbors < 1:
            raise ValueError("neighbor count must be at least 1")
        if len(self.layers) != 3:
            raise ValueError("the shared map has exactly three layers")
        d = self.layers[0][0].shape[1]
        expected = [(d + 3, d), (d, d), (d, d)]
        for (w, b), (c_in, c_out) in zip(self.layers, expected):
            if w.shape != (c_in, c_out) or b.shape != (c_out,):
                raise ValueError(f"layer shapes must follow ({d}+3)->{d}->{d}->{d}")


# Centres per chunk of the aggregation: 32 centres of 32 neighbours keep a
# chunk's (32, 32, 35) input and its activations, about 1 MB, in cache,
# and one set of chunk buffers serves every chunk of a call. Timed at
# K = 192 with one BLAS thread, chunks of 8 to 32 centres ran alike at
# inference; 64 took about 15% longer and 96 about 40%.
CHUNK_CENTERS = 32


def _continue_sum(total: np.ndarray | None, parts: np.ndarray) -> np.ndarray:
    """``total`` plus the rows of ``parts[1:]``, added in sequence.

    ``parts[0]`` is scratch for the running total, so the sum over chunks
    adds the same terms in the same order as one sum over every row (numpy
    sums an outer axis in sequence). The first chunk (``total`` None) sums
    its own rows alone, as that one sum would.
    """
    if total is None:
        return parts[1:].sum(axis=0)
    parts[0] = total
    return parts.sum(axis=0)


def aggregate_batch(
    block: AggregatorBlock,
    features: Var,
    positions: np.ndarray,
    centers: np.ndarray,
    neighbors: np.ndarray,
) -> Var:
    """Aggregate neighborhoods for a batch of centers.

    features: (M, D) source features; centers: (K,) indices into the source
    set; neighbors: (K, Q) indices from :func:`ball_query` with the block's
    radius. Offsets are divided by the radius, so every coordinate lies in
    [-1, 1] for genuine in-radius neighbors. Returns (K, D).

    The shared map and the max over neighbours are one tape op. It walks
    the centres in chunks of ``CHUNK_CENTERS`` through one (c, Q, D+3)
    input buffer, the gathered features beside the normalized offsets, and
    runs the three maps with ``np.matmul(out=)``, in-place bias and ReLU.
    Every row gets the arithmetic of the unfused chain (gather, concat,
    affine maps, max), so outputs and gradients equal its bytes, with one
    exception: at D = 1 and K > ``CHUNK_CENTERS`` numpy sums the chain's
    (rows, 1) layer-gradient parts pairwise, and the sum continued chunk
    by chunk regroups them, so those gradients may differ in the last
    bits. At inference no activation is kept. When a parent requires a
    gradient, the chunks write into full (K, Q, ·) input and hidden
    arrays and the argmax per (centre, channel) is kept for the vjp. The
    vjp walks only the centres whose row of g has a non-zero entry (block
    2 reads only some block-1 rows), in ascending chunks of
    ``CHUNK_CENTERS`` gathered by index: g goes to the argmax rows, each
    bias and weight gradient continues one running sum, and the walked
    neighbour rows' feature gradients are scattered by one
    :func:`autodiff.scatter_rows` at the end. With finite activations and weights a zero row adds only
    exact zeros to sums that start at +0.0, so skipping it changes no byte.
    When no row is live every gradient is zeros, and at K = 0 the layers
    get None. At D = 1 every centre is walked (see the vjp). While a branch
    signature is captured, both ReLU patterns and the argmax are recorded
    as ``autodiff.relu`` and an axis max would record them. The residual
    ``features[centers]`` stays a tape getitem and add.
    """
    positions = np.asarray(positions, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.int64)
    neighbors = np.asarray(neighbors, dtype=np.int64)
    k_count, q = centers.shape[0], block.num_neighbors
    if neighbors.shape != (k_count, q):
        raise ValueError("neighbors must be (K, Q)")
    m, d = features.shape
    if neighbors.size and (neighbors.min() < 0 or neighbors.max() >= m):
        raise ValueError("neighbors must index the source rows")
    layers = [t for pair in block.layers for t in pair]
    weights, biases = [w.value for w in layers[0::2]], [b.value for b in layers[1::2]]
    parents = (features, *layers)
    keep = any(p.requires_grad for p in parents)
    marks = ([], []) if ad.recording() else None
    chunk = min(CHUNK_CENTERS, k_count)
    # Inputs and hidden activations: full arrays when the vjp reads them,
    # else chunk buffers reused by every chunk.
    rows = k_count if keep else chunk
    x_all = np.empty((rows, q, d + 3))
    hidden = [np.empty((rows, q, d)) for _ in range(2)]
    last = np.empty((chunk, q, d))
    pooled = np.empty((k_count, d))
    winners = np.empty((k_count, d), dtype=np.intp) if keep or marks is not None else None
    fv = features.value
    offsets = (positions[neighbors] - positions[centers][:, None, :]) / block.radius

    for start in range(0, k_count, CHUNK_CENTERS):
        stop = min(start + CHUNK_CENTERS, k_count)
        span = slice(start, stop) if keep else slice(0, stop - start)
        acts = [x_all[span], hidden[0][span], hidden[1][span], last[: stop - start]]
        acts[0][:, :, :d] = fv[neighbors[start:stop]]
        acts[0][:, :, d:] = offsets[start:stop]
        for layer, (w, b) in enumerate(zip(weights, biases)):
            h = acts[layer + 1]
            np.matmul(acts[layer], w, out=h)
            h += b
            if layer < 2:
                if marks is not None:
                    marks[layer].append(h > 0.0)
                np.maximum(h, 0.0, out=h)
        np.max(acts[3], axis=1, out=pooled[start:stop])
        if winners is not None:
            np.argmax(acts[3], axis=1, out=winners[start:stop])
    if marks is not None:
        for bits in (*marks[0], *marks[1], winners):
            ad.record(bits)

    def vjp(g):
        # At D = 1 numpy sums the (rows, 1) gradient parts pairwise, not row
        # by row, so dropping a zero row would regroup the other terms:
        # every centre is walked there.
        live = np.flatnonzero(g.any(axis=1)) if d > 1 else np.arange(k_count)
        if k_count and not live.size:
            return (np.zeros((m, d)), *(np.zeros(t.shape) for t in layers))
        # Row 0 of each gradient buffer carries a running sum into the next
        # chunk's reduction (see _continue_sum).
        gh = [np.empty((1 + chunk * q, d)) for _ in range(2)]
        gx = np.empty((chunk, q, d + 3))
        gw = [np.empty((1 + chunk, *w.shape)) for w in weights]
        g_rows = np.empty((live.size, q, d))
        bias_sums, weight_sums = [None] * 3, [None] * 3
        for start in range(0, live.size, CHUNK_CENTERS):
            rows = live[start : start + CHUNK_CENTERS]
            c = rows.size
            acts = [x_all[rows], hidden[0][rows], hidden[1][rows]]
            grads = [buf[: 1 + c * q] for buf in gh]
            out_rows = grads[0][1:].reshape(c, q, d)
            out_rows.fill(0.0)
            np.put_along_axis(out_rows, winners[rows, None, :], g[rows, None, :], axis=1)
            for layer in (2, 1, 0):
                parts = grads[layer % 2]
                g_out = parts[1:].reshape(c, q, d)
                if layer < 2:  # a ReLU output is positive exactly where its input was
                    g_out *= acts[layer + 1] > 0.0
                bias_sums[layer] = _continue_sum(bias_sums[layer], parts)
                w_parts = gw[layer][: 1 + c]
                np.matmul(np.swapaxes(acts[layer], 1, 2), g_out, out=w_parts[1:])
                weight_sums[layer] = _continue_sum(weight_sums[layer], w_parts)
                g_in = gx[:c] if layer == 0 else grads[(layer + 1) % 2][1:].reshape(c, q, d)
                np.matmul(g_out, weights[layer].T, out=g_in)
            g_rows[start : start + c] = gx[:c, :, :d]
        layer_grads = (s for pair in zip(weight_sums, bias_sums) for s in pair)  # None when K = 0
        return (ad.scatter_rows(neighbors[live], g_rows, m), *layer_grads)

    return ad.add(features[centers], ad.node(pooled, parents, vjp))


def box_from_raw(raw: Var) -> Var:
    """(..., 6) raw head output -> (..., 6) min/max-corner boxes."""
    center = raw[..., :3]
    size = ad.softplus(raw[..., 3:])
    half = ad.mul(size, 0.5)
    return ad.concat([ad.sub(center, half), ad.add(center, half)], axis=-1)


def heads(candidate_features: Var, p: dict):
    """Class logits, boxes, flat kernels, and quality logits per candidate.

    Reads the affine heads' weights and biases from the ``head.*`` entries
    of a parameter dict. Boxes are min/max corners (:func:`box_from_raw`);
    quality is a raw logit, squashed later into a mask-confidence score.
    Returns tape variables (L, B, W, q) with shapes (K, C), (K, 6), (K, H'),
    (K,).
    """
    def affine(name: str) -> Var:
        return ad.add(ad.matmul(candidate_features, p[f"head.{name}_w"]), p[f"head.{name}_b"])

    cls = affine("cls")
    box = box_from_raw(affine("box"))
    kernel = affine("ker")
    quality = ad.reshape(affine("q"), (candidate_features.shape[0],))
    return cls, box, kernel, quality
