"""Per-candidate dynamic convolution for mask decoding.

Each candidate carries a flat parameter vector that is sliced into a tiny
pointwise network and applied to every point's concatenated mask, relative
position, and box-difference features. The flat layout is layer-major:
for each layer the row-major weight block, then its bias (the final layer
carries no bias).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var

OFFSET_DIMS = 3  # point position minus candidate position
BOX_DIMS = 6  # |point box - candidate box|, corner by corner


@dataclass(frozen=True)
class KernelLayout:
    """Channel widths of the decoder layers and the induced flat slicing.

    ``dims = (c_0, ..., c_L)`` describes L affine layers mapping c_0 inputs
    to a single logit (c_L must be 1). Every layer except the last has a
    bias term.
    """

    dims: tuple[int, ...] = (41, 32, 1)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(c) for c in self.dims))
        if len(self.dims) < 2:
            raise ValueError("layout needs at least one layer")
        if any(c < 1 for c in self.dims):
            raise ValueError("channel widths must be positive")
        if self.dims[-1] != 1:
            raise ValueError("final width must be 1")

    @property
    def num_layers(self) -> int:
        return len(self.dims) - 1

    @property
    def param_count(self) -> int:
        count = 0
        for layer in range(self.num_layers):
            c_in, c_out = self.dims[layer], self.dims[layer + 1]
            count += c_in * c_out
            if layer < self.num_layers - 1:
                count += c_out
        return count

    def slices(self) -> list[tuple[slice, slice | None, tuple[int, int]]]:
        """Flat-vector slices per layer: (weights, bias or None, (c_in, c_out))."""
        out = []
        offset = 0
        for layer in range(self.num_layers):
            c_in, c_out = self.dims[layer], self.dims[layer + 1]
            w = slice(offset, offset + c_in * c_out)
            offset += c_in * c_out
            b = None
            if layer < self.num_layers - 1:
                b = slice(offset, offset + c_out)
                offset += c_out
            out.append((w, b, (c_in, c_out)))
        return out


def _sum_start(terms: int) -> float:
    """Start value of a gradient sum over ``terms`` parts.

    A batched numpy sum starts from +0.0, except that a single part passes
    through unchanged; -0.0, the exact additive identity, keeps an exact
    zero's sign as that pass-through does.
    """
    return -0.0 if terms == 1 else 0.0


def decode_mask_logits(
    fmask: Var,
    positions: np.ndarray,
    point_boxes: Var,
    cand_positions: np.ndarray,
    cand_boxes: Var,
    kernels: Var,
    layout: KernelLayout,
    geo_cue: str,
) -> Var:
    """Raw mask logits (K, N) of K candidates over N points.

    A point's decoder input for candidate k is its mask feature, its offset
    ``positions - cand_positions[k]`` and its box difference
    ``|point_boxes - cand_boxes[k]|``, zeroed under ``geo_cue`` "zero".

    The forward decodes one candidate at a time: it fills the mask-feature
    columns of one (N, c_0) buffer once, then for each candidate writes the
    offset and box-difference columns in place and runs its sliced layers
    (matmul, in-place bias and ReLU between layers, none after the last),
    keeping only its row of logits. No (K, N, c_0) input is ever built.

    The vjp recomputes each candidate's activations rather than keeping
    them on the tape, and returns the gradients of ``fmask``,
    ``point_boxes``, ``cand_boxes`` and ``kernels``; the sums over
    candidates run in ascending k. ``positions`` and ``cand_positions`` are
    constants. While a branch signature is captured, each candidate records
    the signs of its box differences and every ReLU pattern, as
    ``autodiff.absolute`` and ``autodiff.relu`` do.
    """
    k_count, n, mask_dim = cand_positions.shape[0], positions.shape[0], fmask.shape[1]
    if kernels.shape != (k_count, layout.param_count):
        raise ValueError(
            f"kernel block {kernels.shape} does not match layout ({k_count}, {layout.param_count})"
        )
    if layout.dims[0] != mask_dim + OFFSET_DIMS + BOX_DIMS:
        raise ValueError(
            f"layout c0 {layout.dims[0]} != decoder input width {mask_dim + OFFSET_DIMS + BOX_DIMS}"
        )
    geo_on = geo_cue == "on"
    geo_scale = 1.0 if geo_on else 0.0  # "zero" decodes 0.0 * |difference|
    offset_cols = slice(mask_dim, mask_dim + OFFSET_DIMS)
    geo_cols = slice(mask_dim + OFFSET_DIMS, layout.dims[0])
    specs = layout.slices()
    buf = np.zeros((n, layout.dims[0]))
    buf[:, :mask_dim] = fmask.value

    def fill(k: int) -> np.ndarray:
        """Write candidate k's offset and box-difference columns into ``buf``;
        returns its signed box difference."""
        np.subtract(positions, cand_positions[k], out=buf[:, offset_cols])
        diff = point_boxes.value - cand_boxes.value[k]
        if geo_on:
            np.abs(diff, out=buf[:, geo_cols])
        return diff

    def activations(k: int, record: bool) -> list[np.ndarray]:
        """Candidate k's input to every layer (``buf`` first), then its logits."""
        kernel = kernels.value[k]
        acts = [buf]
        for w, b, shape in specs:
            h = acts[-1] @ kernel[w].reshape(shape)
            if b is not None:  # every layer but the last: bias, then ReLU
                h += kernel[b]
                if record:
                    ad.record(h > 0.0)
                np.maximum(h, 0.0, out=h)
            acts.append(h)
        return acts

    recording = ad.recording()
    logits = np.empty((k_count, n))
    for k in range(k_count):
        diff = fill(k)
        if recording:
            ad.record(np.sign(diff))
        logits[k] = activations(k, recording)[-1][:, 0]

    def vjp(g):
        g = np.ascontiguousarray(g)
        g_fmask = np.full((n, mask_dim), _sum_start(k_count))
        g_point_boxes = np.full((n, BOX_DIMS), _sum_start(k_count))
        g_cand_boxes = np.zeros((k_count, BOX_DIMS))
        g_kernels = np.zeros(kernels.shape)
        for k in range(k_count):
            diff = fill(k)
            acts = activations(k, False)
            kernel, g_kernel = kernels.value[k], g_kernels[k]
            gh = g[k][:, None]
            for layer in reversed(range(len(specs))):
                w, b, shape = specs[layer]
                if b is not None:  # a ReLU output is positive exactly where its input was
                    gh = gh * (acts[layer + 1] > 0.0)
                    g_kernel[b] += gh.sum(axis=0)
                g_kernel[w] += (acts[layer].T @ gh).ravel()
                gh = gh @ kernel[w].reshape(shape).T
            g_fmask += gh[:, :mask_dim]
            g_geo = gh[:, geo_cols] * geo_scale * np.sign(diff)
            g_point_boxes += g_geo
            g_cand_boxes[k] = (-g_geo).sum(axis=0, initial=_sum_start(n))
        return g_fmask, g_point_boxes, g_cand_boxes, g_kernels

    return ad.node(logits, (fmask, point_boxes, cand_boxes, kernels), vjp)
