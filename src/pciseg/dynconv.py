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

    def split(self, kernel: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Slice a flat kernel into per-layer (weight, bias) arrays."""
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.shape != (self.param_count,):
            raise ValueError(f"kernel length {kernel.shape} does not match layout ({self.param_count})")
        layers = []
        for w, b, (c_in, c_out) in self.slices():
            layers.append((kernel[w].reshape(c_in, c_out), None if b is None else kernel[b]))
        return layers

    def flatten(self, layers) -> np.ndarray:
        """Inverse of :meth:`split`; round-trips exactly."""
        parts = []
        for (weight, bias), (_, b, (c_in, c_out)) in zip(layers, self.slices()):
            weight = np.asarray(weight, dtype=np.float64)
            if weight.shape != (c_in, c_out):
                raise ValueError("layer weight shape mismatch")
            parts.append(weight.reshape(-1))
            if b is not None:
                bias = np.asarray(bias, dtype=np.float64)
                if bias.shape != (c_out,):
                    raise ValueError("layer bias shape mismatch")
                parts.append(bias)
            elif bias is not None:
                raise ValueError("final layer carries no bias")
        return np.concatenate(parts)


def layout_param_count(dims) -> int:
    """Flat parameter count for the given channel widths."""
    return KernelLayout(tuple(dims)).param_count


def decoder_logits(inputs: Var, kernels: Var, layout: KernelLayout) -> Var:
    """Apply per-candidate sliced layers to per-point features.

    inputs: (K, N, c_0); kernels: (K, H'). ReLU between layers, none after
    the last; returns raw logits of shape (K, N).
    """
    k = inputs.shape[0]
    if kernels.shape != (k, layout.param_count):
        raise ValueError(
            f"kernel block {kernels.shape} does not match layout ({k}, {layout.param_count})"
        )
    if inputs.shape[2] != layout.dims[0]:
        raise ValueError(f"decoder input width {inputs.shape[2]} != layout c0 {layout.dims[0]}")
    h = inputs
    specs = layout.slices()
    for layer, (w, b, (c_in, c_out)) in enumerate(specs):
        weight = ad.reshape(kernels[:, w], (k, c_in, c_out))
        h = ad.matmul(h, weight)
        if b is not None:
            h = ad.add(h, ad.reshape(kernels[:, b], (k, 1, c_out)))
        if layer < len(specs) - 1:
            h = ad.relu(h)
    return ad.reshape(h, (k, inputs.shape[1]))

