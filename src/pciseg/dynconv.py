"""Per-candidate dynamic convolution for mask decoding.

Each candidate carries a flat parameter vector that is sliced into a tiny
pointwise network and applied to every point's concatenated mask, relative
position, and box-difference features. The flat layout is layer-major:
for each layer the row-major weight block, then its bias (the final layer
carries no bias).
"""

from __future__ import annotations

import os
import threading
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


def worker_count() -> int:
    """Threads for decoding (and the encoder's k-d tree queries): the CPUs
    that BLAS leaves idle.

    The BLAS thread count is read as OpenBLAS reads it: the first positive
    value of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
    ``OMP_NUM_THREADS``. When none is set, BLAS already spreads each matmul
    over every core, so one thread decodes; otherwise the CPUs this process
    may run on are divided by it.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cpus // blas)
    return 1


WORKERS = worker_count()

# Pairs (candidate and point in the decoder, point and neighbour in the
# encoder's k-d tree query) a thread must get to pay for itself: about 6 ms
# of one-thread work. Below it, the thread's start-up and the GIL hand-offs
# between its numpy calls cost about what a second core returns, and more
# when that core is busy.
MIN_SHARE_PAIRS = 1 << 15


def share_count(pairs: int) -> int:
    """Threads for a job of ``pairs``: up to ``WORKERS``, each with at
    least ``MIN_SHARE_PAIRS``, and always one."""
    return max(1, min(WORKERS, pairs // MIN_SHARE_PAIRS))


def _in_shares(decode_share, shares: int) -> None:
    """Run ``decode_share(s)`` for every s < ``shares``.

    Share 0 runs on the calling thread and every other share on a
    short-lived thread of its own, so no pool outlives the call (or breaks
    in a forked child). Once every thread has joined, the first error of a
    share is raised again.
    """
    errors = []

    def guarded(share: int) -> None:
        try:
            decode_share(share)
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(s,)) for s in range(1, shares)]
    for thread in threads:
        thread.start()
    try:
        decode_share(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


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

    Candidates are decoded one at a time over preallocated buffers: an
    (N, c_0) input whose mask-feature columns are filled once, the signed
    box difference, and one (N, c) output per layer. Each candidate writes
    its offset and box-difference columns in place and runs its sliced
    layers (matmul, in-place bias and ReLU between layers, none after the
    last), keeping only its row of logits; no (K, N, c_0) input is built.
    The forward splits the candidates into up to ``WORKERS`` interleaved
    shares of at least ``MIN_SHARE_PAIRS`` candidate-point pairs, each with
    buffers of its own, which run on as many threads; every row keeps the
    same arithmetic, so the logits do not depend on the split.

    The vjp returns the gradients of ``fmask``, ``point_boxes``,
    ``cand_boxes`` and ``kernels``. It walks only the candidates whose row
    of the upstream gradient has a non-zero entry (in training the mask
    losses read only the matched candidates' logits), recomputing each
    one's activations rather than keeping them on the tape. With finite
    activations and kernels a zero row adds only exact zeros, and every sum
    over candidates starts at +0.0, so skipping it changes no byte; a
    skipped candidate's kernel and box gradients stay the zeros they start
    as. At K = 1 or N = 1 a sum starts at -0.0 instead (see
    ``_sum_start``) and would keep a zero row's signed zeros, so every row
    is walked there. The vjp runs on one thread, so its sums over
    candidates run in ascending k. ``positions`` and
    ``cand_positions`` are constants. While a branch signature is
    captured, each candidate records the signs of its box differences and
    every ReLU pattern, in ascending k, as ``autodiff.absolute`` and
    ``autodiff.relu`` do.
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

    def buffers() -> tuple[list[np.ndarray], np.ndarray]:
        """One decoding thread's arrays: every layer's input, then the
        logits column; and the signed box difference."""
        acts = [np.zeros((n, layout.dims[0]))]
        acts += [np.empty((n, c_out)) for _, _, (_, c_out) in specs]
        acts[0][:, :mask_dim] = fmask.value
        return acts, np.empty((n, BOX_DIMS))

    def run(k: int, acts: list[np.ndarray], diff: np.ndarray, marks: list | None = None) -> None:
        """Candidate k through its layers, in place; appends its box
        difference signs and ReLU patterns to ``marks`` when given."""
        np.subtract(positions, cand_positions[k], out=acts[0][:, offset_cols])
        np.subtract(point_boxes.value, cand_boxes.value[k], out=diff)
        if geo_on:
            np.abs(diff, out=acts[0][:, geo_cols])
        if marks is not None:
            marks.append(np.sign(diff))
        kernel = kernels.value[k]
        for (w, b, shape), x, h in zip(specs, acts, acts[1:]):
            np.matmul(x, kernel[w].reshape(shape), out=h)
            if b is not None:  # every layer but the last: bias, then ReLU
                h += kernel[b]
                if marks is not None:
                    marks.append(h > 0.0)
                np.maximum(h, 0.0, out=h)

    # Workers touch numpy only: the branch signature is global, so each
    # candidate's marks are kept and replayed here in ascending k.
    marks = [[] for _ in range(k_count)] if ad.recording() else None
    logits = np.empty((k_count, n))
    shares = max(1, min(k_count, share_count(k_count * n)))

    def decode_share(share: int) -> None:
        acts, diff = buffers()
        for k in range(share, k_count, shares):
            run(k, acts, diff, None if marks is None else marks[k])
            logits[k] = acts[-1][:, 0]

    _in_shares(decode_share, shares)
    for candidate_marks in marks or ():
        for bits in candidate_marks:
            ad.record(bits)

    def vjp(g):
        g = np.ascontiguousarray(g)
        g_fmask = np.full((n, mask_dim), _sum_start(k_count))
        g_point_boxes = np.full((n, BOX_DIMS), _sum_start(k_count))
        g_cand_boxes = np.zeros((k_count, BOX_DIMS))
        g_kernels = np.zeros(kernels.shape)
        acts, diff = buffers()
        # At K = 1 or N = 1 a sum above starts at -0.0 and would pass a zero
        # row's signed zeros through, so there every row is walked.
        rows = np.flatnonzero(g.any(axis=1)) if k_count > 1 and n > 1 else range(k_count)
        for k in rows:
            run(k, acts, diff)
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
