"""Per-candidate dynamic convolution for mask decoding.

Each candidate carries a flat parameter vector that is sliced into a tiny
pointwise network and applied to every point's concatenated mask, relative
position, and box-difference features. The flat layout is layer-major:
for each layer the row-major weight block, then its bias (the final layer
carries no bias).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var

OFFSET_DIMS = 3  # point position minus candidate position
BOX_DIMS = 6  # |point box - candidate box|, corner by corner

# Points per GEMM call of a tiled decoder layer (see decode_mask_logits).
# One call over all N points packs an operand and writes a product that no
# longer stay in L2 at 4096 points. Decoding 96 candidates with layout
# (41, 32, 1) on a 2-vCPU Xeon (2 MiB L2 per core, one BLAS thread) took
# 49.9 ms untiled over 4096 points and 37.1, 37.1, 36.6 and 36.7 ms with
# tiles of 128, 256, 384 and 512 points, but 49 ms with 1024 or 2048. At
# 768 points 256 was best: 6.7 ms, against 9.2 untiled and 8.4 with 512,
# which pads 768 to 1024.
TILE_POINTS = 256


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
        return self.slices()[-1][0].stop  # the last layer has no bias

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
# encoder's k-d tree query) each thread must get before a job is split:
# about 3 ms of one-thread tiled decoding (96 x 4096 pairs took 37.1 ms).
# Below it, the thread's start-up and the GIL hand-offs between its numpy
# calls cost about what a second core returns, and more when that core is
# busy.
MIN_SHARE_PAIRS = 1 << 15

# Points below which the decoder stays on one thread whatever its pair
# count: whether a second thread pays depends on the work per numpy call,
# which grows with the points, not the candidates. In-process A/B decodes
# of 96 candidates, layout (41, 32, 1), one BLAS thread, on a 2-vCPU Xeon,
# one and two threads alternating, 21 decodes each per run. At 768 points
# two threads won 18, 2, 6, 2, 6, 14 and 10 of 21 (medians 6.9-10.9 ms on
# one thread, 7.5-10.7 on two): break-even at best, a loss on a quiet
# host. At 1024 points they won 21, 16, 18, 19, 21, 21 and 20 of 21
# (8.8-16.2 ms against 7.8-12.7), and 20 of 21 at 64 x 1024. At 2048
# points they won 20, 21, 21 and 21 of 21 (17.6-29.0 ms against
# 14.2-17.8), and at 4096 every decode (38.4 ms against 28.4).
MIN_SHARE_POINTS = 1024


def share_count(pairs: int) -> int:
    """Threads for a job of ``pairs``: up to ``WORKERS``, each with at
    least ``MIN_SHARE_PAIRS``, and always one."""
    return max(1, min(WORKERS, pairs // MIN_SHARE_PAIRS))


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

    Candidates are decoded one at a time over preallocated buffers; no
    (K, N, c_0) input is built. The input is one channel-major
    (c_0 + 1, N) buffer: the mask-feature rows are filled once, each
    candidate writes its three offset rows and six box-difference rows
    (from a (6, N) signed difference) as contiguous N-long rows, and the
    last row is ones. Each hidden layer writes a row-major (N, c) buffer,
    with a last column of ones when the next layer folds its bias, and its
    ReLU runs in place over those N rows. A hidden layer hands matmul
    its (N, c_in + 1) input, the first layer the transpose of the
    channel-major buffer, and reads its weights and bias as one
    (c_in + 1, c_out) view, ``kernel[w.start:b.stop]``, which the
    layer-major flat layout makes contiguous: the product adds the bias
    (the fold), where the first rule below allows it. Only each
    candidate's row of logits is kept.

    Three rules keep every logit the bytes of ``x @ W`` on a row-major
    ``x`` followed by ``+= b`` (``tests/test_blas.py`` pins the BLAS
    behaviour they rest on):

    - The fold is used only where numpy sends ``x @ W`` itself to a GEMM:
      N, c_in and c_out all at least 2. A one-row product (N = 1) or a
      width-1 output goes to gemv, which groups the c_in + 1 terms of the
      folded sum differently, and at c_in = 1 the vjp would read the input
      column as a strided vector. There the layer's input has no column of
      ones, and the bias is added after the product. A GEMM gives the same
      bytes for a row- or column-major input.
    - A width-1 product (gemv) gives other bytes when its input is
      column-major. The last layer reads a row-major hidden buffer, and a
      layout whose first layer has width 1 (every one-layer layout, such
      as (13, 1)) keeps its decoder input row-major, (N, c_0).
    - A GEMM row's bytes do not depend on how many rows the call has;
      gemv rows do. The input and hidden buffers are the first N rows of
      storage padded to whole tiles of ``TILE_POINTS``, and a product of
      N >= 2 rows and width c_out >= 2 runs as one stacked matmul over
      (tiles, ``TILE_POINTS``, c) views of that storage, one GEMM per
      tile that stays in L2. The padding rows it fills are read only by
      the next tiled product. A width-1 product stays one gemv over
      exactly N rows, and N = 1 is neither padded nor tiled. The ReLU,
      the branch signature and the vjp read only the N rows; the vjp
      recomputes a candidate with the same tiled products, but its sums
      over points are not tiled.

    These are facts of the BLAS that numpy ships, pinned for the widths in
    ``tests/test_blas.py``. With an inner size of 16 or more, OpenBLAS
    0.3.31 gives a GEMM row other bytes for another memory order or row
    count when the output width is 1 to 4 above a multiple of 8: a layout
    such as (41, 10, 1) decodes logits that agree with the row-major
    product only to rounding.

    Over at least ``MIN_SHARE_POINTS`` points, the forward splits the
    candidates into up to ``WORKERS`` interleaved shares of at least
    ``MIN_SHARE_PAIRS`` candidate-point pairs, each with buffers of its
    own. The calling thread decodes share 0 and a ``ThreadPoolExecutor``
    of one thread per other share, shut down before the call returns,
    decodes the rest; every row keeps the same arithmetic, so the logits
    do not depend on the split.

    The vjp returns the gradients of ``fmask``, ``point_boxes``,
    ``cand_boxes`` and ``kernels``. It walks only the candidates whose row
    of the upstream gradient has a non-zero entry (in training the mask
    losses read only the matched candidates' logits), recomputing each
    one's activations in the forward's buffers rather than keeping them
    on the tape. With finite activations and kernels a zero row adds only
    exact zeros, and every sum over candidates starts at +0.0, so skipping
    it changes no byte; a skipped candidate's kernel and box gradients
    stay the zeros they start as. At K = 1 or N = 1 a sum starts at -0.0
    instead (see ``_sum_start``) and would keep a zero row's signed zeros,
    so every row is walked there. The vjp runs on one thread, so its sums
    over candidates run in ascending k. The first layer's input gradient
    ``gh @ W.T`` is a row-major (N, c_0) product, and the mask-feature,
    point-box and candidate-box sums read it row-major: written
    column-major, the same GEMM gives other bytes at (c_0, c_out) =
    (41, 32) for N >= 193 not a multiple of 8. For the channel-major input
    the weight gradient ``x.T @ gh`` is taken as ``(gh.T @ x).T``, which
    has the row-major product's bytes when gh is at least 2 wide.
    ``positions`` and ``cand_positions`` are constants.
    While a branch signature is captured, each candidate records the signs
    of its box differences and every ReLU pattern, in ascending k and in
    row-major order, as ``autodiff.absolute`` and ``autodiff.relu`` do.
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
    c0 = layout.dims[0]
    offset_rows = slice(mask_dim, mask_dim + OFFSET_DIMS)
    geo_rows = slice(mask_dim + OFFSET_DIMS, c0)
    specs = layout.slices()
    channel_major = layout.dims[1] > 1
    folds = [b is not None and min(n, c_in, c_out) > 1 for _, b, (c_in, c_out) in specs]
    # Per layer: the kernel entries its product reads, as a (rows, c_out)
    # matrix, and the bias added after it (folded biases and the last
    # layer have none).
    steps = [
        (slice(w.start, b.stop), (c_in + 1, c_out), None) if fold else (w, (c_in, c_out), b)
        for (w, b, (c_in, c_out)), fold in zip(specs, folds)
    ]
    positions_t = np.ascontiguousarray(positions.T)
    point_boxes_t = np.ascontiguousarray(point_boxes.value.T)

    # N = 1 is never tiled: its first layer is a gemv that reads the decoder
    # input as one contiguous row, as it does unpadded.
    tiles = -(-n // TILE_POINTS) if n > 1 else 0
    tiled = [tiles > 0 and c_out > 1 for _, _, (_, c_out) in specs]

    def buffers() -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """One decoding thread's arrays: every layer's (N, c_in) input, with
        a last column of ones where the layer folds its bias (the first is
        the transpose of the decoder input buffer), as a view of the first
        N rows of storage padded to whole tiles; the same storage as
        (tiles, ``TILE_POINTS``, c_in) views; and the (6, N) signed box
        difference."""
        rows = tiles * TILE_POINTS or n
        x0 = np.zeros((c0 + folds[0], rows)) if channel_major else np.zeros((rows, c0 + folds[0])).T
        x0[:mask_dim, :n] = fmask.value.T
        x0[c0:] = 1.0
        stores = [x0.T] + [np.ones((rows, c_in + fold)) for (_, _, (c_in, _)), fold in zip(specs[1:], folds[1:])]
        return (
            [store[:n] for store in stores],
            [store[: tiles * TILE_POINTS].reshape(tiles, TILE_POINTS, store.shape[1]) for store in stores],
            np.empty((BOX_DIMS, n)),
        )

    def run(
        k: int,
        acts: list[np.ndarray],
        tile_views: list[np.ndarray],
        diff: np.ndarray,
        out: np.ndarray,
        marks: list | None = None,
    ) -> None:
        """Candidate k through its layers into the (N, 1) ``out``, in place;
        appends its box difference signs and ReLU patterns to ``marks`` when
        given."""
        x0 = acts[0].T
        np.subtract(positions_t, cand_positions[k][:, None], out=x0[offset_rows])
        np.subtract(point_boxes_t, cand_boxes.value[k][:, None], out=diff)
        if geo_on:
            np.abs(diff, out=x0[geo_rows])
        if marks is not None:
            marks.append(np.sign(diff).T)
        kernel = kernels.value[k]
        operands = acts + [out]
        for layer, (rows, shape, b) in enumerate(steps):
            # A tiled product also fills padding rows; only the next tiled product reads them.
            x, y = (tile_views if tiled[layer] else operands)[layer : layer + 2]
            np.matmul(x[..., : shape[0]], kernel[rows].reshape(shape), out=y[..., : shape[1]])
            if layer < len(steps) - 1:  # every layer but the last: bias, then ReLU
                h = acts[layer + 1]
                pre = h[:, : shape[1]]
                if b is not None:
                    pre += kernel[b]
                if marks is not None:
                    marks.append(pre > 0.0)
                np.maximum(h, 0.0, out=h)

    # Workers touch numpy only: the branch signature is global, so each
    # candidate's marks are kept and replayed here in ascending k.
    marks = [[] for _ in range(k_count)] if ad.recording() else None
    logits = np.empty((k_count, n))
    shares = max(1, min(k_count, share_count(k_count * n))) if n >= MIN_SHARE_POINTS else 1

    def decode_share(share: int) -> None:
        acts, tile_views, diff = buffers()
        for k in range(share, k_count, shares):
            run(k, acts, tile_views, diff, logits[k][:, None], None if marks is None else marks[k])

    # The pool starts threads only for submitted shares, joins them all on
    # leaving the block before any share's error is raised, and outlives no
    # call (so none breaks in a forked child).
    with ThreadPoolExecutor(max(1, shares - 1)) as pool:
        others = [pool.submit(decode_share, share) for share in range(1, shares)]
        decode_share(0)
    for future in others:
        future.result()
    for candidate_marks in marks or ():
        for bits in candidate_marks:
            ad.record(bits)

    def vjp(g):
        g = np.ascontiguousarray(g)
        g_fmask = np.full((n, mask_dim), _sum_start(k_count))
        g_point_boxes = np.full((n, BOX_DIMS), _sum_start(k_count))
        g_cand_boxes = np.zeros((k_count, BOX_DIMS))
        g_kernels = np.zeros(kernels.shape)
        acts, tile_views, diff = buffers()
        out = np.empty((n, 1))
        # At K = 1 or N = 1 a sum above starts at -0.0 and would pass a zero
        # row's signed zeros through, so there every row is walked.
        rows = np.flatnonzero(g.any(axis=1)) if k_count > 1 and n > 1 else range(k_count)
        for k in rows:
            run(k, acts, tile_views, diff, out)
            kernel, g_kernel = kernels.value[k], g_kernels[k]
            gh = g[k][:, None]
            for layer in reversed(range(len(specs))):
                w, b, (c_in, c_out) = specs[layer]
                x = acts[layer][:, :c_in]
                if b is not None:  # a ReLU output is positive exactly where its input was
                    gh = gh * (acts[layer + 1][:, :c_out] > 0.0)
                    g_kernel[b] += gh.sum(axis=0)
                g_kernel[w] += ((gh.T @ x).T if layer == 0 and channel_major else x.T @ gh).ravel()
                weights_t = kernel[w].reshape(c_in, c_out).T
                gh = gh @ weights_t
            # gh is now the (N, c_0) input gradient, row-major.
            g_fmask += gh[:, :mask_dim]
            g_geo = gh[:, geo_rows] * geo_scale
            g_geo *= np.sign(diff).T
            g_point_boxes += g_geo
            g_cand_boxes[k] = np.negative(g_geo, out=g_geo).sum(axis=0, initial=_sum_start(n))
        return g_fmask, g_point_boxes, g_cand_boxes, g_kernels

    return ad.node(logits, (fmask, point_boxes, cand_boxes, kernels), vjp)
