"""Canary for the three BLAS facts that ``dynconv.decode_mask_logits`` relies on.

The decoder keeps its logits and gradients byte-identical to a row-major
``x @ W`` followed by ``+= b`` only because the BLAS that numpy ships gives
the same bytes (1) for a row- or column-major GEMM operand, (2) for a bias
folded into the product as a column of ones and (3) for a GEMM row,
whatever the number of rows in the call, so that a stacked matmul over
tiles of points equals one product over all of them. If a numpy or
OpenBLAS upgrade breaks any of them, these tests fail first, with a
message that names the rules to revisit, instead of an opaque parity diff
in the decoder tests.
"""

import numpy as np
import pytest

RULES = "see the three rules in the docstring of pciseg.dynconv.decode_mask_logits"
SHAPES = [(41, 32), (32, 16), (13, 4), (3, 2)]  # (c_in, c_out), both at least 2
# The products of the decoder layouts in use, (c_in + 1 where the bias
# folds, c_out); c_in = 1 is not a GEMM (numpy multiplies the column by the
# row itself), but the decoder tiles it too.
TILED_SHAPES = [(42, 32), (42, 16), (17, 8), (14, 4), (4, 2), (1, 4)]


def operands(m, c_in, c_out):
    rng = np.random.default_rng(m * 1000 + c_in * 10 + c_out)
    return rng.normal(size=(m, c_in)), rng.normal(size=(c_in, c_out)), rng.normal(size=c_out), rng.normal(size=(m, c_out))


@pytest.mark.parametrize("c_in,c_out", SHAPES)
@pytest.mark.parametrize("m", [2, 37, 4096])
def test_gemm_bytes_do_not_depend_on_memory_order(m, c_in, c_out):
    x, w, _, gh = operands(m, c_in, c_out)
    x_f = np.asfortranarray(x)  # the transpose of a channel-major buffer
    assert (x_f @ w).tobytes() == (x @ w).tobytes(), f"forward GEMM of a column-major input; {RULES}"
    weight_grad = np.ascontiguousarray((gh.T @ x_f).T)
    assert weight_grad.tobytes() == (x.T @ gh).tobytes(), f"weight gradient of a column-major input; {RULES}"
    # Holds at these m only: at m >= 193 not a multiple of 8 the bytes
    # differ, so the decoder's vjp takes this product row-major.
    input_grad = np.empty((c_in, m))
    np.matmul(gh, w.T, out=input_grad.T)
    assert np.ascontiguousarray(input_grad.T).tobytes() == (gh @ w.T).tobytes(), (
        f"input gradient written column-major (not relied on by the decoder); {RULES}"
    )


@pytest.mark.parametrize("c_in,c_out", SHAPES)
@pytest.mark.parametrize("m", [2, 37, 4096])
def test_ones_column_fold_equals_product_then_bias(m, c_in, c_out):
    x, w, b, _ = operands(m, c_in, c_out)
    want = x @ w
    want += b
    weights_and_bias = np.vstack([w, b])
    channel_major = np.ones((c_in + 1, m))
    channel_major[:c_in] = x.T
    row_major = np.ones((m, c_in + 1))
    row_major[:, :c_in] = x
    for name, x1 in (("column-major", channel_major.T), ("row-major", row_major)):
        assert (x1 @ weights_and_bias).tobytes() == want.tobytes(), f"folded bias, {name} input; {RULES}"


@pytest.mark.parametrize("c_in,c_out", TILED_SHAPES)
@pytest.mark.parametrize("m", [2, 3, 127, 128, 129, 255, 256, 257, 511, 513, 1000])
def test_gemm_row_bytes_do_not_depend_on_row_count(m, c_in, c_out):
    x, w, _, _ = operands(1024, c_in, c_out)
    for name, x1 in (("row-major", x), ("column-major", np.asfortranarray(x))):
        assert (x1[:m] @ w).tobytes() == (x1 @ w)[:m].tobytes(), f"GEMM of {m} of 1024 rows, {name} input; {RULES}"


@pytest.mark.parametrize("c_in,c_out", TILED_SHAPES)
def test_stacked_tiles_equal_the_whole_product(c_in, c_out):
    tile, tiles = 256, 3
    x, w, _, _ = operands(tile * tiles, c_in, c_out)
    channel_major = np.ascontiguousarray(x.T)
    hidden = np.ones((tile * tiles, c_out + 1))  # a row-major output with a spare column
    stacked = hidden.reshape(tiles, tile, c_out + 1)[..., :c_out]
    np.matmul(channel_major.T.reshape(tiles, tile, c_in), w, out=stacked)
    for t in range(tiles):
        rows = slice(t * tile, (t + 1) * tile)
        assert stacked[t].tobytes() == (x[rows] @ w).tobytes(), f"tile {t} of a stacked matmul; {RULES}"
    assert hidden[:, :c_out].tobytes() == (x @ w).tobytes(), f"stacked tiles against one product; {RULES}"
