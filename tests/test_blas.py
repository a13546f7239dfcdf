"""Canary for the two BLAS facts that ``dynconv.decode_mask_logits`` relies on.

The decoder keeps its logits and gradients byte-identical to a row-major
``x @ W`` followed by ``+= b`` only because the BLAS that numpy ships gives
the same bytes (1) for a row- or column-major GEMM operand and (2) for a
bias folded into the product as a column of ones. If a numpy or OpenBLAS
upgrade breaks either, these tests fail first, with a message that names
the rules to revisit, instead of an opaque parity diff in the decoder tests.
"""

import numpy as np
import pytest

RULES = "see the two rules in the docstring of pciseg.dynconv.decode_mask_logits"
SHAPES = [(41, 32), (32, 16), (13, 4), (3, 2)]  # (c_in, c_out), both at least 2


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
    input_grad = np.empty((c_in, m))
    np.matmul(gh, w.T, out=input_grad.T)
    assert np.ascontiguousarray(input_grad.T).tobytes() == (gh @ w.T).tobytes(), (
        f"input gradient written column-major; {RULES}"
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
