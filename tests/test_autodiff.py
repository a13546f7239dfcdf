"""Gradient checks of every tape operation against finite differences."""

import numpy as np
import pytest

from pciseg import autodiff as ad
from pciseg.autodiff import Var
from pciseg.supervision import fd_gradient_check

from conftest import amax

RNG = np.random.default_rng(42)


def check(loss_fn, params, tol=1e-7):
    assert fd_gradient_check(loss_fn, params, epsilon=1e-6) <= tol


def test_arithmetic_with_broadcasting():
    params = {"a": RNG.normal(size=(3, 4)), "b": RNG.normal(size=(4,)), "c": RNG.normal(size=(3, 1))}
    check(
        lambda p: ad.vsum(p["a"] * p["b"] + p["c"] / (p["b"] * p["b"] + 1.0) - p["a"] * 0.3),
        params,
    )


def test_matmul_2d_and_batched():
    params = {
        "x": RNG.normal(size=(5, 3)),
        "w": RNG.normal(size=(3, 2)),
        "xb": RNG.normal(size=(4, 5, 3)),
        "wb": RNG.normal(size=(4, 3, 2)),
    }
    check(lambda p: ad.vsum(ad.matmul(p["x"], p["w"])) + ad.vsum(ad.matmul(p["xb"], p["wb"])), params)
    # batched input against a shared 2-D weight
    check(lambda p: ad.vsum(ad.matmul(p["xb"], p["w"])), params)


def test_unary_ops():
    x = RNG.uniform(0.2, 2.0, size=(6,))
    for op in (ad.sigmoid, ad.softplus, ad.relu, ad.absolute):
        check(lambda p, op=op: ad.vsum(op(p["x"])), {"x": x.copy()})
    check(lambda p: ad.vsum(p["x"] ** 3.0), {"x": x.copy()})


def test_absolute_signs_recorded_only_under_a_sink(monkeypatch):
    x = np.array([-1.0, 2.0])
    _, digest = ad.capture_signature(lambda: ad.absolute(x))
    assert digest == ad.capture_signature(lambda: ad.absolute(3.0 * x))[1]
    assert digest != ad.capture_signature(lambda: ad.absolute(-x))[1]
    calls = []
    sign = np.sign
    monkeypatch.setattr(np, "sign", lambda v: calls.append(1) or sign(v))
    leaf = ad.parameter(x)
    out = ad.vsum(ad.absolute(leaf))
    assert not calls  # no sink: the forward pass skips the sign
    ad.backward(out)
    assert np.array_equal(leaf.grad, [-1.0, 1.0]) and len(calls) == 1


def test_minimum_maximum():
    params = {"a": RNG.normal(size=(8,)), "b": RNG.normal(size=(8,))}
    check(lambda p: ad.vsum(ad.maximum(p["a"], p["b"]) + ad.minimum(p["a"], 0.3)), params)


def test_reductions_and_shaping():
    params = {"x": RNG.normal(size=(3, 5, 2))}
    check(
        lambda p: ad.vsum(amax(p["x"], axis=1))
        + ad.mean(p["x"], axis=0)[2, 1]
        + ad.vsum(ad.reshape(p["x"], (5, 6))[1:3]),
        params,
    )


def test_concat_broadcast_getitem():
    params = {"a": RNG.normal(size=(4, 2)), "b": RNG.normal(size=(4, 3))}
    idx = np.array([0, 2, 2, 3])

    def loss(p):
        joined = ad.concat([p["a"], p["b"]], axis=1)
        routed = joined[idx]
        wide = ad.reshape(p["a"], (1, 4, 2)) + np.zeros((3, 4, 2))  # broadcast by add
        return ad.vsum(routed) + ad.vsum(wide * 0.5)

    check(loss, params)


def test_fancy_index_pairs():
    params = {"x": RNG.normal(size=(5, 4))}
    rows = np.array([0, 1, 1, 4])
    cols = np.array([3, 2, 2, 0])
    check(lambda p: ad.vsum(p["x"][(rows, cols)]), params)


def test_log_softmax():
    params = {"x": RNG.normal(size=(6, 4))}
    check(lambda p: ad.vsum(ad.log_softmax(p["x"], axis=1)[np.arange(6), np.array([0, 1, 2, 3, 0, 1])]), params)


def test_diamond_graph_accumulates():
    x = ad.parameter(np.array([2.0]))
    y = x * x
    z = y + y
    ad.backward(ad.vsum(z))
    assert x.grad == pytest.approx([8.0])


def test_no_grad_fast_path():
    a, b = Var(np.ones(3)), Var(np.ones(3))
    out = ad.vsum(a * b + 2.0)
    assert not out.requires_grad and out._parents == ()


def test_backward_requires_scalar():
    x = ad.parameter(np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(x * 2.0)


def test_maximum_tie_routes_to_first():
    a = ad.parameter(np.array([1.0]))
    b = ad.parameter(np.array([1.0]))
    out = ad.vsum(ad.maximum(a, b))
    ad.backward(out)
    assert a.grad == pytest.approx([1.0])
    assert b.grad == pytest.approx([0.0])


@pytest.mark.parametrize(
    "shape, idx",
    [((6, 3), np.array([[0, -1], [2, 2], [5, 0]])), ((6,), np.array([4, 4, 1, -2, 4])), ((4, 2, 2), np.array([3, 0, 3]))],
)
def test_row_gather_gradient_matches_add_at(shape, idx):
    x = ad.parameter(RNG.normal(size=shape))
    g = RNG.normal(size=idx.shape + shape[1:])
    ad.backward(ad.vsum(ad.mul(x[idx], g)))
    want = np.zeros(shape)
    np.add.at(want, idx, g)
    assert x.grad.tobytes() == want.tobytes()


def test_constant_operands_get_no_gradient():
    w = ad.parameter(RNG.normal(size=(3, 2)))
    x = Var(RNG.normal(size=(4, 3)))
    for out in (ad.matmul(x, w), ad.mul(x[:, :2], w[:1])):
        grads = out._vjp(np.ones(out.shape))
        assert grads[0] is None and grads[1] is not None
