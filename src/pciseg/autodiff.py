"""Minimal reverse-mode automatic differentiation over numpy arrays.

The model forwards and loss stack are written against :class:`Var` so one
code path serves both inference and training. A graph is built per forward
evaluation; :func:`backward` accumulates gradients into leaves created with
``parameter``. Operations whose inputs carry no gradient requirement skip
graph construction entirely, so pure inference pays essentially nothing.

Subgradient conventions (relevant only on measure-zero sets): ``relu`` and
``absolute`` use 0 at the kink, ``maximum`` routes to its first argument on
ties, axis reductions with ``amax`` route to the first maximal entry.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import expit

# Optional branch-pattern recording: while a sink is installed, every kinked
# operation (relu, abs, maximum/minimum, amax) appends its branch decisions,
# and callers may append their own discrete decisions via `record`. Central
# finite differences are only trustworthy when both evaluation points share
# one branch pattern; see supervision.fd_gradient_check.
_signature_sink: list | None = None


def recording() -> bool:
    """Whether a branch signature is being captured."""
    return _signature_sink is not None


def record(bits: np.ndarray) -> None:
    """Append a discrete decision to the active branch signature, if any."""
    if _signature_sink is not None:
        _signature_sink.append(np.ascontiguousarray(bits).tobytes())


def capture_signature(fn):
    """Run ``fn()`` recording branch patterns; returns (result, digest)."""
    global _signature_sink
    previous = _signature_sink
    _signature_sink = []
    try:
        result = fn()
        digest = hashlib.blake2b(b"".join(_signature_sink), digest_size=16).digest()
    finally:
        _signature_sink = previous
    return result, digest


class Var:
    """A node in the differentiation tape wrapping a float64 array."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, value, requires_grad: bool = False, _parents=(), _vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Var(shape={self.value.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_var(other), self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_var(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def parameter(x) -> Var:
    """A leaf variable that receives a gradient on backward."""
    return Var(np.array(x, dtype=np.float64), requires_grad=True)


def node(value, parents, vjp) -> Var:
    """The result of an operation on ``parents``, with its vjp on the tape.

    ``vjp`` maps the output's gradient to one gradient (or None) per parent.
    Nothing is taped when no parent requires a gradient.
    """
    if any(p.requires_grad for p in parents):
        return Var(value, True, tuple(parents), vjp)
    return Var(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return node(
        a.value + b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
    )


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return node(
        a.value - b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)),
    )


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return node(
        a.value * b.value,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return node(
        a.value / b.value,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.value, a.value.shape),
            _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
        ),
    )


def power(a, exponent: float) -> Var:
    a = as_var(a)
    exponent = float(exponent)
    return node(
        a.value ** exponent,
        (a,),
        lambda g: (g * exponent * a.value ** (exponent - 1.0),),
    )


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.value.shape)
        gb = _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.value.shape)
        return ga, gb

    return node(a.value @ b.value, (a, b), vjp)


def relu(x) -> Var:
    x = as_var(x)
    active = x.value > 0.0
    record(active)
    return node(np.maximum(x.value, 0.0), (x,), lambda g: (g * active,))


def absolute(x) -> Var:
    x = as_var(x)
    if recording():
        record(np.sign(x.value))
    # The vjp recomputes the sign: keeping it alive beside the output costs memory.
    return node(np.abs(x.value), (x,), lambda g: (g * np.sign(x.value),))


def sigmoid(x) -> Var:
    x = as_var(x)
    out = expit(x.value)
    return node(out, (x,), lambda g: (g * out * (1.0 - out),))


def softplus(x) -> Var:
    x = as_var(x)
    return node(np.logaddexp(0.0, x.value), (x,), lambda g: (g * expit(x.value),))


def maximum(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    take_a = a.value >= b.value
    record(take_a)

    def vjp(g):
        return (
            _unbroadcast(g * take_a, a.value.shape),
            _unbroadcast(g * ~take_a, b.value.shape),
        )

    return node(np.maximum(a.value, b.value), (a, b), vjp)


def minimum(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    take_a = a.value <= b.value
    record(take_a)

    def vjp(g):
        return (
            _unbroadcast(g * take_a, a.value.shape),
            _unbroadcast(g * ~take_a, b.value.shape),
        )

    return node(np.minimum(a.value, b.value), (a, b), vjp)


def amax(x, axis: int) -> Var:
    """Maximum along one axis; gradient flows to the first maximal entry."""
    x = as_var(x)
    out = x.value.max(axis=axis)
    winners = x.value.argmax(axis=axis)
    record(winners)

    def vjp(g):
        buf = np.zeros_like(x.value)
        np.put_along_axis(buf, np.expand_dims(winners, axis), np.expand_dims(g, axis), axis)
        return (buf,)

    return node(out, (x,), vjp)


def vsum(x, axis=None, keepdims: bool = False) -> Var:
    x = as_var(x)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.value.shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, x.value.shape).copy(),)

    return node(x.value.sum(axis=axis, keepdims=keepdims), (x,), vjp)


def mean(x, axis=None, keepdims: bool = False) -> Var:
    x = as_var(x)
    if axis is None:
        count = x.value.size
    elif isinstance(axis, tuple):
        count = int(np.prod([x.value.shape[a] for a in axis]))
    else:
        count = x.value.shape[axis]
    return div(vsum(x, axis=axis, keepdims=keepdims), float(count))


def concat(parts, axis: int) -> Var:
    parts = [as_var(p) for p in parts]
    sizes = [p.value.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return node(np.concatenate([p.value for p in parts], axis=axis), parts, vjp)


def reshape(x, shape) -> Var:
    x = as_var(x)
    return node(x.value.reshape(shape), (x,), lambda g: (g.reshape(x.value.shape),))


def broadcast_to(x, shape) -> Var:
    x = as_var(x)
    return node(
        np.broadcast_to(x.value, shape),
        (x,),
        lambda g: (_unbroadcast(g, x.value.shape),),
    )


def _is_advanced(idx) -> bool:
    if isinstance(idx, np.ndarray):
        return True
    if isinstance(idx, tuple):
        return any(isinstance(i, np.ndarray) for i in idx)
    return False


def getitem(x, idx) -> Var:
    x = as_var(x)

    def vjp(g):
        buf = np.zeros_like(x.value)
        if _is_advanced(idx):
            np.add.at(buf, idx, g)
        else:
            buf[idx] += g
        return (buf,)

    return node(x.value[idx], (x,), vjp)


def log_softmax(x, axis: int = -1) -> Var:
    x = as_var(x)
    shifted = x.value - x.value.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def vjp(g):
        soft = np.exp(out)
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return node(out, (x,), vjp)


def backward(root: Var, seed: float = 1.0) -> None:
    """Accumulate d(root)/d(leaf) into ``grad`` of every reachable leaf."""
    if root.value.size != 1:
        raise ValueError("backward expects a scalar root")
    if not root.requires_grad:
        return
    topo: list[Var] = []
    visited: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    root.grad = np.full_like(root.value, seed)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if not parent.requires_grad or g is None:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g
