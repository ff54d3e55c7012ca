"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in numpy arrays. Every differentiable operation whose inputs
require gradients records a graph node holding operand references and a
local backward rule; ``backward`` walks that graph once in reverse
topological order and accumulates gradients into ``Tensor.grad`` buffers.

All arithmetic is plain numpy on float64, so identical inputs replay to
bit-identical results.
"""

from __future__ import annotations

import contextlib

import numpy as np

# Floor applied inside log so losses stay finite on degenerate inputs.
LOG_FLOOR = 1e-12

# Diagnostics for the most recent backward call: number of graph nodes in
# the topological order and how many were processed. Equal by contract.
LAST_BACKWARD_STATS = {"nodes": 0, "visits": 0}

_GRAD_ENABLED = True


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ValueError):
    """Non-finite values reached an operation that requires finite input."""


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the context (evaluation paths)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Node:
    """One recorded operation: operand references plus a backward rule.

    ``rule(grad_out)`` returns one gradient array (or None) per parent,
    aligned with ``parents``.
    """

    __slots__ = ("op", "parents", "rule")

    def __init__(self, op, parents, rule):
        self.op = op
        self.parents = parents
        self.rule = rule


class Tensor:
    """A float64 array with an optional gradient buffer and graph node.

    Tensors that require gradients carry a zero-initialized ``grad`` of the
    same shape from construction on; repeated backward calls accumulate
    into it until the buffer is reset (``Sgd.step`` resets parameters
    after each update).
    """

    __slots__ = ("values", "requires_grad", "grad", "node")

    def __init__(self, values, requires_grad=False, node=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.values) if requires_grad else None
        self.node = node

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def item(self):
        return float(self.values)

    def detach(self):
        """A view of the same values with no gradient requirement or node."""
        return Tensor(self.values)

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)

    def relu(self):
        return relu(self)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None):
        return tensor_mean(self, axis=axis)


def _promote(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(values, op, parents, rule):
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        return Tensor(values, requires_grad=True, node=Node(op, tuple(parents), rule))
    return Tensor(values)


def add(a, b):
    a, b = _promote(a), _promote(b)
    try:
        values = a.values + b.values
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None

    def rule(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)

    return _make(values, "add", (a, b), rule)


def sub(a, b):
    a, b = _promote(a), _promote(b)
    try:
        values = a.values - b.values
    except ValueError:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}") from None

    def rule(g):
        return _unbroadcast(g, a.values.shape), -_unbroadcast(g, b.values.shape)

    return _make(values, "sub", (a, b), rule)


def mul(a, b):
    a, b = _promote(a), _promote(b)
    try:
        values = a.values * b.values
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None

    def rule(g):
        return (
            _unbroadcast(g * b.values, a.values.shape),
            _unbroadcast(g * a.values, b.values.shape),
        )

    return _make(values, "mul", (a, b), rule)


def div(a, b):
    a, b = _promote(a), _promote(b)
    try:
        values = a.values / b.values
    except ValueError:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}") from None

    def rule(g):
        ga = _unbroadcast(g / b.values, a.values.shape)
        gb = _unbroadcast(-g * a.values / (b.values * b.values), b.values.shape)
        return ga, gb

    return _make(values, "div", (a, b), rule)


def neg(a):
    a = _promote(a)

    def rule(g):
        return (-g,)

    return _make(-a.values, "neg", (a,), rule)


def matmul(a, b):
    a, b = _promote(a), _promote(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    values = a.values @ b.values

    def rule(g):
        return g @ b.values.T, a.values.T @ g

    return _make(values, "matmul", (a, b), rule)


def linear(x, w, b, relu=False):
    """Dense layer ``x @ w + b``, optionally followed by ReLU, as one node.

    Values and gradients are bit-identical to ``matmul`` then ``add``
    (then ``relu``); the backward computes only the gradients of parents
    that require one.
    """
    x, w, b = _promote(x), _promote(w), _promote(b)
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"linear: expects 2-d operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: inner dimensions differ, {x.shape} vs {w.shape}")
    try:
        values = x.values @ w.values + b.values
    except ValueError:
        raise ShapeError(f"linear: bias shape {b.shape} does not fit "
                         f"output shape {(x.shape[0], w.shape[1])}") from None
    mask = None
    if relu:
        mask = values > 0.0
        values = values * mask

    def rule(g):
        if mask is not None:
            g = g * mask
        return (g @ w.values.T if x.requires_grad else None,
                x.values.T @ g if w.requires_grad else None,
                _unbroadcast(g, b.values.shape) if b.requires_grad else None)

    return _make(values, "linear", (x, w, b), rule)


def batch_norm(x, gamma, beta, eps):
    """Training-mode batch normalization over the rows of ``x``, as one node.

    Returns ``(out, mean, var)``: the normalized, scaled and shifted
    output plus the batch mean and (biased) variance arrays for the
    running-statistic update. Values and gradients are bit-identical to
    the composed graph ``c = x - x.mean(0)``, ``v = (c * c).mean(0)``,
    ``c / sqrt(v + eps) * gamma + beta``: the backward repeats its
    operations in the order the graph walk would run them.
    """
    x, gamma, beta = _promote(x), _promote(gamma), _promote(beta)
    if x.ndim != 2:
        raise ShapeError(f"batch_norm: expects 2-d input, got {x.shape}")
    n = x.values.shape[0]
    if n == 0:
        raise ShapeError(f"batch_norm: empty batch, shape {x.shape}")
    inv_n = 1.0 / n
    mean = x.values.sum(axis=0) * inv_n
    centered = x.values - mean
    var = (centered * centered).sum(axis=0) * inv_n
    scale = np.sqrt(var + eps)
    normed = centered / scale
    values = normed * gamma.values + beta.values

    def rule(g):
        g_gamma = g_beta = None
        if gamma.requires_grad:
            g_gamma = _unbroadcast(g * normed, gamma.values.shape)
        if beta.requires_grad:
            g_beta = _unbroadcast(g, beta.values.shape)
        if not x.requires_grad:
            return None, g_gamma, g_beta
        g_normed = g * gamma.values
        # centered: the division's branch first, then both factors of c * c.
        g_centered = g_normed / scale
        g_scale = _unbroadcast(-g_normed * centered / (scale * scale), scale.shape)
        g_var = g_scale / (2.0 * np.maximum(scale, LOG_FLOOR))
        g_square = np.broadcast_to(g_var * inv_n, centered.shape)
        g_centered = g_centered + g_square * centered
        g_centered = g_centered + g_square * centered
        # x: the subtraction's branch first, then the mean's.
        g_mean = -_unbroadcast(g_centered, mean.shape)
        g_x = g_centered + np.broadcast_to(g_mean * inv_n, centered.shape)
        return g_x, g_gamma, g_beta

    return _make(values, "batch_norm", (x, gamma, beta), rule), mean, var


def relu(a):
    a = _promote(a)
    mask = a.values > 0.0

    def rule(g):
        return (g * mask,)

    return _make(a.values * mask, "relu", (a,), rule)


def log(a):
    """Natural log with a fixed floor so zero probabilities stay finite."""
    a = _promote(a)
    floored = np.maximum(a.values, LOG_FLOOR)

    def rule(g):
        return (g / floored,)

    return _make(np.log(floored), "log", (a,), rule)


def sqrt(a):
    a = _promote(a)
    root = np.sqrt(a.values)
    # Guarded denominator: the derivative at exactly zero is left finite.
    denom = 2.0 * np.maximum(root, LOG_FLOOR)

    def rule(g):
        return (g / denom,)

    return _make(root, "sqrt", (a,), rule)


def sigmoid(a):
    a = _promote(a)
    v = np.clip(a.values, -500.0, 500.0)
    s = 1.0 / (1.0 + np.exp(-v))

    def rule(g):
        return (g * s * (1.0 - s),)

    return _make(s, "sigmoid", (a,), rule)


def softmax(z):
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    z = _promote(z)
    if not np.all(np.isfinite(z.values)):
        raise NumericError("softmax: input contains non-finite values")
    shifted = z.values - z.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _make(p, "softmax", (z,), rule)


def tensor_sum(a, axis=None, keepdims=False):
    a = _promote(a)
    shape = a.values.shape
    values = a.values.sum(axis=axis, keepdims=keepdims)

    def rule(g):
        if axis is None:
            return (np.broadcast_to(g, shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape),)

    return _make(values, "sum", (a,), rule)


def tensor_mean(a, axis=None):
    a = _promote(a)
    n = a.values.size if axis is None else a.values.shape[axis]
    if n == 0:
        raise ShapeError(f"mean: empty axis on shape {a.shape}")
    return tensor_sum(a, axis=axis) * (1.0 / n)


def slice_rows(a, start, stop):
    """First-axis slice; the backward rule scatters into a zero buffer."""
    a = _promote(a)
    shape = a.values.shape
    values = a.values[start:stop].copy()

    def rule(g):
        full = np.zeros(shape)
        full[start:stop] = g
        return (full,)

    return _make(values, "slice_rows", (a,), rule)


def cross_entropy(p, y):
    """Mean cross-entropy of probability rows ``p`` against one-hot ``y``.

    A single vector gives the plain cross-entropy; a batch is averaged
    over its rows. ``y`` is treated as constant.
    """
    p = _promote(p)
    y = _promote(y).detach()
    if p.shape != y.shape:
        raise ShapeError(f"cross_entropy: shapes differ, {p.shape} vs {y.shape}")
    ll = mul(y, log(p)).sum(axis=-1)
    if p.ndim == 1:
        return neg(ll)
    return neg(ll.mean())


def kl_alignment(p_target, p_pred):
    """Soft-target cross-entropy: mean of -sum(p_target * log p_pred).

    The target distribution is treated as constant; no gradient flows
    into it. Equals the entropy of ``p_target`` when the two agree.
    """
    p_target = _promote(p_target).detach()
    p_pred = _promote(p_pred)
    if p_target.shape != p_pred.shape:
        raise ShapeError(f"kl_alignment: shapes differ, {p_target.shape} vs {p_pred.shape}")
    ll = mul(p_target, log(p_pred)).sum(axis=-1)
    if p_pred.ndim == 1:
        return neg(ll)
    return neg(ll.mean())


def mse(a, b):
    """Squared difference, summed over the last axis, averaged over rows."""
    a, b = _promote(a), _promote(b)
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes differ, {a.shape} vs {b.shape}")
    if a.ndim > 2:
        raise ShapeError(f"mse: expects 1-d or 2-d input, got {a.shape}")
    d = sub(a, b)
    per_row = mul(d, d).sum(axis=-1)
    if a.ndim <= 1:
        return per_row
    return per_row.mean()


def backward(loss):
    """Accumulate d(loss)/d(tensor) into every reachable grad buffer.

    ``loss`` must be a scalar attached to a graph (or itself require a
    gradient). Each graph node is visited exactly once, in reverse
    topological order; repeated calls without resetting grads accumulate.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss.node is None and not loss.requires_grad:
        raise ValueError("backward: loss is not connected to a computation graph")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for p in t.node.parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

    flowing = {id(loss): np.ones_like(loss.values)}
    nodes = sum(1 for t in topo if t.node is not None)
    visits = 0
    for t in reversed(topo):
        g = flowing.pop(id(t), None)
        if g is None:
            continue
        if t.requires_grad:
            t.grad += g
        if t.node is None:
            continue
        visits += 1
        for parent, pg in zip(t.node.parents, t.node.rule(g)):
            if not parent.requires_grad or pg is None:
                continue
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + pg
            else:
                flowing[key] = pg

    LAST_BACKWARD_STATS["nodes"] = nodes
    LAST_BACKWARD_STATS["visits"] = visits


def softmax_values(z):
    """Plain numpy softmax over the last axis, for evaluation paths."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
