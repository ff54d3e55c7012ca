"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in numpy arrays. An operation records a graph node, holding
operand references and a local backward rule, exactly when one of its
operands requires a gradient, so a path that needs no graph computes on
constants or plain arrays. ``backward`` walks the graph once in reverse
topological order and accumulates gradients into ``Tensor.grad`` buffers.

All arithmetic is plain numpy on float64, so identical inputs replay to
bit-identical results.
"""

from __future__ import annotations

import numpy as np

# Floor applied inside log so losses stay finite on degenerate inputs.
LOG_FLOOR = 1e-12

# Diagnostics for the most recent backward call: number of graph nodes in
# the topological order and how many were processed. Equal by contract.
LAST_BACKWARD_STATS = {"nodes": 0, "visits": 0}


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ValueError):
    """Non-finite values reached an operation that requires finite input."""


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
        self.grad = np.zeros(self.values.shape) if requires_grad else None
        self.node = node

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def item(self):
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def relu(self):
        return relu(self)


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
    for p in parents:
        if p.requires_grad:
            return Tensor(values, requires_grad=True, node=Node(op, tuple(parents), rule))
    return Tensor(values)


def add(a, b):
    a, b = _promote(a), _promote(b)
    try:
        values = a.values + b.values
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None

    def rule(g):
        return (_unbroadcast(g, a.values.shape) if a.requires_grad else None,
                _unbroadcast(g, b.values.shape) if b.requires_grad else None)

    return _make(values, "add", (a, b), rule)


def sub(a, b):
    a, b = _promote(a), _promote(b)
    try:
        values = a.values - b.values
    except ValueError:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}") from None

    def rule(g):
        return (_unbroadcast(g, a.values.shape) if a.requires_grad else None,
                -_unbroadcast(g, b.values.shape) if b.requires_grad else None)

    return _make(values, "sub", (a, b), rule)


def mul(a, b):
    a, b = _promote(a), _promote(b)
    try:
        values = a.values * b.values
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None

    def rule(g):
        return (_unbroadcast(g * b.values, a.values.shape) if a.requires_grad else None,
                _unbroadcast(g * a.values, b.values.shape) if b.requires_grad else None)

    return _make(values, "mul", (a, b), rule)


def div(a, b):
    a, b = _promote(a), _promote(b)
    try:
        values = a.values / b.values
    except ValueError:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}") from None

    def rule(g):
        return (_unbroadcast(g / b.values, a.values.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.values / (b.values * b.values), b.values.shape)
                if b.requires_grad else None)

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
        return (g @ b.values.T if a.requires_grad else None,
                a.values.T @ g if b.requires_grad else None)

    return _make(values, "matmul", (a, b), rule)


def linear(x, w, b, relu=False):
    """Dense layer ``x @ w + b``, optionally followed by ReLU, as one node.

    ``b`` is one bias per output column. Values and gradients are
    bit-identical to ``matmul`` then ``add`` (then ``relu``); the backward
    computes only the gradients of parents that require one.
    """
    x, w, b = _promote(x), _promote(w), _promote(b)
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"linear: expects 2-d operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: inner dimensions differ, {x.shape} vs {w.shape}")
    if b.shape != w.shape[1:]:
        raise ShapeError(f"linear: bias shape {b.shape} does not fit "
                         f"output shape {(x.shape[0], w.shape[1])}")
    values = x.values @ w.values + b.values
    mask = None
    if relu:
        mask = values > 0.0
        values = values * mask

    def rule(g):
        if mask is not None:
            g = g * mask
        return (g @ w.values.T if x.requires_grad else None,
                x.values.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return _make(values, "linear", (x, w, b), rule)


def batch_norm(x, gamma, beta, eps):
    """Training-mode batch normalization over the rows of ``x``, as one node.

    Returns ``(out, mean, var)``: the normalized, scaled and shifted
    output plus the batch mean and (biased) variance arrays for the
    running-statistic update. ``gamma`` and ``beta`` hold one value per
    column. Values and gradients are bit-identical to
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
    if gamma.shape != x.shape[1:] or beta.shape != x.shape[1:]:
        raise ShapeError(f"batch_norm: gamma {gamma.shape} and beta {beta.shape} "
                         f"must be one value per column of {x.shape}")
    inv_n = 1.0 / n
    mean = x.values.sum(axis=0) * inv_n
    centered = x.values - mean
    var = (centered * centered).sum(axis=0) * inv_n
    scale = np.sqrt(var + eps)
    normed = centered / scale
    values = normed * gamma.values + beta.values

    def rule(g):
        g_gamma = (g * normed).sum(axis=0) if gamma.requires_grad else None
        g_beta = g.sum(axis=0) if beta.requires_grad else None
        if not x.requires_grad:
            return None, g_gamma, g_beta
        g_normed = g * gamma.values
        # centered: the division's branch first, then both factors of c * c.
        g_centered = g_normed / scale
        g_scale = (-g_normed * centered / (scale * scale)).sum(axis=0)
        g_var = g_scale / (2.0 * np.maximum(scale, LOG_FLOOR))
        g_square = g_var * inv_n * centered
        g_centered = g_centered + g_square
        g_centered = g_centered + g_square
        # x: the subtraction's branch first, then the mean's.
        g_mean = -g_centered.sum(axis=0)
        g_x = g_centered + g_mean * inv_n
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


def _sigmoid_values(v):
    v = np.clip(v, -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-v))


def sigmoid(a):
    a = _promote(a)
    s = _sigmoid_values(a.values)

    def rule(g):
        return (g * s * (1.0 - s),)

    return _make(s, "sigmoid", (a,), rule)


def softmax(z):
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    z = _promote(z)
    if not np.all(np.isfinite(z.values)):
        raise NumericError("softmax: input contains non-finite values")
    p = softmax_values(z.values)

    def rule(g):
        return (_softmax_grad(p, g),)

    return _make(p, "softmax", (z,), rule)


def _softmax_grad(p, g):
    """Gradient reaching the logits of ``p = softmax(z)`` from ``g`` on ``p``."""
    dot = (g * p).sum(axis=-1, keepdims=True)
    return p * (g - dot)


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


def softmax_cross_entropy(z, target):
    """Mean cross-entropy of ``softmax(z)`` against ``target`` rows, as one node.

    ``z`` is a batch of logit rows; ``target`` holds one-hot labels or a
    distribution per row and is treated as constant. Values and gradients
    are bit-identical to the composed graph
    ``-mean(sum(target * log(softmax(z)), -1))``, log floored at
    ``LOG_FLOOR``: the backward repeats its operations in the order the
    graph walk would run them. Non-finite logits raise ``NumericError``.
    """
    z = _promote(z)
    target = _promote(target).values
    if z.shape != target.shape:
        raise ShapeError(f"softmax_cross_entropy: shapes differ, {z.shape} vs {target.shape}")
    if z.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: expects 2-d logits, got {z.shape}")
    if not np.all(np.isfinite(z.values)):
        raise NumericError("softmax_cross_entropy: logits contain non-finite values")
    p = softmax_values(z.values)
    floored = np.maximum(p, LOG_FLOOR)
    ll = (target * np.log(floored)).sum(axis=-1)
    inv_n = 1.0 / ll.size
    values = -(ll.sum() * inv_n)

    def rule(g):
        g = -g * inv_n
        return (_softmax_grad(p, g * target / floored),)

    return _make(values, "softmax_cross_entropy", (z,), rule)


def _row_distance(op, a, b, root):
    """Shared kernel of ``mse`` and ``l2_distance``: one node over ``a - b``.

    Squared row distances (their square roots if ``root``), averaged over
    the rows of a batch. The backward repeats the composed graph
    ``sub``, ``mul(d, d)``, ``sum(-1)`` (, ``sqrt``)(, ``mean``): the
    product's two factors reach ``d`` one after the other.
    """
    a, b = _promote(a), _promote(b)
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes differ, {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ShapeError(f"{op}: expects 2-d input, got {a.shape}")
    d = a.values - b.values
    dist = (d * d).sum(axis=-1)
    denom = None
    if root:
        dist = np.sqrt(dist)
        denom = 2.0 * np.maximum(dist, LOG_FLOOR)
    inv_n = 1.0 / dist.size
    values = dist.sum() * inv_n

    def rule(g):
        g = g * inv_n
        if denom is not None:
            g = g / denom
        g_d = g[..., None] * d
        g_d = g_d + g_d
        return (g_d if a.requires_grad else None,
                -g_d if b.requires_grad else None)

    return _make(values, op, (a, b), rule)


def mse(a, b):
    """Squared difference, summed over each row, averaged over the rows."""
    return _row_distance("mse", a, b, root=False)


def l2_distance(a, b):
    """Unsquared L2 distance between rows, averaged over the rows."""
    return _row_distance("l2_distance", a, b, root=True)


def _cosine_parts(a, b):
    dot = (a * b).sum(axis=-1)
    norm_a = np.sqrt((a * a).sum(axis=-1))
    norm_b = np.sqrt((b * b).sum(axis=-1))
    return dot, norm_a, norm_b, norm_a * norm_b + 1e-12


def cosine_rows(a, b):
    """Per-row cosine similarity of two arrays, epsilon-guarded denominator."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"cosine_rows: shapes differ, {a.shape} vs {b.shape}")
    dot, _, _, denom = _cosine_parts(a, b)
    return dot / denom


def cosine_loss(a, b):
    """Negative batch mean of ``cosine_rows(a, b)`` as one node; ``b`` is constant.

    Bit-identical to the composed graph ``-(dot / (|a| |b| + 1e-12)).mean()``:
    ``a`` receives its gradient from ``a * b`` first, then from both
    factors of ``a * a``, as the graph walk adds them.
    """
    a = _promote(a)
    b = _promote(b).values
    if a.shape != b.shape:
        raise ShapeError(f"cosine_loss: shapes differ, {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ShapeError(f"cosine_loss: expects 2-d input, got {a.shape}")
    dot, norm_a, norm_b, denom = _cosine_parts(a.values, b)
    cos = dot / denom
    inv_n = 1.0 / cos.size
    values = -(cos.sum() * inv_n)

    def rule(g):
        g = -g * inv_n
        g_denom = -g * dot / (denom * denom)
        g_dot = (g / denom)[..., None]
        g_sq = g_denom * norm_b / (2.0 * np.maximum(norm_a, LOG_FLOOR))
        g_sq = g_sq[..., None] * a.values
        return ((g_dot * b + g_sq) + g_sq,)

    return _make(values, "cosine_loss", (a,), rule)


def logistic_loss(x_pos, x_neg, w, b):
    """Binary cross-entropy of ``sigmoid(x @ w + b)`` as one node.

    Rows of ``x_pos`` are positives and rows of ``x_neg`` negatives; the
    loss is minus the sum of each group's mean log-likelihood, logs
    floored at ``LOG_FLOOR``. The inputs are constant; ``w`` and ``b``
    get gradients bit-identical to the composed graph, in which each
    group has its own ``matmul``, ``add`` and ``sigmoid``.
    """
    x_pos, x_neg = _promote(x_pos).values, _promote(x_neg).values
    w, b = _promote(w), _promote(b)
    s_pos = _sigmoid_values(x_pos @ w.values + b.values)
    s_neg = _sigmoid_values(x_neg @ w.values + b.values)
    floored_pos = np.maximum(s_pos, LOG_FLOOR)
    floored_neg = np.maximum(1.0 - s_neg, LOG_FLOOR)
    inv_pos, inv_neg = 1.0 / s_pos.size, 1.0 / s_neg.size
    values = -(np.log(floored_pos).sum() * inv_pos + np.log(floored_neg).sum() * inv_neg)

    def rule(g):
        g = -g
        g_pos = (g * inv_pos / floored_pos) * s_pos * (1.0 - s_pos)
        g_neg = -(g * inv_neg / floored_neg) * s_neg * (1.0 - s_neg)
        return (x_pos.T @ g_pos + x_neg.T @ g_neg if w.requires_grad else None,
                g_pos.sum(axis=0) + g_neg.sum(axis=0) if b.requires_grad else None)

    return _make(values, "logistic_loss", (w, b), rule)


def backward(loss):
    """Accumulate d(loss)/d(tensor) into every reachable grad buffer.

    ``loss`` must be a scalar attached to a graph (or itself require a
    gradient). Each graph node is visited exactly once, in reverse
    topological order; repeated calls without resetting grads accumulate.
    ``Tensor`` hashes by identity, so the walk keys its sets on the
    tensors themselves. A tensor reached along several paths sums its
    incoming gradients in the order the walk meets them.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss.node is None and not loss.requires_grad:
        raise ValueError("backward: loss is not connected to a computation graph")

    topo = []
    seen = set()
    nodes = 0
    stack = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if t in seen:
            continue
        seen.add(t)
        stack.append((t, True))
        if t.node is not None:
            nodes += 1
            for p in t.node.parents:
                if p.requires_grad and p not in seen:
                    stack.append((p, False))

    flowing = {loss: np.ones_like(loss.values)}
    visits = 0
    for t in reversed(topo):
        g = flowing.pop(t, None)
        if g is None:
            continue
        if t.requires_grad:
            t.grad += g
        if t.node is None:
            continue
        visits += 1
        for parent, pg in zip(t.node.parents, t.node.rule(g)):
            if pg is None or not parent.requires_grad:
                continue
            earlier = flowing.get(parent)
            flowing[parent] = pg if earlier is None else earlier + pg

    LAST_BACKWARD_STATS["nodes"] = nodes
    LAST_BACKWARD_STATS["visits"] = visits


def softmax_values(z):
    """Plain numpy softmax over the last axis, for evaluation paths."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
