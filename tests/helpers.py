"""Shared test utilities: central-difference gradient checking.

The checker treats the graph engine as a black box. A builder function
maps plain arrays to a scalar loss tensor; analytic gradients come from
one backward pass and are compared coordinate by coordinate against
central differences of the builder re-evaluated on perturbed copies.
"""

import numpy as np

from kdlab.autograd import (Tensor, add, backward, batch_norm, cosine_loss, div,
                            l2_distance, linear, log, logistic_loss, matmul, mse, mul,
                            neg, relu, sigmoid, slice_rows, softmax,
                            softmax_cross_entropy, sqrt, sub, tensor_sum)

EPS = 1e-6


def gradcheck(build, arrays, eps=EPS):
    """Largest relative gradient error over every input coordinate.

    ``build`` takes one Tensor per array and returns a scalar Tensor.
    The relative error for a coordinate is |num - ana| scaled by
    max(1, |num|, |ana|), so tiny gradients are compared absolutely.
    """
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    backward(build(*tensors))
    worst = 0.0
    for k, base in enumerate(arrays):
        analytic = tensors[k].grad.reshape(-1)
        flat = base.reshape(-1)
        for i in range(flat.size):
            bumped = [a.copy() for a in arrays]
            bumped[k].reshape(-1)[i] = flat[i] + eps
            hi = build(*[Tensor(a) for a in bumped]).item()
            bumped[k].reshape(-1)[i] = flat[i] - eps
            lo = build(*[Tensor(a) for a in bumped]).item()
            num = (hi - lo) / (2.0 * eps)
            err = abs(num - analytic[i]) / max(1.0, abs(num), abs(analytic[i]))
            worst = max(worst, err)
    return worst


def _mix(t, w):
    # Reduce through a fixed weight so every coordinate's gradient differs.
    return tensor_sum(mul(t, Tensor(w)))


def _away_from(x, gap):
    # Push values out of a band around zero; keeps kinked ops smooth
    # along the whole finite-difference probe.
    s = np.where(x >= 0.0, 1.0, -1.0)
    return x + s * gap


def op_instance(name, rng):
    """One random (build, arrays) pair exercising the named op."""
    n, m, k = rng.integers(2, 5, size=3)
    w = rng.standard_normal((n, m))
    if name == "add":
        b = rng.standard_normal((n, m) if rng.random() < 0.5 else (m,))
        return (lambda a, c: _mix(a + c, w)), [rng.standard_normal((n, m)), b]
    if name == "sub":
        b = rng.standard_normal((n, m) if rng.random() < 0.5 else (m,))
        return (lambda a, c: _mix(sub(a, c), w)), [rng.standard_normal((n, m)), b]
    if name == "mul":
        b = rng.standard_normal((n, m) if rng.random() < 0.5 else (m,))
        return (lambda a, c: _mix(mul(a, c), w)), [rng.standard_normal((n, m)), b]
    if name == "div":
        d = _away_from(rng.standard_normal((n, m)), 0.5)
        return (lambda a, c: _mix(div(a, c), w)), [rng.standard_normal((n, m)), d]
    if name == "neg":
        return (lambda a: _mix(neg(a), w)), [rng.standard_normal((n, m))]
    if name == "matmul":
        wk = rng.standard_normal((n, k))
        return (lambda a, b: tensor_sum(mul(matmul(a, b), Tensor(wk)))), \
            [rng.standard_normal((n, m)), rng.standard_normal((m, k))]
    if name in ("linear", "linear_relu"):
        wk = rng.standard_normal((n, k))
        fire = name == "linear_relu"
        while True:
            x, wl, b = (rng.standard_normal((n, m)), rng.standard_normal((m, k)),
                        rng.standard_normal(k))
            # Pre-activations clear of the ReLU kink along the whole probe.
            if not fire or np.min(np.abs(x @ wl + b)) > 0.05:
                break
        return (lambda a, c, d: tensor_sum(mul(linear(a, c, d, relu=fire), Tensor(wk)))), \
            [x, wl, b]
    if name == "batch_norm":
        rows = int(n) + 2
        ww = rng.standard_normal((rows, m))
        return (lambda a, g, c: _mix(batch_norm(a, g, c, 1e-5)[0], ww)), \
            [rng.standard_normal((rows, m)), rng.uniform(0.5, 2.0, m),
             rng.standard_normal(m)]
    if name == "relu":
        x = _away_from(rng.standard_normal((n, m)), 0.1)
        return (lambda a: _mix(relu(a), w)), [x]
    if name == "sigmoid":
        return (lambda a: _mix(sigmoid(a), w)), [rng.standard_normal((n, m))]
    if name == "log":
        return (lambda a: _mix(log(a), w)), [rng.uniform(0.1, 3.0, (n, m))]
    if name == "sqrt":
        return (lambda a: _mix(sqrt(a), w)), [rng.uniform(0.1, 4.0, (n, m))]
    if name == "softmax":
        return (lambda a: _mix(softmax(a), w)), [rng.uniform(-3, 3, (n, m))]
    if name == "sum":
        axis = rng.choice([None, 0, 1])
        if axis is None:
            return (lambda a: tensor_sum(a)), [rng.standard_normal((n, m))]
        ww = rng.standard_normal(m if axis == 0 else n)
        return (lambda a: _mix(tensor_sum(a, axis=axis), ww)), \
            [rng.standard_normal((n, m))]
    if name == "slice_rows":
        rows = int(n) + 2
        start = int(rng.integers(0, rows - 1))
        stop = int(rng.integers(start + 1, rows + 1))
        ws = rng.standard_normal((stop - start, m))
        return (lambda a: _mix(slice_rows(a, start, stop), ws)), \
            [rng.standard_normal((rows, m))]
    if name == "softmax_cross_entropy":
        y = np.zeros((n, m))
        y[np.arange(n), rng.integers(0, m, n)] = 1.0
        return (lambda z: softmax_cross_entropy(z, y)), [rng.uniform(-3, 3, (n, m))]
    if name == "soft_target_cross_entropy":
        t = rng.uniform(0.2, 1.0, (n, m))
        t /= t.sum(axis=1, keepdims=True)
        return (lambda z: softmax_cross_entropy(z, t)), [rng.uniform(-3, 3, (n, m))]
    if name in ("mse", "l2_distance"):
        op = mse if name == "mse" else l2_distance
        return (lambda a, b: op(a, b)), \
            [rng.standard_normal((n, m)), rng.standard_normal((n, m))]
    if name == "cosine_loss":
        b = rng.standard_normal((n, m))
        return (lambda a: cosine_loss(a, b)), [rng.standard_normal((n, m))]
    if name == "logistic_loss":
        xp, xn = rng.standard_normal((n, m)), rng.standard_normal((k, m))
        return (lambda w, c: logistic_loss(xp, xn, w, c)), \
            [rng.standard_normal((m, 1)), rng.standard_normal(1)]
    raise ValueError(f"op_instance: unknown op {name!r}")


CHECKED_OPS = ("add", "sub", "mul", "div", "neg", "matmul", "linear",
               "linear_relu", "batch_norm", "relu", "sigmoid", "log", "sqrt",
               "softmax", "sum", "slice_rows", "softmax_cross_entropy",
               "soft_target_cross_entropy", "mse", "l2_distance", "cosine_loss",
               "logistic_loss")


def sweep_ops(seed, instances_per_op):
    """Gradcheck every differentiable op; returns {op: worst error}."""
    worst = {}
    for op_id, name in enumerate(CHECKED_OPS):
        rng = np.random.default_rng([seed, op_id])
        errs = [gradcheck(*op_instance(name, rng))
                for _ in range(instances_per_op)]
        worst[name] = max(errs)
    return worst


# The loss heads as they were composed from elementary ops before each
# became one node; the fused ops must match them bit for bit.

def composed_mean(a, axis=None):
    """Sum times ``1 / n``, the mean the composed graphs were built with."""
    n = a.values.size if axis is None else a.values.shape[axis]
    return mul(tensor_sum(a, axis=axis), 1.0 / n)


def composed_cross_entropy(z, target):
    ll = tensor_sum(mul(Tensor(target), log(softmax(z))), axis=-1)
    return neg(ll) if z.ndim == 1 else neg(composed_mean(ll))


def composed_row_distance(a, b, root=False):
    d = sub(a, b)
    per_row = tensor_sum(mul(d, d), axis=-1)
    if root:
        per_row = sqrt(per_row)
    return per_row if a.ndim == 1 else composed_mean(per_row)


def composed_cosine_loss(a, b):
    b = Tensor(b)
    dot = tensor_sum(mul(a, b), axis=-1)
    na = sqrt(tensor_sum(mul(a, a), axis=-1))
    nb = sqrt(tensor_sum(mul(b, b), axis=-1))
    return neg(composed_mean(div(dot, add(mul(na, nb), 1e-12))))


def composed_logistic_loss(x_pos, x_neg, w, b):
    p_pos = sigmoid(add(matmul(Tensor(x_pos), w), b))
    p_neg = sigmoid(add(matmul(Tensor(x_neg), w), b))
    return neg(add(composed_mean(log(p_pos)), composed_mean(log(sub(1.0, p_neg)))))


def composed_predict(net, x):
    """(features, logits) arrays of ``net`` in evaluation mode over all of
    ``x`` at once, composed from the autograd ops on the parameters' arrays,
    so no graph is recorded: the reference ``Network.predict`` must match
    bit for bit."""
    h = Tensor(x)
    for layer in net.layers[:-1]:
        h = linear(h, layer.weight.values, layer.bias.values, relu=True)
    h = linear(h, net.layers[-1].weight.values, net.layers[-1].bias.values)
    bn = net.norm
    if bn is not None:
        h = div(sub(h, bn.running_mean), np.sqrt(bn.running_var + bn.eps))
        h = h * bn.gamma.values + bn.beta.values
    feats = relu(h)
    return feats.values, matmul(feats, net.classifier.weight.values).values
