"""Engine tests: value oracles, gradient checks, graph bookkeeping."""

import decimal

import numpy as np
import pytest

from helpers import (CHECKED_OPS, composed_cosine_loss, composed_cross_entropy,
                     composed_logistic_loss, composed_mean, composed_row_distance,
                     gradcheck, op_instance, sweep_ops)
from kdlab.autograd import (LAST_BACKWARD_STATS, LOG_FLOOR, NumericError,
                            ShapeError, Tensor, add, backward, cosine_loss, cosine_rows,
                            div, l2_distance, log, logistic_loss, matmul, mse, mul,
                            relu, sigmoid, slice_rows, softmax,
                            softmax_cross_entropy, softmax_values, sub, tensor_sum)
from kdlab.optim import Sgd


# value oracles
# -------------

def test_matmul_matches_triple_loop():
    """Forward product equals the summed triple loop, exactly."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m, k = rng.integers(1, 6, size=3)
        a = rng.standard_normal((n, m))
        b = rng.standard_normal((m, k))
        out = matmul(Tensor(a), Tensor(b)).values
        ref = np.zeros((n, k))
        for i in range(n):
            for j in range(k):
                for t in range(m):
                    ref[i, j] += a[i, t] * b[t, j]
        assert np.array_equal(out.shape, ref.shape)
        assert np.max(np.abs(out - ref)) < 1e-12


def test_softmax_matches_a_50_digit_reference():
    """Rows agree with a 50-digit reference and sum to one."""
    rng = np.random.default_rng(11)
    tol = 1e-14
    for _ in range(30):
        z = rng.uniform(-30.0, 30.0, size=rng.integers(2, 9))
        p = softmax_values(z)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            exps = [decimal.Decimal(v).exp() for v in z]
            total = sum(exps)
            ref = np.array([float(e / total) for e in exps])
        assert abs(p.sum() - 1.0) < tol
        assert np.max(np.abs(p - ref)) < tol


def test_softmax_shift_invariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        z = rng.uniform(-5, 5, size=(4, 6))
        shift = rng.uniform(-700, 700)
        a = softmax_values(z)
        b = softmax_values(z + shift)
        assert np.all(np.isfinite(b))
        assert np.max(np.abs(a - b)) < 1e-12


def test_cross_entropy_matches_a_50_digit_reference():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, k = rng.integers(2, 6, size=2)
        z = rng.uniform(-4, 4, (n, k))
        labels = rng.integers(0, k, n)
        y = np.zeros((n, k))
        y[np.arange(n), labels] = 1.0
        got = softmax_cross_entropy(Tensor(z), y).item()
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            ref = decimal.Decimal(0)
            for i in range(n):
                exps = [decimal.Decimal(v).exp() for v in z[i]]
                ref -= (exps[labels[i]] / sum(exps)).ln()
            ref = float(ref / int(n))
        assert abs(got - ref) < 1e-13


def test_log_floor_keeps_zero_probability_finite():
    out = log(Tensor(np.array([0.0, 1.0]))).values
    assert out[0] == np.log(LOG_FLOOR)
    assert out[1] == 0.0
    # Cross-entropy against a class whose probability underflows stays finite too.
    z = Tensor(np.array([[0.0, -1000.0]]))
    y = np.array([[0.0, 1.0]])
    assert softmax_cross_entropy(z, y).item() == -np.log(LOG_FLOOR)


def test_kl_alignment_equals_entropy_at_agreement():
    rng = np.random.default_rng(19)
    for _ in range(10):
        p = rng.uniform(0.1, 1.0, size=(3, 5))
        p /= p.sum(axis=1, keepdims=True)
        got = softmax_cross_entropy(Tensor(np.log(p)), p).item()
        ref = -(p * np.log(p)).sum(axis=1).mean()
        assert abs(got - ref) < 1e-12


def test_mse_sums_rows_then_averages():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 0.0], [1.0, 1.0]])
    # rows: 1+4=5 and 4+9=13, mean 9
    assert abs(mse(Tensor(a), Tensor(b)).item() - 9.0) < 1e-12


def test_cosine_rows_value_and_loss_agree():
    rng = np.random.default_rng(23)
    a, b = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    cos = cosine_rows(a, b)
    ref = (a * b).sum(1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    assert np.max(np.abs(cos - ref)) < 1e-12
    assert cosine_loss(Tensor(a), b).item() == -(cos.sum() * (1.0 / 6))


# fused loss heads against the graphs they replace
# ------------------------------------------------

def _one_hot_rows(rng, n, k):
    y = np.zeros((n, k))
    y[np.arange(n), rng.integers(0, k, n)] = 1.0
    return y


def _soft_rows(rng, n, k):
    t = rng.uniform(0.05, 1.0, (n, k))
    return t / t.sum(axis=-1, keepdims=True)


def _head_case(name, rows, rng):
    """(fused, composed, arrays, needs_grad) for one loss head.

    Shapes are the standard preset's: 8 classes, 64 teacher features,
    32 labeled and 64 unlabeled rows per step. ``rows`` of 0 asks for
    single vectors, which only the composed graph takes.
    """
    def shape(k):
        return (rows, k) if rows else (k,)

    n = rows or 1
    if name in ("ce", "kd", "floored"):
        z = rng.standard_normal(shape(8)) * 3.0
        target = _soft_rows(rng, n, 8) if name == "kd" else _one_hot_rows(rng, n, 8)
        if name == "floored":
            # the labeled class's probability underflows to zero and is floored
            z[..., 0] = -1000.0
            target = np.zeros_like(z)
            target[..., 0] = 1.0
        target = target.reshape(z.shape)
        return (lambda tz: softmax_cross_entropy(tz, target.reshape(tz.shape)),
                lambda tz: composed_cross_entropy(tz, target), [z], [True])
    if name in ("mse", "mse_both", "reg"):
        k = 64 if name == "reg" else 8
        a, b = rng.standard_normal(shape(k)), rng.standard_normal(shape(k))
        if name == "reg":
            return (lambda ta, tb: l2_distance(ta, tb),
                    lambda ta, tb: composed_row_distance(ta, tb, root=True),
                    [a, b], [False, True])
        return (mse, composed_row_distance, [a, b], [name == "mse_both", True])
    if name == "dac":
        a, b = rng.standard_normal(shape(8)), rng.standard_normal(shape(8))
        return (lambda ta: cosine_loss(ta, b.reshape(ta.shape)),
                lambda ta: composed_cosine_loss(ta, b), [a], [True])
    if name == "detector":
        xp, xn = rng.standard_normal((32, 64)) * 2.0, rng.standard_normal((32, 64)) * 2.0
        w, b = rng.uniform(-0.125, 0.125, (64, 1)), rng.standard_normal(1)
        return (lambda tw, tb: logistic_loss(xp, xn, tw, tb),
                lambda tw, tb: composed_logistic_loss(xp, xn, tw, tb),
                [w, b], [True, True])
    raise ValueError(name)


HEADS = ("ce", "kd", "floored", "mse", "mse_both", "reg", "dac", "detector")


# The detector has no single-vector case. In the others, the fused head
# refuses a vector and takes it as a one-row batch, with the bits the
# composed graph gives the vector.
SHAPED_HEADS = [(name, rows) for name in HEADS for rows in (96, 0)
                if (name, rows) != ("detector", 0)]


@pytest.mark.parametrize("scale", [1.0, 0.37], ids=["root", "scaled"])
@pytest.mark.parametrize("name, rows", SHAPED_HEADS,
                         ids=[f"{n}-{'batch' if r else 'vector'}" for n, r in SHAPED_HEADS])
def test_fused_loss_heads_match_the_composed_graph_bit_for_bit(name, rows, scale):
    fused, composed, arrays, needs = _head_case(name, rows, np.random.default_rng(61))
    if not rows:
        with pytest.raises(ShapeError, match="expects 2-d"):
            fused(*[Tensor(a) for a in arrays])
    runs = []
    for build, batch in ((fused, not rows), (composed, False)):
        inputs = [Tensor(a[None].copy() if batch else a.copy(), requires_grad=r)
                  for a, r in zip(arrays, needs)]
        loss = build(*inputs)
        # scale != 1: the loss sits inside a weighted sum, as in a stage-2 total
        backward(loss if scale == 1.0 else Tensor(2.0) + scale * loss)
        runs.append((loss.values, [t.grad for t in inputs]))
    (value, grads), (ref_value, ref_grads) = runs
    assert value.shape == ref_value.shape == ()
    assert np.array_equal(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert (g is None) == (ref is None)
        if g is not None:
            assert np.array_equal(g.reshape(ref.shape), ref)


@pytest.mark.parametrize("name", HEADS)
def test_fused_loss_heads_record_one_node(name):
    fused, _, arrays, needs = _head_case(name, 8, np.random.default_rng(67))
    loss = fused(*[Tensor(a, requires_grad=r) for a, r in zip(arrays, needs)])
    assert loss.node.parents and len(loss.node.parents) <= 2
    backward(loss)
    assert LAST_BACKWARD_STATS["nodes"] == 1


# gradient checks
# ---------------

def test_gradcheck_every_op():
    """Central differences agree with backward for each op family."""
    tol = 1e-4
    worst = sweep_ops(seed=123, instances_per_op=100)
    assert set(worst) == set(CHECKED_OPS)
    for name, err in worst.items():
        assert err < tol, f"{name}: relative gradient error {err:.3e}"


def test_gradcheck_composite_graph():
    # One deep composite per seed, touching reuse and broadcasting.
    rng = np.random.default_rng(29)
    for _ in range(20):
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 5))
        c = rng.uniform(0.5, 2.0, (5,))

        def build(tx, tw, tc):
            h = relu(matmul(tx, tw))
            z = div(h + tc, tc)
            p = softmax(mul(z, z))
            return composed_mean(log(p + Tensor(1.0))) + tensor_sum(sigmoid(h))

        assert gradcheck(build, [x, w, c]) < 1e-4


# graph bookkeeping
# -----------------

def test_backward_visits_each_node_once():
    """Diamond-shaped reuse must not revisit shared subgraphs."""
    x = Tensor(np.array([1.5, -0.5]), requires_grad=True)
    h = mul(x, x)
    left = tensor_sum(mul(h, Tensor(2.0)))
    right = tensor_sum(mul(h, Tensor(3.0)))
    backward(left + right)
    assert LAST_BACKWARD_STATS["visits"] == LAST_BACKWARD_STATS["nodes"]
    # d/dx of 5*x^2 through both arms
    assert np.max(np.abs(x.grad - 10.0 * x.values)) < 1e-12


def test_backward_adds_a_tensors_contributions_in_walk_order():
    """x reaches the loss along three paths, and float addition rounds.

    Each path sends x one of 1e16, 3 and -(1e16 - 2); whichever is added
    last decides the bits ((a+b)+c is 6, (b+c)+a is 4, (c+a)+b is 5).
    Each element of x gets the three in a different rotation, so the grad
    pins which path the walk adds last: the outer add's last operand. A
    walk in reverse creation order would give [4, 5, 6].
    """
    values = np.array([1e16, 3.0, -9999999999999998.0])
    x = Tensor(np.ones(3), requires_grad=True)
    paths = [mul(x, Tensor(np.roll(values, -k))) for k in range(3)]
    backward(tensor_sum((paths[0] + paths[1]) + paths[2]))
    assert x.grad.tolist() == [6.0, 4.0, 5.0]


def test_matmul_computes_no_gradient_for_an_operand_that_needs_none():
    rng = np.random.default_rng(37)
    a, b = rng.standard_normal((4, 3)), rng.standard_normal((3, 2))
    g = rng.standard_normal((4, 2))
    g_a, g_b = matmul(Tensor(a, requires_grad=True), Tensor(b)).node.rule(g)
    assert g_b is None and np.array_equal(g_a, g @ b.T)
    g_a, g_b = matmul(Tensor(a), Tensor(b, requires_grad=True)).node.rule(g)
    assert g_a is None and np.array_equal(g_b, a.T @ g)


@pytest.mark.parametrize("op", [add, sub, mul, div], ids=["add", "sub", "mul", "div"])
def test_elementwise_ops_compute_no_gradient_for_a_constant_operand(op):
    """A constant on either side, broadcast as kd's 1/T is, gets None."""
    rng = np.random.default_rng(39)
    a, c = rng.standard_normal((4, 3)), rng.uniform(0.5, 2.0, 3)
    g = rng.standard_normal((4, 3))
    twin = op(Tensor(a, requires_grad=True), Tensor(c, requires_grad=True)).node.rule(g)
    g_a, g_c = op(Tensor(a, requires_grad=True), Tensor(c)).node.rule(g)
    assert g_c is None and np.array_equal(g_a, twin[0])
    g_c, g_a = op(Tensor(c), Tensor(a, requires_grad=True)).node.rule(g)
    twin = op(Tensor(c, requires_grad=True), Tensor(a, requires_grad=True)).node.rule(g)
    assert g_c is None and np.array_equal(g_a, twin[1])


def test_backward_accumulates_across_calls():
    x = Tensor(np.ones(3), requires_grad=True)
    backward(tensor_sum(mul(x, Tensor(2.0))))
    backward(tensor_sum(mul(x, Tensor(3.0))))
    assert np.max(np.abs(x.grad - 5.0)) < 1e-12


def test_backward_requires_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(mul(x, x))


@pytest.mark.parametrize("name", CHECKED_OPS)
def test_an_op_whose_operands_need_no_gradient_records_no_node(name):
    build, arrays = op_instance(name, np.random.default_rng(43))
    out = build(*[Tensor(a) for a in arrays])
    assert out.node is None and not out.requires_grad and out.grad is None
    with pytest.raises(ValueError, match="not connected to a computation graph"):
        backward(out)


def test_broadcast_gradients_reduce_to_input_shape():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    ta = Tensor(a.copy(), requires_grad=True)
    tb = Tensor(b.copy(), requires_grad=True)
    backward(tensor_sum(mul(ta + tb, ta)))
    assert ta.grad.shape == a.shape
    assert tb.grad.shape == b.shape
    # d/db sum((a+b)*a) = column sums of a
    assert np.max(np.abs(tb.grad - a.sum(axis=0))) < 1e-12


def test_shape_errors_are_raised():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((4, 2)))
    with pytest.raises(ShapeError):
        matmul(a, b)
    with pytest.raises(ShapeError):
        mse(a, Tensor(np.ones((2, 4))))
    with pytest.raises(ShapeError):
        softmax_cross_entropy(a, Tensor(np.ones((3, 3))))
    with pytest.raises(ShapeError):
        l2_distance(a, Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        cosine_loss(a, np.ones(3))
    with pytest.raises(ShapeError):
        mse(Tensor(np.ones((2, 2, 2))), Tensor(np.ones((2, 2, 2))))


def test_softmax_rejects_nonfinite_input():
    # The probability boundary is where poisoned values get caught.
    with pytest.raises(NumericError):
        softmax(Tensor(np.array([1.0, np.nan])))
    with pytest.raises(NumericError):
        softmax(Tensor(np.array([[np.inf, 0.0]])))
    with pytest.raises(NumericError):
        softmax_cross_entropy(Tensor(np.array([[np.nan, 0.0]])), np.array([[1.0, 0.0]]))
    assert issubclass(NumericError, ValueError)


def test_slice_rows_scatters_gradient():
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    backward(tensor_sum(slice_rows(x, 1, 3)))
    ref = np.zeros((4, 3))
    ref[1:3] = 1.0
    assert np.array_equal(x.grad, ref)


# optimizer recurrence
# --------------------

def test_sgd_matches_replayed_recurrence():
    """Ten steps of momentum plus decay replayed in plain numpy."""
    rng = np.random.default_rng(37)
    for trial in range(5):
        w0 = rng.standard_normal((3, 2))
        p = Tensor(w0.copy(), requires_grad=True)
        lr, mu, wd = 0.1, 0.9, 0.01
        opt = Sgd([p], lr, momentum=mu, weight_decay=wd)
        grads = rng.standard_normal((10, 3, 2))
        for g in grads:
            p.grad[...] = g
            opt.step()
        ref, v = w0.copy(), np.zeros_like(w0)
        for g in grads:
            v = mu * v + (g + wd * ref)
            ref = ref - lr * v
        # the in-place step runs the same IEEE operations in the same order
        assert np.array_equal(p.values, ref)
        # grads cleared by the step, ready for the next backward
        assert np.max(np.abs(p.grad)) == 0.0


def test_sgd_rejects_frozen_parameters():
    p = Tensor(np.ones(2), requires_grad=False)
    with pytest.raises(ValueError):
        Sgd([p], 0.1)


@pytest.mark.parametrize("mu, wd", [(0.9, 0.01), (0.0, 0.01), (0.9, 0.0)])
def test_sgd_mixed_shapes_match_the_replayed_recurrence(mu, wd):
    """A (1,) bias, a 2-D weight and a 1-D gamma under a changing lr."""
    rng = np.random.default_rng(43)
    shapes = [(1,), (3, 5), (7,)]
    w0 = [rng.standard_normal(s) for s in shapes]
    params = [Tensor(w.copy(), requires_grad=True) for w in w0]
    opt = Sgd(params, 0.1, momentum=mu, weight_decay=wd)
    lrs = [0.1, 0.1, 0.01, 0.05, 0.001]
    grads = [[rng.standard_normal(s) for s in shapes] for _ in lrs]
    for lr, gs in zip(lrs, grads):
        opt.lr = lr
        for p, g in zip(params, gs):
            p.grad[...] = g
        opt.step()
    for k, w in enumerate(w0):
        ref, v = w.copy(), np.zeros_like(w)
        for lr, gs in zip(lrs, grads):
            v = mu * v + (gs[k] + wd * ref)
            ref = ref - lr * v
        assert np.array_equal(params[k].values, ref), shapes[k]
        assert not params[k].grad.any()


def test_sgd_parameters_become_views_of_its_buffers():
    rng = np.random.default_rng(47)
    w0 = [rng.standard_normal(s) for s in [(1,), (4, 3), (9,), (2, 2)]]
    params = [Tensor(w.copy(), requires_grad=True) for w in w0]
    for p in params:
        p.grad[...] = rng.standard_normal(p.shape)
    grads = [p.grad.copy() for p in params]
    opt = Sgd(params, 0.1, momentum=0.9)
    for p, w, g in zip(params, w0, grads):
        # contents carried over, storage now the optimizer's
        assert np.array_equal(p.values, w) and np.array_equal(p.grad, g)
        assert np.shares_memory(p.values, opt._w)
        assert np.shares_memory(p.grad, opt._g)
        assert p.values.ctypes.data % 64 == 0 and p.grad.ctypes.data % 64 == 0
    for a, b in zip(params, params[1:]):
        assert not np.shares_memory(a.values, b.values)


def test_sgd_rejects_a_parameter_listed_twice():
    p, q = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ValueError, match="registered twice"):
        Sgd([p, q, p], 0.1)


@pytest.mark.parametrize("regrad", [lambda p: None, lambda p: np.zeros_like(p.values)],
                         ids=["unset", "rebound"])
def test_sgd_step_rejects_a_grad_changed_after_construction(regrad):
    p, q = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(2), requires_grad=True)
    opt = Sgd([p, q], 0.1)
    q.grad = regrad(q)
    with pytest.raises(ValueError, match="no gradient buffer"):
        opt.step()


def test_op_instance_covers_registry():
    rng = np.random.default_rng(41)
    for name in CHECKED_OPS:
        build, arrays = op_instance(name, rng)
        out = build(*[Tensor(a) for a in arrays])
        assert np.isfinite(out.item())
