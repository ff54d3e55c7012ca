"""Distillation identities, the stage-2 objective, stage-1 training."""

import dataclasses
import time

import numpy as np
import pytest

from kdlab.autograd import (Tensor, backward, cross_entropy, matmul, no_grad,
                            softmax, softmax_values)
from kdlab.baselines import MODES, stage2_loss, train_with_mode
from kdlab.config import override, parse_config
from kdlab.data import generate, one_hot
from kdlab.distill import (AccuracyFloorError, SrdConfig, feature_reg, lr_at,
                           pretrain_teacher, srd_loss)
from kdlab.models import Classifier, build_pair
from kdlab.optim import Sgd

TINY_CFG = parse_config("""
[dataset]
seed = 3
input_dim = 6
classes = 4
unseen_classes = 2
overlap = 0.5
labeled_per_class = 12
unlabeled_per_class = 10
test_per_class = 10
components_per_class = 2
[teacher]
hidden = 24,24
feature_dim = 8
[student]
hidden = 8,8
feature_dim = 4
[optimizer]
lr = 0.05
batch_size = 8
unlabeled_batch_size = 8
milestones = 40
""")


def _rows(ds, rng, n_l=8, n_u=6):
    """Labeled rows then unlabeled rows, with the labeled one-hot targets."""
    li = rng.choice(len(ds.labeled_x), n_l, replace=False)
    ui = rng.choice(len(ds.unlabeled), n_u, replace=False)
    x = np.concatenate([ds.labeled_x[li], ds.unlabeled.inputs[ui]])
    return x, one_hot(ds.labeled_y[li], ds.params.classes)


# the logit-space identity
# ------------------------

def test_mse_variant_equals_weighted_feature_distance():
    """Per instance: srd_mse == squared norm of W^T (x_t - phi).

    The bias-free classifier makes logit matching a Mahalanobis-style
    distance in teacher feature space; checked over 1000 random draws.
    """
    rng = np.random.default_rng(101)
    tol = 1e-9
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(d, d + 6))
        w = rng.standard_normal((d, k))
        x_t = rng.standard_normal((1, d))
        phi = rng.standard_normal((1, d))
        z_t = x_t @ w
        z_hat = matmul(Tensor(phi), Tensor(w))
        got = srd_loss("mse", Tensor(z_t), z_hat).item()
        ref = float(np.sum(((x_t - phi) @ w) ** 2))
        assert abs(got - ref) < tol


def test_matching_logits_recovers_teacher_features():
    """Full-rank W, d <= K: descending the mse variant finds x_t itself."""
    rng = np.random.default_rng(7)
    start = time.time()
    d, k = 6, 10
    clf = Classifier(d, k, np.random.default_rng(42))
    w = clf.weight.values
    assert np.linalg.matrix_rank(w) == d
    x_t = rng.standard_normal((1, d))
    z_t = x_t @ w

    free = Tensor(np.zeros((1, d)), requires_grad=True)
    opt = Sgd([free], lr=0.5, momentum=0.9)
    for _ in range(4000):
        loss = srd_loss("mse", Tensor(z_t), matmul(free, Tensor(w)))
        backward(loss)
        opt.step()
    gap = np.max(np.abs(free.values - x_t))
    assert gap < 1e-6, f"recovered within {gap:.2e}"
    assert time.time() - start < 10.0


def test_variant_value_oracles():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n, k = 4, 5
        z_t = rng.uniform(-3, 3, (n, k))
        z_h = rng.uniform(-3, 3, (n, k))
        p_t = softmax_values(z_t)
        p_h = softmax_values(z_h)
        kl = srd_loss("kl", Tensor(z_t), Tensor(z_h)).item()
        ref_kl = -(p_t * np.log(p_h)).sum(axis=1).mean()
        assert abs(kl - ref_kl) < 1e-12
        pm = srd_loss("pmse", Tensor(z_t), Tensor(z_h)).item()
        ref_pm = ((p_t - p_h) ** 2).sum(axis=1).mean()
        assert abs(pm - ref_pm) < 1e-12
    with pytest.raises(ValueError):
        srd_loss("huber", Tensor(z_t), Tensor(z_h))


def test_feature_reg_is_mean_unsquared_distance():
    x_t = np.array([[3.0, 4.0, 0.0], [0.0, 5.0, 12.0]])
    x_a = np.zeros((2, 3))
    # row norms 5 and 13
    assert abs(feature_reg(Tensor(x_t), Tensor(x_a)).item() - 9.0) < 1e-12
    with pytest.raises(ValueError):
        feature_reg(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_feature_reg_pulls_only_the_adapted_side():
    x_t = Tensor(np.ones((3, 4)) * 2.0, requires_grad=True)
    x_a = Tensor(np.zeros((3, 4)), requires_grad=True)
    backward(feature_reg(x_t, x_a))
    assert np.max(np.abs(x_a.grad)) > 0.0
    assert x_t.grad is None or np.max(np.abs(x_t.grad)) == 0.0


# the stage-2 objective
# ---------------------

def _fresh(seed=0):
    teacher, student, adaptor = build_pair(TINY_CFG, seed)
    teacher.set_frozen(True)
    return teacher, student, adaptor


def _srd(alpha=1.0, beta=1.0):
    return dataclasses.replace(TINY_CFG, srd=SrdConfig(alpha=alpha, beta=beta))


def _srd_loss(nets, x, y, cfg):
    with no_grad():
        feats_t, z_t = nets[0].forward(x)
    return stage2_loss(("srd",), nets, cfg, x, y, (feats_t.values, z_t.values))


def test_empty_unlabeled_equals_the_hand_composed_srd_step():
    """An srd step on labeled rows only is the hand-composed sum, bitwise."""
    ds = generate(TINY_CFG.dataset)
    x, y = _rows(ds, np.random.default_rng(31), n_u=0)
    cfg = _srd()

    nets_a = _fresh(5)
    loss_a, _ = _srd_loss(nets_a, x, y, cfg)
    backward(loss_a)

    teacher, student, adaptor = nets_b = _fresh(5)
    with no_grad():
        feats_t, z_t = teacher.forward(x)
    feats_s, logits_s = student.forward(x, train=True)
    x_a = adaptor(feats_s, train=True)
    loss_b = (cross_entropy(softmax(logits_s), y)
              + 1.0 * srd_loss("mse", Tensor(z_t.values), teacher.classifier(x_a))
              + 1.0 * feature_reg(feats_t.values, x_a))
    backward(loss_b)

    assert loss_a.item() == loss_b.item()
    for pa, pb in zip(nets_a[1].parameters() + nets_a[2].parameters(),
                      nets_b[1].parameters() + nets_b[2].parameters()):
        assert np.array_equal(pa.grad, pb.grad)


def test_unlabeled_rows_change_the_distillation_terms():
    ds = generate(TINY_CFG.dataset)
    x, y = _rows(ds, np.random.default_rng(37), n_u=6)
    nets = _fresh(1)
    full, _ = _srd_loss(nets, x, y, _srd())
    trimmed, _ = _srd_loss(nets, x[:len(y)], y, _srd())
    assert full.item() != trimmed.item()


def test_zero_weights_reduce_to_plain_cross_entropy():
    ds = generate(TINY_CFG.dataset)
    x, y = _rows(ds, np.random.default_rng(41))
    nets = _fresh(2)
    total, (ce, _, _) = _srd_loss(nets, x, y, _srd(alpha=0.0, beta=0.0))
    assert total.item() == ce
    backward(total)
    # nothing reaches the adaptor when both terms are off
    assert all(np.max(np.abs(p.grad)) == 0.0 for p in nets[2].parameters())


def test_every_mode_leaves_the_teacher_alone():
    ds = generate(TINY_CFG.dataset)
    teacher = _fresh(4)[0]
    before = {k: v.copy() for k, v in teacher.state_arrays().items()}
    for mode in MODES:
        result = train_with_mode(ds, teacher,
                                 override(TINY_CFG, mode=mode, epochs=1), 0)
        assert np.isfinite([result.records[0].total]).all(), mode
        after = teacher.state_arrays()
        for name in before:
            assert np.array_equal(before[name], after[name]), (mode, name)


def test_repeated_steps_descend_on_a_fixed_batch():
    ds = generate(TINY_CFG.dataset)
    nets = _fresh(6)
    x, y = _rows(ds, np.random.default_rng(53))
    opt = Sgd(nets[1].parameters() + nets[2].parameters(), lr=0.02,
              momentum=0.9)
    totals = []
    for _ in range(41):
        total, _ = _srd_loss(nets, x, y, _srd())
        backward(total)
        opt.step()
        totals.append(total.item())
    assert totals[-1] < totals[0]


# schedule and stage 1
# --------------------

def test_lr_schedule_steps_at_each_milestone():
    milestones, gamma = (60, 78), 0.1
    expects = [(0, 0.05), (59, 0.05), (60, 0.005), (77, 0.005),
               (78, 0.0005), (89, 0.0005)]
    for epoch, want in expects:
        got = lr_at(0.05, milestones, gamma, epoch)
        assert abs(got - want) < 1e-15


def test_pretrain_reaches_an_easy_floor_and_freezes():
    ds = generate(TINY_CFG.dataset)
    _, student, _ = build_pair(TINY_CFG, 0)
    teacher, _, _ = build_pair(TINY_CFG, 0)
    net = pretrain_teacher(ds, teacher, TINY_CFG.optimizer, epochs=10,
                           floor=0.5, seed=0)
    assert net.frozen
    assert all(not p.requires_grad for p in net.parameters())


def test_pretrain_raises_on_a_missed_floor():
    ds = generate(TINY_CFG.dataset)
    teacher, _, _ = build_pair(TINY_CFG, 0)
    with pytest.raises(AccuracyFloorError) as info:
        pretrain_teacher(ds, teacher, TINY_CFG.optimizer, epochs=1,
                         floor=0.999, seed=0)
    assert info.value.floor == 0.999
    assert 0.0 <= info.value.accuracy < 0.999


def test_pretrain_zero_epochs_returns_the_frozen_init():
    ds = generate(TINY_CFG.dataset)
    a, _, _ = build_pair(TINY_CFG, 9)
    b, _, _ = build_pair(TINY_CFG, 9)
    net = pretrain_teacher(ds, a, TINY_CFG.optimizer, epochs=0, floor=0.999)
    assert net.frozen
    sa, sb = net.state_arrays(), b.state_arrays()
    for name in sa:
        assert np.array_equal(sa[name], sb[name])


def test_pretrain_replays_bit_for_bit():
    ds = generate(TINY_CFG.dataset)
    states = []
    for _ in range(2):
        teacher, _, _ = build_pair(TINY_CFG, 1)
        net = pretrain_teacher(ds, teacher, TINY_CFG.optimizer, epochs=4,
                               seed=17)
        states.append(net.state_arrays())
    for name in states[0]:
        assert np.array_equal(states[0][name], states[1][name]), name


def test_srd_config_validation():
    with pytest.raises(ValueError):
        SrdConfig(variant="other")
    with pytest.raises(ValueError):
        SrdConfig(alpha=-0.5)
    with pytest.raises(ValueError):
        SrdConfig(kd_temperature=0.0)
