"""Baseline losses, the detector, and the mode-composed training engine."""

import dataclasses

import numpy as np
import pytest

from kdlab import baselines, metrics, models
from kdlab.autograd import Tensor, backward, softmax_values
from kdlab.baselines import (MODES, OodDetector, cosine_rows, kd_loss,
                             ood_filter, pseudo_label, stage2_loss, train_with_mode)
from kdlab.config import override, parse_config
from kdlab.data import (BatchSampler, SettingError, augment, generate, one_hot,
                        select_unlabeled)
from kdlab.distill import DivergenceError, pretrain_teacher
from kdlab.metrics import roc_auc
from kdlab.models import Network, build_pair, make_network
from kdlab.optim import Sgd

TINY = """
[dataset]
seed = 2
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
[run]
epochs = 2
teacher_epochs = 6
teacher_floor = 0.0
seeds = 0
"""


def _setup(text=TINY, **run_updates):
    cfg = override(parse_config(text), **run_updates)
    ds = generate(cfg.dataset)
    teacher, _, _ = build_pair(cfg, 0)
    teacher = pretrain_teacher(ds, teacher, cfg.optimizer,
                               cfg.run.teacher_epochs, seed=99)
    return cfg, ds, teacher


# temperature-softened logit matching
# -----------------------------------

def test_kd_equals_scaled_entropy_at_agreement():
    """Matching logits leave the softened entropy times T^2."""
    rng = np.random.default_rng(3)
    for temperature in (1.0, 2.0, 4.0, 8.0):
        z = rng.uniform(-4, 4, (6, 5))
        p = softmax_values(z / temperature)
        got = kd_loss(z, Tensor(z.copy()), temperature).item()
        ref = temperature ** 2 * (-(p * np.log(p)).sum(axis=1).mean())
        assert abs(got - ref) < 1e-10


def test_kd_matches_the_composed_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        z_t = rng.uniform(-3, 3, (4, 6))
        z_s = rng.uniform(-3, 3, (4, 6))
        t = float(rng.uniform(0.5, 8.0))
        p_t = softmax_values(z_t / t)
        p_s = softmax_values(z_s / t)
        ref = t ** 2 * (-(p_t * np.log(p_s)).sum(axis=1).mean())
        assert abs(kd_loss(z_t, z_s, t).item() - ref) < 1e-10


def test_temperature_softens_the_target():
    z = np.array([[4.0, 1.0, -2.0, 0.5]])
    peaks = [softmax_values(z / t).max() for t in (1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(peaks, peaks[1:]))


def test_kd_rejects_bad_arguments():
    z = np.zeros((2, 3))
    with pytest.raises(ValueError):
        kd_loss(z, z, 0.0)
    with pytest.raises(ValueError):
        kd_loss(z, np.zeros((2, 4)), 2.0)


# pseudo labels
# -------------

def test_pseudo_label_reads_the_teacher_argmax():
    cfg, ds, teacher = _setup()
    x = ds.unlabeled.inputs[:20]
    labels = pseudo_label(teacher.predict(x)[1])
    _, logits = teacher.forward(x)
    assert np.array_equal(labels, np.argmax(logits.values, axis=1))
    assert labels.min() >= 0 and labels.max() < cfg.dataset.classes


def test_pseudo_label_ties_resolve_to_the_lowest_class():
    z = np.zeros((7, 5))
    z[:, 2] = 1.0
    z[:, 4] = 1.0
    labels = pseudo_label(z)
    assert np.array_equal(labels, np.full(7, 2))


# two-view consistency
# --------------------

def test_cosine_rows_oracle():
    a = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    b = np.array([[1.0, 0.0], [0.0, 3.0], [-1.0, -1.0]])
    got = cosine_rows(a, b)
    assert np.max(np.abs(got - [1.0, 0.0, -1.0])) < 1e-9


def _dac_step(cfg, ds, student, teacher, x_u, strength, rng):
    """Weighted dac term of a ``stage2_loss`` step, views drawn as in training."""
    view1 = augment(x_u, strength, rng)
    view2 = augment(x_u, strength, rng)
    x = np.concatenate([ds.labeled_x[:8], view1])
    y = one_hot(ds.labeled_y[:8], cfg.dataset.classes)
    total, (ce, _, _) = stage2_loss(("dac",), (teacher, student, None), cfg,
                                    x, y, teacher.predict(x), view2=view2)
    return total.item() - ce


def test_dac_on_identical_networks_is_minus_one():
    """Zero jitter and a shared network leave perfectly aligned views."""
    cfg, ds, teacher = _setup()
    x = ds.unlabeled.inputs[:12]
    got = _dac_step(cfg, ds, teacher, teacher, x, 0.0, np.random.default_rng(0))
    assert abs(got + cfg.baselines.dac_weight) < 1e-6


def test_dac_zero_strength_matches_the_forward_oracle():
    cfg, ds, teacher = _setup()
    _, student, _ = build_pair(cfg, 1)
    x = ds.unlabeled.inputs[:12]
    got = _dac_step(cfg, ds, student, teacher, x, 0.0, np.random.default_rng(1))
    _, z_t = teacher.forward(x)
    _, z_s = student.forward(x, train=True)
    zs, zt = z_s.values, z_t.values
    cos = (zs * zt).sum(axis=1) / (
        np.linalg.norm(zs, axis=1) * np.linalg.norm(zt, axis=1) + 1e-12)
    assert abs(got + cfg.baselines.dac_weight * cos.mean()) < 1e-9


def test_dac_views_replay_under_a_fixed_stream():
    cfg, ds, teacher = _setup()
    _, student, _ = build_pair(cfg, 1)
    x = ds.unlabeled.inputs[:8]
    a = _dac_step(cfg, ds, student, teacher, x, 1.0, np.random.default_rng(7))
    b = _dac_step(cfg, ds, student, teacher, x, 1.0, np.random.default_rng(7))
    c = _dac_step(cfg, ds, student, teacher, x, 1.0, np.random.default_rng(8))
    assert a == b
    assert a != c


# the out-of-distribution gate
# ----------------------------

def test_filter_thresholds_bracket_everything():
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((40, 8))
    flags = rng.random(40) < 0.5
    keep_all, stats_all = ood_filter(
        OodDetector(8, rng, threshold=0.0), feats, flags)
    assert keep_all.all()
    drop, stats_none = ood_filter(
        OodDetector(8, rng, threshold=1.0), feats, flags)
    assert not drop.any()
    n_ind = int(flags.sum())
    assert stats_all == {"kept_ind": n_ind, "kept_ood": 40 - n_ind,
                         "dropped_ind": 0, "dropped_ood": 0}
    assert stats_none == {"kept_ind": 0, "kept_ood": 0,
                          "dropped_ind": n_ind, "dropped_ood": 40 - n_ind}


def test_filter_stats_recount_the_mask():
    rng = np.random.default_rng(13)
    det = OodDetector(4, rng)
    feats = rng.standard_normal((60, 4))
    flags = rng.random(60) < 0.3
    kept, stats = ood_filter(det, feats, flags)
    assert sum(stats.values()) == 60
    assert stats["kept_ind"] + stats["dropped_ind"] == int(flags.sum())
    assert stats["kept_ind"] + stats["kept_ood"] == int(kept.sum())


def test_detector_separates_disjoint_clusters():
    """A linearly separable pair trains to near-perfect ranking."""
    rng = np.random.default_rng(17)
    pos = rng.standard_normal((80, 6)) + 3.0
    neg = rng.standard_normal((80, 6)) - 3.0
    det = OodDetector(6, rng)
    opt = Sgd(det.parameters(), lr=0.5)
    for _ in range(200):
        backward(det.loss(pos, neg))
        opt.step()
    scores = det.scores(np.concatenate([pos, neg]))
    truth = np.concatenate([np.ones(80), np.zeros(80)]) > 0.5
    assert roc_auc(scores, truth) > 0.95


# the frozen teacher's outputs, computed once per trial
# -----------------------------------------------------

def _preset_teacher():
    cfg = parse_config("")
    teacher, _, _ = build_pair(cfg, 0)
    teacher.set_frozen(True)
    return cfg, generate(cfg.dataset), teacher


def test_cached_teacher_outputs_equal_per_step_forwards_at_preset_shapes():
    """The once-per-trial table equals per-step forwards bit for bit.

    Standard preset: its teacher, 800 labeled rows, a 2040-row pool, steps
    of 32 labeled + 64 pool rows (+dac forwards the 64 pool rows alone).
    The table forwards the labeled rows and the pool together, so its
    chunks straddle the two; it must equal forwarding each alone. Chunked
    evaluation must equal one whole-batch forward on the labeled and test
    rows, for the teacher and for a student. A BLAS whose per-row results
    depend on the rows beside them fails here instead of changing
    artifact bytes.
    """
    cfg, ds, teacher = _preset_teacher()
    pool = ds.unlabeled.inputs
    n_l = len(ds.labeled_x)
    assert (n_l, len(pool), len(ds.test_x)) == (800, 2040, 1200)
    feats, z_all = teacher.predict(np.concatenate([ds.labeled_x, pool]))
    for alone, joint in zip((*teacher.predict(ds.labeled_x), *teacher.predict(pool)),
                            (feats[:n_l], z_all[:n_l], feats[n_l:], z_all[n_l:])):
        assert np.array_equal(alone, joint)
    _, student, _ = build_pair(cfg, 1)
    student.forward(ds.labeled_x[:96], train=True)  # move the batch-norm buffers
    for net in (teacher, student):
        for x in (ds.labeled_x, ds.test_x):
            f, z = net.forward(x)
            assert all(map(np.array_equal, net.predict(x), (f.values, z.values)))
    o = cfg.optimizer
    sampler = BatchSampler(o.batch_size, o.unlabeled_batch_size, seed=0)
    for l_idx, u_idx in sampler.epoch_batches(n_l, len(pool), epoch=0):
        assert (len(l_idx), len(u_idx)) == (32, 64)
        at = np.concatenate([l_idx, n_l + u_idx])
        f, z = teacher.forward(np.concatenate([ds.labeled_x[l_idx], pool[u_idx]]))
        assert np.array_equal(f.values, feats[at])
        assert np.array_equal(z.values, z_all[at])
        f, z = teacher.forward(pool[u_idx])
        assert np.array_equal(f.values, feats[n_l + u_idx])
        assert np.array_equal(z.values, z_all[n_l + u_idx])


def test_a_lone_row_gets_the_outputs_it_has_inside_a_batch(monkeypatch):
    cfg, ds, teacher = _preset_teacher()
    x = ds.unlabeled.inputs[:9]
    f, z = teacher.forward(x)
    assert np.array_equal(teacher.predict(x[:1])[1], z.values[:1])
    monkeypatch.setattr(models, "PREDICT_CHUNK", 4)  # chunks of 4, 4 and 1
    feats, logits = teacher.predict(x)
    assert np.array_equal(feats, f.values)
    assert np.array_equal(logits, z.values)


def _teacher_forwards(monkeypatch, cfg, ds, teacher):
    """Rows of each frozen-teacher forward in one trial, less mimicry_kl's at the end."""
    calls, at_end = [], []
    forward = Network.forward

    def counted(net, x, train=False):
        if net is teacher:
            calls.append(len(x))
        return forward(net, x, train)

    def mimicry(t, s, x):
        at_end.append(len(calls))
        return metrics.mimicry_kl(t, s, x)

    with monkeypatch.context() as m:
        m.setattr(Network, "forward", counted)
        m.setattr(baselines, "mimicry_kl", mimicry)
        train_with_mode(ds, teacher, cfg, 0)
    assert len(calls) == at_end[0] + 1
    return sorted(calls[:at_end[0]])


def test_the_frozen_teacher_runs_per_trial_not_per_step(monkeypatch):
    cfg, ds, teacher = _setup()
    steps = BatchSampler(cfg.optimizer.batch_size, 0, 0).epoch_length(len(ds.labeled_x))
    assert (len(ds.labeled_x), len(ds.unlabeled)) == (48, 40)

    def forwards(mode, epochs, **run):
        return _teacher_forwards(
            monkeypatch, override(cfg, mode=mode, epochs=epochs, **run), ds, teacher)

    assert forwards("supervised", 1) == forwards("supervised", 3) == []
    # every other mode forwards the labeled rows and the whole pool once, together,
    # whichever rows its terms, the selection policy or pseudo labels read
    half = dict(selection_policy="teacher_score", unlabeled_fraction=0.5)
    for mode in MODES:
        if mode != "supervised" and "dac" not in mode:
            assert forwards(mode, 1) == forwards(mode, 3) == forwards(mode, 3, **half) \
                == [48 + 40], mode
    assert forwards("srd", 3, use_unlabeled=False) == [48]
    # +dac adds one forward per step: its fresh view of the step's pool rows
    for mode in ("kd+dac", "srd+dac"):
        assert forwards(mode, 1) == forwards(mode, 1, **half) == [8] * steps + [88], mode
        assert forwards(mode, 3) == [8] * (3 * steps) + [88], mode


def _steps_of(monkeypatch, ds, teacher, cfg):
    """One shipping ``train_with_mode`` run, and what its steps saw: each
    step's (x, y, teacher_out, pseudo_y, view2), each ``augment`` draw as
    (input, output), and each ood filter call as (features, kept)."""
    steps, views, filtered = [], [], []

    def spy_loss(terms, nets, cfg, x, y, teacher_out, pseudo_y=None, pseudo_weight=0.0,
                 view2=None):
        steps.append((x.copy(), y, [out.copy() for out in teacher_out], pseudo_y, view2))
        return stage2_loss(terms, nets, cfg, x, y, teacher_out, pseudo_y=pseudo_y,
                           pseudo_weight=pseudo_weight, view2=view2)

    def spy_augment(x, strength, rng):
        out = augment(x, strength, rng)
        views.append((x.copy(), out))
        return out

    def spy_filter(detector, features, ind_flags):
        kept, stats = ood_filter(detector, features, ind_flags)
        filtered.append((features, kept))
        return kept, stats

    with monkeypatch.context() as m:
        m.setattr(baselines, "stage2_loss", spy_loss)
        m.setattr(baselines, "augment", spy_augment)
        m.setattr(baselines, "ood_filter", spy_filter)
        result = train_with_mode(ds, teacher, cfg, 0)
    return result, steps, views, filtered


def test_each_step_gathers_inputs_and_teacher_outputs_with_one_index(monkeypatch):
    """On a teacher_score half pool, every step's teacher outputs are the
    teacher's outputs on its inputs, row for row; labeled rows keep their
    labels, pool rows come from the selected half, pseudo labels are the
    teacher's argmax there, and +dac's pool rows hold view 1. Under +ood the
    kept rows are the step's pool inputs, and each epoch's usage counts
    recount from the hidden flags of the rows the steps drew."""
    cfg, ds, teacher = _setup(selection_policy="teacher_score", unlabeled_fraction=0.5)
    pool_feats, pool_logits = teacher.predict(ds.unlabeled.inputs)
    chosen = set(select_unlabeled(ds.unlabeled, 0.5, "teacher_score", pool_logits))
    assert len(chosen) == len(ds.unlabeled) // 2
    _, hidden = ds.unlabeled.eval_view()
    label_of = {x.tobytes(): y for x, y in zip(ds.labeled_x, ds.labeled_y)}
    pool_row = {x.tobytes(): j for j, x in enumerate(ds.unlabeled.inputs)}
    feats_row = {f.tobytes(): j for j, f in enumerate(pool_feats)}
    per_epoch = BatchSampler(cfg.optimizer.batch_size, 0, 0).epoch_length(len(ds.labeled_x))

    def rows_of(index, arr):
        return np.array([index[r.tobytes()] for r in arr], dtype=np.int64)

    for mode in ("srd+ood", "pseudo_label", "srd+dac"):
        result, steps, views, filtered = _steps_of(
            monkeypatch, ds, teacher, override(cfg, mode=mode))
        assert len(steps) == cfg.run.epochs * per_epoch, mode
        for i, (x, y, teacher_out, pseudo_y, view2) in enumerate(steps):
            n = len(y)
            assert np.array_equal(np.argmax(y, axis=1), rows_of(label_of, x[:n])), mode
            assert all(map(np.array_equal, teacher.predict(x), teacher_out)), mode
            if mode == "srd+dac":
                (x_u, view1), (again, drawn2) = views[2 * i:2 * i + 2]
                assert np.array_equal(x[n:], view1)
                assert np.array_equal(again, x_u) and np.array_equal(view2, drawn2)
            else:
                x_u = x[n:]
            assert set(rows_of(pool_row, x_u)) <= chosen, mode
            if mode == "pseudo_label":
                assert np.array_equal(pseudo_y, pseudo_label(teacher_out[1][n:]))
        if mode != "srd+ood":
            continue
        drawn = [rows_of(feats_row, feats) for feats, _ in filtered]
        for (x, y, *_), rows, (_, kept) in zip(steps, drawn, filtered, strict=True):
            assert set(rows) <= chosen
            assert np.array_equal(x[len(y):], ds.unlabeled.inputs[rows[kept]])
        every = np.concatenate([kept for _, kept in filtered])
        assert 0 < every.sum() < len(every), "the filter should keep some rows, not all"
        assert len(result.usage) == cfg.run.epochs
        for epoch, row in enumerate(result.usage):
            span = slice(epoch * per_epoch, (epoch + 1) * per_epoch)
            k = np.concatenate([kept for _, kept in filtered[span]])
            h = hidden[np.concatenate(drawn[span])]
            assert row == {"epoch": epoch,
                           "kept_ind": int((k & h).sum()), "kept_ood": int((k & ~h).sum()),
                           "dropped_ind": int((~k & h).sum()),
                           "dropped_ood": int((~k & ~h).sum())}


def test_zero_epochs_return_the_initial_student():
    cfg, ds, teacher = _setup(epochs=0)
    _, init, _ = build_pair(cfg, 0)
    for mode in ("supervised", "srd", "srd+ood", "srd+dac"):
        result = train_with_mode(ds, teacher, override(cfg, mode=mode), 0)
        assert result.records == [] and result.usage == [], mode
        state = result.student.state_arrays()
        for name, arr in init.state_arrays().items():
            assert np.array_equal(state[name], arr), (mode, name)
        assert 0.0 <= result.top1 <= 1.0 and np.isfinite(result.mimicry)


def test_a_one_row_pool_trains_under_ood_and_dac():
    cfg, ds, teacher = _setup(unlabeled_fraction=0.01)
    assert len(select_unlabeled(ds.unlabeled, 0.01, cfg.run.selection_policy)) == 1
    steps = BatchSampler(cfg.optimizer.batch_size, 0, 0).epoch_length(len(ds.labeled_x))
    for mode in ("srd+ood", "srd+dac"):
        result = train_with_mode(ds, teacher, override(cfg, mode=mode), 0)
        assert len(result.records) == cfg.run.epochs, mode
        for rec in result.records:
            assert np.isfinite([rec.ce, rec.srd, rec.reg, rec.total]).all(), mode
    # every step draws the one row unlabeled_batch_size times
    for row in train_with_mode(ds, teacher, override(cfg, mode="srd+ood"), 0).usage:
        ind, ood = row["kept_ind"] + row["dropped_ind"], row["kept_ood"] + row["dropped_ood"]
        assert ind + ood == steps * cfg.optimizer.unlabeled_batch_size
        assert min(ind, ood) == 0


def test_ood_with_no_unlabeled_rows_per_step_trains_on_the_labeled_rows():
    cfg, ds, teacher = _setup(mode="srd+ood")
    cfg = dataclasses.replace(cfg, optimizer=dataclasses.replace(
        cfg.optimizer, unlabeled_batch_size=0))
    result = train_with_mode(ds, teacher, cfg, 0)
    labeled_only = train_with_mode(
        ds, teacher, override(cfg, mode="srd", use_unlabeled=False), 0)
    for rec, ref in zip(result.records, labeled_only.records, strict=True):
        assert dataclasses.astuple(rec)[3:] == dataclasses.astuple(ref)[3:]
    assert result.top1 == labeled_only.top1
    assert result.usage == [{"epoch": e, "kept_ind": 0, "kept_ood": 0, "dropped_ind": 0,
                             "dropped_ood": 0} for e in range(cfg.run.epochs)]


# the composed engine
# -------------------

def test_every_mode_runs_and_reports():
    cfg, ds, teacher = _setup()
    for mode in MODES:
        result = train_with_mode(dataset=ds, teacher=teacher,
                                 cfg=override(cfg, mode=mode), seed=0)
        assert len(result.records) == cfg.run.epochs, mode
        for rec in result.records:
            assert np.isfinite([rec.ce, rec.srd, rec.reg, rec.total,
                                rec.train_acc, rec.test_acc]).all(), mode
        assert 0.0 <= result.top1 <= 1.0
        assert result.top1 <= result.top5 <= 1.0
        assert result.mimicry >= 0.0
        if "ood" in mode:
            assert result.detector is not None
            assert len(result.usage) == cfg.run.epochs
            for row in result.usage:
                assert set(row) >= {"epoch", "kept_ind", "kept_ood",
                                    "dropped_ind", "dropped_ood"}
        else:
            assert result.detector is None
            assert result.usage == []


def test_supervised_never_touches_the_pool():
    cfg, ds, teacher = _setup()
    a = train_with_mode(ds, teacher, override(cfg, mode="supervised"), 0)
    b = train_with_mode(ds, teacher,
                        override(cfg, mode="supervised",
                                 unlabeled_fraction=0.3,
                                 selection_policy="teacher_score"), 0)
    for ra, rb in zip(a.records, b.records):
        assert ra.total == rb.total
    assert a.top1 == b.top1


def test_pseudo_label_with_no_pool_collapses_to_supervised():
    text = TINY.replace("overlap = 0.5", "overlap = 0.0") \
               .replace("unseen_classes = 2", "unseen_classes = 0") \
               .replace("unlabeled_per_class = 10", "unlabeled_per_class = 0")
    no_pool = _setup(text=text)
    assert len(no_pool[1].unlabeled) == 0
    for cfg, ds, teacher in (no_pool, _setup(use_unlabeled=False)):
        sup = train_with_mode(ds, teacher, override(cfg, mode="supervised"), 0)
        psl = train_with_mode(ds, teacher, override(cfg, mode="pseudo_label"), 0)
        for ra, rb in zip(sup.records, psl.records):
            assert dataclasses.astuple(ra)[3:] == dataclasses.astuple(rb)[3:]
        assert sup.top1 == psl.top1


def test_use_unlabeled_off_trims_the_distillation_pool():
    cfg, ds, teacher = _setup()
    on = train_with_mode(ds, teacher, override(cfg, mode="srd"), 0)
    off = train_with_mode(ds, teacher,
                          override(cfg, mode="srd", use_unlabeled=False), 0)
    assert any(ra.total != rb.total
               for ra, rb in zip(on.records, off.records))


def test_ood_filter_that_drops_every_row_still_trains():
    cfg, ds, teacher = _setup(mode="srd+ood")
    keep_all, drop_all = (train_with_mode(ds, teacher, dataclasses.replace(
        cfg, baselines=dataclasses.replace(cfg.baselines, ood_threshold=t)), 0)
        for t in (0.0, 1.0))
    labeled_only = train_with_mode(
        ds, teacher, override(cfg, mode="srd", use_unlabeled=False), 0)
    for rec, ref in zip(drop_all.records, labeled_only.records):
        assert np.isfinite([rec.ce, rec.srd, rec.reg, rec.total]).all()
        assert dataclasses.astuple(rec)[3:] == dataclasses.astuple(ref)[3:]
    assert drop_all.top1 == labeled_only.top1
    # threshold 0 keeps every row the batches offer; threshold 1 drops them
    for kept, dropped in zip(keep_all.usage, drop_all.usage):
        assert kept["kept_ind"] + kept["kept_ood"] > 0
        assert dropped == {"epoch": kept["epoch"], "kept_ind": 0, "kept_ood": 0,
                           "dropped_ind": kept["kept_ind"],
                           "dropped_ood": kept["kept_ood"]}


def test_training_replays_bit_for_bit():
    cfg, ds, teacher = _setup()
    a = train_with_mode(ds, teacher, override(cfg, mode="srd+ood"), 3)
    b = train_with_mode(ds, teacher, override(cfg, mode="srd+ood"), 3)
    assert a.top1 == b.top1 and a.mimicry == b.mimicry
    for ra, rb in zip(a.records, b.records):
        assert dataclasses.astuple(ra) == dataclasses.astuple(rb)
    assert a.usage == b.usage


def test_engine_rejects_bad_inputs():
    cfg, ds, teacher = _setup()
    # an unknown mode is refused where it is set, before any trial starts
    with pytest.raises(SettingError) as err:
        override(cfg, mode="alchemy")
    assert err.value.key == "mode"
    fresh, _, _ = build_pair(cfg, 0)
    with pytest.raises(ValueError):
        train_with_mode(ds, fresh, cfg, 0)


# divergence
# ----------

def _diverge(cfg, ds, teacher):
    with pytest.raises(DivergenceError) as info:
        train_with_mode(ds, teacher, cfg, 0)
    return info.value


def test_a_huge_learning_rate_raises_a_divergence_error():
    cfg, ds, teacher = _setup(mode="srd")
    cfg = dataclasses.replace(cfg, optimizer=dataclasses.replace(cfg.optimizer, lr=1e6))
    with np.errstate(all="ignore"):
        err = _diverge(cfg, ds, teacher)
    assert (err.mode, err.seed) == ("srd", 0)
    assert f"srd seed 0 diverged at epoch {err.epoch}, step {err.step}: " \
        f"{err.term} term" in str(err)


def test_a_nonfinite_loss_term_is_named(monkeypatch):
    cfg, ds, teacher = _setup(mode="srd")
    real = baselines.srd_loss
    monkeypatch.setattr(baselines, "srd_loss",
                        lambda variant, z_t, z_hat: real(variant, z_t, z_hat) * np.inf)
    err = _diverge(cfg, ds, teacher)
    assert (err.epoch, err.step, err.term) == (0, 0, "srd")
    assert "srd inf" in str(err)


def test_nonfinite_logits_name_the_term_whose_forward_met_them(monkeypatch):
    cfg, ds, teacher = _setup(mode="kd")
    real = baselines.kd_loss
    monkeypatch.setattr(baselines, "kd_loss",
                        lambda z_t, z_s, t: real(z_t, z_s * np.nan, t))
    err = _diverge(cfg, ds, teacher)
    assert (err.mode, err.epoch, err.step, err.term) == ("kd", 0, 0, "kd")
    assert "non-finite" in str(err)
