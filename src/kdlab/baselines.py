"""Comparison methods and the mode-composed stage-2 training engine.

Modes stack additively on the supervised objective: temperature-softened
logit matching (kd), distillation through the teacher's classifier
(srd), their combination, an out-of-distribution filter in front of the
unlabeled batch (+ood), a two-view augmentation consistency term (+dac),
and hard pseudo-labeling of the unlabeled pool.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .autograd import (NumericError, Tensor, backward, cross_entropy,
                       kl_alignment, log, mul, no_grad, sigmoid, slice_rows,
                       softmax, softmax_values, sqrt)
from .data import BatchSampler, augment, one_hot, select_unlabeled
from .distill import MODES, DivergenceError, feature_reg, lr_at, srd_loss
from .metrics import MetricsRecord, evaluate_accuracy, mimicry_kl, top_k_accuracy
from .models import build_pair
from .optim import Sgd

# Rows per frozen-teacher forward when its outputs are cached for a trial.
TEACHER_CHUNK = 256

# MODES terms that read the frozen teacher's per-row outputs; a mode with
# none of them (supervised, pseudo_label) never runs the teacher per row.
TEACHER_TERMS = ("srd", "kd", "ood", "dac")


def kd_loss(z_t, z_s, temperature):
    """Logit matching at temperature T, scaled by T^2.

    Cross-entropy between the softened teacher and student distributions;
    the T^2 factor keeps gradient magnitudes comparable across
    temperatures. The teacher side is constant.
    """
    if temperature <= 0.0:
        raise ValueError(f"kd_loss: temperature must be positive, got {temperature}")
    z_t = z_t if isinstance(z_t, Tensor) else Tensor(z_t)
    z_s = z_s if isinstance(z_s, Tensor) else Tensor(z_s)
    if z_t.shape != z_s.shape:
        raise ValueError(f"kd_loss: shapes differ, {z_t.shape} vs {z_s.shape}")
    inv = 1.0 / float(temperature)
    p_t = softmax_values(z_t.values * inv)
    soft = kl_alignment(p_t, softmax(z_s * inv))
    return float(temperature) ** 2 * soft


def pseudo_label(teacher, x):
    """Teacher argmax labels; equal logits resolve to the lowest class."""
    with no_grad():
        _, logits = teacher.forward(x)
    return np.argmax(logits.values, axis=1)


def teacher_outputs(teacher, x):
    """The frozen teacher's (features, logits) arrays over the rows of ``x``.

    Forwards ``TEACHER_CHUNK`` rows at a time so peak memory stays flat
    however many rows there are. A row's outputs do not depend on the
    rows forwarded beside it, except that a one-row product takes BLAS's
    matrix-vector path, which rounds differently; a lone row is forwarded
    twice over and the copy dropped.
    """
    feats, logits = [], []
    for start in range(0, len(x), TEACHER_CHUNK):
        rows = x[start:start + TEACHER_CHUNK]
        with no_grad():
            f, z = teacher.forward(rows if len(rows) > 1 else np.repeat(rows, 2, axis=0))
        feats.append(f.values[:len(rows)])
        logits.append(z.values[:len(rows)])
    return np.concatenate(feats), np.concatenate(logits)


def cosine_rows(a, b):
    """Per-row cosine similarity with an epsilon-guarded denominator."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"cosine_rows: shapes differ, {a.shape} vs {b.shape}")
    dot = mul(a, b).sum(axis=-1)
    na = sqrt(mul(a, a).sum(axis=-1))
    nb = sqrt(mul(b, b).sum(axis=-1))
    return dot / (na * nb + 1e-12)


class OodDetector:
    """Binary head on teacher features separating in-pool from labeled data.

    A single affine map to one logit with a sigmoid score; samples at or
    above ``threshold`` count as in-distribution. Trained jointly with
    the student: labeled-batch features are the positives and a uniform
    subset of the unlabeled batch serves as provisional negatives.
    """

    def __init__(self, feature_dim, rng, threshold=0.5):
        bound = 1.0 / np.sqrt(feature_dim)
        self.weight = Tensor(rng.uniform(-bound, bound, (feature_dim, 1)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(1), requires_grad=True)
        self.threshold = float(threshold)

    def parameters(self):
        return [self.weight, self.bias]

    def scores(self, features):
        """Sigmoid scores as a plain array; no graph is built."""
        with no_grad():
            s = sigmoid(Tensor(features) @ self.weight + self.bias)
        return s.values.ravel()

    def loss(self, positive_features, negative_features):
        """Binary cross-entropy on the two feature groups."""
        p_pos = sigmoid(Tensor(positive_features) @ self.weight + self.bias)
        p_neg = sigmoid(Tensor(negative_features) @ self.weight + self.bias)
        pos_term = log(p_pos).mean()
        neg_term = log(1.0 - p_neg).mean()
        return -(pos_term + neg_term)


def ood_filter(detector, features, ind_flags):
    """Split one unlabeled batch by detector score.

    Returns the boolean keep mask and a stats row counting kept and
    dropped samples against the hidden in-distribution flags; the flags
    feed reporting only, never the keep decision.
    """
    scores = detector.scores(features)
    kept = scores >= detector.threshold
    ind = np.asarray(ind_flags, dtype=bool)
    stats = {
        "kept_ind": int((kept & ind).sum()),
        "kept_ood": int((kept & ~ind).sum()),
        "dropped_ind": int((~kept & ind).sum()),
        "dropped_ood": int((~kept & ~ind).sum()),
    }
    return kept, stats


@dataclasses.dataclass
class RunResult:
    """Everything a single stage-2 trial produces.

    ``detector`` is populated by the +ood modes only.
    """

    records: list
    usage: list
    student: object
    adaptor: object
    top1: float
    top5: float
    mimicry: float
    detector: object = None


def stage2_loss(terms, nets, cfg, x, y, teacher_out, pseudo_y=None,
                pseudo_weight=0.0, view2=None):
    """One stage-2 step's objective: the graph total and (ce, srd, reg) floats.

    ``x`` holds the labeled rows (one per row of the one-hot ``y``), then
    the unlabeled rows that passed the filter; ``teacher_out`` is the
    frozen teacher's (features, logits) over the same rows, or None when
    no term reads it. ``terms`` is a
    ``MODES`` entry: srd (with its feature regularizer), kd, pseudo and dac
    join the labeled cross-entropy in that order. pseudo needs the
    teacher's hard labels for the unlabeled rows and their weight; dac
    needs the second view of the unlabeled rows. The reported srd is the
    kd term in modes without srd and the pool cross-entropy under pseudo.
    A ``NumericError`` raised while a term is built leaves with that
    term's name ("ce" for the labeled cross-entropy) as ``exc.term``.
    """
    teacher, student, adaptor = nets
    feats_t, z_t = teacher_out or (None, None)
    n_l = len(y)
    term = "ce"
    try:
        feats_s, logits_s = student.forward(x, train=True)
        logits_l = logits_s if len(x) == n_l else slice_rows(logits_s, 0, n_l)
        ce = cross_entropy(softmax(logits_l), y)
        total = ce
        srd_term = reg_term = 0.0

        if "srd" in terms:
            term = "srd"
            x_a = adaptor(feats_s, train=True)
            z_hat = teacher.classifier(x_a)
            srd = srd_loss(cfg.srd.variant, Tensor(z_t), z_hat)
            reg = feature_reg(feats_t, x_a)
            total = total + cfg.srd.alpha * srd + cfg.srd.beta * reg
            srd_term, reg_term = srd.item(), reg.item()
        if "kd" in terms:
            term = "kd"
            kd = kd_loss(z_t, logits_s, cfg.srd.kd_temperature)
            total = total + cfg.baselines.kd_weight * kd
            if "srd" not in terms:
                srd_term = kd.item()
        if "pseudo" in terms and len(x) > n_l:
            term = "pseudo"
            logits_u = slice_rows(logits_s, n_l, len(x))
            ce_u = cross_entropy(softmax(logits_u), one_hot(pseudo_y, logits_s.shape[1]))
            # Union-mean CE: every pool sample counts like a labeled one,
            # so the pool/labeled size ratio sets the mixing weight.
            total = (ce + pseudo_weight * ce_u) * (1.0 / (1.0 + pseudo_weight))
            srd_term = ce_u.item()
        if "dac" in terms and len(x) > n_l:
            term = "dac"
            # Two-view consistency: the teacher's logits past n_l are on view 1.
            _, z_s_v2 = student.forward(view2, train=True)
            dac = -cosine_rows(z_s_v2, Tensor(z_t[n_l:])).mean()
            total = total + cfg.baselines.dac_weight * dac
    except NumericError as exc:
        exc.term = term
        raise
    return total, (ce.item(), srd_term, reg_term)


def train_with_mode(dataset, teacher, cfg, seed):
    """Stage 2: train one student under the configured mode.

    The teacher must be frozen. Student and adaptor initialization,
    batch order, augmentation draws and detector updates all derive from
    ``seed``, so a trial replays bit for bit. A non-finite loss raises
    ``DivergenceError``.
    """
    if not teacher.frozen:
        raise ValueError("train_with_mode: teacher must be frozen")
    mode = cfg.run.mode
    if mode not in MODES:
        raise ValueError(f"train_with_mode: unknown mode {mode!r}")
    terms = MODES[mode]
    use_ood, use_dac = "ood" in terms, "dac" in terms
    p = dataset.params
    opt_cfg = cfg.optimizer

    _, student, adaptor = build_pair(cfg, seed)
    streams = np.random.SeedSequence([seed, 0xD15]).spawn(4)
    select_seed = int(streams[0].generate_state(1)[0])
    det_rng = np.random.default_rng(streams[1])
    aug_rng = np.random.default_rng(streams[2])
    detector = OodDetector(cfg.teacher.feature_dim,
                           np.random.default_rng(streams[3]),
                           threshold=cfg.baselines.ood_threshold)

    wants_unlabeled = (cfg.run.use_unlabeled and mode != "supervised"
                       and len(dataset.unlabeled) > 0)
    if wants_unlabeled:
        pool = select_unlabeled(dataset.unlabeled, cfg.run.unlabeled_fraction,
                                cfg.run.selection_policy, teacher, seed=select_seed)
        _, pool_ind = pool.eval_view()
    else:
        pool = None
    u_batch = opt_cfg.unlabeled_batch_size if pool is not None else 0

    pseudo_y = pseudo_weight = None
    if "pseudo" in terms and pool is not None:
        pseudo_y = pseudo_label(teacher, pool.inputs)
        pseudo_weight = (cfg.baselines.pseudo_weight * len(pool)
                         / len(dataset.labeled_x))

    # The teacher is frozen, so its outputs on a row never change: forward
    # the labeled rows and the pool once and gather them per step. +dac
    # draws a fresh view of its unlabeled rows every step, so those are
    # the only rows still forwarded per step.
    labeled_out = pool_out = None
    if any(term in terms for term in TEACHER_TERMS):
        labeled_out = teacher_outputs(teacher, dataset.labeled_x)
        if u_batch and not use_dac:
            pool_out = teacher_outputs(teacher, pool.inputs)

    params = list(student.parameters())
    if "srd" in terms:
        params += adaptor.parameters()
    opt = Sgd(params, opt_cfg.lr, opt_cfg.momentum, opt_cfg.weight_decay)
    det_opt = Sgd(detector.parameters(), cfg.baselines.detector_lr, 0.9)

    y_all = one_hot(dataset.labeled_y, p.classes)
    sampler = BatchSampler(opt_cfg.batch_size, u_batch, seed)
    records, usage = [], []
    run_id = f"{mode}-seed{seed}"

    for epoch in range(cfg.run.epochs):
        opt.lr = lr_at(opt_cfg.lr, opt_cfg.milestones, opt_cfg.gamma, epoch)
        sums = {"ce": 0.0, "srd": 0.0, "reg": 0.0, "total": 0.0}
        steps = 0
        epoch_usage = {"kept_ind": 0, "kept_ood": 0, "dropped_ind": 0, "dropped_ood": 0}
        pool_inputs = pool.inputs if pool is not None else np.zeros((0, p.input_dim))

        for batch in sampler.epoch_batches(dataset.labeled_x, y_all,
                                           pool_inputs, epoch):
            n_l = len(batch.labeled_x)
            x_u = batch.unlabeled_x
            u_idx = batch.unlabeled_idx
            view2 = None
            if use_dac and len(x_u):
                view1 = augment(x_u, cfg.baselines.dac_strength, aug_rng)
                view2 = augment(x_u, cfg.baselines.dac_strength, aug_rng)
                x_u = view1
            x_all = np.concatenate([batch.labeled_x, x_u]) if len(x_u) else batch.labeled_x

            if labeled_out is not None:
                parts = [[out[batch.labeled_idx] for out in labeled_out]]
                if view2 is not None:
                    parts.append(teacher_outputs(teacher, x_u))
                elif len(x_u):
                    parts.append([out[u_idx] for out in pool_out])
                feats_t, z_t = (np.concatenate(group) for group in zip(*parts))

            if use_ood and len(x_u):
                kept, stats = ood_filter(detector, feats_t[n_l:], pool_ind[u_idx])
                for key in epoch_usage:
                    epoch_usage[key] += stats[key]
                # Detector update: labeled rows are positives, a uniform
                # subset of the incoming unlabeled batch the negatives.
                n_neg = min(n_l, len(x_u))
                neg_rows = det_rng.choice(len(x_u), size=n_neg, replace=False)
                det_batch_loss = detector.loss(feats_t[:n_l], feats_t[n_l:][neg_rows])
                backward(det_batch_loss)
                det_opt.step()
                keep_rows = np.flatnonzero(kept)
                x_u = x_u[keep_rows]
                u_idx = u_idx[keep_rows]
                x_all = np.concatenate([batch.labeled_x, x_u]) if len(x_u) else batch.labeled_x
                feats_t = np.concatenate([feats_t[:n_l], feats_t[n_l:][keep_rows]])
                z_t = np.concatenate([z_t[:n_l], z_t[n_l:][keep_rows]])

            try:
                total, (ce, srd, reg) = stage2_loss(
                    terms, (teacher, student, adaptor), cfg, x_all, batch.labeled_y,
                    None if labeled_out is None else (feats_t, z_t),
                    pseudo_y=None if pseudo_y is None else pseudo_y[u_idx],
                    pseudo_weight=pseudo_weight, view2=view2)
            except NumericError as exc:
                raise DivergenceError(mode, seed, epoch, steps, exc.term, exc) from exc
            value = total.item()
            if not math.isfinite(value):
                parts = {"ce": ce, "srd": srd, "reg": reg, "total": value}
                term = next(k for k, v in parts.items() if not math.isfinite(v))
                raise DivergenceError(mode, seed, epoch, steps, term,
                                      ", ".join(f"{k} {v}" for k, v in parts.items()))
            backward(total)
            opt.step()
            sums["ce"] += ce
            sums["srd"] += srd
            sums["reg"] += reg
            sums["total"] += value
            steps += 1

        train_acc = evaluate_accuracy(student, dataset.labeled_x, dataset.labeled_y)
        test_acc = evaluate_accuracy(student, dataset.test_x, dataset.test_y)
        records.append(MetricsRecord(
            run=run_id, mode=mode, seed=seed, epoch=epoch,
            ce=sums["ce"] / steps, srd=sums["srd"] / steps,
            reg=sums["reg"] / steps, total=sums["total"] / steps,
            train_acc=train_acc, test_acc=test_acc))
        if use_ood:
            usage.append({"epoch": epoch, **epoch_usage})

    with no_grad():
        _, test_logits = student.forward(dataset.test_x)
    k5 = min(5, p.classes)
    return RunResult(
        records=records, usage=usage, student=student, adaptor=adaptor,
        top1=top_k_accuracy(test_logits.values, dataset.test_y, 1),
        top5=top_k_accuracy(test_logits.values, dataset.test_y, k5),
        mimicry=mimicry_kl(teacher, student, dataset.test_x),
        detector=detector if use_ood else None)
