"""Comparison methods and the mode-composed stage-2 training engine.

Modes stack additively on the supervised objective: temperature-softened
logit matching (kd), distillation through the teacher's classifier
(srd), their combination, an out-of-distribution filter in front of the
unlabeled batch (+ood), a two-view augmentation consistency term (+dac),
and hard pseudo-labeling of the unlabeled pool.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .autograd import (NumericError, Tensor, backward, cosine_loss, logistic_loss,
                       no_grad, sigmoid, slice_rows, softmax_cross_entropy,
                       softmax_values)
# Unused here; kept because benchmarks/tracer.py rebinds baselines.cosine_rows.
from .autograd import cosine_rows  # noqa: F401
from .data import augment, one_hot, select_unlabeled
from .distill import MODES, feature_reg, srd_loss, train_epochs
from .metrics import (USAGE_COLUMNS, MetricsRecord, evaluate_accuracy, mimicry_kl,
                      top_k_accuracy)
from .models import build_pair
from .optim import Sgd


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
    soft = softmax_cross_entropy(z_s * inv, softmax_values(z_t.values * inv))
    return float(temperature) ** 2 * soft


def pseudo_label(logits):
    """Hard labels from the teacher's logits; equal logits resolve to the lowest class."""
    return np.argmax(logits, axis=1)


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
        """Binary cross-entropy on the two feature groups, as one graph node."""
        return logistic_loss(positive_features, negative_features, self.weight, self.bias)


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
    ``terms``, a ``MODES`` entry, is empty. srd (with its feature
    regularizer), kd, pseudo and dac join the labeled cross-entropy in
    that order. pseudo needs the teacher's hard labels for the unlabeled
    rows and their weight; dac needs the second view of the unlabeled
    rows. The reported srd is the
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
        ce = softmax_cross_entropy(logits_l, y)
        total = ce
        srd_term = reg_term = 0.0

        if "srd" in terms:
            term = "srd"
            x_a = adaptor(feats_s, train=True)
            z_hat = teacher.classifier(x_a)
            srd = srd_loss(cfg.srd.variant, z_t, z_hat)
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
            ce_u = softmax_cross_entropy(logits_u, one_hot(pseudo_y, logits_s.shape[1]))
            # Union-mean CE: every pool sample counts like a labeled one,
            # so the pool/labeled size ratio sets the mixing weight.
            total = (ce + pseudo_weight * ce_u) * (1.0 / (1.0 + pseudo_weight))
            srd_term = ce_u.item()
        if "dac" in terms and len(x) > n_l:
            term = "dac"
            # Two-view consistency: the teacher's logits past n_l are on view 1.
            _, z_s_v2 = student.forward(view2, train=True)
            dac = cosine_loss(z_s_v2, z_t[n_l:])
            total = total + cfg.baselines.dac_weight * dac
    except NumericError as exc:
        exc.term = term
        raise
    return total, (ce.item(), srd_term, reg_term)


def _trial_setup(dataset, teacher, cfg, terms, select_seed):
    """The trial's one row space: the labeled rows, then the selected pool rows.

    Returns the inputs, the frozen teacher's (features, logits) table over
    them (None when ``terms`` is empty: ``supervised`` forwards nothing),
    the selected rows' hidden in-distribution flags (read only for the
    +ood usage counts), and the pool's pseudo labels and weight. Labeled
    row ``i`` is row ``i`` and selected pool row ``j`` is row ``n_l + j``.
    A frozen teacher's outputs on a row never change, so the labeled rows
    and the whole pool are forwarded once, together; the selection policy
    and the pseudo labels read the pool's logits there.
    """
    x, full = dataset.labeled_x, dataset.unlabeled
    n_l, run = len(x), cfg.run
    if not terms:
        return x, None, None, None, None
    if not (run.use_unlabeled and len(full) > 0 and cfg.optimizer.unlabeled_batch_size > 0):
        return x, teacher.predict(x), None, None, None
    x = np.concatenate([x, full.inputs])
    table = teacher.predict(x)
    chosen = select_unlabeled(full, run.unlabeled_fraction, run.selection_policy,
                              table[1][n_l:], seed=select_seed)
    rows = np.concatenate([np.arange(n_l), n_l + chosen])
    x, table = x[rows], [out[rows] for out in table]
    pseudo_y = pseudo_weight = None
    if "pseudo" in terms:
        pseudo_y = pseudo_label(table[1][n_l:])
        pseudo_weight = cfg.baselines.pseudo_weight * len(chosen) / n_l
    return x, table, full.eval_view()[1][chosen], pseudo_y, pseudo_weight


def _ood_step(detector, det_opt, det_rng, feats_l, feats_u, ind_flags, usage):
    """Filter one step's unlabeled rows; returns the indices of those kept.

    Then updates the detector on the teacher features: the labeled rows
    ``feats_l`` are the positives, a uniform subset of the incoming
    unlabeled rows ``feats_u`` the negatives. ``usage`` adds up the
    kept/dropped counts against the hidden in-distribution flags.
    """
    kept, stats = ood_filter(detector, feats_u, ind_flags)
    for key in usage:
        usage[key] += stats[key]
    n_l, n_u = len(feats_l), len(feats_u)
    neg_rows = det_rng.choice(n_u, size=min(n_l, n_u), replace=False)
    backward(detector.loss(feats_l, feats_u[neg_rows]))
    det_opt.step()
    return np.flatnonzero(kept)


def _epoch_record(run_id, mode, seed, epoch, means, student, dataset):
    return MetricsRecord(
        run=run_id, mode=mode, seed=seed, epoch=epoch, **means,
        train_acc=evaluate_accuracy(student, dataset.labeled_x, dataset.labeled_y),
        test_acc=evaluate_accuracy(student, dataset.test_x, dataset.test_y))


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
    terms = MODES[mode]
    use_ood, use_dac = "ood" in terms, "dac" in terms

    _, student, adaptor = build_pair(cfg, seed)
    nets = (teacher, student, adaptor)
    streams = np.random.SeedSequence([seed, 0xD15]).spawn(4)
    select_seed = int(streams[0].generate_state(1)[0])
    det_rng = np.random.default_rng(streams[1])
    aug_rng = np.random.default_rng(streams[2])
    detector = OodDetector(cfg.teacher.feature_dim,
                           np.random.default_rng(streams[3]),
                           threshold=cfg.baselines.ood_threshold)
    det_opt = Sgd(detector.parameters(), cfg.baselines.detector_lr, 0.9)
    x_all, table, pool_ind, pseudo_y, pseudo_weight = _trial_setup(
        dataset, teacher, cfg, terms, select_seed)
    counts = dict.fromkeys(USAGE_COLUMNS[1:], 0)
    n_l = len(dataset.labeled_x)
    y_l = one_hot(dataset.labeled_y, dataset.params.classes)

    def step(rows, u_idx):
        if use_ood and len(u_idx):
            keep = _ood_step(detector, det_opt, det_rng, table[0][rows],
                             table[0][n_l + u_idx], pool_ind[u_idx], counts)
            u_idx = u_idx[keep]
        idx = np.concatenate([rows, n_l + u_idx])
        x = x_all[idx]
        teacher_out = None if table is None else [out[idx] for out in table]
        view2 = None
        if use_dac and len(u_idx):
            # Pool rows become view 1, and the teacher's outputs there follow.
            n = len(rows)
            x[n:] = augment(x[n:], cfg.baselines.dac_strength, aug_rng)
            view2 = augment(x_all[idx[n:]], cfg.baselines.dac_strength, aug_rng)
            for out, fresh in zip(teacher_out, teacher.predict(x[n:])):
                out[n:] = fresh
        return stage2_loss(terms, nets, cfg, x, y_l[rows], teacher_out,
                           pseudo_y=None if pseudo_y is None else pseudo_y[u_idx],
                           pseudo_weight=pseudo_weight, view2=view2)

    params = list(student.parameters())
    if "srd" in terms:
        params += adaptor.parameters()
    records, usage = [], []
    run_id = f"{mode}-seed{seed}"
    for epoch, means in train_epochs(mode, seed, params, cfg.optimizer, cfg.run.epochs,
                                     n_l, step, n_pool=len(x_all) - n_l):
        records.append(_epoch_record(run_id, mode, seed, epoch, means, student, dataset))
        if use_ood:
            usage.append({"epoch": epoch, **counts})
            counts.update(dict.fromkeys(counts, 0))

    _, test_logits = student.predict(dataset.test_x)
    k5 = min(5, dataset.params.classes)
    return RunResult(
        records=records, usage=usage, student=student, adaptor=adaptor,
        top1=top_k_accuracy(test_logits, dataset.test_y, 1),
        top5=top_k_accuracy(test_logits, dataset.test_y, k5),
        mimicry=mimicry_kl(teacher, student, dataset.test_x),
        detector=detector if use_ood else None)
