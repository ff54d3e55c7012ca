"""Distillation through the teacher's classifier, and the stage-2 modes.

The central quantity is the cross-network logit: student features are
mapped into the teacher's feature space by the adaptor and scored by the
frozen teacher's own classifier. Matching those logits to the teacher's
transfers the teacher's view of the student's representation, and with
the bias-free classifier the mse variant is exactly a weighted distance
between teacher features and adapted student features. ``MODES`` names
the terms each stage-2 mode adds; ``baselines.stage2_loss`` builds them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .autograd import (NumericError, backward, l2_distance, mse, softmax,
                       softmax_cross_entropy, softmax_values)
from .data import BatchSampler, SettingError, one_hot
from .optim import Sgd

VARIANTS = ("kl", "mse", "pmse")

# Stage-2 mode -> the loss terms it adds to the labeled cross-entropy
# ("srd", "kd", "pseudo", "dac"), plus "ood" when the detector filters its
# unlabeled batch. The table holds names, not functions, so the loss
# functions are always looked up by name when a step is built.
MODES = {
    "supervised": (),
    "kd": ("kd",),
    "srd": ("srd",),
    "srd+kd": ("srd", "kd"),
    "kd+ood": ("kd", "ood"),
    "srd+ood": ("srd", "ood"),
    "kd+dac": ("kd", "dac"),
    "srd+dac": ("srd", "dac"),
    "pseudo_label": ("pseudo",),
}


class AccuracyFloorError(RuntimeError):
    """A pretrained teacher missed the configured held-out accuracy floor."""

    def __init__(self, accuracy, floor):
        self.accuracy = accuracy
        self.floor = floor
        super().__init__(
            f"teacher reached held-out accuracy {accuracy:.4f}, "
            f"below the configured floor {floor:.4f}")


class DivergenceError(RuntimeError):
    """Training reached a non-finite loss.

    Names the mode ("pretrain" for stage 1), the seed, the epoch and the
    step within it (both counted from 0), and the loss term where the
    non-finite value showed.
    """

    def __init__(self, mode, seed, epoch, step, term, detail):
        self.mode = mode
        self.seed = seed
        self.epoch = epoch
        self.step = step
        self.term = term
        self.detail = detail
        super().__init__(
            f"{mode} seed {seed} diverged at epoch {epoch}, step {step}: "
            f"{term} term: {detail}; a lower learning rate may help")


@dataclasses.dataclass(frozen=True)
class SrdConfig:
    """Distillation settings: variant, term weights, baseline temperature.

    Construction raises ``SettingError`` naming the first field out of range.
    """

    variant: str = "mse"
    alpha: float = 1.0
    beta: float = 1.0
    kd_temperature: float = 4.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise SettingError("variant", f"must be one of {', '.join(VARIANTS)}")
        for key in ("alpha", "beta"):
            if getattr(self, key) < 0.0:
                raise SettingError(key, "must be nonnegative")
        if self.kd_temperature <= 0.0:
            raise SettingError("kd_temperature", "must be positive")


def srd_loss(variant, z_t, z_hat):
    """The srd term between teacher logits ``z_t`` and cross-network logits.

    kl: soft cross-entropy against the teacher's softmax; mse: squared
    logit distance, summed per sample and batch-meaned; pmse: squared
    distance between the two softmax outputs. ``z_t`` is a constant array.
    """
    z_t = np.asarray(z_t, dtype=np.float64)
    if variant == "kl":
        return softmax_cross_entropy(z_hat, softmax_values(z_t))
    if variant == "mse":
        return mse(z_t, z_hat)
    if variant == "pmse":
        return mse(softmax_values(z_t), softmax(z_hat))
    raise ValueError(f"srd_loss: unknown variant {variant!r}")


def feature_reg(x_t, x_adapted):
    """Batch mean of the unsquared L2 gap from the teacher's features, an array."""
    return l2_distance(np.asarray(x_t, dtype=np.float64), x_adapted)


def lr_at(base_lr, milestones, gamma, epoch):
    """Step-decay schedule: multiply by gamma at each milestone epoch."""
    lr = base_lr
    for m in milestones:
        if epoch >= m:
            lr *= gamma
    return lr


def train_epochs(mode, seed, params, optim_params, epochs, n_labeled, step, n_pool=0):
    """The training loop of both stages; yields ``(epoch, means)`` per epoch.

    Per seeded batch, ``step(rows, u_idx)`` gathers its labeled rows
    ``rows`` (of ``n_labeled``) and unlabeled rows ``u_idx`` (of
    ``n_pool``) and returns the loss graph and its (ce, srd, reg) floats;
    the loop backpropagates it and steps ``Sgd`` over ``params`` at the
    scheduled learning rate. ``means`` holds the epoch's mean of each
    term and the total. A ``NumericError`` (whose ``term``, "ce" if unset,
    names the term) or a non-finite loss raises ``DivergenceError``
    naming mode, seed, epoch, step and term.
    """
    sampler = BatchSampler(optim_params.batch_size, optim_params.unlabeled_batch_size, seed)
    opt = Sgd(params, optim_params.lr, optim_params.momentum, optim_params.weight_decay)
    for epoch in range(epochs):
        opt.lr = lr_at(optim_params.lr, optim_params.milestones, optim_params.gamma, epoch)
        sums = {"ce": 0.0, "srd": 0.0, "reg": 0.0, "total": 0.0}
        steps = 0
        for rows, u_idx in sampler.epoch_batches(n_labeled, n_pool, epoch):
            try:
                total, (ce, srd, reg) = step(rows, u_idx)
            except NumericError as exc:
                raise DivergenceError(mode, seed, epoch, steps, getattr(exc, "term", "ce"),
                                      exc) from exc
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
        yield epoch, {k: v / steps for k, v in sums.items()}


def pretrain_teacher(dataset, net, optim_params, epochs, seed=0):
    """Stage 1: supervised training of the teacher on the labeled pool.

    Trains ``net`` in place with cross-entropy under the configured
    schedule and returns it; zero epochs leave it at its initialization.
    Non-finite logits raise ``DivergenceError`` naming ``seed``. Freezing
    the teacher and checking its accuracy floor are ``harness.get_teacher``'s.
    """
    x = dataset.labeled_x
    y = one_hot(dataset.labeled_y, dataset.params.classes)

    def step(rows, u_idx):
        _, logits = net.forward(x[rows])
        loss = softmax_cross_entropy(logits, y[rows])
        return loss, (loss.item(), 0.0, 0.0)

    for _ in train_epochs("pretrain", seed, net.parameters(), optim_params, epochs,
                          len(x), step):
        pass
    return net
