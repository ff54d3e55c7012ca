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

import numpy as np

from .autograd import (Tensor, backward, cross_entropy, kl_alignment, mse,
                       mul, softmax, softmax_values, sqrt)
from .data import BatchSampler, one_hot
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
    """Pretraining missed the configured held-out accuracy floor."""

    def __init__(self, accuracy, floor):
        self.accuracy = accuracy
        self.floor = floor
        super().__init__(
            f"teacher reached held-out accuracy {accuracy:.4f}, "
            f"below the configured floor {floor:.4f}")


@dataclasses.dataclass
class SrdConfig:
    """Distillation settings: variant, term weights, baseline temperature."""

    variant: str = "mse"
    alpha: float = 1.0
    beta: float = 1.0
    kd_temperature: float = 4.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"SrdConfig: unknown variant {self.variant!r}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("SrdConfig: alpha and beta must be nonnegative")
        if self.kd_temperature <= 0.0:
            raise ValueError("SrdConfig: kd_temperature must be positive")


def srd_kl(z_t, z_hat):
    """Soft cross-entropy of cross-network logits against teacher logits."""
    z_t = z_t if isinstance(z_t, Tensor) else Tensor(z_t)
    p_t = softmax_values(z_t.values)
    return kl_alignment(p_t, softmax(z_hat))


def srd_mse(z_t, z_hat):
    """Squared logit distance, summed per sample, batch-meaned."""
    z_t = z_t if isinstance(z_t, Tensor) else Tensor(z_t)
    return mse(z_t.detach(), z_hat)


def srd_pmse(z_t, z_hat):
    """Squared probability distance between the two softmax outputs."""
    z_t = z_t if isinstance(z_t, Tensor) else Tensor(z_t)
    return mse(softmax_values(z_t.values), softmax(z_hat))


def srd_loss(variant, z_t, z_hat):
    if variant == "kl":
        return srd_kl(z_t, z_hat)
    if variant == "mse":
        return srd_mse(z_t, z_hat)
    if variant == "pmse":
        return srd_pmse(z_t, z_hat)
    raise ValueError(f"srd_loss: unknown variant {variant!r}")


def feature_reg(x_t, x_adapted):
    """Batch mean of the unsquared L2 gap between the feature spaces."""
    x_t = x_t if isinstance(x_t, Tensor) else Tensor(x_t)
    x_t = x_t.detach()
    if x_t.shape != x_adapted.shape:
        raise ValueError(
            f"feature_reg: shapes differ, {x_t.shape} vs {x_adapted.shape}")
    d = x_t - x_adapted
    per_row = sqrt(mul(d, d).sum(axis=-1))
    if per_row.ndim == 0:
        return per_row
    return per_row.mean()


def lr_at(base_lr, milestones, gamma, epoch):
    """Step-decay schedule: multiply by gamma at each milestone epoch."""
    lr = base_lr
    for m in milestones:
        if epoch >= m:
            lr *= gamma
    return lr


def pretrain_teacher(dataset, net, optim_params, epochs, floor=0.0, seed=0):
    """Stage 1: supervised training of the teacher on the labeled pool.

    Trains with cross-entropy under the configured schedule, checks the
    held-out (test pool) accuracy against ``floor``, and returns the
    network frozen. Zero epochs returns the initialized network, frozen;
    a missed floor raises ``AccuracyFloorError`` with the measured value.
    """
    from .metrics import evaluate_accuracy

    y = one_hot(dataset.labeled_y, dataset.params.classes)
    sampler = BatchSampler(optim_params.batch_size, 0, seed)
    opt = Sgd(net.parameters(), optim_params.lr, optim_params.momentum,
              optim_params.weight_decay)
    for epoch in range(epochs):
        opt.lr = lr_at(optim_params.lr, optim_params.milestones,
                       optim_params.gamma, epoch)
        for batch in sampler.epoch_batches(dataset.labeled_x, y,
                                           np.zeros((0, dataset.params.input_dim)),
                                           epoch):
            _, logits = net.forward(batch.labeled_x, train=True)
            loss = cross_entropy(softmax(logits), batch.labeled_y)
            backward(loss)
            opt.step()
    if epochs > 0:
        accuracy = evaluate_accuracy(net, dataset.test_x, dataset.test_y)
        if accuracy < floor:
            raise AccuracyFloorError(accuracy, floor)
    net.set_frozen(True)
    return net
