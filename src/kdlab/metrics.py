"""Evaluation: accuracies, prediction agreement, usage curves, dumps.

CSV conventions: metric files format floats with 6 significant digits;
feature dumps use 17 so parsed values match the originals.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from .autograd import LOG_FLOOR, no_grad, softmax_values
from .fileio import atomic_open

METRICS_COLUMNS = ("epoch", "ce", "srd", "reg", "total", "train_acc", "test_acc")
USAGE_COLUMNS = ("epoch", "kept_ind", "kept_ood", "dropped_ind", "dropped_ood")


def fmt(x):
    """6-significant-digit float formatting shared by the metric CSVs."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.6g}"


def top_k_accuracy(logits, labels, k=1):
    """Fraction of rows whose label ranks in the k largest logits.

    Equal logits rank by class index, lowest first, so the result does
    not depend on sort internals.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or len(logits) != len(labels):
        raise ValueError(f"top_k_accuracy: bad shapes {logits.shape} vs {labels.shape}")
    if len(logits) == 0:
        raise ValueError("top_k_accuracy: empty batch")
    if not 1 <= k <= logits.shape[1]:
        raise ValueError(f"top_k_accuracy: k={k} outside [1, {logits.shape[1]}]")
    order = np.argsort(-logits, axis=1, kind="stable")
    hits = (order[:, :k] == labels[:, None]).any(axis=1)
    return float(hits.mean())


def evaluate_accuracy(net, x, y):
    with no_grad():
        _, logits = net.forward(x)
    return top_k_accuracy(logits.values, y, 1)


def mimicry_kl(teacher, student, x):
    """Mean KL(teacher predictions || student predictions) over ``x``.

    Zero when the two networks predict identically; lower means the
    student tracks the teacher's full output distribution more closely.
    """
    with no_grad():
        _, zt = teacher.forward(x)
        _, zs = student.forward(x)
    pt = softmax_values(zt.values)
    ps = softmax_values(zs.values)
    log_ratio = np.log(np.maximum(pt, LOG_FLOOR)) - np.log(np.maximum(ps, LOG_FLOOR))
    return float((pt * log_ratio).sum(axis=-1).mean())


def roc_auc(scores, positive):
    """Rank-statistic ROC-AUC with midrank tie handling."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc: needs both positive and negative samples")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    ranks[order] = np.arange(1, len(scores) + 1)
    # Midranks for tied scores keep the statistic exact.
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    u = ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclasses.dataclass
class MetricsRecord:
    """One epoch of one trial: loss components and accuracies."""

    run: str
    mode: str
    seed: int
    epoch: int
    ce: float
    srd: float
    reg: float
    total: float
    train_acc: float
    test_acc: float


def write_csv(path, columns, rows):
    """A header line, then each row's ``columns`` as ``fmt`` cells; atomic."""
    with atomic_open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row[c]) for c in columns) + "\n")


def write_metrics_csv(path, records):
    """Per-epoch loss/accuracy table in the fixed column order."""
    write_csv(path, METRICS_COLUMNS, [vars(r) for r in records])


def write_usage_csv(path, rows):
    """Per-epoch kept/dropped counts split by the hidden IND/OOD flags."""
    write_csv(path, USAGE_COLUMNS, rows)


def usage_curve(rows):
    """Kept proportions per epoch, overall and split by IND/OOD."""
    out = []
    for row in rows:
        kept = row["kept_ind"] + row["kept_ood"]
        total = kept + row["dropped_ind"] + row["dropped_ood"]
        n_ind = row["kept_ind"] + row["dropped_ind"]
        n_ood = row["kept_ood"] + row["dropped_ood"]
        out.append({
            "epoch": row["epoch"],
            "kept_frac": kept / total if total else 0.0,
            "ind_kept_frac": row["kept_ind"] / n_ind if n_ind else 0.0,
            "ood_kept_frac": row["kept_ood"] / n_ood if n_ood else 0.0,
        })
    return out


def write_usage_curve_csv(path, rows):
    write_csv(path, ("epoch", "kept_frac", "ind_kept_frac", "ood_kept_frac"),
              usage_curve(rows))


def feature_dump(net, x, labels, path):
    """CSV of feature rows with labels; values survive a parse round trip."""
    with no_grad():
        feats, _ = net.forward(x)
    values = feats.values
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with atomic_open(path, "w") as fh:
        fh.write(",".join(f"f{i}" for i in range(values.shape[1])) + ",label\n")
        for row, label in zip(values, labels):
            fh.write(",".join(f"{v:.17g}" for v in row) + f",{int(label)}\n")


def summary_stats(per_seed):
    """Mean and sample std of a list of floats (std 0 for one value)."""
    arr = np.asarray(per_seed, dtype=np.float64)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std
