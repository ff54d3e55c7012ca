"""Metric oracles and the CSV writers."""

import dataclasses

import numpy as np
import pytest

from kdlab.config import ArchParams
from kdlab.metrics import (METRICS_COLUMNS, MetricsRecord, USAGE_COLUMNS,
                           feature_dump, fmt, mimicry_kl, roc_auc, summary_stats,
                           top_k_accuracy, usage_curve, write_metrics_csv,
                           write_usage_csv, write_usage_curve_csv)
from kdlab.models import make_network


# accuracies
# ----------

def test_top_k_matches_a_brute_force_count():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, c = int(rng.integers(3, 30)), int(rng.integers(3, 8))
        logits = rng.standard_normal((n, c))
        labels = rng.integers(0, c, n)
        for k in (1, 2, c):
            hits = 0
            for i in range(n):
                ranks = sorted(range(c), key=lambda j: (-logits[i, j], j))
                hits += labels[i] in ranks[:k]
            assert top_k_accuracy(logits, labels, k) == hits / n


def test_tied_logits_rank_by_class_index():
    logits = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]])
    # row 0: tie between classes 0 and 1 resolves to 0
    assert top_k_accuracy(logits, np.array([0, 1]), k=1) == 1.0
    assert top_k_accuracy(logits, np.array([1, 2]), k=1) == 0.0
    assert top_k_accuracy(logits, np.array([1, 2]), k=2) == 1.0


def test_many_tied_logits_rank_by_class_index():
    """Rows of three distinct values, so an unstable sort would reorder ties."""
    rng = np.random.default_rng(11)
    logits = rng.integers(0, 3, (200, 8)).astype(float)
    labels = rng.integers(0, 8, 200)
    for k in range(1, 8):
        hits = sum(int(labels[i]) in sorted(range(8), key=lambda j: (-logits[i, j], j))[:k]
                   for i in range(len(logits)))
        assert top_k_accuracy(logits, labels, k) == hits / len(logits), k


def test_top_k_argument_checks():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError):
        top_k_accuracy(logits, np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        top_k_accuracy(logits, np.zeros(2, dtype=int), k=4)
    with pytest.raises(ValueError):
        top_k_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))


# agreement with the teacher
# --------------------------

def test_mimicry_is_zero_against_itself():
    net = make_network(5, ArchParams((8,), 4, True), 3, seed=1)
    net.freeze()
    z = net.predict(np.random.default_rng(0).standard_normal((20, 5)))[1]
    assert abs(mimicry_kl(z, z)) < 1e-12


def test_mimicry_matches_a_softmax_oracle():
    rng = np.random.default_rng(7)
    t = make_network(5, ArchParams((8,), 4, True), 3, seed=1)
    s = make_network(5, ArchParams((6,), 4, True), 3, seed=2)
    t.freeze()
    s.freeze()
    x = rng.standard_normal((15, 5))
    from kdlab.autograd import softmax_values

    zt, zs = t.predict(x)[1], s.predict(x)[1]
    pt, ps = softmax_values(zt), softmax_values(zs)
    ref = (pt * (np.log(pt) - np.log(ps))).sum(axis=1).mean()
    assert abs(mimicry_kl(zt, zs) - ref) < 1e-10
    assert mimicry_kl(zt, zs) > 0.0
    # teacher first: the divergence is not symmetric
    assert mimicry_kl(zs, zt) != mimicry_kl(zt, zs)


# ranking
# -------

def test_roc_auc_extremes_and_symmetry():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    truth = np.array([True, True, False, False])
    assert roc_auc(scores, truth) == 1.0
    assert roc_auc(scores, ~truth) == 0.0
    assert roc_auc(np.array([0.5, 0.5]), np.array([True, False])) == 0.5


def test_roc_auc_matches_pairwise_counting_with_ties():
    """Midrank handling equals the win/half-tie pair statistic."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        # coarse grid forces plenty of exact ties
        scores = rng.integers(0, 5, n) / 4.0
        truth = rng.random(n) < 0.5
        if truth.all() or not truth.any():
            continue
        pos, neg = scores[truth], scores[~truth]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        ref = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert abs(roc_auc(scores, truth) - ref) < 1e-12


def test_roc_auc_needs_both_classes():
    with pytest.raises(ValueError):
        roc_auc(np.array([0.1, 0.9]), np.array([True, True]))


# aggregation and files
# ---------------------

def test_summary_stats_oracle():
    mean, std = summary_stats([1.0, 2.0, 3.0, 4.0])
    assert mean == 2.5
    assert abs(std - np.std([1, 2, 3, 4], ddof=1)) < 1e-15
    assert summary_stats([0.7]) == (0.7, 0.0)


def test_fmt_is_six_significant_digits():
    assert fmt(0.123456789) == "0.123457"
    assert fmt(7) == "7"
    assert fmt(True) == "1"
    assert fmt(False) == "0"
    assert fmt(np.bool_(True)) == "1"
    assert fmt(np.bool_(False)) == "0"
    assert fmt(1e-7) == "1e-07"


def test_usage_curve_recounts_the_rows():
    rows = [{"epoch": 0, "kept_ind": 6, "kept_ood": 2,
             "dropped_ind": 2, "dropped_ood": 10},
            {"epoch": 1, "kept_ind": 0, "kept_ood": 0,
             "dropped_ind": 8, "dropped_ood": 12}]
    curve = usage_curve(rows)
    assert curve[0]["kept_frac"] == 8 / 20
    assert curve[0]["ind_kept_frac"] == 6 / 8
    assert curve[0]["ood_kept_frac"] == 2 / 12
    assert curve[1]["kept_frac"] == 0.0


def test_metrics_csv_fixed_column_order(tmp_path):
    rec = MetricsRecord(epoch=3, ce=0.5, srd=0.25, reg=1.5, total=2.25,
                        train_acc=0.75, test_acc=0.5)
    # the record holds exactly the columns it writes
    assert tuple(f.name for f in dataclasses.fields(MetricsRecord)) == METRICS_COLUMNS
    path = tmp_path / "metrics.csv"
    write_metrics_csv(str(path), [rec])
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert lines[1] == "3,0.5,0.25,1.5,2.25,0.75,0.5"


def test_usage_csvs_round_trip(tmp_path):
    rows = [{"epoch": 0, "kept_ind": 3, "kept_ood": 1,
             "dropped_ind": 1, "dropped_ood": 7}]
    upath = tmp_path / "usage.csv"
    write_usage_csv(str(upath), rows)
    lines = upath.read_text().splitlines()
    assert lines[0] == ",".join(USAGE_COLUMNS)
    assert lines[1] == "0,3,1,1,7"
    cpath = tmp_path / "curve.csv"
    write_usage_curve_csv(str(cpath), rows)
    header, row = cpath.read_text().splitlines()
    assert header == "epoch,kept_frac,ind_kept_frac,ood_kept_frac"
    assert row.split(",")[1] == fmt(4 / 12)


def test_feature_dump_survives_a_parse_round_trip(tmp_path):
    """17-digit formatting reproduces the arrays to near machine epsilon."""
    net = make_network(6, ArchParams((8,), 5, True), 3, seed=3)
    net.freeze()
    rng = np.random.default_rng(13)
    x = rng.standard_normal((12, 6))
    labels = rng.integers(0, 3, 12)
    path = tmp_path / "feats.csv"
    feature_dump(net, x, labels, str(path))
    feats, _ = net.predict(x)
    lines = path.read_text().splitlines()
    assert lines[0] == "f0,f1,f2,f3,f4,label"
    assert len(lines) == 13
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        parsed = np.array([float(v) for v in cells[:-1]])
        assert np.max(np.abs(parsed - feats[i])) < 1e-12
        assert int(cells[-1]) == labels[i]
