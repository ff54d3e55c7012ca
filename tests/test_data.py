"""Dataset generation, augmentation, selection, batching, a dataset's arrays in
the named-array codec, CSV export."""

import dataclasses
import hashlib

import numpy as np
import pytest

from kdlab.config import ArchParams
from kdlab.data import (BatchSampler, DatasetParams, UnlabeledPool, augment,
                        export_csv, generate, one_hot, select_unlabeled)
from kdlab.fileio import load_arrays, save_arrays
from kdlab.models import make_network

SMALL = DatasetParams(seed=5, input_dim=6, classes=4, unseen_classes=3,
                      overlap=0.5, labeled_per_class=10, unlabeled_per_class=8,
                      test_per_class=6, components_per_class=2)


# generation
# ----------

def test_pool_composition_matches_counting_rule():
    """Unlabeled pool: round(overlap*K) seen classes plus all unseen ones."""
    for overlap, expect_seen in ((0.0, 0), (0.1, 0), (0.5, 2), (1.0, 4)):
        ds = generate(dataclasses.replace(SMALL, overlap=overlap))
        tags, flags = ds.unlabeled.eval_view()
        per = SMALL.unlabeled_per_class
        assert len(ds.unlabeled) == (expect_seen + SMALL.unseen_classes) * per
        assert int(flags.sum()) == expect_seen * per
        assert np.array_equal(flags, tags < SMALL.classes)
        unseen_tags = set(tags[~flags])
        assert unseen_tags == {SMALL.classes + j
                               for j in range(SMALL.unseen_classes)}


def test_labeled_and_test_pools_cover_each_class():
    ds = generate(SMALL)
    for k in range(SMALL.classes):
        assert int((ds.labeled_y == k).sum()) == SMALL.labeled_per_class
        assert int((ds.test_y == k).sum()) == SMALL.test_per_class
    assert ds.labeled_x.shape == (4 * 10, 6)
    assert ds.test_x.shape == (4 * 6, 6)


def test_generate_is_a_pure_function_of_params():
    a = generate(SMALL)
    b = generate(SMALL)
    assert np.array_equal(a.labeled_x, b.labeled_x)
    assert np.array_equal(a.test_x, b.test_x)
    assert np.array_equal(a.unlabeled.inputs, b.unlabeled.inputs)
    c = generate(dataclasses.replace(SMALL, seed=6))
    assert not np.array_equal(a.labeled_x, c.labeled_x)


def test_placement_changes_only_the_unseen_side():
    """Seen-class draws stay fixed while unseen geometry moves."""
    variants = [generate(dataclasses.replace(SMALL, unseen_placement=p))
                for p in ("mixed", "near", "far")]
    base = variants[0]
    for other in variants[1:]:
        assert np.array_equal(base.labeled_x, other.labeled_x)
        assert np.array_equal(base.labeled_y, other.labeled_y)
        assert np.array_equal(base.test_x, other.test_x)
        assert not np.array_equal(base.unlabeled.inputs,
                                  other.unlabeled.inputs)


def test_far_placement_sits_farther_out_than_near():
    # Mean distance from the labeled cloud separates the two regimes.
    center = generate(SMALL).labeled_x.mean(axis=0)
    dist = {}
    for p in ("near", "far"):
        ds = generate(dataclasses.replace(SMALL, unseen_placement=p,
                                          overlap=0.0))
        dist[p] = np.linalg.norm(ds.unlabeled.inputs - center, axis=1).mean()
    assert dist["far"] > 2.0 * dist["near"]


def test_empty_pool_when_nothing_is_unlabeled():
    ds = generate(dataclasses.replace(SMALL, overlap=0.0, unseen_classes=0,
                                      unlabeled_per_class=0))
    assert len(ds.unlabeled) == 0
    assert ds.unlabeled.inputs.shape == (0, SMALL.input_dim)


def test_param_validation():
    with pytest.raises(ValueError):
        generate(dataclasses.replace(SMALL, classes=1))
    with pytest.raises(ValueError):
        generate(dataclasses.replace(SMALL, overlap=1.5))
    with pytest.raises(ValueError):
        generate(dataclasses.replace(SMALL, unseen_placement="nowhere"))
    with pytest.raises(ValueError):
        generate(dataclasses.replace(SMALL, unlabeled_per_class=0))


def test_one_hot_rows():
    y = one_hot(np.array([2, 0]), 4)
    assert np.array_equal(y, [[0, 0, 1, 0], [1, 0, 0, 0]])


# augmentation
# ------------

def test_augment_strength_zero_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 4))
    assert np.array_equal(augment(x, 0.0, rng), x)


def test_augment_view_distribution_is_centered():
    """Monte Carlo over 10^4 draws: displacement mean 0, spread = strength."""
    rng = np.random.default_rng(55)
    strength = 0.7
    x = np.array([[0.3, -1.2, 2.0]])
    draws = np.stack([augment(x, strength, rng)[0] for _ in range(10000)])
    disp = draws - x[0]
    # 3 sigma bound on the empirical mean of N(0, strength^2)
    assert np.max(np.abs(disp.mean(axis=0))) < 3.0 * strength / 100.0
    assert np.max(np.abs(disp.std(axis=0) - strength)) < 0.05


def test_augment_replays_under_a_fixed_stream():
    x = np.ones((3, 2))
    a = augment(x, 0.5, np.random.default_rng(9))
    b = augment(x, 0.5, np.random.default_rng(9))
    assert np.array_equal(a, b)


# selection policies
# ------------------

def test_random_selection_size_and_determinism():
    ds = generate(SMALL)
    n = len(ds.unlabeled)
    for fraction in (0.25, 0.5, 0.75):
        sub = select_unlabeled(ds.unlabeled, fraction, "random", seed=4)
        assert len(sub) == round(fraction * n)
        assert np.array_equal(sub, np.unique(sub))
    a = select_unlabeled(ds.unlabeled, 0.5, "random", seed=4)
    b = select_unlabeled(ds.unlabeled, 0.5, "random", seed=4)
    assert np.array_equal(a, b)
    c = select_unlabeled(ds.unlabeled, 0.5, "random", seed=5)
    assert not np.array_equal(a, c)


def test_full_fraction_keeps_everything():
    ds = generate(SMALL)
    for policy in ("random", "teacher_score"):
        sub = select_unlabeled(ds.unlabeled, 1.0, policy)
        assert np.array_equal(sub, np.arange(len(ds.unlabeled)))


def test_teacher_score_matches_confidence_sort():
    """Kept rows are exactly the top-confidence rows, ties by index."""
    from kdlab.autograd import softmax_values

    ds = generate(SMALL)
    teacher = make_network(SMALL.input_dim, ArchParams((12, 12), 6, True),
                           SMALL.classes, seed=7)
    teacher.freeze()
    _, logits = teacher.predict(ds.unlabeled.inputs)
    conf = softmax_values(logits).max(axis=1)
    keep = round(0.5 * len(ds.unlabeled))
    expect = sorted(sorted(range(len(conf)), key=lambda i: (-conf[i], i))[:keep])
    sub = select_unlabeled(ds.unlabeled, 0.5, "teacher_score", logits)
    assert sub.tolist() == expect


def test_teacher_score_breaks_many_ties_by_pool_index():
    """Each row's logits are one of three patterns, so confidences tie in large
    groups and the cut falls inside one; the lowest pool indices stay."""
    from kdlab.autograd import softmax_values

    rng = np.random.default_rng(4)
    patterns = np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    logits = patterns[rng.integers(0, 3, 400)]
    pool = UnlabeledPool(np.zeros((400, 2)), np.zeros(400, dtype=np.int64),
                         np.ones(400, dtype=bool))
    conf = softmax_values(logits).max(axis=1)
    for fraction in (0.1, 0.5, 0.9):
        keep = round(fraction * 400)
        expect = sorted(sorted(range(400), key=lambda i: (-conf[i], i))[:keep])
        assert select_unlabeled(pool, fraction, "teacher_score", logits).tolist() == expect


def test_selection_rejects_bad_arguments():
    ds = generate(SMALL)
    empty = UnlabeledPool(np.zeros((0, SMALL.input_dim)), np.zeros(0, dtype=np.int64),
                          np.zeros(0, dtype=bool))
    with pytest.raises(ValueError):
        select_unlabeled(empty, 0.5, "random")
    with pytest.raises(ValueError):
        select_unlabeled(ds.unlabeled, 0.0, "random")
    with pytest.raises(ValueError):
        select_unlabeled(ds.unlabeled, 1.2, "random")
    with pytest.raises(ValueError):
        select_unlabeled(ds.unlabeled, 0.5, "teacher_score", logits=None)
    with pytest.raises(ValueError):
        select_unlabeled(ds.unlabeled, 0.5, "best_guesses")


# batching
# --------

def test_sampler_visits_each_labeled_row_exactly_once():
    n = 30
    sampler = BatchSampler(8, 0, seed=2)
    batches = list(sampler.epoch_batches(n, 0, epoch=0))
    assert len(batches) == sampler.epoch_length(n) == 4
    assert [len(rows) for rows, _ in batches] == [8, 8, 8, 6]
    seen = np.concatenate([rows for rows, _ in batches])
    assert sorted(seen.tolist()) == list(range(n))
    assert all(len(u_idx) == 0 for _, u_idx in batches)


def test_sampler_cycles_unlabeled_without_replacement():
    """Draw counts stay balanced and each cycle is replacement-free."""
    n, m = 24, 10
    sampler = BatchSampler(6, 7, seed=3)
    batches = list(sampler.epoch_batches(n, m, epoch=1))
    assert all(len(u_idx) == 7 for _, u_idx in batches)
    stream = np.concatenate([u_idx for _, u_idx in batches])
    assert len(stream) == 4 * 7
    counts = np.bincount(stream, minlength=m)
    assert counts.max() - counts.min() <= 1
    assert len(set(stream[:m].tolist())) == m


def test_sampler_is_a_pure_function_of_seed_and_epoch():
    def replay(seed, epoch):
        return list(BatchSampler(4, 3, seed).epoch_batches(16, 6, epoch))

    a = replay(11, 0)
    b = replay(11, 0)
    assert len(a) == len(b) == 4
    for (la, ua), (lb, ub) in zip(a, b):
        assert np.array_equal(la, lb)
        assert np.array_equal(ua, ub)
    c = replay(11, 1)
    assert any(not np.array_equal(la, lc) for (la, _), (lc, _) in zip(a, c))


def test_sampler_handles_missing_unlabeled_pool():
    sampler = BatchSampler(4, 5, seed=0)
    batches = list(sampler.epoch_batches(8, 0, epoch=0))
    assert sorted(np.concatenate([rows for rows, _ in batches]).tolist()) == list(range(8))
    for _, u_idx in batches:
        assert len(u_idx) == 0
        assert u_idx.dtype == np.int64


@pytest.mark.parametrize("args, digest", [
    ((32, 64, 0, 800, 2040), "fd94453dc1b14013"),  # the standard preset's shapes
    ((32, 64, 3, 800, 0), "36d5ea96203aae38"),
    ((6, 7, 3, 24, 10), "50a51f5f5797c37f"),
])
def test_sampler_index_stream_is_pinned(args, digest):
    """Epochs 0 and 1 of (batch, unlabeled batch, seed, labeled rows, pool rows).

    Every artifact depends on this stream, so any change to the draws or
    their order shows here first.
    """
    batch, unlabeled_batch, seed, n_labeled, n_pool = args
    sampler = BatchSampler(batch, unlabeled_batch, seed)
    h = hashlib.sha256()
    for epoch in (0, 1):
        for rows, u_idx in sampler.epoch_batches(n_labeled, n_pool, epoch):
            h.update(rows.astype(np.int64).tobytes() + b"|"
                     + u_idx.astype(np.int64).tobytes() + b";")
    assert h.hexdigest()[:16] == digest


# a dataset's arrays in the named-array codec
# -------------------------------------------
# The codec stores float64 only; the integer labels and tags and the boolean
# flags of a dataset must still come back exactly.

DATASET_MAGIC = "kdlab-dataset-test 1"
ARRAY_NAMES = ("labeled_x", "labeled_y", "test_x", "test_y", "unlabeled_x",
               "unlabeled_tags", "unlabeled_ind")


def _dataset_arrays(ds):
    return list(zip(ARRAY_NAMES, (ds.labeled_x, ds.labeled_y, ds.test_x, ds.test_y,
                                  ds.unlabeled.inputs, *ds.unlabeled.eval_view()),
                    strict=True))


def _saved(tmp_path):
    path = tmp_path / "ds.bin"
    save_arrays(str(path), DATASET_MAGIC, _dataset_arrays(generate(SMALL)))
    return path


def _load(path):
    return load_arrays(str(path), DATASET_MAGIC, "dataset")


def _edit_header(path, old, new):
    head, sep, payload = path.read_bytes().partition(b"data\n")
    assert old.encode() in head
    path.write_bytes(head.replace(old.encode(), new.encode(), 1) + sep + payload)


def test_dataset_roundtrip_is_bit_exact(tmp_path):
    ds = generate(SMALL)
    back = _load(_saved(tmp_path))
    assert list(back) == list(ARRAY_NAMES)
    for name, arr in _dataset_arrays(ds):
        assert back[name].shape == arr.shape, name
        assert np.array_equal(back[name], arr), name
    assert np.array_equal(back["labeled_y"].astype(np.int64), ds.labeled_y)
    assert np.array_equal(back["unlabeled_ind"].astype(bool), ds.unlabeled.eval_view()[1])


def test_dataset_loader_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not-a-dataset\ndata\n")
    with pytest.raises(ValueError, match=r"dataset: bad header in .*bad\.bin"):
        _load(path)


def test_dataset_loader_rejects_trailing_bytes(tmp_path):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError,
                       match=r"ds\.bin.*8 trailing bytes after array 'unlabeled_ind'"):
        _load(path)


def test_dataset_loader_rejects_a_short_payload(tmp_path):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError,
                       match=r"ds\.bin.*payload ends inside array 'unlabeled_ind'"):
        _load(path)


def test_dataset_loader_rejects_bad_values_and_repeats(tmp_path):
    rows, cols = generate(SMALL).test_x.shape
    path = _saved(tmp_path)
    _edit_header(path, f"test_x {rows} {cols}", f"test_x x {cols}")
    with pytest.raises(ValueError, match=r"ds\.bin.*bad value for array 'test_x'"):
        _load(path)
    path = _saved(tmp_path)
    _edit_header(path, f"test_x {rows} {cols}", f"test_x -{rows} {cols}")
    with pytest.raises(ValueError, match=r"ds\.bin.*bad value for array 'test_x'"):
        _load(path)
    path = _saved(tmp_path)
    _edit_header(path, "test_x ", "labeled_x ")
    with pytest.raises(ValueError, match=r"ds\.bin.*array 'labeled_x' appears twice"):
        _load(path)


def test_dataset_write_that_fails_midway_leaves_no_file(tmp_path):
    ds = generate(SMALL)
    path = tmp_path / "ds.bin"
    # The header and the labeled arrays are written before the test pool fails.
    broken = _dataset_arrays(dataclasses.replace(
        ds, test_x=np.full(ds.test_x.shape, "not a number", dtype=object)))
    with pytest.raises(ValueError):
        save_arrays(str(path), DATASET_MAGIC, broken)
    assert list(tmp_path.iterdir()) == []
    save_arrays(str(path), DATASET_MAGIC, _dataset_arrays(ds))
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_arrays(str(path), DATASET_MAGIC, broken)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# csv export
# ----------

def test_export_csv_row_counts_and_precision(tmp_path):
    ds = generate(SMALL)
    export_csv(ds, str(tmp_path))
    lines = (tmp_path / "labeled.csv").read_text().splitlines()
    assert lines[0].endswith(",label")
    assert len(lines) == 1 + len(ds.labeled_x)
    first = lines[1].split(",")
    assert np.allclose([float(v) for v in first[:-1]], ds.labeled_x[0],
                       rtol=0, atol=0)
    assert int(first[-1]) == ds.labeled_y[0]
    # the training-facing pool file must not leak provenance columns
    header = (tmp_path / "unlabeled.csv").read_text().splitlines()[0]
    assert "hidden" not in header and "ind" not in header
    eval_lines = (tmp_path / "unlabeled_eval.csv").read_text().splitlines()
    assert eval_lines[0].endswith(",hidden_class,is_ind")
    assert len(eval_lines) == 1 + len(ds.unlabeled)
