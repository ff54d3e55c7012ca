"""The package's shipped claims, one test per criterion.

Everything runs at full preset scale through ``harness.run``, as
``kdlab distill`` does, and the criteria read what it returns and the
files it writes, so a pass here means the advertised behavior, not a
trimmed stand-in. Each run is made once and shared across criteria. Each
test prints a single PASS/FAIL line with the measured numbers; run with
``-s`` to see them on passing runs too.
"""

import dataclasses
import os
import shutil
import tempfile
import time

import numpy as np
import pytest

from helpers import CHECKED_OPS, sweep_ops
from test_digests import PINS, fingerprint, sha16, skip_unless_pinned_here
from kdlab.autograd import Tensor, backward, matmul
from kdlab.config import load_config, override
from kdlab.data import generate
from kdlab.distill import srd_loss
from kdlab.harness import get_teacher, run, sweep, teacher_path
from kdlab.metrics import roc_auc
from kdlab.models import Classifier
from kdlab.optim import Sgd

pytestmark = pytest.mark.acceptance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = None  # the run tree, made by _work_tree once a criterion runs

_runs = {}


@pytest.fixture(scope="module", autouse=True)
def _work_tree():
    """Teacher cache and run directories, removed when the criteria are done."""
    global WORK
    WORK = tempfile.mkdtemp(prefix="kdlab-acceptance-")
    yield
    shutil.rmtree(WORK)


def _load(name):
    return load_config(os.path.join(ROOT, "presets", f"{name}.cfg"))


def _preset(name):
    return override(_load(name), cache_dir=os.path.join(WORK, "teacher-cache"),
                    out=os.path.join(WORK, name))


SEEDS = _load("standard").run.seeds


def _run(preset, mode, variant=None, use_unlabeled=True):
    """``harness.run`` over the preset's seeds, memoized across criteria."""
    cfg = override(_preset(preset), mode=mode, use_unlabeled=use_unlabeled)
    if variant is not None:
        cfg = dataclasses.replace(
            cfg, srd=dataclasses.replace(cfg.srd, variant=variant))
    # Keyed on the resolved variant: naming the preset's own one reuses its run.
    key = (preset, mode, cfg.srd.variant, use_unlabeled)
    if key not in _runs:
        _runs[key] = run(override(cfg, out=os.path.join(WORK, "-".join(map(str, key)))))
    return _runs[key]


def _per_seed(preset, mode, metric):
    return [row[metric] for row in _run(preset, mode)["per_seed"]]


def _csv(path):
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    return [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]


def _report(number, ok, detail):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_gradient_suite():
    t0 = time.time()
    worst = sweep_ops(seed=2024, instances_per_op=100)
    elapsed = time.time() - t0
    peak = max(worst.values())
    ok = peak < 1e-4 and elapsed < 30.0 and set(worst) == set(CHECKED_OPS)
    _report(1, ok, f"{len(worst)} ops x 100 instances, worst relative "
                   f"error {peak:.2e} (< 1e-4), {elapsed:.1f}s (< 30s)")


def test_criterion_02_logit_distance_identity():
    rng = np.random.default_rng(777)
    peak = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 10))
        k = int(rng.integers(d, d + 8))
        w = rng.standard_normal((d, k))
        x_t = rng.standard_normal((1, d))
        phi = rng.standard_normal((1, d))
        got = srd_loss("mse", x_t @ w, matmul(Tensor(phi), Tensor(w))).item()
        ref = float(np.sum(((x_t - phi) @ w) ** 2))
        peak = max(peak, abs(got - ref))
    ok = peak < 1e-9
    _report(2, ok, f"1000 instances, worst |srd_mse - weighted feature "
                   f"distance| = {peak:.2e} (< 1e-9)")


def test_criterion_03_feature_recovery():
    t0 = time.time()
    d, k = 6, 10
    clf = Classifier(d, k, np.random.default_rng(42))
    w = clf.weight.values
    assert np.linalg.matrix_rank(w) == d
    x_t = np.random.default_rng(7).standard_normal((1, d))
    z_t = x_t @ w
    free = Tensor(np.zeros((1, d)), requires_grad=True)
    opt = Sgd([free], lr=0.5, momentum=0.9)
    for _ in range(4000):
        backward(srd_loss("mse", z_t, matmul(free, Tensor(w))))
        opt.step()
    gap = float(np.max(np.abs(free.values - x_t)))
    elapsed = time.time() - t0
    ok = gap < 1e-6 and elapsed < 10.0
    _report(3, ok, f"free vector reached the teacher features within "
                   f"{gap:.2e} inf-norm (< 1e-6) in {elapsed:.1f}s (< 10s)")


def test_criterion_04_distillation_gain():
    sup = _run("standard", "supervised")["mean_top1"]
    srd = _run("standard", "srd")["mean_top1"]
    slowest = max(_per_seed("standard", "srd", "seconds"))
    gain = srd - sup
    ok = gain >= 0.010 and slowest < 120.0
    _report(4, ok, f"standard preset, {len(SEEDS)} seeds: srd "
                   f"{100 * srd:.2f}% vs supervised {100 * sup:.2f}%, gain "
                   f"{100 * gain:+.2f}pt (>= 1.0pt), slowest seed "
                   f"{slowest:.0f}s (< 120s)")


def test_criterion_05_variant_ordering():
    sup = _run("standard", "supervised")["mean_top1"]
    means = {v: _run("standard", "srd", variant=v)["mean_top1"]
             for v in ("mse", "kl", "pmse")}
    order = sorted(means, key=means.get, reverse=True)
    ok = all(m > sup for m in means.values())
    ranking = " > ".join(f"{v} {100 * means[v]:.2f}%" for v in order)
    _report(5, ok, f"all variants above supervised {100 * sup:.2f}%; "
                   f"observed ordering (recorded, not asserted): {ranking}")


def test_criterion_06_unlabeled_pool_gain():
    semi = _run("near", "srd")["mean_top1"]
    labeled_only = _run("near", "srd", use_unlabeled=False)["mean_top1"]
    margin = semi - labeled_only
    ok = margin >= 0.003
    _report(6, ok, f"near preset: distilling over the unlabeled pool "
                   f"{100 * semi:.2f}% vs labeled-only "
                   f"{100 * labeled_only:.2f}%, margin {100 * margin:+.2f}pt "
                   f"(>= 0.3pt)")


def test_criterion_07_mimicry_every_seed():
    pairs = list(zip(_per_seed("standard", "srd", "mimicry_kl"),
                     _per_seed("standard", "supervised", "mimicry_kl")))
    ok = all(srd < sup for srd, sup in pairs)
    worst = max(srd - sup for srd, sup in pairs)
    detail = ", ".join(f"seed{s} {a:.3f}<{b:.3f}"
                       for s, (a, b) in zip(SEEDS, pairs))
    _report(7, ok, f"teacher-agreement KL below supervised on every seed "
                   f"(worst margin {worst:+.3f}): {detail}")


def test_criterion_08_pseudo_label_failure():
    pairs = list(zip(_per_seed("openset", "pseudo_label", "top1"),
                     _per_seed("openset", "supervised", "top1")))
    ok = all(p < sup for p, sup in pairs)
    detail = ", ".join(f"seed{s} {100 * p:.2f}<{100 * sup:.2f}"
                       for s, (p, sup) in zip(SEEDS, pairs))
    _report(8, ok, f"open-set preset: pseudo labels score below supervised "
                   f"on every seed: {detail}")


def test_criterion_09_ood_filter_marginality():
    sup = _run("standard", "supervised")["mean_top1"]
    srd = _run("standard", "srd")["mean_top1"]
    deltas, aucs = [], []
    cfg = _preset("standard")
    ds = generate(cfg.dataset)
    _, ind = ds.unlabeled.eval_view()
    ood = _run("standard", "srd+ood")
    for row, srd_top1 in zip(ood["per_seed"], _per_seed("standard", "srd", "top1")):
        s = row["seed"]
        deltas.append(abs(row["top1"] - srd_top1))
        usage = _csv(os.path.join(ood["out"], f"usage_seed{s}.csv"))
        curve = _csv(os.path.join(ood["out"], f"usage_curve_seed{s}.csv"))
        assert len(usage) == len(curve) == cfg.run.epochs
        assert all(0.0 <= r["kept_frac"] <= 1.0 for r in curve)
        teacher, _ = get_teacher(cfg, ds, s)
        feats, _ = teacher.predict(ds.unlabeled.inputs)
        aucs.append(roc_auc(row["result"].detector.scores(feats), ind))
    mean_delta = float(np.mean(deltas))
    gain = srd - sup
    ok = mean_delta < gain and all(a > 0.5 for a in aucs)
    _report(9, ok, f"filter shifts srd by {100 * mean_delta:.2f}pt on "
                   f"average (< gain {100 * gain:.2f}pt); usage curves "
                   f"written; detector AUC per seed "
                   + ", ".join(f"{a:.2f}" for a in aucs) + " (all > 0.5)")


def test_criterion_10_consistency_term_degrades():
    srd = _run("standard", "srd")["mean_top1"]
    dac = _run("standard", "srd+dac")["mean_top1"]
    ok = dac <= srd
    _report(10, ok, f"standard preset: srd+dac {100 * dac:.2f}% <= srd "
                    f"{100 * srd:.2f}% ({100 * (dac - srd):+.2f}pt)")


def test_criterion_11_fraction_monotonicity():
    details = []
    ok = True
    for policy in ("random", "teacher_score"):
        cfg = override(_preset("standard"), mode="srd",
                       selection_policy=policy,
                       out=os.path.join(WORK, f"sweep-{policy}"))
        rows, trend_ok = sweep(cfg, fractions=(0.25, 0.5, 0.75, 1.0))
        ok = ok and trend_ok
        curve = ", ".join(f"{r['fraction']:.2f}:{100 * r['mean_top1']:.2f}%"
                          for r in rows)
        details.append(f"{policy} [{curve}] "
                       f"{'nondecreasing' if trend_ok else 'DIPS'}")
    _report(11, ok, "mean accuracy vs pool fraction, 0.2pt slack: "
                    + "; ".join(details))


def test_criterion_12_byte_identical_reruns():
    paths = []
    for name in ("rep-a", "rep-b"):
        cfg = override(_preset("standard"), seeds=(0,),
                       out=os.path.join(WORK, name))
        run(cfg)
        paths.append(cfg.run.out)
    files = ("metrics_seed0.csv", "summary.csv", "student_seed0.ckpt")
    same = all(
        open(os.path.join(paths[0], f), "rb").read()
        == open(os.path.join(paths[1], f), "rb").read() for f in files)
    _report(12, same, "standard preset re-run: metrics, summary and "
                      "checkpoint bytes identical across output directories")


# sha256[:16] of the standard preset's seed-0 teacher, unchanged since it was
# first cached; pinned under the fingerprint of tests/artifact_digests.json
STANDARD_TEACHER = "3d87c69c2e4570ac"


def test_standard_seed0_teacher_replays_its_pinned_bytes():
    skip_unless_pinned_here(PINS, fingerprint())
    cfg = _preset("standard")
    get_teacher(cfg, generate(cfg.dataset), 0)  # cached by the criteria above when they ran
    assert sha16(teacher_path(cfg, 0)) == STANDARD_TEACHER
