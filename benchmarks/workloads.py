"""The benchmark's workloads, their timed repeats and the artifact gate.

Every workload drives kdlab through its public API the way ``kdlab
distill`` does: parse a configuration, then ``harness.run``. Stage
times come from rebinding the two names ``harness.run`` calls for the
stages, ``pretrain_teacher`` and ``train_with_mode``, for the length of
a run; nothing else is wrapped in an untraced run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import statistics
import time
import traceback

from kdlab import config, data, harness, metrics

# The standard preset's dataset, restated so the benchmark's inputs do
# not move when the shipped preset files are edited.
STANDARD = """\
[dataset]
seed = 0
classes = 8
unseen_classes = 16
overlap = 0.1
unseen_placement = mixed
"""


@dataclasses.dataclass(frozen=True)
class Workload:
    """One set of inputs: config text, modes run in order, trial seeds.

    ``seeds_per_run`` trial seeds are drawn per benchmark seed ``n``:
    ``k*n, ..., k*n + k - 1``. A ``cached`` workload primes the teacher
    cache during set-up, so its timed region is stage 2 only. The first
    ``warmups`` repeats of a run are checked but not timed.
    """

    name: str
    text: str
    modes: tuple
    seeds_per_run: int
    cached: bool
    warmups: int = 0

    def trial_seeds(self, seed):
        k = self.seeds_per_run
        return tuple(range(k * seed, k * seed + k))

    def config(self, seed, mode, out, cache_dir):
        cfg = config.parse_config(self.text)
        return config.override(cfg, mode=mode, seeds=self.trial_seeds(seed),
                               out=out, cache_dir=cache_dir)


WORKLOADS = {w.name: w for w in (
    # kdlab distill as users run it, on the preset's five seeds at --seed 0:
    # stage 1 and stage 2 both run, and the independent seeds are where
    # seed-level parallelism can show.
    Workload("distill_cold", STANDARD, ("srd",), 5, cached=False),
    # Stage 2 only at the small preset batch: per-node Python overhead,
    # per-step teacher forwards and the mode code dominate. 20 of the preset's
    # 90 student epochs keep one repeat near 7 s, so a run holds a warm-up
    # repeat and several timed ones; the per-step work is the preset's.
    Workload("modes_cached", STANDARD + "[run]\nepochs = 20\n",
             ("supervised", "kd", "srd+ood", "srd+dac", "pseudo_label"), 1,
             cached=True, warmups=1),
)}


class StageClock:
    """Times the stage calls ``harness`` makes while installed.

    ``log`` collects ``(stage, seconds, steps)``; ``steps`` counts the
    student's optimizer steps of a stage-2 trial. ``between``, if given,
    runs after each stage call, outside the stage's time; ``paused``
    adds up the seconds it took, for callers to take out of their own
    times.
    """

    def __init__(self, between=None):
        self.log = []
        self.between = between
        self.paused = 0.0
        self._saved = []

    def __enter__(self):
        for attr, stage in (("pretrain_teacher", "stage1"),
                            ("train_with_mode", "stage2")):
            original = getattr(harness, attr)
            self._saved.append((attr, original))
            setattr(harness, attr, self._timed(stage, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            attr, original = self._saved.pop()
            setattr(harness, attr, original)
        return False

    def _timed(self, stage, fn):
        log = self.log

        @functools.wraps(fn)
        def timed(dataset, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(dataset, *args, **kwargs)
            seconds = time.perf_counter() - t0
            steps = 0
            if stage == "stage2":
                cfg = args[1] if len(args) > 1 else kwargs["cfg"]
                sampler = data.BatchSampler(cfg.optimizer.batch_size, 0, 0)
                steps = cfg.run.epochs * sampler.epoch_length(len(dataset.labeled_x))
            log.append((stage, seconds, steps))
            if self.between is not None:
                t1 = time.perf_counter()
                self.between()
                self.paused += time.perf_counter() - t1
            return out

        return timed

    def take(self):
        out = list(self.log)
        self.log.clear()
        return out


def set_up(workload, seed, work_dir):
    """Parse, generate the dataset and, if cached, prime the teacher cache.

    Returns the primed cache directory and the set-up's wall time.
    """
    t0 = time.perf_counter()
    cache_dir = os.path.join(work_dir, "cache")
    cfg = workload.config(seed, workload.modes[0], os.path.join(work_dir, "out"),
                          cache_dir)
    dataset = data.generate(cfg.dataset)
    if workload.cached:
        for s in cfg.run.seeds:
            harness.get_teacher(cfg, dataset, s)
    return cache_dir, time.perf_counter() - t0


@dataclasses.dataclass
class Trial:
    key: str
    digests: dict = None
    top1: float = None
    mimicry: float = None
    error: str = None


def run_repeat(workload, seed, work_dir, cache_dir):
    """One timed pass over the workload's modes; returns (wall_s, trials).

    The timed region runs from the first ``harness.run`` call until the
    last artifact is written; checking the artifacts comes after it.
    """
    if not workload.cached:
        cache_dir = os.path.join(work_dir, "cache")
    cfgs, errors = [], {}
    t0 = time.perf_counter()
    for mode in workload.modes:
        cfg = workload.config(seed, mode, os.path.join(work_dir, mode), cache_dir)
        try:
            cfgs.append((cfg, harness.run(cfg)))
        except Exception:  # a failed run counts against fail_frac
            errors[mode] = traceback.format_exc()
    wall = time.perf_counter() - t0

    trials = []
    for mode in workload.modes:
        for s in workload.trial_seeds(seed):
            trial = Trial(f"{mode}-seed{s}")
            trial.error = errors.get(mode)
            trials.append(trial)
    by_key = {t.key: t for t in trials}
    for cfg, summary in cfgs:
        for row in summary["per_seed"]:
            trial = by_key[f"{cfg.run.mode}-seed{row['seed']}"]
            try:
                check_trial(cfg, row, trial)
            except (OSError, ValueError) as exc:
                trial.error = f"{type(exc).__name__}: {exc}"
    return wall, trials


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_trial(cfg, row, trial):
    """Fill ``trial`` from one seed's artifacts; raise ValueError if wrong.

    Checks that every metrics-CSV value is finite and that the summary
    row on disk agrees with what ``harness.run`` returned.
    """
    out, seed = cfg.run.out, row["seed"]
    metrics_csv = os.path.join(out, f"metrics_seed{seed}.csv")
    with open(metrics_csv) as fh:
        fh.readline()
        for line in fh:
            if not all(math.isfinite(float(v)) for v in line.split(",")):
                raise ValueError(f"{metrics_csv}: non-finite value in {line.strip()!r}")
    expected = (f"{cfg.run.mode}-seed{seed},{cfg.run.mode},{seed},"
                f"{metrics.fmt(row['top1'])},{metrics.fmt(row['top5'])},"
                f"{metrics.fmt(row['mimicry_kl'])}")
    with open(os.path.join(out, "summary.csv")) as fh:
        if expected not in fh.read().splitlines():
            raise ValueError(f"summary.csv lacks the returned row {expected!r}")
    if not (0.0 < row["top1"] <= 1.0 and math.isfinite(row["mimicry_kl"])
            and row["mimicry_kl"] >= 0.0):
        raise ValueError(f"implausible result top1={row['top1']} "
                         f"mimicry_kl={row['mimicry_kl']}")
    teacher = os.path.join(cfg.run.cache_dir,
                           f"teacher-{harness.teacher_cache_key(cfg, seed)}.ckpt")
    trial.digests = {
        "metrics": sha256(metrics_csv),
        "summary": sha256(os.path.join(out, "summary.csv")),
        "student": sha256(os.path.join(out, f"student_seed{seed}.ckpt")),
        "teacher": sha256(teacher),
    }
    trial.top1 = row["top1"]
    trial.mimicry = row["mimicry_kl"]


class Reference:
    """Digests and counts from the first run of the same code, per seed.

    Kept as JSON files under the benchmark's work directory, keyed by a
    hash of the program and benchmark sources plus the environment, so
    later runs in the same checkout compare against the first one.
    """

    def __init__(self, directory, code_key, workload, seed):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, f"{code_key}-{workload}-seed{seed}.json")
        self.data = {}
        if os.path.exists(self.path):
            with open(self.path) as fh:
                self.data = json.load(fh)

    def check(self, section, values):
        """Record ``values`` if new; return the keys that differ from before."""
        known = self.data.setdefault(section, {})
        differ = sorted(k for k, v in values.items() if k in known and known[k] != v)
        added = {k: v for k, v in values.items() if k not in known}
        if added:
            known.update(added)
            tmp = self.path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(self.data, fh, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
        return differ


def gate(trials, reference, first):
    """Mark trials whose digests differ from the first repeat's.

    ``first`` maps trial key to digests from this run's first repeat;
    ``reference`` holds the first run of the same code in this checkout.
    """
    by_key = {t.key: t for t in trials if t.error is None}
    for key in reference.check("digests", {k: t.digests for k, t in by_key.items()}):
        by_key[key].error = "artifact digests differ from the first run of this code"
    for t in trials:
        if t.error is None:
            first.setdefault(t.key, t.digests)
            if first[t.key] != t.digests:
                t.error = "artifact digests differ from this run's first repeat"


def median(values):
    return statistics.median(values) if values else float("nan")


def mean(values):
    return statistics.fmean(values) if values else float("nan")
