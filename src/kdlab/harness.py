"""Experiment orchestration: cached stage 1, per-seed stage 2, reports.

A run writes into its output directory: the resolved configuration
echo, per-seed metric and usage CSVs, student checkpoints (holding the
adaptor too in the srd modes), and a summary table with per-seed rows
plus mean and std aggregates.
Nothing written depends on wall time, so identical configurations
produce byte-identical files.

Teacher pretraining is cached under a key derived from exactly what stage
1 reads, so unrelated settings (mode, fractions, policies, the unlabeled
batch size, the accuracy floor) reuse the same pretrained teachers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np

from .baselines import train_with_mode
from .config import ConfigError, format_config, load_config, override
from .data import SettingError, generate
from .distill import AccuracyFloorError, DivergenceError, pretrain_teacher
from .fileio import atomic_open
from .metrics import (fmt, mimicry_kl, summary_stats, top_k_accuracy, write_csv,
                      write_metrics_csv, write_usage_csv, write_usage_curve_csv)
from .models import build_teacher, load_checkpoint, save_checkpoint

SUMMARY_COLUMNS = ("run", "mode", "seed", "top1", "top5", "mimicry_kl")
SUMMARY_HEADER = ",".join(SUMMARY_COLUMNS)


def _stage1_inputs(cfg):
    """What stage 1 reads: dataset, teacher shape, optimizer (no pool rows), epochs."""
    return (cfg.dataset, cfg.teacher,
            dataclasses.replace(cfg.optimizer, unlabeled_batch_size=0),
            cfg.run.teacher_epochs)


def teacher_cache_key(cfg, seed):
    """The stage-1 inputs and the trial seed, hashed."""
    *parts, epochs = _stage1_inputs(cfg)
    payload = repr((*map(dataclasses.asdict, parts), epochs, int(seed)))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def teacher_path(cfg, seed):
    """Where the pretrained teacher of this config and trial seed is cached."""
    return os.path.join(cfg.run.cache_dir, f"teacher-{teacher_cache_key(cfg, seed)}.ckpt")


def get_teacher(cfg, dataset, seed):
    """This trial's teacher, loaded from the cache or trained and cached, frozen,
    and its logits on the held-out rows, forwarded once per trial. Either way,
    after nonzero teacher epochs, held-out accuracy below a nonzero
    ``teacher_floor`` raises ``AccuracyFloorError``; the teacher stays cached."""
    os.makedirs(cfg.run.cache_dir, exist_ok=True)
    path = teacher_path(cfg, seed)
    teacher = build_teacher(cfg, seed)
    cached = os.path.exists(path)
    if cached:
        teacher.load_state(load_checkpoint(path))
    else:
        _, _, optim_params, epochs = _stage1_inputs(cfg)
        stage1_seed = int(np.random.SeedSequence([int(seed), 0x7EAC]).generate_state(1)[0])
        try:
            pretrain_teacher(dataset, teacher, optim_params, epochs, seed=stage1_seed)
        except DivergenceError as exc:
            # Name the trial seed the config gave, not the batch-order seed derived from it.
            raise DivergenceError(exc.mode, seed, exc.epoch, exc.step, exc.term,
                                  exc.detail) from exc
        save_checkpoint(path, teacher.state_arrays())
    teacher.freeze()
    test_logits = teacher.predict(dataset.test_x)[1]
    if cfg.run.teacher_epochs and cfg.run.teacher_floor:
        accuracy = top_k_accuracy(test_logits, dataset.test_y, 1)
        if accuracy < cfg.run.teacher_floor:
            raise AccuracyFloorError(accuracy, cfg.run.teacher_floor)
    return teacher, test_logits


def run(cfg):
    """Both stages for every seed; returns the summary aggregates."""
    out = cfg.run.out
    os.makedirs(out, exist_ok=True)
    with atomic_open(os.path.join(out, "resolved.cfg"), "w") as fh:
        fh.write(format_config(cfg))

    dataset = generate(cfg.dataset)
    per_seed = []
    for seed in cfg.run.seeds:
        teacher, teacher_logits = get_teacher(cfg, dataset, seed)
        result = train_with_mode(dataset, teacher, cfg, seed)
        write_metrics_csv(os.path.join(out, f"metrics_seed{seed}.csv"), result.records)
        if result.usage:
            write_usage_csv(os.path.join(out, f"usage_seed{seed}.csv"), result.usage)
            write_usage_curve_csv(os.path.join(out, f"usage_curve_seed{seed}.csv"),
                                  result.usage)
        state = result.student.state_arrays()
        if result.adaptor is not None:
            state.update(result.adaptor.state_arrays())
        save_checkpoint(os.path.join(out, f"student_seed{seed}.ckpt"), state)
        per_seed.append({"seed": seed, "top1": result.top1, "top5": result.top5,
                         "mimicry_kl": mimicry_kl(teacher_logits, result.test_logits)})

    mode = cfg.run.mode
    stats = _aggregates(per_seed)
    rows = [{"run": f"{mode}-seed{r['seed']}", "mode": mode, **r} for r in per_seed]
    rows += [{"run": mode, "mode": mode, "seed": name,
              **{metric: pair[i] for metric, pair in stats.items()}}
             for i, name in enumerate(("mean", "std"))]
    write_csv(os.path.join(out, "summary.csv"), SUMMARY_COLUMNS, rows)

    (mean1, std1), (mean5, std5), (meank, stdk) = stats.values()
    return {"out": out, "mode": mode, "per_seed": per_seed,
            "mean_top1": mean1, "std_top1": std1,
            "mean_top5": mean5, "std_top5": std5,
            "mean_mimicry": meank, "std_mimicry": stdk}


def _aggregates(rows):
    """(mean, std) of each summary metric over per-seed rows."""
    return {metric: summary_stats([r[metric] for r in rows])
            for metric in SUMMARY_COLUMNS[3:]}


def read_summary(run_dir):
    """Per-seed rows of a finished run's summary table; a row with the wrong
    field count or a non-numeric value raises ``ValueError`` naming its line."""
    path = os.path.join(run_dir, "summary.csv")
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != SUMMARY_HEADER:
            raise ValueError(f"unexpected summary header in {path}: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if len(cells) != len(SUMMARY_COLUMNS):
                raise ValueError(f"{path}: line {lineno}: expected {len(SUMMARY_COLUMNS)} "
                                 f"fields, got {len(cells)}")
            row = dict(zip(SUMMARY_COLUMNS, cells))
            aggregate = row["seed"] in ("mean", "std")
            for key in SUMMARY_COLUMNS[3:] if aggregate else SUMMARY_COLUMNS[2:]:
                try:
                    row[key] = (int if key == "seed" else float)(row[key])
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: {key} {row[key]!r} "
                                     f"is not a number") from None
            if not aggregate:
                rows.append(row)
    return rows


def compare(run_dirs):
    """Aligned per-mode table over finished runs of one dataset.

    Refuses to mix runs whose dataset parameters (seed included) differ;
    aggregates are recomputed from the per-seed rows. Fewer than two
    directories, or one without ``resolved.cfg`` or ``summary.csv``, raise
    ``ConfigError``.
    """
    if len(run_dirs) < 2:
        raise ConfigError("compare: needs at least two run directories")
    loaded = []
    for d in run_dirs:
        for name in ("resolved.cfg", "summary.csv"):
            if not os.path.isfile(os.path.join(d, name)):
                raise ConfigError(f"compare: {d} is not a finished run directory "
                                  f"(no {name})")
        loaded.append((d, load_config(os.path.join(d, "resolved.cfg")), read_summary(d)))
    reference = loaded[0][1].dataset
    for d, cfg, _ in loaded[1:]:
        for field in dataclasses.fields(reference):
            ours, theirs = getattr(cfg.dataset, field.name), getattr(reference, field.name)
            if ours != theirs:
                raise ValueError(f"compare: {d} ran on different dataset parameters "
                                 f"({field.name} {ours} vs {theirs})")
    table = []
    for d, cfg, rows in loaded:
        (m1, s1), (m5, s5), (mk, sk) = _aggregates(rows).values()
        table.append({"dir": d, "mode": cfg.run.mode, "seeds": len(rows),
                      "top1_mean": m1, "top1_std": s1,
                      "top5_mean": m5, "top5_std": s5,
                      "mimicry_mean": mk, "mimicry_std": sk})
    return table


def compare_markdown(table):
    lines = ["| mode | seeds | top1 | top5 | mimicry KL |",
             "| --- | --- | --- | --- | --- |"]
    for row in table:
        lines.append(
            f"| {row['mode']} | {row['seeds']} "
            f"| {100 * row['top1_mean']:.2f} ± {100 * row['top1_std']:.2f} "
            f"| {100 * row['top5_mean']:.2f} ± {100 * row['top5_std']:.2f} "
            f"| {row['mimicry_mean']:.4f} ± {row['mimicry_std']:.4f} |")
    return "\n".join(lines)


def write_compare_csv(path, table):
    cols = ("mode", "seeds", "top1_mean", "top1_std", "top5_mean", "top5_std",
            "mimicry_mean", "mimicry_std")
    write_csv(path, cols, table)


SWEEP_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
SWEEP_SLACK = 0.002  # fraction units; 0.2 accuracy points


def sweep(cfg, fractions=SWEEP_FRACTIONS):
    """Train at each unlabeled fraction and check the accuracy trend.

    Entries run sequentially in config order (each is internally
    single threaded); results land under the run's output directory as
    ``sweep.csv`` plus a trend report, each fraction in ``fraction_N`` (N
    its rounded percentage). A fraction out of range or sharing its
    directory raises ``SettingError`` before any trains. Returns (rows, trend_ok).
    """
    out = cfg.run.out
    # every fraction's config and run directory is checked before any of them trains
    subs, taken = [], {}
    for fraction in map(float, fractions):
        sub = override(cfg, unlabeled_fraction=fraction)
        name = f"fraction_{int(round(100 * fraction))}"
        if name in taken:
            raise SettingError("fractions", f"{fmt(fraction)} appears twice"
                               if taken[name] == fraction else
                               f"{fmt(taken[name])} and {fmt(fraction)} share {name}")
        taken[name] = fraction
        subs.append(override(sub, out=os.path.join(out, name)))
    os.makedirs(out, exist_ok=True)
    rows = []
    for fraction, sub in zip(fractions, subs):
        summary = run(sub)
        rows.append({"fraction": float(fraction),
                     "mean_top1": summary["mean_top1"],
                     "std_top1": summary["std_top1"]})
    rows.sort(key=lambda r: r["fraction"])
    trend_ok = all(rows[i + 1]["mean_top1"] >= rows[i]["mean_top1"] - SWEEP_SLACK
                   for i in range(len(rows) - 1))
    write_csv(os.path.join(out, "sweep.csv"), ("fraction", "mean_top1", "std_top1"), rows)
    with atomic_open(os.path.join(out, "sweep_report.txt"), "w") as fh:
        fh.write(f"policy: {cfg.run.selection_policy}\n")
        fh.write("fractions: " + ", ".join(fmt(r["fraction"]) for r in rows) + "\n")
        fh.write("mean top1 (%): "
                 + ", ".join(f"{100 * r['mean_top1']:.2f}" for r in rows) + "\n")
        fh.write(f"trend nondecreasing within 0.2 points: {'yes' if trend_ok else 'no'}\n")
    return rows, trend_ok
