"""Orchestration: caching, run artifacts, comparison, sweeps, exit codes."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import kdlab
from kdlab import metrics
from kdlab.config import ConfigError, override, parse_config
from kdlab.data import generate
from kdlab.distill import DivergenceError
from kdlab.harness import (SUMMARY_HEADER, compare, compare_markdown,
                           get_teacher, read_summary, run, sweep,
                           teacher_cache_key, write_compare_csv)

TINY = """
[dataset]
seed = 4
input_dim = 6
classes = 4
unseen_classes = 2
overlap = 0.5
labeled_per_class = 12
unlabeled_per_class = 10
test_per_class = 10
components_per_class = 2
[teacher]
hidden = 24,24
feature_dim = 8
[student]
hidden = 8,8
feature_dim = 4
[optimizer]
lr = 0.05
batch_size = 8
unlabeled_batch_size = 8
milestones = 40
[run]
epochs = 2
teacher_epochs = 5
teacher_floor = 0.0
seeds = 0,1
"""


def _cfg(tmp_path, name="out", **updates):
    cfg = parse_config(TINY)
    return override(cfg, out=str(tmp_path / name),
                    cache_dir=str(tmp_path / "cache"), **updates)


def _python(args, cwd):
    # the child runs in cwd: put the tested kdlab first, every entry absolute
    root = os.path.dirname(os.path.dirname(os.path.abspath(kdlab.__file__)))
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    path = [root] + [os.path.abspath(p) for p in inherited if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, cwd=str(cwd),
                          env=env)
    return proc.returncode, proc.stdout, proc.stderr


def _cli(args, cwd):
    return _python(["-m", "kdlab", *args], cwd)


# the stage-1 cache
# -----------------

def test_cache_key_tracks_stage_one_inputs_only():
    base = parse_config(TINY)
    assert teacher_cache_key(base, 0) == teacher_cache_key(base, 0)
    assert teacher_cache_key(base, 0) != teacher_cache_key(base, 1)

    student_swap = parse_config(TINY.replace("hidden = 8,8", "hidden = 12,12"))
    assert teacher_cache_key(base, 0) == teacher_cache_key(student_swap, 0)
    assert teacher_cache_key(base, 0) == \
        teacher_cache_key(override(base, mode="kd", unlabeled_fraction=0.5), 0)

    teacher_swap = parse_config(TINY.replace("hidden = 24,24", "hidden = 20,20"))
    data_swap = parse_config(TINY.replace("seed = 4", "seed = 5"))
    epochs_swap = override(base, teacher_epochs=9)
    for other in (teacher_swap, data_swap, epochs_swap):
        assert teacher_cache_key(base, 0) != teacher_cache_key(other, 0)


def test_get_teacher_trains_once_then_loads(tmp_path):
    cfg = _cfg(tmp_path)
    ds = generate(cfg.dataset)
    first = get_teacher(cfg, ds, seed=0)
    cache = tmp_path / "cache"
    files = sorted(os.listdir(cache))
    assert len(files) == 1
    stamp = os.path.getmtime(cache / files[0])

    second = get_teacher(cfg, ds, seed=0)
    assert sorted(os.listdir(cache)) == files
    assert os.path.getmtime(cache / files[0]) == stamp
    sa, sb = first.state_arrays(), second.state_arrays()
    for name in sa:
        assert np.array_equal(sa[name], sb[name]), name
    assert second.frozen


# full runs
# ---------

def test_run_writes_the_complete_artifact_set(tmp_path):
    cfg = _cfg(tmp_path, mode="srd+ood")
    summary = run(cfg)
    out = tmp_path / "out"
    expected = {"resolved.cfg", "summary.csv",
                "metrics_seed0.csv", "metrics_seed1.csv",
                "usage_seed0.csv", "usage_seed1.csv",
                "usage_curve_seed0.csv", "usage_curve_seed1.csv",
                "student_seed0.ckpt", "student_seed1.ckpt"}
    assert set(os.listdir(out)) == expected

    rows = read_summary(str(out))
    assert [r["seed"] for r in rows] == [0, 1]
    means = np.mean([r["top1"] for r in rows])
    # summary aggregates agree with the per-seed rows after 6-digit rounding
    assert abs(summary["mean_top1"] - means) < 1e-6

    text = (out / "summary.csv").read_text().splitlines()
    assert text[0] == SUMMARY_HEADER
    assert text[-2].split(",")[2] == "mean"
    assert text[-1].split(",")[2] == "std"

    resolved = (out / "resolved.cfg").read_text()
    assert "mode = srd+ood" in resolved
    assert parse_config(resolved) == cfg


def test_plain_modes_emit_no_usage_files(tmp_path):
    run(_cfg(tmp_path, mode="supervised"))
    names = set(os.listdir(tmp_path / "out"))
    assert not any(n.startswith("usage") for n in names)


def test_identical_runs_are_byte_identical(tmp_path):
    """Same configuration, two output directories, equal file bytes."""
    run(_cfg(tmp_path, "a"))
    run(_cfg(tmp_path, "b"))
    for name in ("metrics_seed0.csv", "metrics_seed1.csv", "summary.csv",
                 "student_seed0.ckpt", "student_seed1.ckpt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_summary_write_that_fails_midway_leaves_no_file(tmp_path, monkeypatch):
    # The summary, then the first metrics CSV, fails after its header and
    # first cells are written; the files written before it stay. Only the
    # summary has string cells, so counting those reaches it.
    real_fmt = metrics.fmt
    for failed, written, counted in (("summary", "metrics_seed1.csv", str),
                                     ("metrics_seed0", "resolved.cfg", object)):
        calls = []

        def failing_fmt(value):
            if isinstance(value, counted):
                calls.append(value)
            if len(calls) > 3:
                raise OSError("disk full")
            return real_fmt(value)

        out = f"out-{failed}"
        with monkeypatch.context() as m:
            m.setattr(metrics, "fmt", failing_fmt)
            with pytest.raises(OSError, match="disk full"):
                run(_cfg(tmp_path, out))
        names = os.listdir(tmp_path / out)
        assert written in names, failed
        assert not [n for n in names if n.startswith(failed)], failed


def test_stage_two_replays_against_a_warm_cache(tmp_path):
    """Deleting run output and rerunning reuses teachers bit for bit."""
    cfg = _cfg(tmp_path)
    run(cfg)
    out = tmp_path / "out"
    first = (out / "metrics_seed0.csv").read_bytes()
    for name in os.listdir(out):
        os.remove(out / name)
    run(cfg)
    assert (out / "metrics_seed0.csv").read_bytes() == first


# comparison
# ----------

def test_compare_recomputes_aggregates_per_mode(tmp_path):
    run(_cfg(tmp_path, "sup", mode="supervised"))
    run(_cfg(tmp_path, "srd", mode="srd"))
    table = compare([str(tmp_path / "sup"), str(tmp_path / "srd")])
    assert [row["mode"] for row in table] == ["supervised", "srd"]
    for row in table:
        rows = read_summary(row["dir"])
        assert row["seeds"] == 2
        assert abs(row["top1_mean"] - np.mean([r["top1"] for r in rows])) < 1e-12

    md = compare_markdown(table)
    assert md.splitlines()[0].startswith("| mode |")
    assert "supervised" in md and "srd" in md

    path = tmp_path / "compare.csv"
    write_compare_csv(str(path), table)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("mode,seeds,")
    assert lines[1].split(",")[0] == "supervised"


def test_compare_refuses_mismatched_datasets(tmp_path):
    run(_cfg(tmp_path, "a"))
    other = parse_config(TINY.replace("seed = 4", "seed = 9"))
    run(override(other, out=str(tmp_path / "b"),
                 cache_dir=str(tmp_path / "cache2")))
    with pytest.raises(ValueError):
        compare([str(tmp_path / "a"), str(tmp_path / "b")])
    with pytest.raises(ConfigError, match="at least two"):
        compare([str(tmp_path / "a")])


def test_compare_requires_finished_runs(tmp_path):
    os.makedirs(tmp_path / "empty1")
    os.makedirs(tmp_path / "empty2")
    dirs = [str(tmp_path / "empty1"), str(tmp_path / "empty2")]
    with pytest.raises(ConfigError, match=r"empty1 is not a finished run directory "
                                           r"\(no resolved.cfg\)"):
        compare(dirs)
    (tmp_path / "empty1" / "resolved.cfg").write_text("")
    with pytest.raises(ConfigError, match=r"empty1 .*\(no summary.csv\)"):
        compare(dirs)


# sweeps
# ------

def test_sweep_reports_each_fraction(tmp_path):
    cfg = _cfg(tmp_path, "sweep", seeds=(0,))
    rows, trend_ok = sweep(cfg, fractions=(1.0, 0.5))
    out = tmp_path / "sweep"
    assert sorted(os.listdir(out)) == ["fraction_100", "fraction_50",
                                       "sweep.csv", "sweep_report.txt"]
    assert [r["fraction"] for r in rows] == [0.5, 1.0]
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "fraction,mean_top1,std_top1"
    assert len(lines) == 3
    report = (out / "sweep_report.txt").read_text()
    assert "policy: random" in report
    assert ("yes" in report) == trend_ok
    # each fraction ran as its own full run
    assert os.path.exists(out / "fraction_50" / "summary.csv")


# the command line
# ----------------

def test_cli_distill_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY)
    code, out, err = _cli(["distill", "--config", str(cfg_path),
                           "--out", str(tmp_path / "run")], cwd=tmp_path)
    assert code == 0, err
    assert os.path.exists(tmp_path / "run" / "summary.csv")
    # the relative cache default resolves against the working directory
    assert os.path.isdir(tmp_path / "runs" / "teacher-cache")


def test_cli_rejects_config_errors_with_code_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    # negative seeds used to pass the parser and die in numpy with exit 1
    for text in ("[dataset]\nclasses = one\n", "[run]\nseeds = -1\n",
                 "[dataset]\nseed = -2\n"):
        bad.write_text(text)
        code, out, err = _cli(["distill", "--config", str(bad)], cwd=tmp_path)
        assert code == 2, err
        assert "line 2" in err


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "config error: --seed: must be nonnegative"),
    (["--fraction", "1.5"], "config error: --fraction: must lie in (0, 1], got 1.5"),
    (["--mode", "wizardry"], "config error: --mode: must be one of "),
], ids=["seed", "fraction", "mode"])
def test_cli_flag_errors_name_the_flag(tmp_path, flags, message):
    code, out, err = _cli(["distill", *flags], cwd=tmp_path)
    assert code == 2, err
    assert err.startswith(message)
    assert os.listdir(tmp_path) == []


def test_cli_sweep_checks_every_fraction_before_training(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY)
    code, out, err = _cli(["sweep", "--config", str(cfg_path),
                           "--out", str(tmp_path / "sweep"),
                           "--fractions", "0.5,1.5"], cwd=tmp_path)
    assert code == 2, err
    assert err.startswith("config error: --fractions: must lie in (0, 1], got 1.5")
    # no teacher was cached and no fraction ran
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_cli_compare_of_missing_run_directories_exits_2(tmp_path):
    missing = str(tmp_path / "no" / "such")
    code, out, err = _cli(["compare", missing, missing + "-b"], cwd=tmp_path)
    assert code == 2, err
    assert missing in err and "resolved.cfg" in err
    # one directory is a usage problem too
    code, out, err = _cli(["compare", missing], cwd=tmp_path)
    assert code == 2, err
    assert err == "config error: compare: needs at least two run directories\n"


def test_cli_reports_a_missed_floor_with_code_3(tmp_path):
    cfg_path = tmp_path / "floor.cfg"
    cfg_path.write_text(TINY.replace("teacher_floor = 0.0",
                                     "teacher_floor = 0.999")
                        .replace("teacher_epochs = 5", "teacher_epochs = 1"))
    code, out, err = _cli(["distill", "--config", str(cfg_path),
                           "--out", str(tmp_path / "run")], cwd=tmp_path)
    assert code == 3, err
    assert "floor" in err.lower()


def test_cli_reports_divergence_with_code_4(tmp_path):
    cfg_path = tmp_path / "diverge.cfg"
    cfg_path.write_text(TINY.replace("lr = 0.05", "lr = 1e6"))
    code, out, err = _cli(["distill", "--config", str(cfg_path),
                           "--out", str(tmp_path / "run")], cwd=tmp_path)
    assert code == 4, err
    assert "srd seed 0 diverged at epoch" in err
    # the one report line, not numpy's overflow warnings on the way there
    assert "RuntimeWarning" not in err
    assert err.strip().splitlines() == [err.strip()]


def test_stage_one_divergence_names_the_trial_seed(tmp_path):
    cfg = _cfg(tmp_path)
    cfg = dataclasses.replace(cfg, optimizer=dataclasses.replace(cfg.optimizer, lr=1e15))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        get_teacher(cfg, generate(cfg.dataset), 1)
    assert (info.value.mode, info.value.seed, info.value.term) == ("pretrain", 1, "ce")
    assert str(info.value).startswith("pretrain seed 1 diverged at epoch ")


def test_autograd_walkthrough_demo_runs(tmp_path):
    """The demo calls the engine's public API; a change there must not break it unseen."""
    demo = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "demos", "autograd_walkthrough.py")
    code, out, err = _python([demo], cwd=tmp_path)
    assert code == 0, err
    assert "cross-entropy loss" in out and "step 4: loss" in out
    gap = float(out.split(" gap ")[1].split()[0])
    assert gap < 1e-6


def test_cli_generate_data_writes_the_dataset(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY)
    code, out, err = _cli(["generate-data", "--config", str(cfg_path),
                           "--out", str(tmp_path / "data")], cwd=tmp_path)
    assert code == 0, err
    names = set(os.listdir(tmp_path / "data"))
    assert {"labeled.csv", "test.csv", "unlabeled.csv",
            "unlabeled_eval.csv"} <= names
