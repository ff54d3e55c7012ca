"""Orchestration: caching, run artifacts, comparison, sweeps, exit codes."""

import ast
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kdlab
import mutants
from kdlab import cli, harness, metrics, models
from kdlab.config import ConfigError, override, parse_config
from kdlab.data import POLICIES, SettingError, generate
from kdlab.distill import MODES, AccuracyFloorError, DivergenceError
from kdlab.harness import (SUMMARY_HEADER, compare, compare_markdown,
                           get_teacher, read_summary, run, sweep,
                           teacher_cache_key, teacher_path, write_compare_csv)
from kdlab.models import build_teacher

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

def _optimizer(cfg, **updates):
    return dataclasses.replace(cfg, optimizer=dataclasses.replace(cfg.optimizer, **updates))


def test_cache_key_tracks_stage_one_inputs_only():
    base = parse_config(TINY)
    key = teacher_cache_key(base, 0)
    assert key == teacher_cache_key(base, 0)

    # what stage 1 never reads keeps the key
    same = [parse_config(TINY.replace("hidden = 8,8", "hidden = 12,12")),
            override(base, mode="kd", unlabeled_fraction=0.5),
            override(base, teacher_floor=0.5), _optimizer(base, unlabeled_batch_size=7)]
    for other in same:
        assert teacher_cache_key(other, 0) == key

    # every stage-1 input changes it, the trial seed included
    changed = [parse_config(TINY.replace("seed = 4", "seed = 5")),
               parse_config(TINY.replace("hidden = 24,24", "hidden = 20,20")),
               _optimizer(base, lr=0.04), _optimizer(base, batch_size=9),
               _optimizer(base, milestones=(3,)), override(base, teacher_epochs=9)]
    keys = [teacher_cache_key(other, 0) for other in changed] + [teacher_cache_key(base, 1)]
    assert len(set(keys + [key])) == len(keys) + 1


def _count_pretraining(monkeypatch):
    calls = []
    original = harness.pretrain_teacher
    monkeypatch.setattr(harness, "pretrain_teacher",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    return calls


def _checked(got, ds):
    """``get_teacher``'s teacher, once it is frozen and its held-out logits are its own."""
    teacher, test_logits = got
    assert teacher.frozen
    assert all(not p.requires_grad and p.grad is None for p in teacher.parameters())
    assert np.array_equal(test_logits, teacher.predict(ds.test_x)[1])
    return teacher


def test_get_teacher_trains_once_then_loads(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path)
    ds = generate(cfg.dataset)
    calls = _count_pretraining(monkeypatch)
    first = _checked(get_teacher(cfg, ds, seed=0), ds)
    cache = tmp_path / "cache"
    files = sorted(os.listdir(cache))
    assert len(files) == 1
    stamp = os.path.getmtime(cache / files[0])

    second = _checked(get_teacher(cfg, ds, seed=0), ds)
    assert len(calls) == 1
    assert sorted(os.listdir(cache)) == files
    assert os.path.getmtime(cache / files[0]) == stamp
    sa, sb = first.state_arrays(), second.state_arrays()
    for name in sa:
        assert np.array_equal(sa[name], sb[name]), name


def test_get_teacher_passes_an_easy_floor_frozen_on_both_paths(tmp_path):
    cfg = _cfg(tmp_path, teacher_epochs=10, teacher_floor=0.5)
    ds = generate(cfg.dataset)
    for _ in ("trained", "cached"):
        _checked(get_teacher(cfg, ds, seed=0), ds)


@pytest.mark.parametrize("part, field, values", [
    ("run", "teacher_floor", (0.0, 0.5)),
    ("optimizer", "unlabeled_batch_size", (64, 7)),
], ids=["teacher_floor", "unlabeled_batch_size"])
def test_settings_stage_one_never_reads_share_one_cached_teacher(tmp_path, monkeypatch,
                                                                   part, field, values):
    base = _cfg(tmp_path, teacher_epochs=10)
    first, second = [dataclasses.replace(base, **{part: dataclasses.replace(
        getattr(base, part), **{field: value})}) for value in values]
    ds = generate(base.dataset)
    get_teacher(first, ds, seed=0)
    calls = _count_pretraining(monkeypatch)
    get_teacher(second, ds, seed=0)
    assert calls == []
    assert len(os.listdir(tmp_path / "cache")) == 1


def test_get_teacher_raises_on_a_missed_floor_cached_or_fresh(tmp_path, monkeypatch):
    """A teacher below its floor stays cached: a rerun fails at once, a lower floor reuses it."""
    cfg = _cfg(tmp_path, teacher_epochs=1, teacher_floor=0.999)
    ds = generate(cfg.dataset)
    with pytest.raises(AccuracyFloorError) as fresh:
        get_teacher(cfg, ds, seed=0)
    assert fresh.value.floor == 0.999
    assert 0.0 <= fresh.value.accuracy < 0.999
    assert len(os.listdir(tmp_path / "cache")) == 1

    calls = _count_pretraining(monkeypatch)
    with pytest.raises(AccuracyFloorError) as cached:
        get_teacher(cfg, ds, seed=0)
    assert cached.value.accuracy == fresh.value.accuracy
    _checked(get_teacher(override(cfg, teacher_floor=0.0), ds, seed=0), ds)
    assert calls == []


def test_zero_teacher_epochs_hand_out_the_frozen_init_unchecked(tmp_path):
    cfg = _cfg(tmp_path, teacher_epochs=0, teacher_floor=0.999)
    ds = generate(cfg.dataset)
    init = build_teacher(cfg, 9)
    for _ in ("trained", "cached"):
        net = _checked(get_teacher(cfg, ds, seed=9), ds)
        sa, sb = net.state_arrays(), init.state_arrays()
        for name in sa:
            assert np.array_equal(sa[name], sb[name]), name


# full runs
# ---------

@pytest.mark.parametrize("mode, adaptors", [("srd", ["adaptor"]), ("supervised", [])],
                         ids=["srd", "supervised"])
def test_a_trial_builds_each_network_once(tmp_path, monkeypatch, mode, adaptors):
    """One seed: one teacher, one student and, only where srd reads it, one
    adaptor, none built to be dropped."""
    built = []
    make_network, adaptor = models.make_network, models.Adaptor

    def network(input_dim, arch, classes, seed):
        built.append(arch)
        return make_network(input_dim, arch, classes, seed)

    def counted_adaptor(*args):
        built.append("adaptor")
        return adaptor(*args)

    monkeypatch.setattr(models, "make_network", network)
    monkeypatch.setattr(models, "Adaptor", counted_adaptor)
    cfg = _cfg(tmp_path, mode=mode, seeds=(0,))
    run(cfg)
    assert built == [cfg.teacher, cfg.student, *adaptors]


@pytest.mark.parametrize("mode", MODES)
def test_a_checkpoint_holds_the_adaptor_exactly_in_the_srd_modes(tmp_path, monkeypatch,
                                                                 capsys, mode):
    """Only srd reads the adaptor, so only the srd modes train and save one;
    ``dump-features --net student`` loads either kind of checkpoint."""
    cfg = _cfg(tmp_path, mode=mode, seeds=(0,), epochs=1)
    run(cfg)
    ckpt = str(tmp_path / "out" / "student_seed0.ckpt")
    names = set(models.load_checkpoint(ckpt))
    student = set(models.build_student(cfg, 0)[0].state_arrays())
    adaptor = set(models.Adaptor(cfg.student.feature_dim, cfg.teacher.feature_dim,
                                 np.random.default_rng(0)).state_arrays())
    assert names == (student | adaptor if "srd" in MODES[mode] else student)

    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["dump-features", "--net", "student", "--config", str(cfg_path),
                     "--checkpoint", ckpt, "--out", str(tmp_path / "dump")]) == 0
    capsys.readouterr()
    lines = (tmp_path / "dump" / "features_student_test.csv").read_text().splitlines()
    assert len(lines) == 1 + cfg.dataset.classes * cfg.dataset.test_per_class


@pytest.mark.parametrize("mode", ["supervised", "srd"])
@pytest.mark.parametrize("floor", [0.0, 0.3])
def test_a_trial_forwards_its_frozen_teacher_over_the_test_rows_once(tmp_path, monkeypatch,
                                                                       mode, floor):
    """get_teacher's held-out logits serve the floor check and the trial's mimicry KL."""
    cfg = _cfg(tmp_path, mode=mode, teacher_floor=floor)
    ds = generate(cfg.dataset)
    events = []
    predict, train = models.Network.predict, harness.train_with_mode

    def spy(net, x):
        if net.frozen and np.array_equal(x, ds.test_x):
            events.append("teacher")
        return predict(net, x)

    def trial(dataset, teacher, cfg, seed):
        events.append(train(dataset, teacher, cfg, seed))
        return events[-1]

    monkeypatch.setattr(models.Network, "predict", spy)
    monkeypatch.setattr(harness, "train_with_mode", trial)
    run(cfg)
    monkeypatch.undo()
    assert events[::2] == ["teacher"] * len(cfg.run.seeds)
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    for seed, result in zip(cfg.run.seeds, events[1::2], strict=True):
        kl = metrics.mimicry_kl(get_teacher(cfg, ds, seed)[1], result.test_logits)
        assert (f"{mode}-seed{seed},{mode},{seed},{metrics.fmt(result.top1)},"
                f"{metrics.fmt(result.top5)},{metrics.fmt(kl)}") in lines


def test_run_writes_the_complete_artifact_set(tmp_path):
    """The files a run writes, and the per-seed rows it returns: in seed order,
    each with the trial it trained, whose arrays its checkpoint holds bit for bit."""
    cfg = _cfg(tmp_path, mode="srd+ood")
    summary = run(cfg)
    out = tmp_path / "out"
    expected = {"resolved.cfg", "summary.csv",
                "metrics_seed0.csv", "metrics_seed1.csv",
                "usage_seed0.csv", "usage_seed1.csv",
                "usage_curve_seed0.csv", "usage_curve_seed1.csv",
                "student_seed0.ckpt", "student_seed1.ckpt"}
    assert set(os.listdir(out)) == expected

    assert [row["seed"] for row in summary["per_seed"]] == [0, 1]
    for row in summary["per_seed"]:
        result = row["result"]
        trained = {**result.student.state_arrays(), **result.adaptor.state_arrays()}
        saved = models.load_checkpoint(str(out / f"student_seed{row['seed']}.ckpt"))
        assert trained.keys() == saved.keys()
        assert all(trained[k].tobytes() == saved[k].tobytes() for k in saved)
        assert row["top1"] == result.top1 and row["seconds"] > 0

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


# the config space
# ----------------

SPACE_DRAWS = 40


def _draw_config(rng, i):
    """Config text for draw ``i``: every mode, variant and policy by turns, the rest at random."""
    classes = int(rng.integers(2, 5))
    labeled = int(rng.integers(2, 7))
    batch = (1, classes * labeled + 3, int(rng.integers(2, 9)))[i % 3]
    return f"""
[dataset]
seed = {int(rng.integers(0, 50))}
input_dim = {int(rng.integers(2, 7))}
classes = {classes}
unseen_classes = {int(rng.integers(0, 3))}
overlap = {rng.choice([0.0, 0.5, 1.0])}
labeled_per_class = {labeled}
unlabeled_per_class = {int(rng.integers(1, 8))}
test_per_class = {int(rng.integers(1, 6))}
components_per_class = {int(rng.integers(1, 3))}
unseen_placement = {rng.choice(["mixed", "near", "far"])}
[teacher]
hidden = {int(rng.integers(8, 17))}
feature_dim = 6
feature_norm = {"false" if i % 4 == 1 else "true"}
[student]
hidden = {int(rng.integers(2, 6))}
feature_dim = {int(rng.integers(2, 5))}
feature_norm = {"false" if i % 4 == 2 else "true"}
[optimizer]
lr = {rng.choice([0.01, 0.1, 1.0])}
batch_size = {batch}
unlabeled_batch_size = {int(rng.integers(0, 6))}
milestones = 1
[distill]
variant = {("mse", "kl", "pmse")[i % 3]}
[run]
mode = {list(MODES)[i % len(MODES)]}
epochs = {int(rng.integers(1, 3))}
teacher_epochs = {int(rng.integers(0, 3))}
teacher_floor = {rng.choice([0.0, 0.0, 0.3, 0.95])}
seeds = {i}
use_unlabeled = {"false" if i % 5 == 4 else "true"}
unlabeled_fraction = {rng.choice([0.2, 0.5, 1.0])}
selection_policy = {POLICIES[i // 3 % 2]}
"""


def test_random_small_configs_finish_or_fail_by_name(tmp_path):
    """Each drawn config writes finite metrics or raises one of kdlab's named errors."""
    rng = np.random.default_rng(2024)
    seen, outcomes = set(), []
    for i in range(SPACE_DRAWS):
        text = _draw_config(rng, i)
        try:
            cfg = override(parse_config(text), out=str(tmp_path / f"draw{i}"),
                           cache_dir=str(tmp_path / "cache"))
            with np.errstate(all="ignore"):
                run(cfg)
        except (ConfigError, SettingError, AccuracyFloorError, DivergenceError) as exc:
            outcomes.append(type(exc).__name__)
            continue
        outcomes.append("ok")
        r, batch = cfg.run, cfg.optimizer.batch_size
        seen |= {r.mode, r.selection_policy, cfg.distill.variant}
        seen |= {name for name, hit in (
            ("labeled only", not r.use_unlabeled), ("fraction < 1", r.unlabeled_fraction < 1),
            ("teacher unnormed", not cfg.teacher.feature_norm),
            ("student unnormed", not cfg.student.feature_norm), ("batch 1", batch == 1),
            ("batch > labeled", batch > cfg.dataset.classes * cfg.dataset.labeled_per_class),
        ) if hit}
        with open(tmp_path / f"draw{i}" / f"metrics_seed{i}.csv") as fh:
            fh.readline()
            for line in fh:
                assert all(np.isfinite(float(v)) for v in line.split(",")), (text, line)
    # the draws that ran cover what they are meant to
    assert seen >= {*MODES, *POLICIES, "mse", "kl", "pmse", "labeled only", "fraction < 1",
                    "teacher unnormed", "student unnormed", "batch 1",
                    "batch > labeled"}, (seen, outcomes)
    assert outcomes.count("ok") >= SPACE_DRAWS // 2, outcomes


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
    # the message names the first dataset field that differs, with both values
    for name, field, old, new in (("b", "seed", 4, 9), ("c", "classes", 4, 5)):
        other = parse_config(TINY.replace(f"{field} = {old}", f"{field} = {new}"))
        run(override(other, out=str(tmp_path / name),
                     cache_dir=str(tmp_path / "cache2")))
        with pytest.raises(ValueError, match=rf"{name} ran on different dataset "
                                             rf"parameters \({field} {new} vs {old}\)"):
            compare([str(tmp_path / "a"), str(tmp_path / name)])
    with pytest.raises(ConfigError, match="at least two"):
        compare([str(tmp_path / "a")])


@pytest.mark.parametrize("row, message", [
    ("srd-seed0,srd,0", "line 3: expected 6 fields, got 3"),
    ("srd-seed0,srd,0,0.9,1,0.1,7", "line 3: expected 6 fields, got 7"),
    ("srd-seed0,srd,0,0.9,high,0.1", "line 3: top5 'high' is not a number"),
    ("srd-seed0,srd,zero,0.9,1,0.1", "line 3: seed 'zero' is not a number"),
    ("srd,srd,mean,0.9,1,", "line 3: mimicry_kl '' is not a number"),
], ids=["short", "long", "top5", "seed", "aggregate"])
def test_read_summary_names_the_path_and_line_of_a_bad_row(tmp_path, row, message):
    path = tmp_path / "summary.csv"
    path.write_text(f"{SUMMARY_HEADER}\nsrd-seed1,srd,1,0.5,1,0.2\n{row}\n")
    with pytest.raises(ValueError) as info:
        read_summary(str(tmp_path))
    assert str(info.value) == f"{path}: {message}"


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


@pytest.mark.parametrize("dip, trend_ok", [(0.0019, True), (0.0021, False)])
def test_sweep_trend_forgives_a_dip_of_up_to_its_slack(tmp_path, monkeypatch, dip, trend_ok):
    """A fraction may score up to ``SWEEP_SLACK`` (0.2 points) below the one
    before it; the runs are stubbed, so only the rule is tested."""
    top1 = {0.25: 0.8, 0.5: 0.9, 1.0: 0.9 - dip}

    def stub(cfg):
        return {"mean_top1": top1[cfg.run.unlabeled_fraction], "std_top1": 0.0}

    monkeypatch.setattr(harness, "run", stub)
    rows, ok = sweep(_cfg(tmp_path, "sweep", seeds=(0,)), (1.0, 0.25, 0.5))
    assert [r["mean_top1"] for r in rows] == [0.8, 0.9, 0.9 - dip]
    assert ok == trend_ok
    report = (tmp_path / "sweep" / "sweep_report.txt").read_text()
    assert report.endswith(f"within 0.2 points: {'yes' if trend_ok else 'no'}\n")


@pytest.mark.parametrize("fractions, message", [
    ((0.25, 0.254), "0.25 and 0.254 share fraction_25"),
    ((0.5, 1.0, 0.5), "0.5 appears twice"),
    ((0.5, float("nan")), r"must lie in \(0, 1\], got nan"),
], ids=["shared-directory", "repeated", "nan"])
def test_sweep_rejects_fractions_that_share_a_run_directory(tmp_path, fractions, message):
    with pytest.raises(SettingError, match=message):
        sweep(_cfg(tmp_path, "sweep", seeds=(0,)), fractions)
    assert os.listdir(tmp_path) == []


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
    # fractions that would write one run directory are refused the same way
    code, out, err = _cli(["sweep", "--config", str(cfg_path),
                           "--out", str(tmp_path / "sweep"),
                           "--fractions", "0.25,0.254,0.5,0.5"], cwd=tmp_path)
    assert code == 2, err
    assert err == "config error: --fractions: 0.25 and 0.254 share fraction_25\n"
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
    text = TINY.replace("teacher_epochs = 5", "teacher_epochs = 1")
    cfg_path.write_text(text.replace("teacher_floor = 0.0", "teacher_floor = 0.999"))
    args = ["distill", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
    code, out, err = _cli(args, cwd=tmp_path)
    assert code == 3, err
    assert "floor" in err.lower()
    # the seed-0 teacher that missed stays cached: a rerun fails without
    # training, and a lower floor reuses it
    cache = tmp_path / "runs" / "teacher-cache"
    [missed] = os.listdir(cache)
    stamp = os.path.getmtime(cache / missed)
    code, out, err = _cli(args, cwd=tmp_path)
    assert code == 3, err
    cfg_path.write_text(text)
    code, out, err = _cli(args, cwd=tmp_path)
    assert code == 0, err
    assert os.path.getmtime(cache / missed) == stamp


@pytest.mark.parametrize("floor", [0.3, 0.0])
def test_cli_pretrain_evaluates_each_teacher_once(tmp_path, monkeypatch, capsys, floor):
    """The floor check's held-out logits are the ones printed; with or without
    a floor, the frozen teacher runs over the test rows once."""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY.replace("teacher_floor = 0.0", f"teacher_floor = {floor}"))
    ds = generate(parse_config(TINY).dataset)
    forwarded = []
    predict = models.Network.predict

    def spy(net, x):
        out = predict(net, x)
        if net.frozen and np.array_equal(x, ds.test_x):
            forwarded.append(out[1])
        return out

    monkeypatch.setattr(models.Network, "predict", spy)
    args = ["pretrain", "--config", str(cfg_path), "--seed", "0", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    [line] = capsys.readouterr().out.splitlines()
    [logits] = forwarded
    acc = metrics.top_k_accuracy(logits, ds.test_y, 1)
    path = teacher_path(override(parse_config(TINY), cache_dir=str(tmp_path)), 0)
    assert line == f"teacher seed 0: {path} (held-out acc {acc:.4f})"
    assert acc >= floor


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


def test_demos_import_kdlab_before_numpy():
    """kdlab's one-BLAS-thread default reaches a demo only if kdlab loads first."""
    demos = os.path.join(mutants.ROOT, "demos")
    names = sorted(f for f in os.listdir(demos) if f.endswith(".py"))
    assert names
    for name in names:
        with open(os.path.join(demos, name)) as fh:
            tree = ast.parse(fh.read())
        modules = [(alias.name if isinstance(node, ast.Import) else node.module).split(".")[0]
                   for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names]
        assert "kdlab" in modules, name
        if "numpy" in modules:
            assert modules.index("kdlab") < modules.index("numpy"), name


def test_every_mutant_edits_text_its_source_file_holds_once():
    """A refactor that moves mutated text must fail here, not only in the mutation run."""
    for name, (file, old, new) in mutants.MUTANTS.items():
        with open(os.path.join(mutants.ROOT, "src", "kdlab", file)) as fh:
            assert fh.read().count(old) == 1, name
        assert new != old, name


@pytest.mark.parametrize("command", ["pretrain", "distill", "sweep", "dump-features"])
def test_cli_seed_flag_is_checked_where_it_is_offered(tmp_path, command):
    code, out, err = _cli([command, "--seed", "-1"], cwd=tmp_path)
    assert code == 2, err
    assert err.startswith("config error: --seed: must be nonnegative")
    assert os.listdir(tmp_path) == []


def test_cli_student_dump_without_a_checkpoint_exits_2(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY)
    monkeypatch.chdir(tmp_path)
    args = ["dump-features", "--net", "student", "--config", str(cfg_path),
            "--out", str(tmp_path / "dump")]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == \
        "config error: dump-features: student dumps need --checkpoint\n"
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_import_kdlab_loads_autograd_only_and_defaults_blas_to_one_thread(tmp_path):
    code, out, err = _python(["-c", """if True:
        import json, os, sys
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
        import kdlab
        print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "kdlab"),
                          os.environ["OPENBLAS_NUM_THREADS"],
                          kdlab.Tensor is sys.modules["kdlab.autograd"].Tensor]))
        """], cwd=tmp_path)
    assert code == 0, err
    assert json.loads(out) == [["kdlab", "kdlab.autograd"], "1", True]


def test_cli_generate_data_takes_no_seed(tmp_path):
    # the dataset draws from [dataset] seed, so a trial seed would be ignored
    code, out, err = _cli(["generate-data", "--seed", "5",
                           "--out", str(tmp_path / "data")], cwd=tmp_path)
    assert code == 2, err
    assert "unrecognized arguments: --seed 5" in err
    assert os.listdir(tmp_path) == []


def test_cli_generate_data_writes_the_dataset(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY)
    code, out, err = _cli(["generate-data", "--config", str(cfg_path),
                           "--out", str(tmp_path / "data")], cwd=tmp_path)
    assert code == 0, err
    assert sorted(os.listdir(tmp_path / "data")) == [
        "labeled.csv", "test.csv", "unlabeled.csv", "unlabeled_eval.csv"]
