"""Tests of the benchmark itself, on a tiny configuration.

Run from the repository root:

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import hostspeed  # noqa: E402
import kdlab  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = """\
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
batch_size = 8
unlabeled_batch_size = 8
[run]
epochs = 2
teacher_epochs = 5
teacher_floor = 0.0
"""

# Every mode whose code a benchmark workload reaches, on two seeds.
TINY_WORKLOAD = workloads.Workload(
    "tiny", TINY, ("srd", "supervised", "kd", "srd+ood", "srd+dac", "pseudo_label"),
    2, cached=False)


def _bindings():
    """Every name bound in a kdlab module or on a kdlab class."""
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "kdlab" or mod_name.startswith("kdlab."):
            for attr, value in vars(mod).items():
                out[(mod_name, attr)] = value
                if isinstance(value, type) and value.__module__ == mod_name:
                    for cls_attr, member in vars(value).items():
                        out[(mod_name, attr, cls_attr)] = member
    return out


def _traced_repeat(tmp_path, name):
    tr = tracer.Tracer()
    with tr:
        root = tr.open(tracer.ROOT_SPAN)
        try:
            _, trials = workloads.run_repeat(TINY_WORKLOAD, 0, str(tmp_path / name), None)
        finally:
            tr.close(root)
    return tr, trials


def test_self_times_on_a_synthetic_span_tree():
    #   0 root [0, 10]
    #   1   a  [1, 4]
    #   2   b  [5, 9]
    #   3     c [6, 7]
    #   4     d [7.5, 8]
    start = [0.0, 1.0, 5.0, 6.0, 7.5]
    end = [10.0, 4.0, 9.0, 7.0, 8.0]
    parent = [-1, 0, 0, 2, 2]
    dur, own = tracer.self_times(start, end, parent)
    np.testing.assert_allclose(dur, [10.0, 3.0, 4.0, 1.0, 0.5])
    np.testing.assert_allclose(own, [3.0, 3.0, 2.5, 1.0, 0.5])
    assert own.sum() == pytest.approx(dur[0])


def test_report_splits_wall_time_into_layers_and_a_remainder():
    tr = tracer.Tracer()
    root = tr.open(tracer.ROOT_SPAN)
    fwd = tr.open("models.teacher_forward")
    tr.close(tr.open("autograd.op.matmul.fwd"))
    tr.close(fwd)
    tr.close(tr.open("optim.step"))
    tr.close(root)
    report = tr.report()
    layers = sum(report[f"layer.{name}.self_s"][0] for name in tracer.LAYERS)
    assert layers + report["trace.unattributed_s"][0] == pytest.approx(
        report["trace.wall_s"][0], rel=1e-12, abs=1e-15)
    assert report["autograd.op.matmul.calls"][0] == 1
    assert report["models.teacher_forward.calls"][0] == 1
    assert report["optim.step.calls"][0] == 1


def test_report_rejects_spans_outside_the_known_layers():
    tr = tracer.Tracer()
    root = tr.open(tracer.ROOT_SPAN)
    tr.close(tr.open("elsewhere.thing"))
    tr.close(root)
    with pytest.raises(ValueError, match="outside the known layers"):
        tr.report()


def test_tracing_rebinds_names_and_restores_every_one(tmp_path):
    before = _bindings()
    tr = tracer.Tracer()
    with tr:
        assert kdlab.autograd.add is not before[("kdlab.autograd", "add")]
        assert kdlab.baselines.srd_loss is not before[("kdlab.baselines", "srd_loss")]
        assert kdlab.harness.run is not before[("kdlab.harness", "run")]
        assert kdlab.Tensor.__init__ is not before[("kdlab.autograd", "Tensor", "__init__")]
        root = tr.open(tracer.ROOT_SPAN)
        workloads.run_repeat(TINY_WORKLOAD, 0, str(tmp_path / "run"), None)
        tr.close(root)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_rebinding_is_undone_when_the_traced_code_raises():
    before = kdlab.autograd.matmul
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert kdlab.autograd.matmul is before


def test_traced_and_untraced_runs_write_identical_artifacts(tmp_path):
    with workloads.StageClock() as clock:
        _, plain = workloads.run_repeat(TINY_WORKLOAD, 0, str(tmp_path / "plain"), None)
    tr, traced = _traced_repeat(tmp_path, "traced")
    assert all(t.error is None for t in plain + traced)
    assert [t.key for t in plain] == [t.key for t in traced]
    for a, b in zip(plain, traced):
        assert a.digests == b.digests, a.key
        assert set(a.digests) == {"metrics", "summary", "student", "teacher"}

    # The first mode pretrains both seeds' teachers; the others hit the cache.
    stages = clock.take()
    n_trials = len(plain)
    assert [s for s, _, _ in stages].count("stage2") == n_trials
    assert [s for s, _, _ in stages].count("stage1") == 2

    report = tr.report()
    assert report["harness.teacher_cache.misses"][0] == 2
    assert report["harness.teacher_cache.hits"][0] == n_trials - 2
    assert report["baselines.steps"][0] == n_trials * 2 * 6  # epochs x batches
    assert 0.0 < report["baselines.ood.kept_frac"][0] <= 1.0
    assert report["autograd.op.sigmoid.calls"][0] > 0
    assert report["data.augment.calls"][0] > 0


def test_count_metrics_repeat_exactly(tmp_path):
    counts = []
    for name in ("first", "second"):
        tr, _ = _traced_repeat(tmp_path, name)
        counts.append({k: v for k, (v, _) in tr.report().items() if tracer.is_count(k)})
    assert counts[0] == counts[1]
    assert counts[0]["autograd.tensors_created"] > 0
    assert counts[0]["autograd.intermediate_grad_bytes"] > 0


def test_reference_flags_values_that_change(tmp_path):
    ref = workloads.Reference(str(tmp_path), "code", "tiny", 0)
    assert ref.check("digests", {"a": 1}) == []
    again = workloads.Reference(str(tmp_path), "code", "tiny", 0)
    assert again.check("digests", {"a": 1, "b": 2}) == []
    assert again.check("digests", {"a": 3, "b": 2}) == ["a"]
    other_code = workloads.Reference(str(tmp_path), "other", "tiny", 0)
    assert other_code.check("digests", {"a": 3}) == []


def test_gate_fails_a_trial_whose_digests_differ(tmp_path):
    ref = workloads.Reference(str(tmp_path), "code", "tiny", 0)
    first = {}
    trials = [workloads.Trial("srd-seed0", digests={"metrics": "x"})]
    workloads.gate(trials, ref, first)
    assert trials[0].error is None
    changed = [workloads.Trial("srd-seed0", digests={"metrics": "y"})]
    workloads.gate(changed, ref, first)
    assert "differ" in changed[0].error


def test_host_factor_is_the_median_sample_over_the_nominal_time():
    host = hostspeed.HostSpeed()
    host.samples = [hostspeed.NOMINAL_S * x for x in (1.0, 3.0, 1.2)]
    assert host.factor() == pytest.approx(1.2)
    assert hostspeed.reference_seconds() > 0.0


def test_end_to_end_takes_medians_and_divides_times_by_the_host_factor():
    stages = [[("stage2", 2.0, 100), ("stage2", 4.0, 100)],
              [("stage2", 3.0, 100), ("stage2", 3.0, 200)]]
    setup_stages = [("stage1", 5.0, 0), ("stage1", 7.0, 0)]
    trials = [workloads.Trial("srd-seed0", top1=0.5, mimicry=0.1)]
    blocks = ([10.0, 12.0], stages, setup_stages, [1.0, 3.0, 2.0], trials, 0.5)
    plain = run.end_to_end(*blocks, 1.0)
    assert plain["wall_s"][0] == pytest.approx(11.0)
    assert plain["setup_s"][0] == pytest.approx(2.5)
    assert plain["stage1_s"][0] == pytest.approx(6.0)
    assert plain["stage2_s"][0] == pytest.approx(3.0)
    assert plain["stage2_steps_per_s"][0] == pytest.approx((200 / 6 + 300 / 6) / 2)
    assert plain["top1"] == (0.5, "fraction")

    slow = run.end_to_end(*blocks, 2.0)
    for name in run.SCALED:
        scale = 2.0 if name.endswith("_per_s") else 0.5
        assert slow[name][0] == pytest.approx(plain[name][0] * scale), name
    assert slow["top1"] == plain["top1"]


def test_stage_clock_keeps_its_hook_out_of_stage_times(tmp_path):
    calls = []

    def hook():
        calls.append(1)
        time.sleep(0.05)

    with workloads.StageClock(between=hook) as clock:
        workloads.run_repeat(TINY_WORKLOAD, 0, str(tmp_path / "run"), None)
    stages = clock.take()
    assert len(calls) == len(stages) > 0
    assert clock.paused >= 0.05 * len(calls)
