"""kdlab's API is what kdlab calls, and each mode does the work it did.

Spies on every public function of ``kdlab.autograd`` and every ``Tensor``
method, then drives the shipping traffic through ``harness``: every mode,
the srd ``kl`` and ``pmse`` variants and a ``teacher_score`` fraction
sweep, on the reduced digest config. A name that no shipping path reaches
is either removed or named in ``TRACER_HELD`` with its reason.

The work ledger counts what one ``harness.run`` of each mode computes on
that config with its teachers cached, and ``work_ledger.json`` pins the
counts. They do not depend on the BLAS kernel (a ``+ood`` filter decision
could move only if a score fell within rounding of its threshold), so this
test never skips. A change that alters the work updates the pins and says why.
"""

import dataclasses
import functools
import inspect
import json
import os
import sys

import pytest

from kdlab import autograd, models, optim
from kdlab.autograd import Tensor
from kdlab.config import override, parse_config
from kdlab.data import generate
from kdlab.distill import MODES
from kdlab.harness import get_teacher, run, sweep
from test_digests import HERE, REDUCED

LEDGER = os.path.join(HERE, "work_ledger.json")

# Reached only from benchmarks/tracer.py: its ``OPS`` wraps the first six,
# and it rebinds ``baselines.cosine_rows``, which baselines re-imports
# for it alone.
TRACER_HELD = ("sub", "div", "neg", "log", "sqrt", "tensor_sum", "cosine_rows")


def _public_functions():
    return {name: fn for name, fn in vars(autograd).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == autograd.__name__}


def _tensor_methods():
    return {f"Tensor.{name}": fn for name, fn in vars(Tensor).items()
            if inspect.isfunction(fn) and name not in ("__init__", "__repr__")}


def _rebind(monkeypatch, name, fn, wrapper):
    """Rebind ``fn`` in every kdlab module that holds it as ``name``, as the tracer does."""
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "kdlab" or mod_name.startswith("kdlab.")) \
                and vars(mod).get(name) is fn:
            monkeypatch.setattr(mod, name, wrapper)


def test_shipping_traffic_reaches_every_public_engine_name(tmp_path, monkeypatch):
    reached = set()

    def spy(name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return wrapped

    functions, methods = _public_functions(), _tensor_methods()
    # The Tensor methods reach the ops through kdlab.autograd's globals.
    for name, fn in functions.items():
        _rebind(monkeypatch, name, fn, spy(name, fn))
    for name, fn in methods.items():
        monkeypatch.setattr(Tensor, name.split(".", 1)[1], spy(name, fn))

    base = override(parse_config(REDUCED), cache_dir=str(tmp_path / "teacher-cache"))
    for mode in MODES:
        run(override(base, mode=mode, out=str(tmp_path / mode)))
    for variant in ("kl", "pmse"):
        cfg = override(base, out=str(tmp_path / f"srd-{variant}"))
        run(dataclasses.replace(cfg, distill=dataclasses.replace(cfg.distill, variant=variant)))
    sweep(override(base, selection_policy="teacher_score", out=str(tmp_path / "sweep")),
          fractions=(0.5, 1.0))

    assert sorted((set(functions) | set(methods)) - reached) == sorted(TRACER_HELD)


def _count_work(monkeypatch, counts):
    """Spy on predict, forward, Tensor creation, backward and Sgd.step into ``counts``."""
    predict, forward, init = models.Network.predict, models.Network.forward, Tensor.__init__
    backward, step = autograd.backward, optim.Sgd.step

    def counted_predict(net, x):
        who = "teacher" if net.frozen else "student"
        counts[f"{who}_predicts"] += 1
        counts[f"{who}_predict_rows"] += len(x)
        return predict(net, x)

    def counted_forward(net, x):
        counts["forwards"] += 1
        counts["forward_rows"] += len(x)
        return forward(net, x)

    def counted_init(tensor, *args, **kwargs):
        counts["tensors"] += 1
        init(tensor, *args, **kwargs)

    def counted_backward(loss):
        backward(loss)
        counts["backwards"] += 1
        counts["backward_nodes"] += autograd.LAST_BACKWARD_STATS["nodes"]

    def counted_step(opt):
        counts["optimizer_steps"] += 1
        step(opt)

    monkeypatch.setattr(models.Network, "predict", counted_predict)
    monkeypatch.setattr(models.Network, "forward", counted_forward)
    monkeypatch.setattr(Tensor, "__init__", counted_init)
    monkeypatch.setattr(optim.Sgd, "step", counted_step)
    _rebind(monkeypatch, "backward", backward, counted_backward)


LEDGER_KEYS = ("teacher_predicts", "teacher_predict_rows", "student_predicts",
               "student_predict_rows", "forwards", "forward_rows", "backwards",
               "backward_nodes", "tensors", "optimizer_steps")


def work_ledger(root):
    """Per mode, the work one ``harness.run`` of the reduced digest config does
    once its teachers are cached: frozen-teacher and student ``predict`` calls
    and rows, training ``forward`` calls and rows, ``backward`` calls and graph
    nodes, tensors created and optimizer steps."""
    base = override(parse_config(REDUCED), cache_dir=os.path.join(root, "teacher-cache"))
    dataset = generate(base.dataset)
    for seed in base.run.seeds:
        get_teacher(base, dataset, seed)
    table = {}
    for mode in MODES:
        table[mode] = dict.fromkeys(LEDGER_KEYS, 0)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _count_work(monkeypatch, table[mode])
            run(override(base, mode=mode, out=os.path.join(root, mode)))
    return table


def test_each_mode_does_the_pinned_work(tmp_path):
    with open(LEDGER) as fh:
        pinned = json.load(fh)
    table = work_ledger(str(tmp_path))
    assert table == pinned, ("the work differs from its pins; the ledger this code "
                             "does:\n" + json.dumps(table, indent=1, sort_keys=True))
