"""Outside-in tracing of kdlab's layers, for the benchmark's traced run.

Nothing inside ``src/kdlab`` records spans. Instead the tracer rebinds
public names from outside: kdlab modules use ``from .x import y``, so a
function is replaced in every ``kdlab`` module that holds the same
object, methods are replaced on their class, and the ``Tensor``
operators pick up the wrapped ops through ``kdlab.autograd``'s globals.
Each op's backward is timed by wrapping the ``rule`` of the node the op
returns. ``Tensor.__init__`` is wrapped for counts, and
``LAST_BACKWARD_STATS`` is read after each backward.

Spans (name, start, end, parent, trial) are kept in flat arrays in
memory and written out by ``Tracer.save`` when the run ends. A span's
self time is its duration minus the time its child spans cover; spans
nest strictly because the program is single threaded.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

from kdlab import autograd, baselines, data, distill, harness, metrics, models, optim

LAYERS = ("autograd", "optim", "models", "distill", "data", "baselines",
          "metrics", "harness")

# Function name in kdlab.autograd -> op name recorded on its graph node.
OPS = {"add": "add", "sub": "sub", "mul": "mul", "div": "div", "neg": "neg",
       "matmul": "matmul", "relu": "relu", "log": "log", "sqrt": "sqrt",
       "sigmoid": "sigmoid", "softmax": "softmax", "tensor_sum": "sum",
       "slice_rows": "slice_rows"}

ROOT_SPAN = "bench.repeat"

# Metrics that count work rather than time it; they must repeat exactly
# across traced runs of the same code on the same seed.
COUNT_SUFFIXES = (".calls", ".rows", ".bytes", ".steps", ".hits", ".misses")
COUNT_NAMES = ("autograd.nodes_per_backward", "autograd.tensors_created",
               "autograd.intermediate_grad_bytes", "baselines.ood.kept_frac",
               "optim.params_per_step")


def is_count(name):
    return name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES


def self_times(start, end, parent):
    """Self time of each span: its duration minus its children's.

    ``parent`` holds the index of each span's parent, or -1 for a root.
    Children of one span never overlap, so the time they cover is the
    sum of their durations.
    """
    start = np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur, dur - covered


class Tracer:
    """Span recorder plus the rebinding that feeds it.

    Use as a context manager: entering installs every wrapper, leaving
    restores every rebound name, also when the traced code raised.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self._stack = [-1]
        self._trial = -1
        self._stage = None
        self._patches = []
        self.tensors_created = 0
        self.intermediate_grad_bytes = 0
        self.backward_nodes = 0
        self.stage1_steps = 0
        self.stage2_steps = 0
        self.params_stepped = 0
        self.teacher_rows = 0
        self.student_rows = 0
        self.eval_rows = 0
        self.ckpt_save_bytes = 0
        self.ckpt_load_bytes = 0
        self.csv_bytes = 0
        self.ood_kept = 0
        self.ood_seen = 0
        self.cache_misses = 0
        self.pretrain_calls = 0

    # spans ---------------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.trial.append(self._trial)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn):
        """``fn`` wrapped so each call records one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            i = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        return wrapped

    # rebinding -----------------------------------------------------------

    def rebind(self, module, attr, make):
        """Replace ``module.attr`` with ``make(original)`` everywhere in kdlab."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "kdlab" or mod_name.startswith("kdlab.")) \
                    and vars(mod).get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self):
        self._install_autograd()
        self._install_models()
        self.patch(optim.Sgd, "step", self._sgd_step)

        self.rebind(distill, "pretrain_teacher",
                    lambda fn: self._staged("distill.pretrain_teacher", "stage1", fn))
        self.rebind(baselines, "train_with_mode",
                    lambda fn: self._staged("baselines.train_with_mode", "stage2", fn))
        for attr in ("srd_loss", "feature_reg"):
            self.rebind(distill, attr, lambda fn, a=attr: self.span(f"distill.{a}", fn))
        for attr in ("kd_loss", "pseudo_label", "cosine_rows"):
            self.rebind(baselines, attr, lambda fn, a=attr: self.span(f"baselines.{a}", fn))
        self.rebind(baselines, "ood_filter", self._ood_filter)
        for attr in ("scores", "loss"):
            self.patch(baselines.OodDetector, attr,
                       lambda fn: self.span("baselines.detector", fn))

        for attr in ("generate", "augment", "select_unlabeled"):
            self.rebind(data, attr, lambda fn, a=attr: self.span(f"data.{a}", fn))
        self.patch(data.BatchSampler, "epoch_batches", self._epoch_batches)

        self.rebind(metrics, "evaluate_accuracy", self._evaluate_accuracy)
        self.rebind(metrics, "mimicry_kl", lambda fn: self.span("metrics.mimicry_kl", fn))
        for attr in ("write_metrics_csv", "write_usage_csv", "write_usage_curve_csv"):
            self.rebind(metrics, attr, self._csv_writer)

        self.rebind(harness, "run", lambda fn: self.span("harness.run", fn))
        self.rebind(harness, "get_teacher", self._get_teacher)

    # autograd ------------------------------------------------------------

    def _install_autograd(self):
        t = self
        for fn_name, op in OPS.items():
            self.rebind(autograd, fn_name, lambda fn, op=op: self._op(op, fn))

        def make_init(init):
            @functools.wraps(init)
            def counted_init(tensor, *args, **kwargs):
                init(tensor, *args, **kwargs)
                t.tensors_created += 1
                if tensor.node is not None and tensor.grad is not None:
                    t.intermediate_grad_bytes += tensor.grad.nbytes
            return counted_init

        self.patch(autograd.Tensor, "__init__", make_init)

        def make_backward(fn):
            span = t.span("autograd.backward", fn)

            @functools.wraps(fn)
            def traced_backward(*args, **kwargs):
                out = span(*args, **kwargs)
                t.backward_nodes += autograd.LAST_BACKWARD_STATS["nodes"]
                return out
            return traced_backward

        self.rebind(autograd, "backward", make_backward)

    def _op(self, op, fn):
        fwd = f"autograd.op.{op}.fwd"
        bwd = f"autograd.op.{op}.bwd"
        t = self

        @functools.wraps(fn)
        def traced_op(*args, **kwargs):
            i = t.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                t.close(i)
            node = out.node
            if node is not None:
                rule = node.rule

                def traced_rule(grad):
                    j = t.open(bwd)
                    try:
                        return rule(grad)
                    finally:
                        t.close(j)

                node.rule = traced_rule
            return out

        return traced_op

    # models and optim ----------------------------------------------------

    def _install_models(self):
        t = self

        def make_forward(forward):
            @functools.wraps(forward)
            def traced_forward(net, x, *args, **kwargs):
                if net.frozen:
                    name = "models.teacher_forward"
                    t.teacher_rows += x.shape[0]
                elif t._stage == "stage1":
                    name = "models.pretrain_forward"
                else:
                    name = "models.student_forward"
                    t.student_rows += x.shape[0]
                i = t.open(name)
                try:
                    return forward(net, x, *args, **kwargs)
                finally:
                    t.close(i)
            return traced_forward

        self.patch(models.Network, "forward", make_forward)
        self.patch(models.Adaptor, "__call__", lambda fn: t.span("models.adaptor", fn))

        def make_save(fn):
            span = t.span("models.checkpoint.save", fn)

            @functools.wraps(fn)
            def traced_save(path, *args, **kwargs):
                out = span(path, *args, **kwargs)
                t.ckpt_save_bytes += os.path.getsize(path)
                return out
            return traced_save

        def make_load(fn):
            span = t.span("models.checkpoint.load", fn)

            @functools.wraps(fn)
            def traced_load(path, *args, **kwargs):
                t.ckpt_load_bytes += os.path.getsize(path)
                return span(path, *args, **kwargs)
            return traced_load

        self.rebind(models, "save_checkpoint", make_save)
        self.rebind(models, "load_checkpoint", make_load)

    def _sgd_step(self, step):
        span = self.span("optim.step", step)
        t = self

        @functools.wraps(step)
        def traced_step(opt, *args, **kwargs):
            t.params_stepped += sum(p.values.size for p in opt.params)
            if t._stage == "stage1":
                t.stage1_steps += 1
            return span(opt, *args, **kwargs)

        return traced_step

    # stages and the remaining layers -------------------------------------

    def _staged(self, name, stage, fn):
        span = self.span(name, fn)
        t = self

        @functools.wraps(fn)
        def traced_stage(*args, **kwargs):
            previous, t._stage = t._stage, stage
            if stage == "stage1":
                t.pretrain_calls += 1
            try:
                return span(*args, **kwargs)
            finally:
                t._stage = previous

        return traced_stage

    def _get_teacher(self, fn):
        span = self.span("harness.get_teacher", fn)
        t = self

        @functools.wraps(fn)
        def traced_get_teacher(*args, **kwargs):
            # Each trial of harness.run starts by fetching its teacher.
            t._trial += 1
            pretrained_before = t.pretrain_calls
            out = span(*args, **kwargs)
            if t.pretrain_calls > pretrained_before:
                t.cache_misses += 1
            return out

        return traced_get_teacher

    def _ood_filter(self, fn):
        span = self.span("baselines.ood_filter", fn)
        t = self

        @functools.wraps(fn)
        def traced_filter(*args, **kwargs):
            kept, stats = span(*args, **kwargs)
            t.ood_kept += int(np.count_nonzero(kept))
            t.ood_seen += len(kept)
            return kept, stats

        return traced_filter

    def _epoch_batches(self, epoch_batches):
        t = self

        @functools.wraps(epoch_batches)
        def traced_batches(sampler, *args, **kwargs):
            batches = epoch_batches(sampler, *args, **kwargs)
            while True:
                i = t.open("data.epoch_batches")
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    t.close(i)
                if t._stage == "stage2":
                    t.stage2_steps += 1
                yield batch

        return traced_batches

    def _evaluate_accuracy(self, fn):
        span = self.span("metrics.evaluate_accuracy", fn)
        t = self

        @functools.wraps(fn)
        def traced_eval(net, x, *args, **kwargs):
            t.eval_rows += x.shape[0]
            return span(net, x, *args, **kwargs)

        return traced_eval

    def _csv_writer(self, fn):
        span = self.span("metrics.csv", fn)
        t = self

        @functools.wraps(fn)
        def traced_write(path, *args, **kwargs):
            out = span(path, *args, **kwargs)
            t.csv_bytes += os.path.getsize(path)
            return out

        return traced_write

    # results -------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.trial, dtype=np.int32))

    def save(self, path):
        """Write every span, with the name table, as one ``.npz`` file."""
        start, end, name, parent, trial = self.arrays()
        tmp = path + ".tmp.npz"
        np.savez(tmp, start=start, end=end, name=name, parent=parent,
                 trial=trial, names=np.array(self.names))
        os.replace(tmp, path)

    def report(self):
        """Per-layer metrics by name, and the layer self-time breakdown."""
        start, end, name, parent, _ = self.arrays()
        if len(start) == 0 or parent[0] != -1 or self.names[name[0]] != ROOT_SPAN:
            raise ValueError(f"trace: the first span must be the root {ROOT_SPAN!r}")
        if np.any(parent[1:] < 0):
            raise ValueError("trace: a span was recorded outside the root span")
        dur, self_t = self_times(start, end, parent)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_t, minlength=n)

        def get(table, key):
            nid = self._ids.get(key)
            return 0.0 if nid is None else float(table[nid])

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, span_name in enumerate(self.names):
            layer = span_name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += float(own[nid])
        unknown = [s for s in self.names
                   if s != ROOT_SPAN and s.split(".", 1)[0] not in LAYERS]
        if unknown:
            raise ValueError(f"trace: spans outside the known layers: {unknown}")
        wall = float(dur[0])
        unattributed = float(self_t[0])

        backward_calls = int(get(calls, "autograd.backward"))
        steps = int(get(calls, "optim.step"))
        out = {f"layer.{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
        out.update({
            "trace.unattributed_s": (unattributed, "s"),
            "trace.wall_s": (wall, "s"),
            "autograd.backward.calls": (backward_calls, "count"),
            "autograd.backward.walk_s": (get(own, "autograd.backward"), "s"),
            "autograd.nodes_per_backward": (
                self.backward_nodes / backward_calls if backward_calls else 0.0, "nodes"),
            "autograd.tensors_created": (self.tensors_created, "count"),
            "autograd.intermediate_grad_bytes": (self.intermediate_grad_bytes, "bytes"),
        })
        for op in OPS.values():
            out[f"autograd.op.{op}.calls"] = (int(get(calls, f"autograd.op.{op}.fwd")), "count")
            out[f"autograd.op.{op}.fwd_s"] = (get(total, f"autograd.op.{op}.fwd"), "s")
            out[f"autograd.op.{op}.bwd_s"] = (get(total, f"autograd.op.{op}.bwd"), "s")
        out.update({
            "models.teacher_forward.calls": (int(get(calls, "models.teacher_forward")), "count"),
            "models.teacher_forward.rows": (self.teacher_rows, "rows"),
            "models.teacher_forward.self_s": (get(own, "models.teacher_forward"), "s"),
            "models.student_forward.rows": (self.student_rows, "rows"),
            "models.student_forward.self_s": (get(own, "models.student_forward"), "s"),
            "models.adaptor.self_s": (get(own, "models.adaptor"), "s"),
            "models.checkpoint.save_s": (get(total, "models.checkpoint.save"), "s"),
            "models.checkpoint.save_bytes": (self.ckpt_save_bytes, "bytes"),
            "models.checkpoint.load_s": (get(total, "models.checkpoint.load"), "s"),
            "models.checkpoint.load_bytes": (self.ckpt_load_bytes, "bytes"),
            "optim.step.calls": (steps, "count"),
            "optim.step.s": (get(total, "optim.step"), "s"),
            "optim.params_per_step": (self.params_stepped / steps if steps else 0.0, "params"),
            "distill.pretrain_teacher.steps": (self.stage1_steps, "count"),
            "distill.srd_loss.s": (get(total, "distill.srd_loss"), "s"),
            "distill.feature_reg.s": (get(total, "distill.feature_reg"), "s"),
            "baselines.loop.self_s": (get(own, "baselines.train_with_mode"), "s"),
            "baselines.steps": (self.stage2_steps, "count"),
            "baselines.kd_loss.s": (get(total, "baselines.kd_loss"), "s"),
            "baselines.ood_filter.s": (get(total, "baselines.ood_filter"), "s"),
            "baselines.detector.s": (get(total, "baselines.detector"), "s"),
            "baselines.ood.kept_frac": (
                self.ood_kept / self.ood_seen if self.ood_seen else 0.0, "fraction"),
            "data.generate.s": (get(total, "data.generate"), "s"),
            "data.epoch_batches.s": (get(total, "data.epoch_batches"), "s"),
            "data.augment.calls": (int(get(calls, "data.augment")), "count"),
            "data.augment.s": (get(total, "data.augment"), "s"),
            "data.select_unlabeled.s": (get(total, "data.select_unlabeled"), "s"),
            "metrics.evaluate_accuracy.calls": (
                int(get(calls, "metrics.evaluate_accuracy")), "count"),
            "metrics.evaluate_accuracy.rows": (self.eval_rows, "rows"),
            "metrics.evaluate_accuracy.s": (get(total, "metrics.evaluate_accuracy"), "s"),
            "metrics.mimicry_kl.s": (get(total, "metrics.mimicry_kl"), "s"),
            "metrics.csv.bytes": (self.csv_bytes, "bytes"),
            "metrics.csv.s": (get(total, "metrics.csv"), "s"),
            "harness.teacher_cache.hits": (
                int(get(calls, "harness.get_teacher")) - self.cache_misses, "count"),
            "harness.teacher_cache.misses": (self.cache_misses, "count"),
            "harness.run.self_s": (get(own, "harness.run"), "s"),
        })
        return out
