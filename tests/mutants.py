"""Mutation check: does the fast test suite catch a planted bug?

Usage: ``python tests/mutants.py [NAME_SUBSTRING ...]``

For each listed mutant (or those whose name contains one of the given
substrings) it copies ``src`` to a temporary directory, applies one
source edit there and runs ``pytest -x -q -m "not acceptance" tests``
against the copy, with pytest's temporary files under that directory too.
The mutants run ``os.cpu_count()`` at a time, and their lines print in
``MUTANTS`` order. A mutant is killed when a test fails, and the first
failing test is named; otherwise it survived. The unmutated copy runs
first and must pass. The exit status is 1 if it fails or any mutant
survives. A survivor calls for a new test, never for a weaker mutant.

The file name does not start with ``test_``, so pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STATE_PREFIXES = ('            out.update(layer.state_arrays(f"extractor.layer{i}"))\n',
                  '            out.update(self.norm.state_arrays("extractor.norm"))\n')

DAC_DRAWS = ("            x[n:] = augment(x[n:], cfg.baselines.dac_strength, aug_rng)\n",
             "            view2 = augment(x_all[idx[n:]], cfg.baselines.dac_strength, aug_rng)\n")

# name -> (file under src/kdlab, text that occurs exactly once, its replacement)
MUTANTS = {
    "+dac teacher outputs not refreshed on view 1":
        ("baselines.py", "out[n:] = fresh", "fresh"),
    "graph walk pushes a node's parents in reverse":
        ("autograd.py", "for p in t.node.parents:", "for p in reversed(t.node.parents):"),
    "predict normalizes by the chunk's own statistics":
        ("models.py", "(h - self.running_mean) / np.sqrt(self.running_var + self.eps)",
         "(h - h.mean(axis=0)) / np.sqrt(h.var(axis=0) + self.eps)"),
    "predict forwards a lone row undoubled":
        ("models.py", "h = rows if len(rows) > 1 else np.repeat(rows, 2, axis=0)", "h = rows"),
    "inputs gathered in another row order than the teacher outputs":
        ("baselines.py", "x = x_all[idx]", "x = x_all[np.sort(idx)]"),
    "hidden flags from the whole pool, not the selected rows":
        ("baselines.py", "full.eval_view()[1][chosen]", "full.eval_view()[1]"),
    "+dac view 2 drawn before view 1":
        ("baselines.py", "".join(DAC_DRAWS), "".join(reversed(DAC_DRAWS))),
    "+dac inputs left on the original rows":
        ("baselines.py", "x[n:] = augment(x[n:],", "augment(x[n:],"),
    "srd total leaves out the feature regularizer":
        ("baselines.py", "cfg.srd.alpha * srd + cfg.srd.beta * reg", "cfg.srd.alpha * srd"),
    "+ood keeps the rows its filter drops":
        ("baselines.py", "u_idx = u_idx[keep]", "u_idx = u_idx"),
    "detector scores forward through its trainable bias":
        ("baselines.py", "features @ self.weight.values + self.bias.values",
         "self.bias + features @ self.weight.values"),
    "+ood trial returns no detector":
        ("baselines.py", "detector=detector)", "detector=None)"),
    "zero-epoch trial left unscored":
        ("baselines.py", "if test_logits is None:", "if False:"),
    "trial's top-1 read from the first epoch's test logits":
        ("baselines.py", "top1=top_k_accuracy(test_logits, dataset.test_y, 1)",
         "top1=records[0].test_acc if records else "
         "top_k_accuracy(test_logits, dataset.test_y, 1)"),
    "lr_at decays only after a milestone epoch":
        ("distill.py", "if epoch >= m:", "if epoch > m:"),
    "Sgd.step drops weight decay":
        ("optim.py", "np.multiply(self.weight_decay, w, out=s)", "np.multiply(0.0, w, out=s)"),
    "top_k_accuracy ranks tied logits with an unstable sort":
        ("metrics.py", 'np.argsort(-logits, axis=1, kind="stable")', "np.argsort(-logits, axis=1)"),
    "teacher_score ranks tied confidences with an unstable sort":
        ("data.py", 'np.argsort(-conf, kind="stable")', "np.argsort(-conf)"),
    "sampler reuses the unlabeled order once the pool runs out":
        ("data.py", "                    cycle = rng.permutation(n_unlabeled)\n", ""),
    "a sub-pool trial keeps every pool row":
        ("baselines.py", "if len(chosen) < len(full):", "if False:"),
    "trial's mimicry KL takes the student's logits as the teacher's":
        ("harness.py", "mimicry_kl(teacher_logits, result.test_logits)",
         "mimicry_kl(result.test_logits, teacher_logits)"),
    "teacher floor checked only for freshly trained teachers":
        ("harness.py", "if cfg.run.teacher_epochs and cfg.run.teacher_floor:",
         "if cfg.run.teacher_epochs and cfg.run.teacher_floor and not cached:"),
    "sweep's trend rule adds its slack instead of forgiving it":
        ("harness.py", '["mean_top1"] - SWEEP_SLACK', '["mean_top1"] + SWEEP_SLACK'),
    "teacher cache key ignores the teacher epochs":
        ("harness.py", "parts), epochs, int(seed)))", "parts), int(seed)))"),
    "teacher cache key ignores the trial seed":
        ("harness.py", "epochs, int(seed)))", "epochs))"),
    "cached teacher handed out unfrozen":
        ("harness.py", "    teacher.freeze()\n", "    cached or teacher.freeze()\n"),
    "last feature layer applies ReLU before the norm":
        ("models.py", "x = self.layers[-1](x)", "x = self.layers[-1](x, relu=True)"),
    "Network.state_arrays drops the extractor. prefix":
        ("models.py", "        if self.norm is not None:\n".join(STATE_PREFIXES),
         "        if self.norm is not None:\n".join(
             line.replace("extractor.", "") for line in STATE_PREFIXES)),
    "build_teacher takes the student's stream":
        ("models.py", "t_seed = _part_seeds(seed)[0]", "t_seed = _part_seeds(seed)[1]"),
    "a mode without srd builds the adaptor":
        ("models.py", 'if "srd" not in MODES[cfg.run.mode]:', "if False:"),
    "build_student swaps the student's and the adaptor's streams":
        ("models.py", "_, s_seed, a_seed = _part_seeds(seed)", "_, a_seed, s_seed = _part_seeds(seed)"),
    "Network.freeze leaves requires_grad on":
        ("models.py", "p.requires_grad = False", "p.requires_grad = True"),
    "load_arrays accepts trailing bytes":
        ("fileio.py", "if offset != len(payload):", "if offset > len(payload):"),
    "atomic_open writes path in place":
        ("fileio.py", 'tmp = f"{path}.{os.getpid()}.tmp"', "tmp = path"),
    "atomic_open leaves its temporary file after a failure":
        ("fileio.py", "            os.remove(tmp)\n", "            pass\n"),
}


def run_suite(src, basetemp):
    """Run the fast suite against the package under ``src``; (passed, first failure)."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import kdlab; print(kdlab.__file__)"],
                           env=env, cwd=ROOT, capture_output=True, text=True)
    if not where.stdout.startswith(src):
        sys.exit(f"mutants: kdlab imports from {where.stdout.strip() or where.stderr}, "
                 f"not from {src}")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             "--basetemp", basetemp, "-m", "not acceptance", "tests"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        return False, "(timed out after 600 s)"
    if proc.returncode == 0:
        return True, ""
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return False, line.split(" ", 1)[1].split(" - ")[0]
    return False, f"(pytest exit {proc.returncode})"


def with_mutant(tmp, edit):
    """A fresh copy of ``src`` under ``tmp`` with ``edit`` applied; returns its path."""
    src = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if edit is not None:
        file, old, new = edit
        path = os.path.join(src, "kdlab", file)
        with open(path) as fh:
            text = fh.read()
        if text.count(old) != 1:
            sys.exit(f"mutants: {file} holds {text.count(old)} copies of {old!r}, not 1")
        with open(path, "w") as fh:
            fh.write(text.replace(old, new))
    return src


def run_mutant(edit):
    """The fast suite against a fresh copy of ``src`` with ``edit`` (None: unmutated)."""
    with tempfile.TemporaryDirectory(prefix="kdlab-mutants-") as tmp:
        return run_suite(with_mutant(tmp, edit), os.path.join(tmp, "pytest"))


def main(argv):
    chosen = {name: edit for name, edit in MUTANTS.items()
              if not argv or any(part in name for part in argv)}
    width = max(map(len, chosen), default=0)
    start = time.perf_counter()
    passed, failure = run_mutant(None)
    if not passed:
        print(f"the unmutated copy fails: {failure}")
        return 1
    survivors = 0
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for name, (passed, failure) in zip(chosen, pool.map(run_mutant, chosen.values())):
            survivors += passed
            print(f"{name:<{width}}  {'SURVIVED' if passed else 'killed  '}  {failure}",
                  flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
