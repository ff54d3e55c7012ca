"""Mutation check: does the fast test suite catch a planted bug?

Usage: ``python tests/mutants.py [NAME_SUBSTRING ...]``

For each listed mutant (or those whose name contains one of the given
substrings) it copies ``src`` to a temporary directory, applies one
source edit there and runs ``pytest -x -q -m "not acceptance" tests``
against the copy. A mutant is killed when a test fails, and the first
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DAC_DRAWS = ("            x[n:] = augment(x[n:], cfg.baselines.dac_strength, aug_rng)\n",
             "            view2 = augment(x_all[idx[n:]], cfg.baselines.dac_strength, aug_rng)\n")

# name -> (file under src/kdlab, text that occurs exactly once, its replacement)
MUTANTS = {
    "+dac teacher outputs not refreshed on view 1":
        ("baselines.py", "out[n:] = fresh", "fresh"),
    "graph walk pushes a node's parents in reverse":
        ("autograd.py", "for p in t.node.parents:", "for p in reversed(t.node.parents):"),
    "predict runs in train mode":
        ("models.py", "np.repeat(rows, 2, axis=0))", "np.repeat(rows, 2, axis=0), train=True)"),
    "predict forwards a lone row undoubled":
        ("models.py", "rows if len(rows) > 1 else np.repeat(rows, 2, axis=0)", "rows"),
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
    "lr_at decays only after a milestone epoch":
        ("distill.py", "if epoch >= m:", "if epoch > m:"),
    "Sgd.step drops weight decay":
        ("optim.py", "np.multiply(self.weight_decay, w, out=s)", "np.multiply(0.0, w, out=s)"),
    "sampler reuses the unlabeled order once the pool runs out":
        ("data.py", "                    cycle = rng.permutation(n_unlabeled)\n", ""),
}


def run_suite(src):
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
             "-m", "not acceptance", "tests"],
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


def main(argv):
    chosen = {name: edit for name, edit in MUTANTS.items()
              if not argv or any(part in name for part in argv)}
    width = max(map(len, chosen), default=0)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="kdlab-mutants-") as tmp:
        passed, failure = run_suite(with_mutant(os.path.join(tmp, "clean"), None))
    if not passed:
        print(f"the unmutated copy fails: {failure}")
        return 1
    survivors = 0
    for name, edit in chosen.items():
        with tempfile.TemporaryDirectory(prefix="kdlab-mutants-") as tmp:
            passed, failure = run_suite(with_mutant(tmp, edit))
        survivors += passed
        print(f"{name:<{width}}  {'SURVIVED' if passed else 'killed  '}  {failure}",
              flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
