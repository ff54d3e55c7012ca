"""Pinned digests: what a run writes replays byte for byte across changes.

Every mode, the srd ``kl``/``pmse`` variants, labeled-only runs and half
pools under both selection policies train two seeds on a reduced config.
The sha256[:16] of every file they write, the teacher cache included,
must equal the pins in ``artifact_digests.json``. Bytes hold only per
environment, so the pins carry the fingerprint they were taken under, and
under any other fingerprint the test skips and says what differs. numpy's
bundled OpenBLAS picks its kernel from the CPU when it loads, and the
kernel changes the bytes, so the fingerprint names it.

The data layer has no matrix product, so its outputs depend on Python and
numpy only: ``data_digests.json`` pins the four presets' generated arrays,
an ``augment`` draw, ``random`` selection orders and one epoch of batch
indices, and skips only when the Python or numpy version differs.
"""

import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import kdlab
from kdlab.config import override, parse_config
from kdlab.data import (POLICIES, BatchSampler, DatasetParams, augment, generate,
                        select_unlabeled)
from kdlab.distill import MODES
from kdlab.harness import run

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "artifact_digests.json")
DATA_PINS = os.path.join(HERE, "data_digests.json")
PRESETS = os.path.join(HERE, os.pardir, "presets")
# The generated arrays' names in the data pins' keys.
DATA_ARRAYS = ("labeled_x", "labeled_y", "test_x", "test_y", "unlabeled_x",
               "unlabeled_tags", "unlabeled_ind")

REDUCED = """
[dataset]
classes = 4
labeled_per_class = 50
unlabeled_per_class = 60
test_per_class = 50
[run]
epochs = 3
teacher_epochs = 5
teacher_floor = 0.0
seeds = 0,1
"""

# case name -> run overrides, plus the srd variant under "variant"
CASES = {mode: {"mode": mode} for mode in MODES}
CASES.update({f"srd-{variant}": {"mode": "srd", "variant": variant}
              for variant in ("kl", "pmse")})
CASES.update({f"{mode}-labeled-only": {"mode": mode, "use_unlabeled": False}
              for mode in ("srd", "pseudo_label", "srd+dac")})
CASES.update({f"{mode}-half-{policy}": {"mode": mode, "unlabeled_fraction": 0.5,
                                        "selection_policy": policy}
              for mode in ("srd", "pseudo_label", "srd+dac") for policy in POLICIES})


def openblas_call(symbol, restype):
    """``symbol()`` of the OpenBLAS that numpy's wheel bundles under ``numpy.libs``,
    or None when the library or the symbol is missing."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            fn = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], restype
        return fn()
    return None


def fingerprint():
    """What the bytes of a run depend on besides the code: Python, numpy, BLAS
    and the kernel it runs, machine."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    core = openblas_call("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
            "blas_core": core.decode() if core else "unknown",
            "machine": platform.machine()}


def sha16(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def digests(root):
    """sha256[:16] of every file the cases write under ``root``, keyed "dir/file"."""
    base = parse_config(REDUCED)
    cache = os.path.join(root, "teacher-cache")
    for name, case in CASES.items():
        updates = dict(case)
        variant = updates.pop("variant", base.distill.variant)
        cfg = override(base, out=os.path.join(root, name), cache_dir=cache, **updates)
        run(dataclasses.replace(cfg, distill=dataclasses.replace(cfg.distill, variant=variant)))
    table = {}
    for name in [*CASES, "teacher-cache"]:
        for file in sorted(os.listdir(os.path.join(root, name))):
            if file != "resolved.cfg":
                table[f"{name}/{file}"] = sha16(os.path.join(root, name, file))
    return table


def _array_sha(arr):
    arr = np.ascontiguousarray(arr)
    return hashlib.sha256(f"{arr.dtype.str} {arr.shape}\n".encode()
                          + arr.tobytes()).hexdigest()[:16]


def data_digests():
    """sha256[:16] of data-layer outputs, none of which touches BLAS."""
    table = {}
    for file in sorted(os.listdir(PRESETS)):
        with open(os.path.join(PRESETS, file)) as fh:
            ds = generate(parse_config(fh.read()).dataset)
        arrays = (ds.labeled_x, ds.labeled_y, ds.test_x, ds.test_y, ds.unlabeled.inputs,
                  *ds.unlabeled.eval_view())
        for name, arr in zip(DATA_ARRAYS, arrays, strict=True):
            table[f"generate/{file[:-len('.cfg')]}/{name}"] = _array_sha(arr)
    ds = generate(DatasetParams())
    table["augment"] = _array_sha(augment(ds.labeled_x[:64], 4.0, np.random.default_rng(7)))
    for fraction in (0.1, 0.5):
        for seed in (0, 3):
            table[f"select_unlabeled/random/{fraction}/seed{seed}"] = _array_sha(
                select_unlabeled(ds.unlabeled, fraction, "random", seed=seed))
    batches = list(BatchSampler(32, 64, seed=0).epoch_batches(800, 2040, epoch=1))
    for i, name in enumerate(("rows", "u_idx")):
        table[f"epoch_batches/{name}"] = _array_sha(np.concatenate([b[i] for b in batches]))
    return table


def skip_unless_pinned_here(path, here):
    """The pin file at ``path``; skips unless ``here`` matches its fingerprint."""
    with open(path) as fh:
        pinned = json.load(fh)
    differ = {k: (pinned["fingerprint"].get(k), v) for k, v in here.items()
              if pinned["fingerprint"].get(k) != v}
    if differ:
        pytest.skip(f"pins were taken under another environment (pinned, here): {differ}; "
                    "bytes hold only per environment")
    return pinned


def _check_pins(path, here, compute):
    """Skip unless ``here`` matches the pinned fingerprint; then compare digests."""
    pinned = skip_unless_pinned_here(path, here)
    table = compute()
    if table != pinned["digests"]:
        wrong = sorted(k for k in table.keys() | pinned["digests"].keys()
                       if table.get(k) != pinned["digests"].get(k))
        new = json.dumps({"fingerprint": here, "digests": table}, indent=1, sort_keys=True)
        pytest.fail(f"{len(wrong)} digests differ from their pins, first {wrong[:5]}; "
                    f"the table this code writes:\n{new}")


def test_every_case_writes_the_pinned_bytes(tmp_path):
    _check_pins(PINS, fingerprint(), lambda: digests(str(tmp_path)))


def test_the_data_layer_replays_under_the_same_python_and_numpy():
    here = {k: v for k, v in fingerprint().items() if k in ("python", "numpy")}
    _check_pins(DATA_PINS, here, data_digests)


def _cpu_flags():
    try:
        with open("/proc/cpuinfo") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh
                         if line.startswith("flags")), set())
    except OSError:
        return set()


def test_the_fingerprint_names_the_blas_kernel():
    """A kernel forced through ``OPENBLAS_CORETYPE`` changes the fingerprint,
    so the artifact pins skip under it instead of failing."""
    here = fingerprint()
    if here["blas_core"] == "unknown":
        pytest.skip("numpy's OpenBLAS does not name its kernel")
    other = next((kernel for kernel, flag in (("Haswell", "avx2"), ("Sandybridge", "avx"))
                  if kernel != here["blas_core"] and flag in _cpu_flags()), None)
    if other is None:
        pytest.skip("no other x86-64 kernel this CPU can run")
    root = os.path.dirname(os.path.dirname(os.path.abspath(kdlab.__file__)))
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    path = [HERE, root] + [os.path.abspath(p) for p in inherited if p]
    env = dict(os.environ, OPENBLAS_CORETYPE=other, PYTHONPATH=os.pathsep.join(path))
    code = "import json, test_digests; print(json.dumps(test_digests.fingerprint()))"
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
    there = json.loads(child.stdout)
    assert there["blas_core"] == other
    assert there != here


def test_blas_runs_the_threads_the_environment_names():
    """The suite's BLAS thread count is the one its environment names (kdlab's
    default of one when unset), which holds only if kdlab was imported before numpy."""
    threads = openblas_call("scipy_openblas_get_num_threads64_", ctypes.c_int)
    if threads is None:
        pytest.skip("numpy's OpenBLAS does not report its thread count")
    # OpenBLAS runs no more threads than the CPUs this process may use
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert threads == min(int(os.environ["OPENBLAS_NUM_THREADS"]), cpus)
