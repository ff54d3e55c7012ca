"""The environment a result was measured in.

kdlab's artifacts are byte-identical per environment, not across
environments, so this record travels with every result. ``code_key``
names the program and benchmark sources plus the numeric environment;
digests and counts are compared only between runs with equal keys.
"""

from __future__ import annotations

import glob
import hashlib
import os
import platform

import numpy as np


def blas_info():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return blas.get("name", "unknown"), blas.get("version", "unknown")


def git_commit(root):
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def code_key(root, environment):
    h = hashlib.sha256(repr(sorted(environment.items())).encode())
    pattern_src = os.path.join(root, "src", "kdlab", "**", "*.py")
    pattern_bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "*.py")
    for path in sorted(glob.glob(pattern_src, recursive=True) + glob.glob(pattern_bench)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def record(root, thread_vars):
    name, version = blas_info()
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": name,
        "blas_version": version,
        "threads": {v: os.environ.get(v) for v in thread_vars},
    }
    numeric = ("python", "numpy", "blas", "blas_version", "threads")
    env["code_key"] = code_key(root, {k: str(env[k]) for k in numeric})
    env["git_commit"] = git_commit(root)
    return env
