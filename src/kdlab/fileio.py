"""Whole-file writes that never leave a partial file at their path."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode="wb"):
    """Open a temporary file beside ``path``; move it into place on success.

    The file is written as ``<path>.<pid>.tmp`` and renamed over ``path``
    when the block ends normally, so ``path`` holds either its old
    content or the complete new file. If the block raises, the
    temporary file is removed and ``path`` is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
