"""Whole-file writes that never leave a partial file at their path, and the
named-array file format of checkpoints.

A named-array file is a text header, then raw little-endian float64 data.
The header is a magic line, one ``name dim0 dim1 ...`` line per array,
and a lone ``data`` line; the payload is each array's bytes in header
order.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np


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


def save_arrays(path, magic, arrays):
    """Write ``(name, array)`` pairs, in order, with ``atomic_open``.

    Round-trips bit-exactly through ``load_arrays``.
    """
    lines = [magic]
    for name, arr in arrays:
        lines.append(" ".join([name, *map(str, arr.shape)]))
    lines.append("data")
    with atomic_open(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_arrays(path, magic, who):
    """Read a file ``save_arrays`` wrote into a dict of float64 arrays,
    checking every byte of it.

    Any other content raises ``ValueError`` naming ``who``, the path and
    the array at fault.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    head, sep, payload = blob.partition(b"\ndata\n")
    lines = head.decode("ascii", errors="replace").split("\n")
    if lines[0] != magic:
        raise ValueError(f"{who}: bad header in {path}")
    if not sep:
        raise ValueError(f"{who}: {path}: no 'data' line ends the header")
    arrays = {}
    offset = 0
    name = None
    for line in lines[1:]:
        words = line.split()
        if not words:
            continue
        name, dims = words[0], words[1:]
        if name in arrays:
            raise ValueError(f"{who}: {path}: array {name!r} appears twice")
        try:
            shape = tuple(int(d) for d in dims)
            if any(d < 0 for d in shape):
                raise ValueError
        except ValueError:
            raise ValueError(f"{who}: {path}: bad value for array {name!r}: "
                             f"{' '.join(dims)!r}") from None
        count = math.prod(shape)
        if offset + count * 8 > len(payload):
            raise ValueError(
                f"{who}: {path}: payload ends inside array {name!r} "
                f"({len(payload) - offset} of {count * 8} bytes)")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        arrays[name] = arr.reshape(shape).astype(np.float64)
        offset += count * 8
    if offset != len(payload):
        where = f"array {name!r}" if name is not None else "the header"
        raise ValueError(f"{who}: {path}: {len(payload) - offset} trailing bytes "
                         f"after {where}")
    return arrays
