"""FROSTT ``.tns`` text-format I/O.

The FROSTT repository distributes sparse tensors as whitespace-separated
text files with one nonzero per line: ``i_1 i_2 ... i_d value`` using
1-based indices.  This module reads and writes that format so real FROSTT
downloads can be dropped into the benchmark harness in place of the
synthetic dataset presets.
"""

from __future__ import annotations

import gzip
import io
import os
from typing import Optional, Sequence, Union

import numpy as np

from repro.sptensor.coo import COOTensor
from repro.util.validation import check_shape

PathLike = Union[str, "os.PathLike[str]"]


def _open_text(path: PathLike, mode: str):
    path = os.fspath(path)
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


def read_tns(
    path: PathLike,
    shape: Optional[Sequence[int]] = None,
    one_based: bool = True,
) -> COOTensor:
    """Read a FROSTT-style ``.tns`` file (optionally gzip-compressed).

    Parameters
    ----------
    path:
        File path; names ending in ``.gz`` are transparently decompressed.
    shape:
        Tensor dimensions.  If omitted, the shape is inferred as the maximum
        index per mode.
    one_based:
        FROSTT uses 1-based indices (the default).  Pass ``False`` for
        0-based files.
    """
    rows = []
    vals = []
    order: Optional[int] = None
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if order is None:
                order = len(parts) - 1
                if order < 1:
                    raise ValueError(
                        f"{path}: line {lineno} has no index columns"
                    )
            if len(parts) != order + 1:
                raise ValueError(
                    f"{path}: line {lineno} has {len(parts)} fields, "
                    f"expected {order + 1}"
                )
            try:
                idx = [int(p) for p in parts[:-1]]
                val = float(parts[-1])
            except ValueError as exc:
                raise ValueError(f"{path}: malformed line {lineno}: {line!r}") from exc
            rows.append(idx)
            vals.append(val)
    if order is None:
        raise ValueError(f"{path}: file contains no nonzero entries")
    indices = np.asarray(rows, dtype=np.int64)
    if one_based:
        if indices.min() < 1:
            raise ValueError(
                f"{path}: found index < 1 in a 1-based file; pass one_based=False?"
            )
        indices -= 1
    if shape is None:
        shape = tuple(int(m) + 1 for m in indices.max(axis=0))
    else:
        shape = check_shape(shape)
        if len(shape) != order:
            raise ValueError(
                f"{path}: file has order {order} but shape has {len(shape)} modes"
            )
    return COOTensor(shape, indices, np.asarray(vals), sort=True)


def write_tns(
    tensor: COOTensor, path: PathLike, one_based: bool = True
) -> None:
    """Write a COO tensor in FROSTT ``.tns`` format (gzip if path ends in .gz)."""
    offset = 1 if one_based else 0
    with _open_text(path, "w") as fh:
        for coords, value in zip(tensor.indices.tolist(), tensor.values.tolist()):
            fields = [str(c + offset) for c in coords]
            fields.append(repr(float(value)))
            fh.write(" ".join(fields))
            fh.write("\n")


def tns_from_string(text: str, one_based: bool = True) -> COOTensor:
    """Parse ``.tns`` content from an in-memory string (used by tests)."""
    rows = []
    vals = []
    order: Optional[int] = None
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line or line.startswith(("#", "%")):
            continue
        parts = line.split()
        if order is None:
            order = len(parts) - 1
        if len(parts) != order + 1:
            raise ValueError(f"line {lineno} has inconsistent arity")
        rows.append([int(p) for p in parts[:-1]])
        vals.append(float(parts[-1]))
    if order is None:
        raise ValueError("no entries found")
    indices = np.asarray(rows, dtype=np.int64)
    if one_based:
        indices -= 1
    shape = tuple(int(m) + 1 for m in indices.max(axis=0))
    return COOTensor(shape, indices, np.asarray(vals), sort=True)
