"""File writers: CSV tables and matrices, binary PGM images, JSON manifests.

All floating-point output uses 17 significant digits so reruns with the same
configuration produce byte-identical files.  Every writer writes a temporary
file next to its target and renames it into place, so a file is either
absent, left as it was, or complete.  :func:`write_csv` writes each row as it
arrives, so a writer fed from a generator holds one row at a time.  Nothing
here reads: :mod:`kmflow.cli` parses its configs and family CSVs itself.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from pathlib import Path

import numpy as np


@contextlib.contextmanager
def _replacing(path):
    """Binary file to write; renamed onto ``path`` when the block completes,
    removed when it raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as out:
            yield out
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def fmt(x) -> str:
    """Format a float with 17 significant digits (round-trip safe)."""
    return f"{float(x):.17g}"


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Write a square matrix row-major with a 'n=<n>' header line, converting
    one row at a time to float, so a bool matrix is never copied whole."""
    matrix = np.asarray(matrix)
    write_csv(path, [f"n={matrix.shape[0]}"], (row.astype(float).tolist() for row in matrix))


def write_pgm(path, image: np.ndarray) -> None:
    """Write a uint8 grayscale image as binary PGM (P5, maxval 255)."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("PGM writer expects a 2-D uint8 array")
    h, w = image.shape
    with _replacing(path) as out:
        out.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        out.write(image.tobytes())


@functools.lru_cache(maxsize=16)
def _cell_format(kind: type) -> str:
    """``%d`` for ints, the ``%.17g`` of :func:`fmt` for floats, else ``%s``."""
    if issubclass(kind, (int, np.integer)) and not issubclass(kind, bool):
        return "%d"
    return "%.17g" if issubclass(kind, (float, np.floating)) else "%s"


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of int/float/str cells, each row through one %-template.

    ``rows`` may be any iterable; each row is written as it is taken.
    """
    with _replacing(path) as out:
        out.write((",".join(header) + "\n").encode())
        for row in rows:
            row = tuple(row)
            template = ",".join(map(_cell_format, map(type, row))) + "\n"
            out.write((template % row).encode())


def write_json(path, payload: dict) -> None:
    with _replacing(path) as out:
        out.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())
