"""File formats: CSV matrices, binary PGM images, JSON manifests.

All floating-point output uses 17 significant digits so reruns with the same
configuration produce byte-identical files.  Every writer writes a temporary
file next to its target and renames it into place, so a file is either
absent, left as it was, or complete.  :func:`write_csv` writes each row as it
arrives, so a writer fed from a generator holds one row at a time.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import numpy as np

from .graphon import _check_nodes


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
    """Write a square matrix row-major with a 'n=<n>' header line.

    Each row is converted to float and formatted as it is written, through
    one ``%.17g`` template that gives the bytes of :func:`fmt`, so a bool
    matrix is never copied whole.
    """
    matrix = np.asarray(matrix)
    template = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    with _replacing(path) as out:
        out.write(f"n={matrix.shape[0]}\n".encode())
        for row in matrix:
            out.write((template % tuple(row.astype(float).tolist())).encode())


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix_csv` line by line into one
    (n, n) array.  An error names the file, and the line of a malformed row."""
    try:
        with open(path) as lines:
            header = next(lines, "").strip()
            n = int(header[2:]) if header[:2] == "n=" and header[2:].isdecimal() else 0
            if n < 1:
                raise ValueError(f"line 1 is not an 'n=<n>' header with n >= 1 (got {header!r})")
            _check_nodes(n)
            matrix, rows = np.empty((n, n)), 0
            for number, line in enumerate(lines, start=2):
                line = line.removesuffix("\n")
                if not line.strip():
                    continue
                try:
                    row = [float(v) for v in line.split(",")]
                except ValueError:
                    row = []
                if len(row) != n:
                    raise ValueError(f"line {number} needs {n} numeric entries (got {line!r})")
                if rows < n:
                    matrix[rows] = row
                rows += 1
        if rows != n:
            raise ValueError(f"declares n={n} but holds {rows} rows")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return matrix


def write_pgm(path, image: np.ndarray) -> None:
    """Write a uint8 grayscale image as binary PGM (P5, maxval 255)."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("PGM writer expects a 2-D uint8 array")
    h, w = image.shape
    with _replacing(path) as out:
        out.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        out.write(image.tobytes())


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of mixed int/float/str cells; floats via :func:`fmt`.

    ``rows`` may be any iterable; each row is written as it is taken.
    """
    with _replacing(path) as out:
        out.write((",".join(header) + "\n").encode())
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                    cells.append(str(int(v)))
                elif isinstance(v, (float, np.floating)):
                    cells.append(fmt(v))
                else:
                    cells.append(str(v))
            out.write((",".join(cells) + "\n").encode())


def write_json(path, payload: dict) -> None:
    with _replacing(path) as out:
        out.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
