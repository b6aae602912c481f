"""File formats: CSV matrices, binary PGM images, JSON manifests.

All floating-point output uses 17 significant digits so reruns with the same
configuration produce byte-identical files.  Every writer writes a temporary
file next to its target and renames it into place, so a file is either
absent, left as it was, or complete.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np


def _replace(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in its directory."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def fmt(x) -> str:
    """Format a float with 17 significant digits (round-trip safe)."""
    return f"{float(x):.17g}"


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Write a square matrix row-major with a 'n=<n>' header line."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    lines = [f"n={n}"]
    for row in matrix:
        lines.append(",".join(fmt(v) for v in row))
    _replace(path, ("\n".join(lines) + "\n").encode())


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix_csv`."""
    text = Path(path).read_text().strip()
    if not text:
        raise ValueError(f"empty matrix file: {path}")
    lines = text.splitlines()
    header = lines[0].strip()
    if not header.startswith("n="):
        raise ValueError(f"matrix file {path} is missing the 'n=<n>' header")
    try:
        n = int(header[2:])
    except ValueError as exc:
        raise ValueError(f"malformed matrix header {header!r}") from exc
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        rows.append([float(v) for v in line.split(",")])
    matrix = np.array(rows, dtype=float)
    if matrix.shape != (n, n):
        raise ValueError(
            f"matrix file {path} declares n={n} but holds shape {matrix.shape}"
        )
    return matrix


def write_pgm(path, image: np.ndarray) -> None:
    """Write a uint8 grayscale image as binary PGM (P5, maxval 255)."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("PGM writer expects a 2-D uint8 array")
    h, w = image.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    _replace(path, header + image.tobytes())


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of mixed int/float/str cells; floats via :func:`fmt`."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                cells.append(str(int(v)))
            elif isinstance(v, (float, np.floating)):
                cells.append(fmt(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    _replace(path, ("\n".join(lines) + "\n").encode())


def write_json(path, payload: dict) -> None:
    _replace(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
