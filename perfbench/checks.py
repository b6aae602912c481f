"""Output checks for one pass: recorded reference values plus invariants.

Strings, integers and booleans (adjacency hashes, edge and row counts,
convergence flags) must match the recorded value exactly: W-random graphs
must stay bit-identical.  Floats match within ``RTOL``/``ATOL``, which admits
round-off level drift such as the <= 4e-12 von Mises quantile drift a faster
quantile routine is allowed, and nothing of the size of a real defect.
"""

from __future__ import annotations

import math
import operator

RTOL = 1e-7
ATOL = 1e-9

_OPS = {"<": operator.lt, "<=": operator.le}


def evaluate(outputs: dict | None, expected: dict, invariants: dict) -> list[str]:
    """Failed checks, one message each; a pass that raised (``outputs`` is
    None) fails every check it would have made.  The number of checks made is
    ``len(expected) + len(invariants)``."""
    if outputs is None:
        return [f"{key}: pass raised" for key in (*expected, *invariants)]
    failures = []
    for key, want in expected.items():
        got = outputs.get(key)
        if not _matches(got, want):
            failures.append(f"{key}: got {got!r}, recorded {want!r}")
    for key, (op, limit) in invariants.items():
        got = outputs.get(key)
        if got is None or not _OPS[op](got, limit):
            failures.append(f"{key}: {got!r} is not {op} {limit!r}")
    return failures


def _matches(got, want) -> bool:
    if isinstance(want, float):
        return (isinstance(got, float) and math.isfinite(got)
                and abs(got - want) <= ATOL + RTOL * abs(want))
    return type(got) is type(want) and got == want
