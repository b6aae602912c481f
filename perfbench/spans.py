"""Spans and counters at kmflow's layer boundaries, recorded from outside.

For a traced pass, ``install`` rebinds public names of kmflow's modules (and
the two ``rhs_phases`` methods) to wrappers that record a span per call:
name, start, end and the index of the enclosing span.  Modules that imported
a name from another module (``meanfield`` imports ``d_alpha``, ``dbar``,
``empirical_from_phases``, ``initial_family`` and ``kernel_distance``) are
rebound too, so nested calls such as ``meanfield -> dynamics.integrate ->
rhs`` appear as child spans.  ``restore`` puts the original names back; no
file of kmflow changes.

Span names are ``<layer>.<function>[.<variant>]``; the layer is the kmflow
module.  ``dynamics.rhs_bytes_computed`` is computed from array sizes, not
measured: per right-hand-side evaluation it counts the weight-matrix bytes the
evaluation reads (twice for the sine family, which makes two matrix-vector
products) plus 8 bytes per phase for each elementwise array pass, as listed in
``_rhs_bytes``.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("graphon", "graphs", "dynamics", "measures", "meanfield", "io")


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = self.clock()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(children[i], start, end)
            for i, (_, start, end, _) in enumerate(spans)]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def layer_self_times(spans) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def span_totals(spans) -> dict[str, float]:
    """Summed duration per span name (nested same-name calls would count twice;
    none of the traced functions recurse)."""
    out: defaultdict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        out[name] += end - start
    return out


# -- hooks -------------------------------------------------------------------


def install(tracer: Tracer, km) -> list[tuple]:
    """Rebind kmflow's public names to traced wrappers; returns what
    ``restore`` needs.  ``km`` is a namespace holding the kmflow modules."""
    saved = []
    for owner, attr, name, count in _hooks(km):
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name, count))
    return saved


def restore(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def _wrap(tracer: Tracer, fn, name, count):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = bound.arguments
        if name is None:
            result = fn(*args, **kwargs)
        else:
            span = name(arguments) if callable(name) else name
            result = tracer.call(span, fn, args, kwargs)
        if count is not None:
            count(tracer.counts, arguments, result)
        return result

    return wrapper


def _hooks(km):
    """(owner, attribute, span name or naming function or None, counter)."""
    graphon, graphs, dynamics = km.graphon, km.graphs, km.dynamics
    measures, meanfield, io = km.measures, km.meanfield, km.io

    def steps(a):
        return len(dynamics.time_grid(a["T"], a["dt"])) - 1

    def by_coupling(base):
        return lambda a: base + (".sine" if a["spec"].coupling.is_sine_family else ".custom")

    def count_sampled(c, a, graph):
        n = a["n"]
        c["graphs.pairs_sampled"] += n * (n + 1) // 2
        w = graph.weights
        c["graphs.edges_kept"] += (int((w != 0.0).sum()) + int((w.diagonal() != 0.0).sum())) // 2

    def count_integrate(c, a, _):
        c["dynamics.rk4_steps"] += steps(a)

    def count_rhs(c, a, _):
        c["dynamics.rhs_evals"] += 1
        c["dynamics.rhs_bytes_computed"] += _rhs_bytes(a["self"], a["u"].size)

    def count_atoms(c, a, _):
        c["measures.atoms_placed"] += a["n"] * a["m"]

    def count_family(c, a, _):
        c["measures.families_built"] += 1

    def count_dbar(c, a, _):
        c["measures.dbar_calls"] += 1
        c["measures.cell_distances"] += a["a"].n_cells

    def count_fv(c, a, _):
        c["meanfield.fv_steps"] += steps(a)

    def count_picard(c, a, result):
        report = result[1]
        c["meanfield.picard_solves"] += 1
        c["meanfield.picard_sweeps"] += report["iterations"]
        c["meanfield.picard_converged_solves"] += bool(report["converged"])

    def count_csv(c, a, _):
        c["io.bytes_written"] += os.path.getsize(a["path"])

    initial_family = (lambda a: "measures.initial_family." + a["mode"], count_atoms)
    empirical = ("measures.empirical_from_phases", None)
    dbar = ("measures.dbar", count_dbar)
    d_alpha = ("measures.d_alpha", None)
    return [
        (graphon.Graphon, "cell_average", "graphon.cell_average", None),
        (meanfield, "kernel_distance", "graphon.kernel_distance", None),
        (graphs, "deterministic_graph", "graphs.deterministic_graph", None),
        (graphs, "sample_w_random", "graphs.sample_w_random", count_sampled),
        (dynamics, "integrate", "dynamics.integrate", count_integrate),
        (dynamics.OscillatorSystem, "rhs_phases", "dynamics.rhs", count_rhs),
        (meanfield.BlockOscillatorSystem, "rhs_phases", "dynamics.rhs", count_rhs),
        (dynamics, "sup_norm_1n", "dynamics.sup_norm_1n", None),
        (dynamics, "order_parameter", "dynamics.order_parameter", None),
        (measures, "initial_family", *initial_family),
        (meanfield, "initial_family", *initial_family),
        (measures, "empirical_from_phases", *empirical),
        (meanfield, "empirical_from_phases", *empirical),
        (measures.MeasureFamily, "__init__", None, count_family),
        (measures, "dbar", *dbar),
        (meanfield, "dbar", *dbar),
        (measures, "d_alpha", *d_alpha),
        (meanfield, "d_alpha", *d_alpha),
        (measures, "sup_dbar", "measures.sup_dbar", None),
        (meanfield, "solve_particles", "meanfield.solve_particles", None),
        (meanfield, "evolve_family", by_coupling("meanfield.evolve_family"), None),
        (meanfield, "picard_solve", by_coupling("meanfield.picard_solve"), count_picard),
        (meanfield, "density_field_from_spec", "meanfield.density_field_from_spec", None),
        (meanfield, "solve_fv", "meanfield.solve_fv", count_fv),
        (meanfield, "weak_residual", "meanfield.weak_residual", None),
        (meanfield, "quantile_family_from_density",
         "meanfield.quantile_family_from_density", None),
        (meanfield, "stability_experiments", "meanfield.stability", None),
        (io, "write_csv", "io.write_csv", count_csv),
    ]


def _rhs_bytes(system, size: int) -> int:
    """Bytes one right-hand-side evaluation reads and writes (computed)."""
    if hasattr(system, "graph"):  # dense OscillatorSystem on n phases
        weights = system.graph.weights
        if system.coupling.is_sine_family:
            # two mat-vecs over W; sin, cos, two products, sum, omega + scale
            return 2 * weights.nbytes + 8 * 8 * size
        # chunked: differences, D(differences), product with W, row sums
        return weights.nbytes + 3 * 8 * size * size
    weights = system.step.values  # BlockOscillatorSystem on n*m phases
    if system.coupling.is_sine_family:
        # sin, cos, two cell means, two repeats, two products, bound check
        return 2 * weights.nbytes + 10 * 8 * size
    # per cell: N x m differences and D values, then the N x n cell-mean table
    return 3 * 8 * size * size + 3 * 8 * size * system.n_cells
