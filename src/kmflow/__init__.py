"""Coupled phase oscillators on graphon-derived graphs and their mean-field limit.

Subpackages by layer:

* :mod:`kmflow.graphon`   -- kernels on the unit square, cell averaging
* :mod:`kmflow.graphs`    -- deterministic and W-random finite graphs
* :mod:`kmflow.dynamics`  -- finite oscillator systems, RK4, diagnostics
* :mod:`kmflow.measures`  -- measure families and their transport metrics
* :mod:`kmflow.meanfield` -- particle / fixed-point / finite-volume solvers
* :mod:`kmflow.cli`       -- experiment runner and file formats
"""

from .graphon import Graphon, kernel_distance
from .graphs import WeightedGraph, deterministic_graph, pixel_picture, sample_w_random
from .dynamics import (
    CouplingFunction,
    OscillatorSystem,
    PhaseState,
    Trajectory,
    integrate,
    norm_1n,
    order_parameter,
)
from .measures import (
    MeasureFamily,
    MeasureTrajectory,
    d_alpha,
    dbar,
    empirical_from_phases,
    initial_family,
)
from .meanfield import (
    DensityField,
    VelocityFieldSpec,
    picard_solve,
    solve_fv,
    solve_particles,
    stability_experiments,
    weak_residual,
)

__version__ = "0.1.0"

__all__ = [
    "Graphon",
    "kernel_distance",
    "WeightedGraph",
    "deterministic_graph",
    "sample_w_random",
    "pixel_picture",
    "CouplingFunction",
    "OscillatorSystem",
    "PhaseState",
    "Trajectory",
    "integrate",
    "order_parameter",
    "norm_1n",
    "MeasureFamily",
    "MeasureTrajectory",
    "dbar",
    "d_alpha",
    "empirical_from_phases",
    "initial_family",
    "VelocityFieldSpec",
    "DensityField",
    "solve_particles",
    "picard_solve",
    "solve_fv",
    "weak_residual",
    "stability_experiments",
    "__version__",
]
