"""Mean-field solvers for the nonlocal transport equation on the circle.

The continuum model for the phase density rho(t, u, x) is

    d_t rho + d_u { V rho } = 0,
    V(t, u, x) = int_I W(x, y) { int_S D(v - u) dmu_t^y(v) } dy,

solved here with the kernel replaced by its step discretization W_n.  Three
interoperating methods:

* :func:`solve_particles` -- the n*m auxiliary particle system whose
  empirical measures follow the continuum dynamics (block-constant weights,
  integrated by :mod:`kmflow.dynamics`),
* :func:`picard_solve`   -- fixed-point iteration on the pushforward map:
  freeze a candidate measure trajectory, transport the initial atoms along
  the characteristics it induces, repeat until the weighted sup metric
  d_alpha stalls below tolerance (contraction for alpha > 2),
* :func:`solve_fv`       -- first-order conservative upwind finite volumes
  on the periodic phase grid (monotone and positivity-preserving; per-cell
  mass conserved to round-off), D tabulated at g points and each step's
  velocities one FFT correlation, O(n g log g) after the product W_n rho.

Families are the (cells, atoms) position and mass arrays of
:class:`kmflow.measures.MeasureFamily`, read directly: cells with fewer atoms
carry zero-mass padding, which adds exactly nothing to V, and the families of
a trajectory share one masses array.  The particle system, the pushforward
map and the pointwise :func:`velocity` all evaluate V through the coupling
sum of the graph dynamics, :func:`kmflow.dynamics._field` (O(N + n^2) for N
atoms of the sine family), and the pushforward map steps with its RK4 step.

Everything in this module takes intrinsic frequencies to be zero; the
discrete simulators in :mod:`kmflow.dynamics` support omega directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics
from .dynamics import CouplingFunction, PhaseState, time_grid
from .graphon import Graphon, StepGraphon, kernel_distance
from .measures import (
    TWO_PI,
    DensitySpec,
    MeasureFamily,
    MeasureTrajectory,
    cell_representative,
    d_alpha,
    dbar,
    empirical_from_phases,
    initial_family,
)

@dataclass(frozen=True)
class VelocityFieldSpec:
    """Step kernel plus coupling function: everything the velocity field needs."""

    step_graphon: StepGraphon
    coupling: CouplingFunction

    @property
    def n(self) -> int:
        return self.step_graphon.n

    def _check_cells(self, family: MeasureFamily) -> None:
        if family.n_cells != self.n:
            raise ValueError(f"family has {family.n_cells} cells, kernel expects {self.n}")


class BlockOscillatorSystem:
    """The n*m particle system with cell-block weights W_n (x) ones(m, m).

    Exposes the same ``rhs_phases`` interface as
    :class:`kmflow.dynamics.OscillatorSystem`, so
    :func:`kmflow.dynamics.integrate` drives it directly.  The right-hand
    side is the mean-field velocity of the n cells of m atoms of mass 1/m,
    evaluated at the atoms themselves by :func:`kmflow.dynamics._field`.
    """

    def __init__(self, step: StepGraphon, m: int, coupling: CouplingFunction):
        if m < 1:
            raise ValueError("need m >= 1 particles per cell")
        self.step = step
        self.m = m
        self.coupling = coupling

    @property
    def n_cells(self) -> int:
        return self.step.n

    @property
    def n(self) -> int:
        return self.step.n * self.m

    def rhs_phases(self, u: np.ndarray) -> np.ndarray:
        blocks = u.reshape(self.n_cells, self.m)
        return dynamics._field(self.step.values, self.coupling, blocks,
                               1.0 / self.m, blocks).ravel()


def velocity(spec: VelocityFieldSpec, family: MeasureFamily, u, cell: int):
    """Velocity field induced by a measure family at phase(s) u in a cell.

    Returns n^-1 sum_i W[cell, i] * int D(v - u) dmu^i(v), the inner
    integral evaluated exactly as a mass-weighted sum over atoms.
    """
    spec._check_cells(family)
    if not 0 <= cell < spec.n:
        raise IndexError(f"cell index {cell} out of range [0, {spec.n})")
    u = np.asarray(u, dtype=float)
    w_row = spec.step_graphon.values[cell:cell + 1]
    return dynamics._field(w_row, spec.coupling, family.positions,
                           family.masses, u.reshape(1, -1)).reshape(u.shape)


# -- particle method -------------------------------------------------------


def solve_particles(spec: VelocityFieldSpec, rho0: DensitySpec, n: int, m: int,
                    T: float, dt: float, record_every: int = 1,
                    mode: str = "quantile", seed: int | None = None) -> MeasureTrajectory:
    """Integrate the n*m particle system and record its empirical measures.

    Atoms start at the conditional quantiles of rho0 by default (``mode =
    'quantile'``, deterministic) or as iid samples (``mode = 'iid'`` with a
    seed).  This is the self-consistent characteristics flow evaluated along
    particle trajectories.
    """
    if n != spec.n:
        raise ValueError(f"cell count {n} does not match kernel resolution {spec.n}")
    family0 = initial_family(rho0, n, m, mode=mode, seed=seed)
    return evolve_family(spec, family0, T, dt, record_every=record_every)


def evolve_family(spec: VelocityFieldSpec, family: MeasureFamily, T: float,
                  dt: float, record_every: int = 1) -> MeasureTrajectory:
    """Evolve an atomic family (m atoms of mass 1/m per cell) as particles."""
    spec._check_cells(family)
    pos = family.positions
    m = pos.shape[1]
    if np.max(np.abs(family.masses - 1.0 / m)) > 1e-12:
        raise ValueError(
            "particle evolution expects m uniform atoms of mass 1/m per cell"
        )
    system = BlockOscillatorSystem(spec.step_graphon, m, spec.coupling)
    traj = dynamics.integrate(system, PhaseState(pos.ravel()), T, dt,
                              record_every=record_every)
    families = [empirical_from_phases(row, spec.n, m) for row in traj.phases]
    return MeasureTrajectory(traj.times, families)


# -- fixed-point (pushforward) iteration -----------------------------------


def _transport(spec: VelocityFieldSpec, times: np.ndarray, frozen: np.ndarray,
               mass: np.ndarray, start: np.ndarray) -> np.ndarray:
    """RK4-transport points ``start`` (cells, points) through the field of
    the frozen atoms ``frozen`` (frames, cells, atoms), whose raw (unwrapped)
    positions are interpolated linearly in time between grid points.

    Returns the transported points at every grid time, (frames, cells, points).
    """
    w, coupling = spec.step_graphon.values, spec.coupling
    path = [start]
    for step in range(len(times) - 1):
        left, right = frozen[step], frozen[step + 1]
        atoms = {0.0: left, 0.5: 0.5 * (left + right), 1.0: right}
        path.append(dynamics._rk4_step(
            lambda x, s: dynamics._field(w, coupling, atoms[s], mass, x),
            path[-1], times[step + 1] - times[step]))
    return np.array(path)


def characteristic_flow(spec: VelocityFieldSpec, frozen: MeasureTrajectory,
                        positions: np.ndarray, t_start: float,
                        t_end: float) -> np.ndarray:
    """Transport phase points (cells, points) from t_start to t_end along the
    velocity field induced by a frozen measure trajectory.

    Both endpoints must lie on the trajectory's time grid.  This is the
    two-parameter flow of the characteristics equation; composing
    consecutive transports reproduces the one-shot transport.
    """
    times = frozen.times
    i0 = int(np.argmin(np.abs(times - t_start)))
    i1 = int(np.argmin(np.abs(times - t_end)))
    if abs(times[i0] - t_start) > 1e-12 or abs(times[i1] - t_end) > 1e-12:
        raise ValueError("t_start and t_end must lie on the frozen time grid")
    if i1 < i0:
        raise ValueError("backward transport not supported")
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or len(positions) != frozen.families[0].n_cells:
        raise ValueError(f"points must form a (cells, points) array, got {positions.shape}")
    # families store wrapped positions; unwrap each atom's path in time so
    # the linear interpolation between grid points is chart-independent
    pos = np.unwrap(np.array([f.positions for f in frozen.families]), axis=0)
    return _transport(spec, times[i0:i1 + 1], pos[i0:i1 + 1],
                      frozen.families[0].masses, positions)[-1]


def picard_solve(spec: VelocityFieldSpec, family0: MeasureFamily, T: float,
                 dt: float, alpha: float = 3.0, tol: float = 1e-4,
                 max_iter: int = 25) -> tuple[MeasureTrajectory, dict]:
    """Solve the pushforward fixed-point equation by contraction iteration.

    Starting from the constant-in-time trajectory, each sweep freezes the
    current candidate, transports the initial atoms along the induced
    characteristics (atom positions interpolated linearly between grid
    times), and measures d_alpha between successive candidates.  Stops when
    d_alpha < tol; if max_iter is exhausted the last iterate is returned
    with ``converged = False`` in the report.  alpha > 2 is required for
    the map to contract.
    """
    if alpha <= 2.0:
        raise ValueError("alpha must exceed 2 for the iteration to contract")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    spec._check_cells(family0)
    times = time_grid(T, dt)
    start, mass = family0.positions, family0.masses
    frozen = np.broadcast_to(start, times.shape + start.shape)
    prev_traj = MeasureTrajectory(times, [MeasureFamily(p, mass) for p in frozen])

    distances: list[float] = []
    ratios: list[float] = []
    converged = False
    new_traj = prev_traj
    for _ in range(max_iter):
        frozen = _transport(spec, times, frozen, mass, start)
        new_traj = MeasureTrajectory(times, [MeasureFamily(p, mass) for p in frozen])
        d = d_alpha(new_traj, prev_traj, alpha)
        distances.append(d)
        if len(distances) >= 2 and distances[-2] > 0.0:
            ratios.append(distances[-1] / distances[-2])
        prev_traj = new_traj
        if d < tol:
            converged = True
            break
    report = {
        "alpha": alpha,
        "tol": tol,
        "iterations": len(distances),
        "converged": converged,
        "d_alpha": distances,
        "contraction_ratios": ratios,
    }
    return new_traj, report


# -- finite volumes ---------------------------------------------------------


class DensityField:
    """Grid densities rho[i, k]: x-cell i, phase cell k, width du = 2*pi/g."""

    def __init__(self, values):
        values = np.array(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("density field must be a 2-D array (n, g)")
        if values.shape[1] == 0:
            raise ValueError("density field needs a phase grid of g >= 1 cells")
        if np.any(values < 0.0):
            raise ValueError("densities must be nonnegative")
        du = TWO_PI / values.shape[1]
        mass = values.sum(axis=1) * du
        if np.max(np.abs(mass - 1.0)) > 1e-10:
            raise ValueError(
                "per-cell normalization violated: du * sum(rho) must be 1"
            )
        self.values = values
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def g(self) -> int:
        return self.values.shape[1]

    @property
    def du(self) -> float:
        return TWO_PI / self.g

    def cell_masses(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.du


def density_field_from_spec(rho0: DensitySpec, n: int, g: int) -> DensityField:
    """Sample rho0 at phase-cell midpoints; rows renormalized exactly."""
    if g < 1:
        raise ValueError(f"phase grid needs g >= 1 cells, got g = {g}")
    centers = (np.arange(g) + 0.5) * (TWO_PI / g)
    values = np.empty((n, g))
    for i in range(n):
        values[i] = rho0.at(cell_representative(i, n)).density(centers)
    du = TWO_PI / g
    values /= values.sum(axis=1, keepdims=True) * du
    return DensityField(values)


@dataclass
class DensityTrajectory:
    times: np.ndarray
    fields: list[DensityField]

    @property
    def final_field(self) -> DensityField:
        return self.fields[-1]


def _coupling_spectrum(coupling: CouplingFunction, g: int, offset: float):
    """du times the conjugate rfft of D at the offsets (j + offset) * du."""
    du = TWO_PI / g
    return np.conj(np.fft.rfft(coupling((np.arange(g) + offset) * du))) * du


def _grid_velocity(w, rho: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """V[i, f] = n^-1 sum_j w[i, j] du sum_k rho[j, k] D((k - f + offset) du)
    for grid densities rho (n, g): the g x g table of D is circulant, so its
    product is one batched FFT correlation of W_n rho, O(n g log g)."""
    v = np.fft.irfft(np.fft.rfft(w @ rho) * spectrum, rho.shape[1]) / rho.shape[0]
    dynamics._check_velocity_bound(v)
    return v


def solve_fv(spec: VelocityFieldSpec, rho0: DensityField, T: float, dt: float,
             record_every: int = 1) -> DensityTrajectory:
    """First-order conservative upwind finite volumes on the periodic grid.

    Face velocities are rebuilt each step from the current density by
    midpoint quadrature in the phase variable (exact in x, the kernel being
    cell-constant): one FFT correlation with D tabulated once at the g
    offsets (j + 1/2) * du, O(n^2 g + n g log g) per step.  The explicit
    step requires dt <= 0.9 * du, which guarantees the CFL condition since
    |V| <= 1; violations are rejected before stepping.
    """
    if rho0.n != spec.n:
        raise ValueError(f"density has {rho0.n} x-cells, kernel expects {spec.n}")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    du = rho0.du
    if dt > 0.9 * du:
        raise ValueError(
            f"CFL violation: dt = {dt:.6g} exceeds 0.9 * du = {0.9 * du:.6g}"
        )
    spectrum = _coupling_spectrum(spec.coupling, rho0.g, 0.5)

    times = time_grid(T, dt)
    rho = rho0.values
    rec_times = [times[0]]
    rec_fields = [rho0]
    for step in range(1, len(times)):
        h = times[step] - times[step - 1]
        v_face = _grid_velocity(spec.step_graphon.values, rho, spectrum)
        rho_left = np.roll(rho, 1, axis=1)
        flux = np.where(v_face > 0.0, v_face * rho_left, v_face * rho)
        rho = rho - (h / du) * (np.roll(flux, -1, axis=1) - flux)
        if step % record_every == 0 or step == len(times) - 1:
            rec_times.append(times[step])
            rec_fields.append(DensityField(rho))
    return DensityTrajectory(np.array(rec_times), rec_fields)


def quantile_family_from_density(fieldv: DensityField, m: int) -> MeasureFamily:
    """Atomize each row of a density field at its m conditional quantiles."""
    if m < 1:
        raise ValueError("need m >= 1 atoms per cell")
    g = fieldv.g
    du = fieldv.du
    knots_u = np.arange(g + 1) * du
    q = (np.arange(m) + 0.5) / m
    positions = np.empty((fieldv.n, m))
    for row, pos in zip(fieldv.values, positions):
        cdf = np.concatenate([[0.0], np.cumsum(row) * du])
        qq = np.minimum(q * cdf[-1], np.nextafter(cdf[-1], 0.0))
        k = np.clip(np.searchsorted(cdf, qq, side="right") - 1, 0, g - 1)
        pos[:] = knots_u[k] + (qq - cdf[k]) / row[k]
    return MeasureFamily(positions, np.full((fieldv.n, m), 1.0 / m))


# -- weak-form residual ------------------------------------------------------


@dataclass
class SpaceTimeTestFunction:
    """C^1 test function w(t, u) given with its closed-form derivatives.

    Must vanish at t = T so the weak identity closes without a terminal
    boundary term; the default family enforces this by construction.
    """

    value: object
    dt: object
    du: object
    label: str = ""


def default_test_functions(T: float, modes=(1, 2, 3)) -> list[SpaceTimeTestFunction]:
    """Family (1 - t/T)^2 * {sin(k u), cos(k u)} for k in modes."""
    tests = []
    for k in modes:
        for trig, trig_d, name in ((np.sin, np.cos, "sin"), (np.cos, lambda u: -np.sin(u), "cos")):
            def _mk(k=k, trig=trig, trig_d=trig_d):
                phi = lambda t: (1.0 - t / T) ** 2
                dphi = lambda t: -2.0 * (1.0 - t / T) / T
                return (
                    lambda t, u: phi(t) * trig(k * u),
                    lambda t, u: dphi(t) * trig(k * u),
                    lambda t, u: phi(t) * k * trig_d(k * u),
                )
            v, vt, vu = _mk()
            tests.append(SpaceTimeTestFunction(v, vt, vu, label=f"{name}({k}u)"))
    return tests


def weak_residual(traj: DensityTrajectory, spec: VelocityFieldSpec,
                  tests: list[SpaceTimeTestFunction] | None = None) -> float:
    """Largest weak-form defect over test functions and x-cells.

    For each test w, evaluates | int_0^T int_S rho (d_t w + V d_u w) du dt
    + int_S w(0, .) rho^0 du | with the phase integral on the solver grid
    and the time integral by the trapezoid rule over recorded times.  Frames
    are streamed (V as in :func:`solve_fv`, D at offsets j * du), keeping
    only their phase integrals, and tests receive a scalar t.
    """
    times, first = traj.times, traj.fields[0]
    du, centers = first.du, (np.arange(first.g) + 0.5) * first.du
    spectrum = _coupling_spectrum(spec.coupling, first.g, 0.0)
    if tests is None:
        tests = default_test_functions(float(times[-1]))
    space = np.empty((len(times), len(tests), first.n))
    for s, (t, fld) in enumerate(zip(times, traj.fields)):
        rho = fld.values
        flux = rho * _grid_velocity(spec.step_graphon.values, rho, spectrum)
        for q, test in enumerate(tests):
            space[s, q] = (rho @ test.dt(t, centers) + flux @ test.du(t, centers)) * du
    defect = np.trapezoid(space, times, axis=0)
    for q, test in enumerate(tests):
        defect[q] += (first.values @ test.value(0.0, centers)) * du
    return float(np.max(np.abs(defect), initial=0.0))


# -- stability experiments ---------------------------------------------------


@dataclass
class StabilityConfig:
    """Paired mean-field runs for continuous-dependence checks.

    Leave ``graphon_b`` unset to perturb only the initial family, leave
    ``family_b`` unset to perturb only the kernel; setting both combines the
    two bounds additively.
    """

    graphon_a: Graphon
    n: int
    m: int
    T: float
    dt: float
    coupling: CouplingFunction = field(default_factory=CouplingFunction.sine)
    graphon_b: Graphon | None = None
    rho0: DensitySpec | None = None
    family_a: MeasureFamily | None = None
    family_b: MeasureFamily | None = None
    kernel_resolution: int = 512
    record_every: int = 1


def stability_experiments(cfg: StabilityConfig) -> dict:
    """Run the configured pair and compare against the growth bounds.

    The measured quantity is sup over recorded t of dbar between the two
    runs; the bound is e^T * dbar(initial families) plus, when the kernels
    differ, e^(2T) * ||W - U||_L1 (measured on a refinement grid).
    """
    if cfg.family_a is None and cfg.rho0 is None:
        raise ValueError("provide either family_a or rho0")
    fam_a = cfg.family_a or initial_family(cfg.rho0, cfg.n, cfg.m)
    fam_b = cfg.family_b if cfg.family_b is not None else fam_a
    graphon_b = cfg.graphon_b if cfg.graphon_b is not None else cfg.graphon_a

    spec_a = VelocityFieldSpec(cfg.graphon_a.cell_average(cfg.n), cfg.coupling)
    spec_b = VelocityFieldSpec(graphon_b.cell_average(cfg.n), cfg.coupling)
    traj_a = evolve_family(spec_a, fam_a, cfg.T, cfg.dt, record_every=cfg.record_every)
    traj_b = evolve_family(spec_b, fam_b, cfg.T, cfg.dt, record_every=cfg.record_every)

    measured = max(
        dbar(x, y) for x, y in zip(traj_a.families, traj_b.families)
    )
    initial = dbar(fam_a, fam_b)
    bound = math.exp(cfg.T) * initial
    kernel_l1 = None
    if cfg.graphon_b is not None:
        kernel_l1 = kernel_distance(cfg.graphon_a, cfg.graphon_b, "L1",
                                    cfg.kernel_resolution)
        bound += math.exp(2.0 * cfg.T) * kernel_l1
    return {
        "measured": float(measured),
        "bound": float(bound),
        "initial_dbar": float(initial),
        "kernel_l1": kernel_l1,
        "passed": bool(measured <= bound + 1e-12),
    }


def gronwall_envelope(t, a, A: float, B: float, C: float) -> np.ndarray:
    """Conclusion curve e^(At) * (B int_0^t a(s) e^(-As) ds + C).

    Any continuous phi with phi(t) <= A int_0^t phi + B int_0^t a + C is
    dominated by this envelope; used as a standalone numerical check.
    """
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    f = a * np.exp(-A * t)
    integral = np.concatenate([[0.0], np.cumsum(np.diff(t) * (f[1:] + f[:-1]) / 2.0)])
    return np.exp(A * t) * (B * integral + C)
