"""Mean-field solvers for the nonlocal transport equation on the circle.

The continuum model for the phase density rho(t, u, x) is

    d_t rho + d_u { V rho } = 0,
    V(t, u, x) = int_I W(x, y) { int_S D(v - u) dmu_t^y(v) } dy,

solved here with the kernel replaced by its step discretization W_n.  Three
interoperating methods:

* :func:`solve_particles` -- the n*m auxiliary particle system, started at
  the conditional quantiles of rho0, whose empirical measures follow the
  continuum dynamics (block-constant weights, integrated by
  :mod:`kmflow.dynamics`),
* :func:`picard_solve`   -- fixed-point iteration on the pushforward map:
  freeze a candidate measure trajectory, transport the initial atoms along
  the characteristics it induces, repeat until the weighted sup metric
  d_alpha stalls below tolerance (contraction for alpha > 2),
* :func:`solve_fv`       -- first-order conservative upwind finite volumes
  on the periodic phase grid (monotone and positivity-preserving; per-cell
  mass conserved to round-off), D tabulated at g points and each step's
  velocities one FFT correlation, O(n g log g) after W_n rho.

:func:`weak_residual` tests a finite-volume run against the weak form with
one fixed family, (1 - t/T)^2 {sin ku, cos ku} for k = 1, 2, 3.  Its phase
integrals are taken as the run steps, each frame's from the transform of
W_n rho that also gives the frame's next step, so a run keeps its last field
and 96 n bytes per recorded frame, not the frames themselves.

Families are the (cells, atoms) position and mass arrays of
:class:`kmflow.measures.MeasureFamily`, read directly: cells with fewer atoms
carry zero-mass padding, which adds exactly nothing to V, and the families of
a trajectory share one masses array.  The particle system and the
pushforward map evaluate V through the coupling sum of the graph dynamics,
:func:`kmflow.dynamics._field` (O(K N + K n^2) for N atoms of a coupling of
K Fourier modes: the sine family, ``fourier``, a custom D its probe resolves),
with the cell average W_n, a graph, passed itself; W_n rho too is its one
product.  The pushforward map, run only by :func:`picard_solve`, steps with
its RK4 step; it, the particles and the finite volumes all step in its one
stepping loop, :func:`kmflow.dynamics._march`, aborting on a non-finite state.

Particle runs are streamed: :func:`particle_frames` yields each recorded
family as its step is taken, and :func:`evolve_family` stores them all as
rows of one phase array.  :func:`stability_experiments` advances its two runs
together and keeps only the running max of dbar, so its memory does not grow
with the number of recorded frames.  The pushforward map genuinely needs its
frozen (frames, cells, atoms) trajectory; :func:`picard_solve` checks the
size of one such array against ``PICARD_MAX_BYTES`` before it stores any,
holds only that one, overwritten a block of frames behind the transport
reading it, and returns families over its rows.

Everything in this module takes intrinsic frequencies to be zero; the
discrete simulators in :mod:`kmflow.dynamics` support omega directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics
from .dynamics import CouplingFunction, PhaseState, time_grid
from .graphon import Graphon, WeightedGraph, _check_count, _check_real, kernel_distance
from .measures import (
    TWO_PI,
    DensitySpec,
    MeasureFamily,
    MeasureTrajectory,
    _cell_rows,
    _w1_rows,
    d_alpha,  # picard_solve takes its terms itself; perfbench rebinds this name
    dbar,
    empirical_from_phases,
    initial_family,
    wrap_angle,
)

# Bytes of one stored (frames, cells, atoms) array of atom positions in
# picard_solve, frames x cells x atoms x 8 B.  A run holds one such array,
# the iterate its sweeps overwrite as they transport and its returned families
# share, so the limit keeps a run under about 512 MiB.
PICARD_MAX_BYTES = 2**28

# A Picard sweep compares and stores its new frames in blocks of up to this
# many bytes (at least one frame).  Taken one frame at a time between the RK4
# steps, perfbench's (8, 16) custom-coupling solve ran about 6% slower (best
# of 36 solves, 2-vCPU VM).
_SETTLE_BYTES = 2**17


@dataclass(frozen=True)
class VelocityFieldSpec:
    """Step kernel plus coupling function: everything the velocity field needs."""

    step_graphon: WeightedGraph
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

    def __init__(self, step: WeightedGraph, m: int, coupling: CouplingFunction):
        _check_count(m, "m")
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
        return dynamics._field(self.step, self.coupling, blocks, 1.0 / self.m,
                               blocks).ravel()


# -- particle method -------------------------------------------------------


def solve_particles(spec: VelocityFieldSpec, rho0: DensitySpec, n: int, m: int,
                    T: float, dt: float, record_every: int = 1) -> MeasureTrajectory:
    """Integrate the n*m particle system and record its empirical measures.

    Atoms start at the conditional quantiles of rho0 (deterministic); start
    from another family with :func:`evolve_family`.  This is the
    self-consistent characteristics flow evaluated along particle
    trajectories.
    """
    if n != spec.n:
        raise ValueError(f"cell count {n} does not match kernel resolution {spec.n}")
    family0 = initial_family(rho0, n, m)
    return evolve_family(spec, family0, T, dt, record_every=record_every)


def evolve_family(spec: VelocityFieldSpec, family: MeasureFamily, T: float,
                  dt: float, record_every: int = 1) -> MeasureTrajectory:
    """Evolve an atomic family (m atoms of mass 1/m per cell) as particles."""
    system = _particle_system(spec, family)
    traj = dynamics.integrate(system, PhaseState(family.positions.ravel()), T, dt,
                              record_every=record_every)
    wrap_angle(traj.phases, out=traj.phases).setflags(write=False)
    families = [empirical_from_phases(u, spec.n, system.m) for u in traj.phases]
    return MeasureTrajectory(traj.times, families)


def particle_frames(spec: VelocityFieldSpec, family: MeasureFamily, T: float,
                    dt: float, record_every: int = 1):
    """Iterator over the ``(t, family)`` frames of :func:`evolve_family`, each
    family built as its step is taken; a caller that reduces the frames in
    lockstep holds one frame per run.  The arguments are checked at the call.
    """
    system = _particle_system(spec, family)
    states = dynamics.recorded_states(system, PhaseState(family.positions.ravel()),
                                      T, dt, record_every)
    return ((t, empirical_from_phases(u, spec.n, system.m)) for t, u in states)


def _particle_system(spec: VelocityFieldSpec,
                     family: MeasureFamily) -> BlockOscillatorSystem:
    spec._check_cells(family)
    m = family.positions.shape[1]
    if np.max(np.abs(family.masses - 1.0 / m)) > 1e-12:
        raise ValueError(
            "particle evolution expects m uniform atoms of mass 1/m per cell"
        )
    return BlockOscillatorSystem(spec.step_graphon, m, spec.coupling)


# -- fixed-point (pushforward) iteration -----------------------------------


def check_picard_capacity(frames: int, atoms: int) -> None:
    """Reject a Picard run whose stored trajectory exceeds ``PICARD_MAX_BYTES``."""
    stored = frames * atoms * 8
    if stored > PICARD_MAX_BYTES:
        raise ValueError(
            f"capacity exceeded: {frames} frames x {atoms} atoms x 8 B "
            f"= {stored / 2**20:.1f} MiB per stored trajectory > "
            f"{PICARD_MAX_BYTES / 2**20:.0f} MiB")


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
    the map to contract.  A run whose stored trajectory (frames x atoms x 8 B)
    would exceed ``PICARD_MAX_BYTES`` is rejected before any frame is stored.
    """
    alpha = _check_real(alpha, "alpha", 2.0, open=True)
    tol = _check_real(tol, "tol", 0.0, open=True)
    _check_count(max_iter, "max_iter")
    spec._check_cells(family0)
    times = time_grid(T, dt)
    start, mass = family0.positions, family0.masses
    check_picard_capacity(times.size, start.size)
    # the one stored iterate, raw positions; it starts constant in time
    frozen = np.broadcast_to(start, times.shape + start.shape).copy()
    block = max(1, _SETTLE_BYTES // start.nbytes)

    def step(x, k, h):  # RK4 through frames k and k + 1, linear in time
        left, right = frozen[k], frozen[k + 1]
        atoms = {0.0: left, 0.5: 0.5 * (left + right), 1.0: right}
        return dynamics._rk4_step(lambda y, s: dynamics._field(
            spec.step_graphon, spec.coupling, atoms[s], mass, y), x, h)

    def settle(frames, k0):
        """Compare frames k0, k0 + 1, ... of the new iterate with the frozen
        ones, then store them there; the largest of d_alpha's terms."""
        d = 0.0
        for k, frame in enumerate(frames, start=k0):
            dbar_k = float(np.mean(_w1_rows(wrap_angle(frame), mass,
                                            wrap_angle(frozen[k]), mass)))
            d = max(d, math.exp(-alpha * times[k]) * dbar_k)
            frozen[k] = frame
        return d

    distances: list[float] = []
    ratios: list[float] = []
    converged = False
    for _ in range(max_iter):
        d, pending = 0.0, []
        for k, (_, frame) in enumerate(dynamics._march(step, start, times, 1)):
            if len(pending) == block:  # the transport is past them
                d = max(d, settle(pending, k - block))
                pending = []
            pending.append(frame)
        d = max(d, settle(pending, times.size - len(pending)))
        distances.append(d)
        if len(distances) >= 2 and distances[-2] > 0.0:
            ratios.append(distances[-1] / distances[-2])
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
    wrap_angle(frozen, out=frozen).setflags(write=False)
    families = [MeasureFamily(p, mass) for p in frozen]
    return MeasureTrajectory(times, families), report


# -- finite volumes ---------------------------------------------------------


class DensityField:
    """Grid densities rho[i, k]: x-cell i, phase cell k, width du = 2*pi/g."""

    def __init__(self, values):
        values = np.array(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("density field must be a 2-D array (n, g)")
        if values.shape[1] == 0:
            raise ValueError("density field needs a phase grid of g >= 1 cells")
        _check_density(values)
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


def _check_density(values: np.ndarray) -> None:
    """Reject (n, g) densities with a negative entry or a cell whose mass
    du * sum(rho) is not 1."""
    if not (values >= 0.0).all():
        raise ValueError("densities must be nonnegative")
    mass = values.sum(axis=1) * (TWO_PI / values.shape[1])
    if not np.max(np.abs(mass - 1.0)) <= 1e-10:
        raise ValueError("per-cell normalization violated: du * sum(rho) must be 1")


def density_field_from_spec(rho0: DensitySpec, n: int, g: int) -> DensityField:
    """Sample rho0 at phase-cell midpoints; rows renormalized exactly."""
    _check_count(n, "n")
    _check_count(g, "g")
    centers = (np.arange(g) + 0.5) * (TWO_PI / g)
    values = _cell_rows(rho0, n, lambda spec: spec.density(centers))
    du = TWO_PI / g
    return DensityField(values / (values.sum(axis=1, keepdims=True) * du))


@dataclass
class DensityTrajectory:
    """A finite-volume run: its recorded times, its last field, the spec it
    was solved with, and each recorded frame's weak-form moments, the (n, 6)
    phase integrals ``moments[0, s]`` of rho and ``moments[1, s]`` of rho V
    (V at the cell centres) against the test family's phase factors and
    their u-derivatives (:func:`weak_residual`): 96 n bytes per frame."""

    times: np.ndarray
    final_field: DensityField
    spec: VelocityFieldSpec
    moments: np.ndarray  # (2, frames, n, 6)


def _coupling_spectrum(coupling: CouplingFunction, g: int, offset: float):
    """du times the conjugate rfft of D at the offsets (j + offset) * du."""
    du = TWO_PI / g
    return np.conj(np.fft.rfft(coupling((np.arange(g) + offset) * du))) * du


def check_cfl(dt: float, g: int) -> None:
    """Reject a finite-volume step dt > 0.9 * du on g phase cells of width
    du = 2*pi/g; dt <= 0.9 * du guarantees the CFL condition since |V| <= 1."""
    du = TWO_PI / g
    if dt > 0.9 * du:
        raise ValueError(f"CFL violation: dt = {dt:.6g} exceeds 0.9 * du = {0.9 * du:.6g}")


def solve_fv(spec: VelocityFieldSpec, rho0: DensityField, T: float, dt: float,
             record_every: int = 1) -> DensityTrajectory:
    """First-order conservative upwind finite volumes on the periodic grid.

    Face velocities are rebuilt each step from the current density by
    midpoint quadrature in the phase variable (exact in x, the kernel being
    cell-constant): one FFT correlation of W_n rho with D tabulated once at
    the g offsets (j + 1/2) * du, O(n^2 g + n g log g) per step.  Each
    recorded frame, checked as a :class:`DensityField`, leaves only its
    weak-form moments, their cell-centre velocities (D at the offsets j * du)
    from the same transform; the run keeps its last field.  The step is
    checked by :func:`check_cfl` before stepping.
    """
    if rho0.n != spec.n:
        raise ValueError(f"density has {rho0.n} x-cells, kernel expects {spec.n}")
    check_cfl(dt, rho0.g)
    n, g, du = rho0.n, rho0.g, rho0.du
    w, k = spec.step_graphon, np.arange(1.0, 4.0)
    # columns sin u, cos u, sin 2u, cos 2u, sin 3u, cos 3u at the cell centres
    ku = ((np.arange(g) + 0.5) * du)[:, None] * k
    trig = np.stack((np.sin(ku), np.cos(ku)), axis=2).reshape(g, 6)
    trig_u = np.stack((k * np.cos(ku), -k * np.sin(ku)), axis=2).reshape(g, 6)
    faces, centres = (_coupling_spectrum(spec.coupling, g, offset) for offset in (0.5, 0.0))
    transformed = [None, None]  # the last density transformed, rfft(W_n rho) of it

    def grid_velocity(rho, spectrum):
        """V[i, f] = n^-1 sum_j w[i, j] du sum_k rho[j, k] D((k - f + offset) du):
        the g x g table of D is circulant, so its product is one batched FFT
        correlation of W_n rho, whose transform each density takes once."""
        if transformed[0] is not rho:
            transformed[:] = rho, np.fft.rfft(w._product(rho.T).T)
        v = np.fft.irfft(transformed[1] * spectrum, g) / n
        dynamics._check_velocity_bound(v)
        return v

    def upwind(rho, _, h):
        v_face = grid_velocity(rho, faces)
        flux = np.where(v_face > 0.0, v_face * np.roll(rho, 1, axis=1), v_face * rho)
        return rho - (h / du) * (np.roll(flux, -1, axis=1) - flux)

    grid = time_grid(T, dt)
    frames = dynamics._march(upwind, rho0.values, grid, record_every)
    records = dynamics._records(grid, record_every)
    times, moments = np.empty(records), np.empty((2, records, n, 6))
    for s, (t, rho) in enumerate(frames):
        _check_density(rho)
        times[s] = t
        moments[0, s] = rho @ trig
        moments[1, s] = (rho * grid_velocity(rho, centres)) @ trig_u
    return DensityTrajectory(times, DensityField(rho), spec, moments)


def quantile_family_from_density(fieldv: DensityField, m: int) -> MeasureFamily:
    """Atomize each row of a density field at its m conditional quantiles."""
    _check_count(m, "m")
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


def weak_residual(traj: DensityTrajectory, spec: VelocityFieldSpec) -> float:
    """Largest weak-form defect over x-cells and the six test functions
    w(t, u) = (1 - t/T)^2 {sin ku, cos ku}, k = 1, 2, 3.

    The tests vanish at t = T, so the weak identity closes without a terminal
    term.  For each w, evaluates | int_0^T int_S rho (d_t w + V d_u w) du dt
    + int_S w(0, .) rho^0 du | with the phase integral on the solver grid
    (V at the cell centres) and the time integral by the trapezoid rule over
    recorded times, from the phase integrals :func:`solve_fv` took of each
    frame as it stepped.  ``spec`` must be the spec the run was solved with.
    A one-frame run (T = 0) is rejected.
    """
    if spec is not traj.spec:
        raise ValueError("weak residual needs the spec the run was solved with")
    times, du, T = traj.times, traj.final_field.du, float(traj.times[-1])
    if not T > 0.0:
        raise ValueError(f"weak residual needs a positive horizon T, got T = {T:g}")
    rho_trig, flux_trig = traj.moments
    phi = ((1.0 - times / T) ** 2)[:, None, None]
    dphi = (-2.0 * (1.0 - times / T) / T)[:, None, None]
    space = (dphi * rho_trig + phi * flux_trig) * du
    defect = np.trapezoid(space, times, axis=0) + rho_trig[0] * du
    return float(np.max(np.abs(defect), initial=0.0))


# -- stability experiments ---------------------------------------------------


@dataclass
class StabilityConfig:
    """Paired mean-field runs for continuous-dependence checks.

    The first run starts from ``family_a``, for example
    ``initial_family(rho0, n, m)``; both families must hold ``m`` atoms per
    cell, and :func:`stability_experiments` rejects them otherwise.  Leave
    ``graphon_b`` unset to perturb only the initial family, leave
    ``family_b`` unset to perturb only the kernel; setting both combines the
    two bounds additively.
    """

    graphon_a: Graphon
    n: int
    m: int
    T: float
    dt: float
    family_a: MeasureFamily
    coupling: CouplingFunction = field(default_factory=CouplingFunction.sine)
    graphon_b: Graphon | None = None
    family_b: MeasureFamily | None = None
    kernel_resolution: int = 512
    record_every: int = 1


def stability_experiments(cfg: StabilityConfig) -> dict:
    """Run the configured pair and compare against the growth bounds.

    The measured quantity is sup over recorded t of dbar between the two
    runs; the bound is e^T * dbar(initial families) plus, when the kernels
    differ, e^(2T) * ||W - U||_L1 (measured on a refinement grid).
    """
    fam_a = cfg.family_a
    fam_b = cfg.family_b if cfg.family_b is not None else fam_a
    atoms = (fam_a.positions.shape[1], fam_b.positions.shape[1])
    if atoms != (cfg.m, cfg.m):
        raise ValueError(f"m = {cfg.m} must be the atoms per cell of both families "
                         f"(family_a has {atoms[0]}, family_b {atoms[1]})")
    spec_a = VelocityFieldSpec(cfg.graphon_a.cell_average(cfg.n), cfg.coupling)
    spec_b = spec_a if cfg.graphon_b is None else VelocityFieldSpec(
        cfg.graphon_b.cell_average(cfg.n), cfg.coupling)
    # the two runs advance together; only their current frames are held
    frames_a = particle_frames(spec_a, fam_a, cfg.T, cfg.dt, cfg.record_every)
    frames_b = particle_frames(spec_b, fam_b, cfg.T, cfg.dt, cfg.record_every)
    measured = max(dbar(x, y) for (_, x), (_, y) in zip(frames_a, frames_b))
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

