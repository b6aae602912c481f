"""Particle, fixed-point, and finite-volume mean-field solvers."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from kmflow import dynamics
from kmflow.dynamics import CouplingFunction, PhaseState, wrap_angle
from kmflow.graphon import Graphon
from kmflow.graphs import WeightedGraph
from kmflow.meanfield import (
    BlockOscillatorSystem,
    DensityField,
    StabilityConfig,
    VelocityFieldSpec,
    characteristic_flow,
    default_test_functions,
    density_field_from_spec,
    evolve_family,
    gronwall_envelope,
    picard_solve,
    quantile_family_from_density,
    solve_fv,
    solve_particles,
    stability_experiments,
    velocity,
    weak_residual,
    SpaceTimeTestFunction,
)
from kmflow.measures import (
    CircleMeasure,
    MeasureFamily,
    TwoCluster,
    Uniform,
    VonMises,
    dbar,
    initial_family,
)
import oracles
from oracles import padded_family, two_oscillator_gap

TWO_PI = 2.0 * np.pi
SINE = CouplingFunction.sine()
CUSTOM = CouplingFunction.custom(lambda v: 0.5 * np.sin(v) + 0.25 * np.sin(2.0 * v))


def _spec(graphon, n, coupling=SINE):
    return VelocityFieldSpec(graphon.cell_average(n), coupling)


# -- velocity field ----------------------------------------------------------


def test_velocity_zero_kernel():
    spec = _spec(Graphon.step(np.zeros((3, 3))), 3)
    fam = initial_family(VonMises(2.0, 1.0), 3, 8)
    v = velocity(spec, fam, np.linspace(0, TWO_PI, 7), 1)
    assert np.allclose(v, 0.0)


def test_velocity_vanishes_at_uniform():
    spec = _spec(Graphon.constant(0.5), 4)
    fam = initial_family(Uniform(), 4, 256)
    u = np.linspace(0.0, TWO_PI, 17)
    for cell in range(4):
        assert np.max(np.abs(velocity(spec, fam, u, cell))) < 1e-10


def test_velocity_single_atom_formula():
    spec = _spec(Graphon.small_world(0.1, 0.25), 8)
    theta = 1.0
    fam = MeasureFamily(np.full((8, 1), theta), np.ones((8, 1)))
    u = np.array([0.3, 2.0, 5.5])
    for cell in (0, 3, 7):
        row_mean = spec.step_graphon.values[cell].mean()
        assert np.allclose(velocity(spec, fam, u, cell),
                           row_mean * np.sin(theta - u), atol=1e-14)


def _ragged_family(counts, seed=11):
    """Cells with the given atom counts and non-uniform masses."""
    rng = np.random.default_rng(seed)
    cells = []
    for k in counts:
        masses = rng.uniform(0.5, 1.5, k)
        cells.append(CircleMeasure(rng.uniform(0, TWO_PI, k), masses / masses.sum()))
    return padded_family(cells, pad_position=1.7)


@pytest.mark.parametrize("coupling", [SINE, CouplingFunction.sine_shift(0.3), CUSTOM],
                         ids=["sine", "sine_shift", "custom"])
def test_velocity_matches_double_sum(coupling):
    spec = _spec(Graphon.small_world(0.2, 0.3), 4, coupling)
    fam = _ragged_family((1, 3, 5, 2))
    w = spec.step_graphon.values
    u = np.linspace(0.0, TWO_PI, 11)
    for cell in range(4):
        expected = oracles.coupling_sum(w[cell:cell + 1], coupling, fam.positions,
                                        fam.masses, u[None, :])[0]
        assert np.allclose(velocity(spec, fam, u, cell), expected,
                           rtol=0.0, atol=1e-14)


def test_custom_slab_chunks_match_one_block(monkeypatch):
    spec = _spec(Graphon.small_world(0.2, 0.3), 3, CUSTOM)
    fam = _ragged_family((5, 40, 17))
    u = np.linspace(0.0, TWO_PI, 37)
    targets = np.stack([u, u + 1.0, u + 2.0])
    w = spec.step_graphon.values
    whole = dynamics._field(w, CUSTOM, fam.positions, fam.masses, targets)
    # 7-row blocks within a cell, then slabs of two whole cells
    for budget in (7 * 40 * 3, 2 * 37 * 40 * 3):
        monkeypatch.setattr(dynamics, "_SLAB_ELEMENTS", budget)
        chunked = dynamics._field(w, CUSTOM, fam.positions, fam.masses, targets)
        assert np.allclose(chunked, whole, rtol=0.0, atol=1e-15)
        for cell in range(3):
            assert np.allclose(velocity(spec, fam, targets[cell], cell), whole[cell],
                               rtol=0.0, atol=1e-15)


def test_custom_slab_single_block_at_small_sizes():
    # (8 cells, 16 atoms): one slab covers every target cell, one coupling call
    calls = []

    def counted(d):
        calls.append(d.shape)
        return 0.5 * np.sin(d) + 0.25 * np.sin(2.0 * d)

    system = BlockOscillatorSystem(Graphon.small_world(0.1, 0.25).cell_average(8), 16,
                                   CouplingFunction.custom(counted))
    calls.clear()  # drop the amplitude probe made at construction
    system.rhs_phases(np.linspace(0.0, TWO_PI, 128))
    assert calls == [(8, 16, 128)]


def test_custom_slab_memory_bounded():
    # one cell of 16384 atoms: an unchunked slab would need 2 GiB per temporary
    m = 16384
    spec = _spec(Graphon.constant(1.0), 1, CouplingFunction.custom(lambda d: 0.0 * d))
    fam = initial_family(Uniform(), 1, m)
    u = np.linspace(0.0, TWO_PI, m, endpoint=False)
    tracemalloc.start()
    try:
        v = velocity(spec, fam, u, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(v, np.zeros(m))
    assert peak < 40 * 2**20


def test_velocity_cell_out_of_range():
    spec = _spec(Graphon.constant(0.5), 3)
    fam = initial_family(Uniform(), 3, 4)
    with pytest.raises(IndexError):
        velocity(spec, fam, 0.0, 3)


def test_velocity_amplitude_and_lipschitz_bounds():
    rng = np.random.default_rng(0)
    spec = _spec(Graphon.small_world(0.2, 0.3), 6)
    fam = initial_family(TwoCluster(0.3, 2.0, 0.4), 6, 16)
    u = rng.uniform(0, TWO_PI, 200)
    v = velocity(spec, fam, u, 2)
    assert np.max(np.abs(v)) <= 1.0 + 1e-9
    u2 = rng.uniform(0, TWO_PI, 200)
    v2 = velocity(spec, fam, u2, 2)
    assert np.all(np.abs(v - v2) <= np.abs(u - u2) + 1e-12)


# -- particle solver ---------------------------------------------------------


def test_particles_uniform_stationary():
    spec = _spec(Graphon.constant(0.5), 4)
    traj = solve_particles(spec, Uniform(), 4, 64, 1.0, 1e-3, record_every=100)
    assert max(dbar(f, traj.families[0]) for f in traj.families) < 1e-6


def test_particles_single_cell_two_atoms_closed_form():
    # n=1, m=2, W=1, sine: the two atoms follow the two-oscillator dynamics
    spec = VelocityFieldSpec(Graphon.constant(1.0).cell_average(1), SINE)
    fam0 = MeasureFamily(np.array([[0.0, 1.0]]), np.array([[0.5, 0.5]]))
    traj = evolve_family(spec, fam0, 1.0, 1e-3, record_every=10**9)
    pos = np.sort(traj.final_family.positions[0])
    gap = pos[1] - pos[0]
    assert abs(gap - two_oscillator_gap(1.0, 1.0, 1.0)) < 1e-8


def test_particles_bitwise_equal_to_direct_block_integration():
    spec = _spec(Graphon.small_world(0.2, 0.3), 3)
    rho0 = VonMises(1.0, 1.0)
    traj = solve_particles(spec, rho0, 3, 5, 0.5, 1e-2, record_every=2)
    fam0 = initial_family(rho0, 3, 5)
    system = BlockOscillatorSystem(spec.step_graphon, 5, spec.coupling)
    phases0 = fam0.positions.ravel()
    raw = dynamics.integrate(system, PhaseState(phases0), 0.5, 1e-2, record_every=2)
    assert np.array_equal(traj.times, raw.times)
    for fam, row in zip(traj.families, raw.phases):
        assert np.array_equal(fam.positions.ravel(), np.asarray(wrap_angle(row)))


def test_block_rhs_matches_dense_kron_system():
    wn = Graphon.small_world(0.2, 0.3).cell_average(3).values
    m = 4
    dense = WeightedGraph(np.kron(wn, np.ones((m, m))))
    rng = np.random.default_rng(1)
    u = rng.uniform(0, TWO_PI, 12)
    for coup in (SINE, CouplingFunction.sine_shift(0.3),
                 CouplingFunction.custom(lambda v: 0.8 * np.sin(v))):
        block = BlockOscillatorSystem(Graphon.step(wn).step_values, m, coup)
        full = dynamics.OscillatorSystem(dense, coup, K=1.0)
        assert np.allclose(block.rhs_phases(u), full.rhs_phases(u), atol=1e-12)


def test_particles_preserve_cell_mass():
    spec = _spec(Graphon.constant(0.8), 3)
    traj = solve_particles(spec, TwoCluster(0.5, 2.5, 0.3), 3, 10, 0.5, 1e-2)
    for fam in traj.families:
        assert np.max(np.abs(fam.masses.sum(axis=1) - 1.0)) <= 1e-12
        # the frames share one read-only masses array
        assert fam.masses is traj.families[0].masses


def test_evolve_family_requires_uniform_atoms():
    spec = _spec(Graphon.constant(0.5), 1)
    fam = MeasureFamily(np.array([[0.0, 1.0]]), np.array([[0.3, 0.7]]))
    with pytest.raises(ValueError):
        evolve_family(spec, fam, 1.0, 0.1)


# -- fixed-point iteration ---------------------------------------------------


def test_picard_uniform_fixed_point_immediately():
    spec = _spec(Graphon.constant(0.5), 4)
    fam0 = initial_family(Uniform(), 4, 32)
    _, report = picard_solve(spec, fam0, 1.0, 1e-2, alpha=3.0, tol=1e-4)
    assert report["converged"] and report["iterations"] == 1


def test_picard_contraction_ratios():
    spec = _spec(Graphon.constant(0.5), 4)
    fam0 = initial_family(TwoCluster(0.0, 2.0, 0.5), 4, 16)
    _, report = picard_solve(spec, fam0, 1.0, 1e-2, alpha=3.0, tol=1e-6,
                             max_iter=15)
    assert report["converged"]
    assert all(r <= 0.55 for r in report["contraction_ratios"])


def test_picard_agrees_with_particles():
    rho0 = TwoCluster(0.5, 2.6, 0.4)
    tol = 1e-4
    fam0 = initial_family(rho0, 4, 16)
    for coupling in (SINE, CUSTOM):
        spec = _spec(Graphon.constant(0.5), 4, coupling)
        fixed, report = picard_solve(spec, fam0, 1.0, 5e-3, alpha=3.0, tol=tol,
                                     max_iter=25)
        assert report["converged"]
        particles = solve_particles(spec, rho0, 4, 16, 1.0, 5e-3)
        sup = max(dbar(a, b) for a, b in zip(fixed.families, particles.families))
        assert sup < 10.0 * tol


def test_picard_requires_contractive_alpha():
    spec = _spec(Graphon.constant(0.5), 2)
    fam0 = initial_family(Uniform(), 2, 4)
    with pytest.raises(ValueError):
        picard_solve(spec, fam0, 1.0, 0.1, alpha=2.0)


def test_picard_rejects_zero_sweeps():
    spec = _spec(Graphon.constant(0.5), 2)
    fam0 = initial_family(Uniform(), 2, 4)
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(spec, fam0, 1.0, 0.1, max_iter=0)


def test_picard_max_iter_reports_nonconvergence():
    spec = _spec(Graphon.constant(0.9), 2)
    fam0 = initial_family(TwoCluster(0.3, 2.4, 0.5), 2, 8)
    traj, report = picard_solve(spec, fam0, 1.0, 5e-2, alpha=3.0, tol=1e-15,
                                max_iter=2)
    assert not report["converged"]
    assert report["iterations"] == 2
    assert traj.times[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("coupling", [SINE, CUSTOM], ids=["sine", "custom"])
def test_picard_and_flow_accept_ragged_families(coupling):
    # the ragged family and its copy with every atom split into equal parts,
    # four atoms per cell (same measures, no padding), share one fixed point
    spec = _spec(Graphon.small_world(0.2, 0.3), 3, coupling)
    fam = _ragged_family((1, 2, 4))
    counts = (fam.masses > 0).sum(axis=1)
    assert counts.tolist() == [1, 2, 4]
    split = MeasureFamily(
        np.array([np.repeat(p[:k], 4 // k) for p, k in zip(fam.positions, counts)]),
        np.array([np.repeat(w[:k] / (4 // k), 4 // k) for w, k in zip(fam.masses, counts)]))
    traj, report = picard_solve(spec, fam, 0.5, 0.05, tol=1e-10)
    ref, _ = picard_solve(spec, split, 0.5, 0.05, tol=1e-10)
    assert report["converged"]
    for f, g in zip(traj.families, ref.families):
        # the padding keeps zero mass and the atoms their masses
        assert f.masses is fam.masses
        assert dbar(f, g) < 1e-12
    # each row of a (cells, points) array is moved as if transported alone
    pts = np.array([0.1, 1.3, 2.9, 4.4])
    full = characteristic_flow(spec, traj, np.tile(pts, (3, 1)), 0.0, 0.5)
    assert full.shape == (3, 4)
    for k in (1, 2, 3):
        part = characteristic_flow(spec, traj, np.tile(pts[:k], (3, 1)), 0.0, 0.5)
        assert np.allclose(part, full[:, :k], rtol=0.0, atol=1e-14)


def test_flow_two_parameter_composition():
    # transporting 0 -> s then s -> t equals transporting 0 -> t
    spec = _spec(Graphon.constant(0.7), 3)
    rho0 = VonMises(1.5, 2.0)
    frozen = solve_particles(spec, rho0, 3, 12, 1.0, 2e-2)
    start = frozen.families[0].positions
    mid = characteristic_flow(spec, frozen, start, 0.0, 0.5)
    end_two_leg = characteristic_flow(spec, frozen, mid, 0.5, 1.0)
    end_direct = characteristic_flow(spec, frozen, start, 0.0, 1.0)
    assert np.array_equal(end_two_leg, end_direct)
    # s = s transport is the identity
    same = characteristic_flow(spec, frozen, start, 0.5, 0.5)
    assert np.array_equal(same, start)
    with pytest.raises(ValueError, match="points"):
        characteristic_flow(spec, frozen, start[:2], 0.0, 0.5)


# -- finite volumes ----------------------------------------------------------


def test_density_field_validation():
    with pytest.raises(ValueError):
        DensityField(np.ones((2, 8)))  # mass 2*pi per cell, not 1
    du = TWO_PI / 8
    ok = DensityField(np.full((2, 8), 1.0 / TWO_PI))
    assert ok.du == pytest.approx(du)
    with pytest.raises(ValueError):
        DensityField(-np.full((1, 4), 1.0 / TWO_PI))


def test_density_field_from_spec_normalized():
    # kappa = 800 and 5000 overflow exp(kappa cos u) and need the scaled form
    for kappa, g in ((5.0, 32), (800.0, 256), (5000.0, 256)):
        field = density_field_from_spec(VonMises(kappa, 1.0), 3, g)
        assert np.all(np.isfinite(field.values))
        assert np.max(np.abs(field.cell_masses() - 1.0)) < 1e-14


def test_density_field_rejects_empty_phase_grid():
    with pytest.raises(ValueError, match="g >= 1"):
        DensityField(np.zeros((2, 0)))
    for g in (0, -3):
        with pytest.raises(ValueError, match="g >= 1"):
            density_field_from_spec(Uniform(), 2, g)


FV_COUPLINGS = [SINE, CouplingFunction.sine_shift(0.3), CUSTOM]
FV_COUPLING_IDS = ["sine", "sine_shift", "custom"]


def _random_field(n, g, seed=0):
    values = np.random.default_rng(seed).uniform(0.2, 1.0, (n, g))
    return DensityField(values / (values.sum(axis=1, keepdims=True) * (TWO_PI / g)))


@pytest.mark.parametrize("g", [1, 7, 96, 97, 512])
@pytest.mark.parametrize("coupling", FV_COUPLINGS, ids=FV_COUPLING_IDS)
def test_fv_step_matches_double_sum(coupling, g):
    spec = _spec(Graphon.small_world(0.3, 0.2), 3, coupling)
    rho0 = _random_field(3, g)
    dt = 0.9 * rho0.du
    traj = solve_fv(spec, rho0, dt, dt)
    expected = oracles.fv_step(spec.step_graphon.values, coupling, rho0.values,
                               traj.times[1] - traj.times[0])
    assert np.max(np.abs(traj.final_field.values - expected)) <= 1e-13


def _scalar_time_test():
    # math.exp rejects arrays: this test only works when t is a scalar
    return SpaceTimeTestFunction(
        value=lambda t, u: math.exp(-t) * np.sin(u),
        dt=lambda t, u: -math.exp(-t) * np.sin(u),
        du=lambda t, u: math.exp(-t) * np.cos(u),
    )


@pytest.mark.parametrize("g", [1, 7, 96, 97, 512])
@pytest.mark.parametrize("coupling", FV_COUPLINGS, ids=FV_COUPLING_IDS)
def test_weak_residual_matches_double_sum(coupling, g):
    spec = _spec(Graphon.small_world(0.3, 0.2), 3, coupling)
    rho0 = _random_field(3, g, seed=1)
    dt = 0.9 * rho0.du
    traj = solve_fv(spec, rho0, 5 * dt, dt)
    frames = [f.values for f in traj.fields]
    w = spec.step_graphon.values
    for tests in (None, [_scalar_time_test()]):
        expected = oracles.weak_residual(
            traj.times, frames, w, coupling,
            tests or default_test_functions(float(traj.times[-1])))
        assert abs(weak_residual(traj, spec, tests) - expected) <= 1e-13


@pytest.mark.parametrize("frames", [20, 200])
def test_weak_residual_peak_stays_under_eight_frames(frames):
    n, g = 16, 1024
    spec = _spec(Graphon.small_world(0.3, 0.2), n)
    rho0 = density_field_from_spec(VonMises(2.0, 1.0), n, g)
    dt = 0.9 * rho0.du
    traj = solve_fv(spec, rho0, (frames - 1) * dt, dt)
    assert len(traj.fields) == frames
    tracemalloc.start()
    try:
        weak_residual(traj, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * g * 8


def test_fv_endpoints_only_run_builds_no_coupling_table():
    # the g x g table of D at g = 4096 alone would take 128 MiB
    n, g = 16, 4096
    spec = _spec(Graphon.small_world(0.3, 0.2), n)
    rho0 = density_field_from_spec(VonMises(2.0, 1.0), n, g)
    dt = 0.9 * rho0.du
    tracemalloc.start()
    try:
        traj = solve_fv(spec, rho0, 10 * dt, dt, record_every=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.fields) == 2
    assert peak < 8 * 2**20


def test_fv_uniform_stationary():
    spec = _spec(Graphon.constant(0.5), 4)
    rho0 = density_field_from_spec(Uniform(), 4, 64)
    traj = solve_fv(spec, rho0, 1.0, 0.9 * rho0.du, record_every=100)
    drift = np.max(np.abs(traj.final_field.values - rho0.values))
    assert drift < 1e-10


def test_fv_mass_conserved_over_1000_steps():
    spec = _spec(Graphon.constant(0.5), 2)
    rho0 = density_field_from_spec(VonMises(2.0, 1.0), 2, 128)
    dt = 0.5 * rho0.du
    traj = solve_fv(spec, rho0, 1000 * dt, dt, record_every=1000)
    assert np.max(np.abs(traj.final_field.cell_masses() - 1.0)) < 1e-12


def test_fv_rejects_cfl_violation():
    spec = _spec(Graphon.constant(0.5), 2)
    rho0 = density_field_from_spec(Uniform(), 2, 64)
    with pytest.raises(ValueError, match="CFL"):
        solve_fv(spec, rho0, 1.0, rho0.du)


def test_fv_positivity():
    spec = _spec(Graphon.constant(0.9), 2)
    rho0 = density_field_from_spec(VonMises(4.0, 0.5), 2, 64)
    traj = solve_fv(spec, rho0, 1.0, 0.9 * rho0.du, record_every=20)
    for field in traj.fields:
        assert np.all(field.values >= 0.0)


def test_fv_agrees_with_particles_moderate_resolution():
    spec = _spec(Graphon.constant(0.5), 4)
    rho0 = VonMises(2.0, np.pi)
    field0 = density_field_from_spec(rho0, 4, 256)
    fv = solve_fv(spec, field0, 1.0, 0.9 * field0.du, record_every=10**9)
    pt = solve_particles(spec, rho0, 4, 256, 1.0, 1e-2, record_every=10**9)
    fam_fv = quantile_family_from_density(fv.final_field, 256)
    assert dbar(fam_fv, pt.final_family) < 0.05


def test_quantile_family_from_density_uniform():
    field = density_field_from_spec(Uniform(), 2, 64)
    fam = quantile_family_from_density(field, 4)
    assert np.allclose(fam.positions[0],
                       [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4],
                       atol=1e-12)


# -- weak-form residual ------------------------------------------------------


def test_weak_residual_stationary_solution():
    spec = _spec(Graphon.constant(0.5), 2)
    rho0 = density_field_from_spec(Uniform(), 2, 64)
    traj = solve_fv(spec, rho0, 1.0, 0.5 * rho0.du, record_every=1)
    assert weak_residual(traj, spec) < 1e-8


def test_weak_residual_zero_test_function():
    spec = _spec(Graphon.constant(0.5), 2)
    rho0 = density_field_from_spec(VonMises(1.0, 1.0), 2, 32)
    traj = solve_fv(spec, rho0, 0.5, 0.5 * rho0.du, record_every=1)
    zero = SpaceTimeTestFunction(
        value=lambda t, u: np.zeros(np.shape(u)),
        dt=lambda t, u: np.zeros(np.shape(u)),
        du=lambda t, u: np.zeros(np.shape(u)),
    )
    assert weak_residual(traj, spec, [zero]) == 0.0


def test_weak_residual_shrinks_under_refinement():
    spec = _spec(Graphon.constant(0.5), 4)
    residuals = []
    for g in (64, 128):
        rho0 = density_field_from_spec(VonMises(1.0, 2.0), 4, g)
        traj = solve_fv(spec, rho0, 1.0, 0.5 * rho0.du, record_every=1)
        residuals.append(weak_residual(traj, spec))
    assert residuals[0] / residuals[1] >= 1.5


def test_default_test_functions_vanish_at_horizon():
    for test in default_test_functions(2.0):
        u = np.linspace(0, TWO_PI, 9)
        assert np.allclose(test.value(2.0, u), 0.0)


# -- stability and utility bounds -------------------------------------------


def test_stability_identical_inputs():
    res = stability_experiments(StabilityConfig(
        graphon_a=Graphon.constant(0.5), n=4, m=16, T=1.0, dt=1e-2,
        rho0=VonMises(1.0, 1.0)))
    assert res["measured"] == 0.0 and res["bound"] == 0.0 and res["passed"]


def test_stability_initial_data_bound():
    fam_a = initial_family(VonMises(1.5, 2.0), 4, 24)
    rng = np.random.default_rng(3)
    fam_b = MeasureFamily(fam_a.positions + rng.uniform(-0.15, 0.15, (4, 24)),
                          fam_a.masses)
    res = stability_experiments(StabilityConfig(
        graphon_a=Graphon.constant(0.5), n=4, m=24, T=1.0, dt=1e-2,
        family_a=fam_a, family_b=fam_b))
    assert res["passed"]
    assert res["bound"] == pytest.approx(np.e * res["initial_dbar"])


def test_stability_kernel_bound():
    res = stability_experiments(StabilityConfig(
        graphon_a=Graphon.constant(0.5), graphon_b=Graphon.constant(0.6),
        n=4, m=32, T=1.0, dt=1e-2, rho0=VonMises(1.5, 2.0)))
    assert res["kernel_l1"] == pytest.approx(0.1)
    assert res["bound"] == pytest.approx(np.exp(2.0) * 0.1)
    assert res["passed"]


def test_gronwall_envelope_dominates():
    t = np.linspace(0.0, 2.0, 2001)
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = rng.uniform(0.2, 3.0)
        B = rng.uniform(0.0, 2.0)
        C = rng.uniform(0.1, 2.0)
        a = rng.uniform(0.0, 1.0) * (1.0 + np.sin(rng.uniform(1, 3) * t)) ** 2
        bound = gronwall_envelope(t, a, A, B, C)
        # phi growing no faster than e^{beta t}, beta <= A, satisfies the
        # integral hypothesis, so the envelope must dominate it
        beta = rng.uniform(0.0, A)
        phi = C * np.exp(beta * t)
        hypothesis_rhs = A * np.concatenate(
            [[0.0], np.cumsum((phi[1:] + phi[:-1]) / 2 * np.diff(t))]
        ) + B * np.concatenate(
            [[0.0], np.cumsum((a[1:] + a[:-1]) / 2 * np.diff(t))]
        ) + C
        assert np.all(phi <= hypothesis_rhs + 1e-9)
        assert np.all(phi <= bound * (1.0 + 1e-9) + 1e-12)
        # equality case: phi equal to the envelope itself
        assert np.all(bound <= gronwall_envelope(t, a, A, B, C) + 1e-15)


def test_gronwall_envelope_matches_scipy_trapezoid():
    t = np.linspace(0.0, 2.0, 301)
    a = 1.0 + np.sin(3.0 * t) ** 2
    expected = np.exp(1.5 * t) * (
        0.7 * cumulative_trapezoid(a * np.exp(-1.5 * t), t, initial=0.0) + 0.2)
    assert np.array_equal(gronwall_envelope(t, a, 1.5, 0.7, 0.2), expected)
