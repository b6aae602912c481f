"""Particle, fixed-point, and finite-volume mean-field solvers."""

import re

import numpy as np
import pytest

from kmflow import dynamics, meanfield
from kmflow.dynamics import CouplingFunction, PhaseState, wrap_angle
from kmflow.graphon import Graphon
from kmflow.graphs import WeightedGraph
from kmflow.meanfield import (
    BlockOscillatorSystem,
    DensityField,
    StabilityConfig,
    VelocityFieldSpec,
    density_field_from_spec,
    evolve_family,
    picard_solve,
    quantile_family_from_density,
    solve_fv,
    solve_particles,
    stability_experiments,
    weak_residual,
)
from kmflow.measures import (
    MeasureFamily,
    MeasureTrajectory,
    TwoCluster,
    Uniform,
    VonMises,
    VonMisesTwist,
    d_alpha,
    dbar,
    empirical_from_phases,
    initial_family,
    sup_dbar,
)
import oracles
from oracles import padded_family, peak_traced, triangle_wave, two_oscillator_gap

TWO_PI = 2.0 * np.pi
SINE = CouplingFunction.sine()
CUSTOM = CouplingFunction.custom(lambda v: 0.5 * np.sin(v) + 0.25 * np.sin(2.0 * v))
# a D its probe does not resolve as a short series, so it is summed in slabs
TRIANGLE = CouplingFunction.custom(triangle_wave)


def _spec(graphon, n, coupling=SINE):
    return VelocityFieldSpec(graphon.cell_average(n), coupling)


# -- velocity field ----------------------------------------------------------
# The mean-field velocity of a family is the coupling sum dynamics._field over
# the whole graph W_n, one row of targets per cell.


def _velocity(spec, fam, targets):
    return dynamics._field(spec.step_graphon, spec.coupling, fam.positions, fam.masses,
                           np.asarray(targets, dtype=float))


def _per_cell(u, n):
    return np.broadcast_to(u, (n, len(u)))


def test_velocity_zero_kernel():
    spec = _spec(Graphon.step(np.zeros((3, 3))), 3)
    fam = initial_family(VonMises(2.0, 1.0), 3, 8)
    v = _velocity(spec, fam, _per_cell(np.linspace(0, TWO_PI, 7), 3))
    assert np.array_equal(v, np.zeros((3, 7)))


def test_velocity_vanishes_at_uniform():
    spec = _spec(Graphon.constant(0.5), 4)
    fam = initial_family(Uniform(), 4, 256)
    v = _velocity(spec, fam, _per_cell(np.linspace(0.0, TWO_PI, 17), 4))
    assert np.max(np.abs(v)) < 1e-10


def test_velocity_single_atom_formula():
    spec = _spec(Graphon.small_world(0.1, 0.25), 8)
    theta = 1.0
    fam = MeasureFamily(np.full((8, 1), theta), np.ones((8, 1)))
    u = np.array([0.3, 2.0, 5.5])
    row_means = spec.step_graphon.values.mean(axis=1)
    assert np.allclose(_velocity(spec, fam, _per_cell(u, 8)),
                       row_means[:, None] * np.sin(theta - u), rtol=0.0, atol=1e-14)


def _ragged_family(counts, seed=11):
    """Cells with the given atom counts and non-uniform masses."""
    rng = np.random.default_rng(seed)
    cells = []
    for k in counts:
        masses = rng.uniform(0.5, 1.5, k)
        cells.append(MeasureFamily(rng.uniform(0, TWO_PI, (1, k)), masses[None] / masses.sum()))
    return padded_family(cells, pad_position=1.7)


@pytest.mark.parametrize("coupling", [SINE, CouplingFunction.sine_shift(0.3), CUSTOM],
                         ids=["sine", "sine_shift", "custom"])
def test_velocity_matches_double_sum(coupling):
    spec = _spec(Graphon.small_world(0.2, 0.3), 4, coupling)
    fam = _ragged_family((1, 3, 5, 2))
    # each cell its own targets
    targets = np.linspace(0.0, TWO_PI, 11) + np.arange(4)[:, None]
    expected = oracles.coupling_sum(spec.step_graphon.values, coupling, fam.positions,
                                    fam.masses, targets)
    assert np.allclose(_velocity(spec, fam, targets), expected, rtol=0.0, atol=1e-14)


def test_custom_slab_chunks_match_one_block(monkeypatch):
    spec = _spec(Graphon.small_world(0.2, 0.3), 3, TRIANGLE)
    fam = _ragged_family((5, 40, 17))
    u = np.linspace(0.0, TWO_PI, 37)
    targets = np.stack([u, u + 1.0, u + 2.0])
    w = spec.step_graphon
    whole = dynamics._field(w, TRIANGLE, fam.positions, fam.masses, targets)
    assert np.allclose(whole, oracles.coupling_sum(w.values, TRIANGLE, fam.positions,
                                                   fam.masses, targets),
                       rtol=0.0, atol=1e-14)
    # 7-row blocks within a cell, then slabs of two whole cells
    for budget in (7 * 40 * 3, 2 * 37 * 40 * 3):
        monkeypatch.setattr(dynamics, "_SLAB_ELEMENTS", budget)
        chunked = dynamics._field(w, TRIANGLE, fam.positions, fam.masses, targets)
        assert np.allclose(chunked, whole, rtol=0.0, atol=1e-15)


def test_custom_slab_single_block_at_small_sizes():
    # (8 cells, 16 atoms): one slab covers every target cell, one coupling call
    calls = []

    def counted(d):
        calls.append(d.shape)
        return triangle_wave(d)

    system = BlockOscillatorSystem(Graphon.small_world(0.1, 0.25).cell_average(8), 16,
                                   CouplingFunction.custom(counted))
    calls.clear()  # drop the amplitude probe made at construction
    system.rhs_phases(np.linspace(0.0, TWO_PI, 128))
    assert calls == [(8, 16, 128)]


def test_custom_slab_memory_bounded():
    # a one-cell graph of 16384 atoms: an unchunked slab of its 16384 targets
    # would need 2 GiB per temporary
    m = 16384
    spec = _spec(Graphon.constant(1.0), 1, CouplingFunction.custom(lambda d: 0.0 * d))
    fam = initial_family(Uniform(), 1, m)
    u = np.linspace(0.0, TWO_PI, m, endpoint=False)
    v, peak = peak_traced(lambda: _velocity(spec, fam, u[None]))
    assert np.array_equal(v, np.zeros((1, m)))
    assert peak < 40 * 2**20


def test_unresolved_custom_slab_memory_bounded():
    # as above, for a D summed in slabs; equispaced atoms of an odd D cancel
    m = 16384
    spec = _spec(Graphon.constant(1.0), 1, TRIANGLE)
    fam = initial_family(Uniform(), 1, m)
    u = np.linspace(0.0, TWO_PI, m, endpoint=False)
    v, peak = peak_traced(lambda: _velocity(spec, fam, u[None]))
    assert np.max(np.abs(v)) < 1e-15
    assert peak < 40 * 2**20


# z_1(T) error of quantile-placed particles, (4 cells, m atoms), against the
# moment hierarchy; measured 1.75e-2, 5.80e-4 and 1.19e-8
@pytest.mark.parametrize("m, bound", [(16, 2e-2), (64, 7e-4), (256, 1.5e-8)])
def test_fourier_particles_follow_the_moment_hierarchy(m, bound):
    cos, sin, n = [0.0, 0.0, 0.0], [0.5, 0.25], 4
    spec = _spec(Graphon.small_world(0.1, 0.25), n, CouplingFunction.fourier(cos, sin))
    traj = solve_particles(spec, VonMisesTwist(2.0), n, m, 1.0, 0.01)
    z1 = np.mean(np.exp(1j * traj.final_family.positions), axis=1)
    mu = TWO_PI * np.arange(1, n + 1) / n  # the twist's modes at the cell representatives
    expected = oracles.moment_hierarchy(spec.step_graphon.values, cos, sin, 2.0, mu,
                                        1.0, 0.01)
    assert np.max(np.abs(z1 - expected)) <= bound


def test_velocity_amplitude_and_lipschitz_bounds():
    rng = np.random.default_rng(0)
    spec = _spec(Graphon.small_world(0.2, 0.3), 6)
    fam = initial_family(TwoCluster(0.3, 2.0, 0.4), 6, 16)
    u = rng.uniform(0, TWO_PI, (6, 200))
    v = _velocity(spec, fam, u)
    assert np.max(np.abs(v)) <= 1.0 + 1e-9
    assert np.allclose(v, oracles.coupling_sum(spec.step_graphon.values, SINE,
                                               fam.positions, fam.masses, u),
                       rtol=0.0, atol=1e-14)
    u2 = rng.uniform(0, TWO_PI, (6, 200))
    v2 = _velocity(spec, fam, u2)
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


def test_evolve_family_shares_its_recorded_phases():
    # 101 frames x 16 x 256 atoms: the families are rows of the one recorded
    # phase array, wrapped in place, not a second copy of it
    spec = _spec(Graphon.small_world(0.1, 0.25), 16)
    fam0 = initial_family(VonMises(2.0, 1.0), 16, 256, mode="iid", seed=0)
    array = 101 * fam0.positions.nbytes
    traj, peak = peak_traced(lambda: evolve_family(spec, fam0, 1.0, 0.01))
    assert len(traj.families) == 101 and peak <= 1.3 * array
    owner = traj.families[0].positions.base
    system = BlockOscillatorSystem(spec.step_graphon, 256, spec.coupling)
    raw = dynamics.integrate(system, PhaseState(fam0.positions.ravel()), 1.0, 0.01)
    for fam, row in zip(traj.families, raw.phases):
        ref = empirical_from_phases(row, 16, 256)
        assert fam.positions.base is owner
        assert np.array_equal(fam.positions, ref.positions)
        assert np.array_equal(fam.masses, ref.masses)


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


@pytest.mark.parametrize("setting, message", [
    ({"alpha": np.nan}, "alpha must be a finite number > 2"),
    ({"alpha": np.inf}, "alpha must be a finite number > 2"),
    ({"alpha": 2.0}, "alpha must be a finite number > 2"),
    ({"tol": np.nan}, "tol must be a finite number > 0"),
    ({"tol": np.inf}, "tol must be a finite number > 0"),
    ({"tol": 0.0}, "tol must be a finite number > 0"),
])
def test_picard_rejects_settings_the_cli_rejects(setting, message):
    # a NaN alpha would run every sweep on NaN distances, a NaN tol never stop
    spec = _spec(Graphon.constant(0.5), 4)
    fam0 = initial_family(Uniform(), 4, 8)
    with pytest.raises(ValueError, match=message):
        picard_solve(spec, fam0, 1.0, 1e-2, **setting)


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


@pytest.mark.parametrize("value", [True, 2.5, 0, "3"])
@pytest.mark.parametrize("name, call", [
    pytest.param("resolution n", lambda v: Graphon.constant(0.5).cell_average(v),
                 id="cell_average"),
    pytest.param("n", lambda v: initial_family(Uniform(), v, 4), id="initial_family-n"),
    pytest.param("m", lambda v: initial_family(Uniform(), 2, v), id="initial_family-m"),
    pytest.param("m", lambda v: BlockOscillatorSystem(Graphon.constant(0.5).cell_average(2),
                                                      v, SINE), id="block_system"),
    pytest.param("n", lambda v: density_field_from_spec(Uniform(), v, 8), id="density_field-n"),
    pytest.param("g", lambda v: density_field_from_spec(Uniform(), 2, v), id="density_field-g"),
    pytest.param("m", lambda v: quantile_family_from_density(
        density_field_from_spec(Uniform(), 2, 8), v), id="quantile_family"),
    pytest.param("record_every", lambda v: dynamics.recorded_states(
        dynamics.OscillatorSystem(WeightedGraph(np.ones((2, 2))), SINE),
        PhaseState(np.zeros(2)), 1.0, 0.1, v), id="march"),
    pytest.param("max_iter", lambda v: picard_solve(
        _spec(Graphon.constant(0.5), 2), initial_family(Uniform(), 2, 4), 1.0, 0.1,
        max_iter=v), id="picard"),
])
def test_counts_must_be_positive_integers(name, call, value):
    with pytest.raises(ValueError, match=re.escape(f"need an integer {name} >= 1 "
                                                   f"(got {value!r})")):
        call(value)


def test_picard_capacity_rejected_before_allocating():
    spec = _spec(Graphon.constant(0.5), 16)
    fam0 = initial_family(Uniform(), 16, 4096)

    def rejected():
        # 1001 frames x 65536 atoms x 8 B = 512 MiB per stored trajectory
        with pytest.raises(ValueError, match="capacity exceeded: 1001 frames x 65536 atoms"):
            picard_solve(spec, fam0, 1.0, 1e-3)

    _, peak = peak_traced(rejected)
    assert peak < 2**20


def test_picard_capacity_limit_is_frames_times_atoms(monkeypatch):
    spec = _spec(Graphon.constant(0.5), 2)
    fam0 = initial_family(Uniform(), 2, 4)
    monkeypatch.setattr(meanfield, "PICARD_MAX_BYTES", 11 * 8 * 8)
    _, report = picard_solve(spec, fam0, 1.0, 0.1)  # 11 frames of 8 atoms
    assert report["converged"]
    monkeypatch.setattr(meanfield, "PICARD_MAX_BYTES", 11 * 8 * 8 - 1)
    with pytest.raises(ValueError, match="capacity exceeded"):
        picard_solve(spec, fam0, 1.0, 0.1)


def test_picard_max_iter_reports_nonconvergence():
    spec = _spec(Graphon.constant(0.9), 2)
    fam0 = initial_family(TwoCluster(0.3, 2.4, 0.5), 2, 8)
    traj, report = picard_solve(spec, fam0, 1.0, 5e-2, alpha=3.0, tol=1e-15,
                                max_iter=2)
    assert not report["converged"]
    assert report["iterations"] == 2
    assert traj.times[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("frames_per_block", [1, 3, 64])
def test_picard_reports_d_alpha_between_successive_iterates(monkeypatch, frames_per_block):
    spec = _spec(Graphon.small_world(0.1, 0.25), 4, CUSTOM)
    fam0 = initial_family(VonMises(2.0, 1.0), 4, 8, mode="iid", seed=3)
    monkeypatch.setattr(meanfield, "_SETTLE_BYTES", frames_per_block * fam0.positions.nbytes)
    times = dynamics.time_grid(1.0, 0.05)
    iterates = [MeasureTrajectory(times, [fam0] * len(times))]
    for sweeps in (1, 2, 3):
        traj, report = picard_solve(spec, fam0, 1.0, 0.05, alpha=3.5, tol=1e-15,
                                    max_iter=sweeps)
        iterates.append(traj)
    # each sweep's distance is exactly d_alpha of its iterate and the one before
    assert report["d_alpha"] == [d_alpha(b, a, 3.5) for a, b in zip(iterates, iterates[1:])]


def test_picard_holds_one_stored_iterate():
    # 101 frames x 32 x 256 atoms: 6.3 MiB per stored array; the sweeps
    # overwrite the one iterate in place and the returned families share it
    spec = _spec(Graphon.small_world(0.1, 0.25), 32)
    fam0 = initial_family(VonMises(2.0, 1.0), 32, 256, mode="iid", seed=0)
    array = 101 * fam0.positions.nbytes
    (traj, report), peak = peak_traced(
        lambda: picard_solve(spec, fam0, 1.0, 0.01, tol=1e-15, max_iter=2))
    assert report["iterations"] == 2 and len(traj.families) == 101
    assert peak <= 1.5 * array


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
    # the field of the ragged atoms moves each row of a (cells, points) array
    # of targets as if it were taken alone
    pts = np.array([0.1, 1.3, 2.9, 4.4])
    full = _velocity(spec, fam, np.tile(pts, (3, 1)))
    assert full.shape == (3, 4)
    for k in (1, 2, 3):
        part = _velocity(spec, fam, np.tile(pts[:k], (3, 1)))
        assert np.allclose(part, full[:, :k], rtol=0.0, atol=1e-14)


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


def test_x_independent_density_evaluated_once():
    calls = []

    class CountingVonMises(VonMises):
        def density(self, u):
            calls.append(len(u))
            return super().density(u)

    field = density_field_from_spec(CountingVonMises(2.0, 1.0), 5, 8)
    assert calls == [8]
    # the per-cell evaluation it replaces, bit for bit
    du = TWO_PI / 8
    rows = np.tile(VonMises(2.0, 1.0).density((np.arange(8) + 0.5) * du), (5, 1))
    rows /= rows.sum(axis=1, keepdims=True) * du
    assert np.array_equal(field.values, rows)


def test_density_field_rejects_empty_phase_grid():
    with pytest.raises(ValueError, match="g >= 1"):
        DensityField(np.zeros((2, 0)))
    for g in (0, -3):
        with pytest.raises(ValueError, match="g >= 1"):
            density_field_from_spec(Uniform(), 2, g)


def test_density_field_rejects_nonfinite_values():
    with pytest.raises(ValueError, match="nonnegative"):
        DensityField(np.array([[np.nan, 1.0 / np.pi]]))
    with pytest.raises(ValueError, match="normalization"):
        DensityField(np.array([[np.inf, 0.0]]))


def _nan_off_probe_grid(u):
    # |D| <= 1 on the 1024-point grid that CouplingFunction.custom probes,
    # NaN everywhere between its points
    k = np.asarray(u) * (1024 / TWO_PI)
    return np.where(np.abs(k - np.round(k)) < 1e-6, 0.5 * np.sin(u), np.nan)


def test_solvers_raise_on_nan_coupling_between_probe_points():
    # the probe's series misses the NaN, the shifted probe does not: slabs
    spec = _spec(Graphon.constant(0.5), 2, CouplingFunction.custom(_nan_off_probe_grid))
    assert spec.coupling.modes is None
    with pytest.raises(RuntimeError, match="velocity bound violated"):
        picard_solve(spec, initial_family(VonMises(2.0, 1.0), 2, 4), 0.1, 0.05)
    # g = 6 puts the face offsets (j + 1/2) * du between probe points
    rho0 = density_field_from_spec(Uniform(), 2, 6)
    with pytest.raises(RuntimeError, match="velocity bound violated"):
        solve_fv(spec, rho0, 0.1, 0.05)
    with pytest.raises(RuntimeError, match="velocity bound violated"):
        evolve_family(spec, initial_family(VonMises(2.0, 1.0), 2, 4), 0.1, 0.05)


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


@pytest.mark.parametrize("g", [1, 7, 96, 97, 512])
@pytest.mark.parametrize("coupling", FV_COUPLINGS, ids=FV_COUPLING_IDS)
def test_weak_residual_matches_double_sum(coupling, g):
    spec = _spec(Graphon.small_world(0.3, 0.2), 3, coupling)
    rho0 = _random_field(3, g, seed=1)
    dt = 0.9 * rho0.du
    traj = solve_fv(spec, rho0, 5 * dt, dt)
    # the frame at each recorded time, as the last field of a run to that time
    frames = [solve_fv(spec, rho0, t, dt).final_field.values for t in traj.times]
    assert np.array_equal(frames[-1], traj.final_field.values)
    expected = oracles.weak_residual(traj.times, frames, spec.step_graphon.values,
                                     coupling)
    assert abs(weak_residual(traj, spec) - expected) <= 1e-13


@pytest.mark.parametrize("frames", [20, 200])
def test_weak_residual_peak_stays_under_eight_frames(frames):
    n, g = 16, 1024
    spec = _spec(Graphon.small_world(0.3, 0.2), n)
    rho0 = density_field_from_spec(VonMises(2.0, 1.0), n, g)
    dt = 0.9 * rho0.du
    traj = solve_fv(spec, rho0, (frames - 1) * dt, dt)
    assert len(traj.times) == frames
    _, peak = peak_traced(lambda: weak_residual(traj, spec))
    assert peak < 8 * n * g * 8


@pytest.mark.parametrize("frames", [20, 200])
def test_fv_peak_stays_under_sixteen_fields(frames):
    # a run keeps its last field and 96 n bytes per recorded frame, not the frames
    n, g = 16, 1024
    spec = _spec(Graphon.small_world(0.3, 0.2), n)
    rho0 = density_field_from_spec(VonMises(2.0, 1.0), n, g)
    dt = 0.9 * rho0.du
    traj, peak = peak_traced(lambda: solve_fv(spec, rho0, (frames - 1) * dt, dt))
    assert traj.moments.shape == (2, frames, n, 6)
    assert peak < 16 * n * g * 8


def test_fv_endpoints_only_run_builds_no_coupling_table():
    # the g x g table of D at g = 4096 alone would take 128 MiB
    n, g = 16, 4096
    spec = _spec(Graphon.small_world(0.3, 0.2), n)
    rho0 = density_field_from_spec(VonMises(2.0, 1.0), n, g)
    dt = 0.9 * rho0.du
    traj, peak = peak_traced(lambda: solve_fv(spec, rho0, 10 * dt, dt, record_every=10**9))
    assert len(traj.times) == 2
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
    dt = 0.9 * rho0.du
    for T in (dt, 20 * dt, 0.5, 1.0):
        assert np.all(solve_fv(spec, rho0, T, dt).final_field.values >= 0.0)


def test_fv_checks_every_recorded_frame(monkeypatch):
    # each recorded frame is checked in place, and the returned field once more
    spec = _spec(Graphon.constant(0.9), 2)
    rho0 = density_field_from_spec(VonMises(4.0, 0.5), 2, 64)
    check, calls = meanfield._check_density, []
    monkeypatch.setattr(meanfield, "_check_density",
                        lambda values: calls.append(values.shape) or check(values))
    traj = solve_fv(spec, rho0, 1.0, 0.9 * rho0.du, record_every=3)
    assert len(traj.times) == 5
    assert calls == [(2, 64)] * (len(traj.times) + 1)


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


def test_weak_residual_rejects_a_zero_horizon():
    spec = _spec(Graphon.constant(0.5), 2)
    traj = solve_fv(spec, density_field_from_spec(Uniform(), 2, 16), 0.0, 0.1)
    assert len(traj.times) == 1
    with pytest.raises(ValueError, match="positive horizon T, got T = 0"):
        weak_residual(traj, spec)


def test_weak_residual_rejects_another_spec():
    spec = _spec(Graphon.constant(0.5), 2)
    rho0 = density_field_from_spec(VonMises(2.0, 1.0), 2, 16)
    traj = solve_fv(spec, rho0, 0.5, 0.1)
    for other in (_spec(Graphon.constant(0.5), 2), _spec(Graphon.constant(0.5), 2, CUSTOM),
                  VelocityFieldSpec(spec.step_graphon, CUSTOM)):
        with pytest.raises(ValueError, match="the spec the run was solved with"):
            weak_residual(traj, other)
    assert weak_residual(traj, spec) > 0.0


def test_weak_residual_stationary_solution():
    spec = _spec(Graphon.constant(0.5), 2)
    rho0 = density_field_from_spec(Uniform(), 2, 64)
    traj = solve_fv(spec, rho0, 1.0, 0.5 * rho0.du, record_every=1)
    assert weak_residual(traj, spec) < 1e-8


def test_weak_residual_shrinks_under_refinement():
    spec = _spec(Graphon.constant(0.5), 4)
    residuals = []
    for g in (64, 128):
        rho0 = density_field_from_spec(VonMises(1.0, 2.0), 4, g)
        traj = solve_fv(spec, rho0, 1.0, 0.5 * rho0.du, record_every=1)
        residuals.append(weak_residual(traj, spec))
    assert residuals[0] / residuals[1] >= 1.5


# -- stability and utility bounds -------------------------------------------


def test_stability_identical_inputs():
    res = stability_experiments(StabilityConfig(
        graphon_a=Graphon.constant(0.5), n=4, m=16, T=1.0, dt=1e-2,
        family_a=initial_family(VonMises(1.0, 1.0), 4, 16)))
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


def test_stability_rejects_m_unlike_either_family():
    fam4, fam8 = (initial_family(VonMises(1.0, 1.0), 4, m) for m in (4, 8))
    for m, fam_b, got in ((8, None, "4, family_b 4"), (4, fam8, "4, family_b 8")):
        with pytest.raises(ValueError, match=f"m = {m} must be the atoms per cell of "
                           f"both families \\(family_a has {got}\\)"):
            stability_experiments(StabilityConfig(
                graphon_a=Graphon.constant(0.5), n=4, m=m, T=0.1, dt=1e-2,
                family_a=fam4, family_b=fam_b))


def test_stability_kernel_bound():
    res = stability_experiments(StabilityConfig(
        graphon_a=Graphon.constant(0.5), graphon_b=Graphon.constant(0.6),
        n=4, m=32, T=1.0, dt=1e-2, family_a=initial_family(VonMises(1.5, 2.0), 4, 32)))
    assert res["kernel_l1"] == pytest.approx(0.1)
    assert res["bound"] == pytest.approx(np.exp(2.0) * 0.1)
    assert res["passed"]


_STABILITY_KERNELS = (Graphon.small_world(0.1, 0.25), Graphon.small_world(0.15, 0.25))


@pytest.mark.parametrize("record_every", [1, 7])
def test_stability_measured_is_max_over_evolved_frames(record_every):
    W, U = _STABILITY_KERNELS
    n, m, T, dt = 4, 8, 0.5, 0.03
    fam_a = initial_family(VonMises(2.0, 1.0), n, m, mode="iid", seed=3)
    fam_b = MeasureFamily(fam_a.positions + 0.05, fam_a.masses)
    res = stability_experiments(StabilityConfig(
        graphon_a=W, graphon_b=U, n=n, m=m, T=T, dt=dt, family_a=fam_a,
        family_b=fam_b, record_every=record_every))
    a = evolve_family(_spec(W, n), fam_a, T, dt, record_every=record_every)
    b = evolve_family(_spec(U, n), fam_b, T, dt, record_every=record_every)
    assert res["measured"] == max(dbar(x, y) for x, y in zip(a.families, b.families))


def test_sup_dbar_is_max_of_refined_frame_distances():
    # 8 cells divide 16, so each frame's dbar is that of the families refined
    # to 16 cells, bit for bit
    W, rho0 = Graphon.small_world(0.1, 0.25), VonMises(2.0, 1.0)
    a = evolve_family(_spec(W, 8), initial_family(rho0, 8, 4), 0.5, 0.05)
    b = evolve_family(_spec(W, 16), initial_family(rho0, 16, 16), 0.5, 0.05)
    refined = [dbar(*oracles.common_cells(x, y)) for x, y in zip(a.families, b.families)]
    assert sup_dbar(a, b) == sup_dbar(b, a) == max(refined) > 0.0
    every_other = evolve_family(_spec(W, 16), initial_family(rho0, 16, 16), 0.5, 0.05,
                                record_every=2)
    with pytest.raises(ValueError, match="recording grid"):
        sup_dbar(a, every_other)


def test_grids_a_relative_tolerance_would_merge_are_rejected():
    # dt and dt (1 + 1e-5) both give 101 frames, up to 9.9e-6 apart
    system = dynamics.OscillatorSystem(Graphon.constant(0.5).cell_average(4), SINE)
    u0 = PhaseState(np.linspace(0.0, 1.0, 4))
    a, b = (dynamics.integrate(system, u0, 1.0, dt) for dt in (0.01, 0.0100001))
    assert a.times.size == b.times.size == 101
    fa, fb = (MeasureTrajectory(t.times, [empirical_from_phases(u, 4, 1) for u in t.phases])
              for t in (a, b))
    for distance in (lambda: dynamics.sup_norm_1n(a, b), lambda: sup_dbar(fa, fb),
                     lambda: d_alpha(fa, fb, 3.0)):
        with pytest.raises(ValueError, match="recording grid"):
            distance()


@pytest.mark.parametrize("perturb", ["kernel", "initial"])
def test_stability_memory_independent_of_recorded_frames(perturb):
    W, U = _STABILITY_KERNELS
    fam = initial_family(VonMises(2.0, 1.0), 16, 256, mode="iid", seed=0)
    other = ({"graphon_b": U} if perturb == "kernel" else
             {"family_b": MeasureFamily(fam.positions + 0.05, fam.masses)})

    def run(record_every):
        return stability_experiments(StabilityConfig(
            graphon_a=W, n=16, m=256, T=1.0, dt=0.01, family_a=fam,
            record_every=record_every, **other))

    (every, peak_every), (tenth, peak_tenth) = peak_traced(lambda: run(1)), peak_traced(lambda: run(10))
    # storing the 101 frames of both runs would take 13 MiB more at record_every 1
    assert abs(peak_every - peak_tenth) <= 0.1 * peak_tenth
    assert every["measured"] >= tenth["measured"]

