"""The one coupling sum behind every velocity field, against the double sum.

The graph right-hand side, the particle system, the pointwise mean-field
velocity and the Picard transport all evaluate n^-1 sum_i W_ki sum_j m_ij
D(v_ij - u) through one routine; each is checked against the explicit double
sum of ``oracles.coupling_sum`` (the pointwise velocity in test_meanfield.py).
"""

import math

import numpy as np
import pytest

from kmflow import dynamics, graphon, meanfield
from kmflow.dynamics import CouplingFunction, OscillatorSystem
from kmflow.graphon import Graphon
from kmflow.graphs import WeightedGraph, deterministic_graph, sample_w_random
from kmflow.meanfield import BlockOscillatorSystem, VelocityFieldSpec
from kmflow.measures import MeasureFamily
from oracles import coupling_sum, triangle_wave

TWO_PI = 2.0 * np.pi
COUPLINGS = [
    CouplingFunction.sine(),
    CouplingFunction.sine_shift(0.3),
    CouplingFunction.custom(lambda u: 0.5 * np.sin(u) + 0.25 * np.sin(2.0 * u)),
    CouplingFunction.fourier([0.1, 0.2, -0.05], [0.3, 0.1]),
    CouplingFunction.custom(triangle_wave),
]
IDS = ["sine", "sine_shift", "custom", "fourier", "slab"]
KERNEL = Graphon.small_world(0.2, 0.3)
TOL = 1e-13


def _graphs(n):
    rng = np.random.default_rng(n)
    w = rng.uniform(-1.0, 1.0, (n, n))
    return {
        "dense": WeightedGraph((w + w.T) / 2),
        "toeplitz": deterministic_graph(KERNEL, n),
        "sampled": sample_w_random(KERNEL, n, seed=n),
    }


@pytest.mark.parametrize("coupling", COUPLINGS, ids=IDS)
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65])
def test_graph_rhs_matches_double_sum(coupling, n):
    rng = np.random.default_rng(100 + n)
    u = rng.uniform(-TWO_PI, 2 * TWO_PI, n)
    omega = rng.normal(size=n)
    for name, graph in _graphs(n).items():
        system = OscillatorSystem(graph, coupling, K=1.3, omega=omega)
        atoms = u[:, None]
        expected = omega + 1.3 * coupling_sum(graph.weights, coupling, atoms, 1.0,
                                              atoms).ravel()
        assert np.max(np.abs(system.rhs_phases(u) - expected)) <= TOL, name


@pytest.mark.parametrize("coupling", COUPLINGS, ids=IDS)
def test_block_rhs_matches_double_sum(coupling):
    n, m = 5, 7
    step = KERNEL.cell_average(n)
    u = np.random.default_rng(1).uniform(0.0, TWO_PI, n * m)
    blocks = u.reshape(n, m)
    expected = coupling_sum(step.values, coupling, blocks, 1.0 / m, blocks).ravel()
    got = BlockOscillatorSystem(step, m, coupling).rhs_phases(u)
    assert np.max(np.abs(got - expected)) <= TOL


@pytest.mark.parametrize("coupling", COUPLINGS, ids=IDS)
def test_transport_step_matches_double_sum_rk4(coupling):
    # Picard on a one-step grid: sweep 1 takes one RK4 step through the
    # constant iterate, sweep 2 through the atoms interpolated linearly in
    # time between the start and sweep 1's frame
    n, atoms, h = 4, 6, 0.1
    spec = VelocityFieldSpec(KERNEL.cell_average(n), coupling)
    rng = np.random.default_rng(2)
    start = rng.uniform(0.0, TWO_PI, (n, atoms))
    mass = rng.uniform(0.5, 1.5, (n, atoms))
    mass /= mass.sum(axis=1, keepdims=True)
    w = spec.step_graphon.values

    def field(pos, x):
        return coupling_sum(w, coupling, pos, mass, x)

    def rk4(left, right):
        mid = 0.5 * (left + right)
        k1 = field(left, start)
        k2 = field(mid, start + 0.5 * h * k1)
        k3 = field(mid, start + 0.5 * h * k2)
        k4 = field(right, start + h * k3)
        return start + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    expected = rk4(start, rk4(start, start))
    traj, report = meanfield.picard_solve(spec, MeasureFamily(start, mass), h, h,
                                          tol=1e-15, max_iter=2)
    assert report["iterations"] == 2 and np.array_equal(traj.times, [0.0, h])
    assert np.array_equal(traj.families[0].positions, start)
    # the returned positions are wrapped: compare on the circle
    gap = (traj.families[1].positions - expected + np.pi) % TWO_PI - np.pi
    assert np.max(np.abs(gap)) <= TOL


def _sine_field_two_pairs(w, alpha, pos, mass, targets):
    """The sine-family field with sin/cos taken of the shifted sources and,
    separately, of the targets: the reference for reusing one pair."""
    shifted = pos + alpha
    s = (mass * np.sin(shifted)).sum(axis=1)
    c = (mass * np.cos(shifted)).sum(axis=1)
    a, b = w._product(np.stack((s, c)))
    n = pos.shape[0]
    return np.cos(targets) * (a / n)[:, None] - np.sin(targets) * (b / n)[:, None]


@pytest.mark.parametrize("alpha, tol", [(0.0, 0.0), (0.3, 1e-15)])
def test_sine_rhs_reuses_the_sources_pair(alpha, tol):
    # at alpha = 0 the graph and block right-hand sides are bit for bit the
    # two-pair form; a shift only rotates the per-cell moments
    coupling = CouplingFunction.sine_shift(alpha)
    rng = np.random.default_rng(3)
    n, m = 9, 6
    u = rng.uniform(-TWO_PI, 2 * TWO_PI, n)
    omega = rng.normal(size=n)
    for name, graph in _graphs(n).items():
        atoms = u[:, None]
        expected = omega + 1.3 * _sine_field_two_pairs(graph, alpha, atoms, 1.0,
                                                       atoms).ravel()
        got = OscillatorSystem(graph, coupling, K=1.3, omega=omega).rhs_phases(u)
        assert np.max(np.abs(got - expected)) <= tol, name
    step = KERNEL.cell_average(n)
    x = rng.uniform(0.0, TWO_PI, n * m)
    blocks = x.reshape(n, m)
    expected = _sine_field_two_pairs(step, alpha, blocks, 1.0 / m, blocks).ravel()
    got = BlockOscillatorSystem(step, m, coupling).rhs_phases(x)
    assert np.max(np.abs(got - expected)) <= tol


def _sine_field_reference(w, alpha, pos, mass, targets):
    """The sine family's field in its own two-row form, the moments of sin v,
    cos v rotated by alpha when it is nonzero: the bits the modal sum keeps."""
    n = pos.shape[0]
    trig = np.empty((2, *pos.shape))
    sin_v, cos_v = np.sin(pos, out=trig[0]), np.cos(pos, out=trig[1])
    moments = (mass * trig).sum(axis=2)
    if alpha:
        cos_a, sin_a = math.cos(alpha), math.sin(alpha)
        s, c = moments
        s[:], c[:] = s * cos_a + c * sin_a, c * cos_a - s * sin_a
    a, b = w._product(moments)
    sin_u, cos_u = ((sin_v, cos_v) if targets is pos
                    else (np.sin(targets), np.cos(targets)))
    return cos_u * (a / n)[:, None] - sin_u * (b / n)[:, None]


@pytest.mark.parametrize("alpha", [0.0, 0.3, -2.1])
@pytest.mark.parametrize("n", [8, 300, 600])
def test_sine_family_field_keeps_its_bits(alpha, n):
    coupling = CouplingFunction.sine_shift(alpha) if alpha else CouplingFunction.sine()
    rng = np.random.default_rng(n)
    for name, graph in _graphs(n).items():
        for atoms in (1, 3):
            pos = rng.uniform(-TWO_PI, 2 * TWO_PI, (n, atoms))
            for mass in (1.0 / atoms, rng.dirichlet(np.ones(atoms), n)):
                for targets in (pos, rng.uniform(0.0, TWO_PI, (n, 2))):
                    got = dynamics._field(graph, coupling, pos, mass, targets)
                    assert np.array_equal(
                        got, _sine_field_reference(graph, alpha, pos, mass, targets)), name


@pytest.mark.parametrize("coupling", COUPLINGS[2:4], ids=IDS[2:4])
def test_modal_field_matches_double_sum_on_every_product(coupling, monkeypatch):
    # band averages from 16 rows up are stored as diagonals, so n = 48 takes
    # the Toeplitz FFT and the split sampled graph its flipped pairs
    monkeypatch.setattr(graphon, "_TOEPLITZ_NODES", 16)
    assert coupling.modes is not None
    n, band = 48, Graphon.small_world(0.1, 0.25)
    rng = np.random.default_rng(9)
    w = rng.uniform(-1.0, 1.0, (n, n))
    graphs = {"dense": WeightedGraph((w + w.T) / 2),
              "toeplitz": deterministic_graph(band, n),
              "split": sample_w_random(band, n, seed=4)}
    assert graphs["toeplitz"]._diagonals is not None
    assert graphs["split"]._flips and graphs["split"].weights.dtype == bool
    pos, mass = rng.uniform(-TWO_PI, 2 * TWO_PI, (n, 3)), rng.dirichlet(np.ones(3), n)
    for name, graph in graphs.items():
        for targets in (pos, rng.uniform(0.0, TWO_PI, (n, 2))):
            expected = coupling_sum(graph.weights, coupling, pos, mass, targets)
            got = dynamics._field(graph, coupling, pos, mass, targets)
            assert np.max(np.abs(got - expected)) <= TOL, name
