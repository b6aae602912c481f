"""The one coupling sum behind every velocity field, against the double sum.

The graph right-hand side, the particle system, the pointwise mean-field
velocity and the Picard transport all evaluate n^-1 sum_i W_ki sum_j m_ij
D(v_ij - u) through one routine; each is checked against the explicit double
sum of ``oracles.coupling_sum`` (the pointwise velocity in test_meanfield.py).
"""

import numpy as np
import pytest

from kmflow import meanfield
from kmflow.dynamics import CouplingFunction, OscillatorSystem
from kmflow.graphon import Graphon
from kmflow.graphs import WeightedGraph, deterministic_graph, sample_w_random
from kmflow.meanfield import BlockOscillatorSystem, VelocityFieldSpec
from kmflow.measures import MeasureFamily
from oracles import coupling_sum

TWO_PI = 2.0 * np.pi
COUPLINGS = [
    CouplingFunction.sine(),
    CouplingFunction.sine_shift(0.3),
    CouplingFunction.custom(lambda u: 0.5 * np.sin(u) + 0.25 * np.sin(2.0 * u)),
]
IDS = ["sine", "sine_shift", "custom"]
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
