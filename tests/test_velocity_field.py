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
    # one RK4 step through the frozen atoms, interpolated linearly in time
    n, atoms, points, h = 4, 6, 5, 0.1
    spec = VelocityFieldSpec(KERNEL.cell_average(n), coupling)
    rng = np.random.default_rng(2)
    frozen = rng.uniform(0.0, TWO_PI, (2, n, atoms))
    mass = rng.uniform(0.5, 1.5, (n, atoms))
    mass /= mass.sum(axis=1, keepdims=True)
    start = rng.uniform(0.0, TWO_PI, (n, points))
    w = spec.step_graphon.values

    def field(pos, x):
        return coupling_sum(w, coupling, pos, mass, x)

    left, right = frozen
    mid = 0.5 * (left + right)
    k1 = field(left, start)
    k2 = field(mid, start + 0.5 * h * k1)
    k3 = field(mid, start + 0.5 * h * k2)
    k4 = field(right, start + h * k3)
    expected = start + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    path = meanfield._transport(spec, np.array([0.0, h]), frozen, mass, start)
    assert np.array_equal(path[0], start)
    assert np.max(np.abs(path[1] - expected)) <= TOL
