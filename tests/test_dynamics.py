"""Oscillator right-hand sides, RK4 integration, diagnostics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kmflow import dynamics
from kmflow.dynamics import (
    MAX_STEPS,
    CouplingFunction,
    IntegrationError,
    OscillatorSystem,
    PhaseState,
    integrate,
    norm_1n,
    omega_from_spec,
    order_parameter,
    rhs,
    sup_norm_1n,
    time_grid,
    weight_perturbation_constant,
    wrap_angle,
)
from kmflow.graphon import Graphon
from kmflow.graphs import WeightedGraph, deterministic_graph
from oracles import two_oscillator_gap

TWO_PI = 2.0 * np.pi


def _system(weights, coupling=None, K=1.0, omega=None):
    return OscillatorSystem(WeightedGraph(weights), coupling or CouplingFunction.sine(),
                            K=K, omega=omega)


def test_rhs_zero_at_synchrony():
    sys_ = _system(np.ones((4, 4)))
    v = rhs(sys_, PhaseState(np.full(4, 1.3)))
    assert np.allclose(v, 0.0, atol=1e-15)


def test_rhs_two_oscillators():
    # n=2, W=1, K=1, sine, u=(0, pi/2): v = (sin(pi/2)/2, sin(-pi/2)/2)
    sys_ = _system(np.ones((2, 2)))
    v = rhs(sys_, PhaseState(np.array([0.0, np.pi / 2])))
    assert np.allclose(v, [0.5, -0.5], atol=1e-15)


def test_rhs_single_oscillator_shifted():
    # n=1: v = omega + K * W11 * sin(alpha)
    alpha, K, w11, om = 0.4, 2.0, 0.7, 0.3
    sys_ = _system(np.array([[w11]]), CouplingFunction.sine_shift(alpha), K=K,
                   omega=np.array([om]))
    v = rhs(sys_, PhaseState(np.array([1.0])))
    assert v[0] == pytest.approx(om + K * w11 * np.sin(alpha), abs=1e-15)


def test_rhs_custom_coupling_matches_direct_sum():
    fn = lambda u: 0.8 * np.sin(u)
    coup = CouplingFunction.custom(fn)
    rng = np.random.default_rng(5)
    w = rng.uniform(-1, 1, (6, 6))
    w = (w + w.T) / 2
    u = rng.uniform(0, TWO_PI, 6)
    sys_ = _system(w, coup, K=1.3)
    expected = (1.3 / 6) * np.array(
        [np.sum(w[i] * fn(u - u[i])) for i in range(6)]
    )
    assert np.allclose(sys_.rhs_phases(u), expected, atol=1e-13)


_TOEPLITZ_KERNELS = [Graphon.constant(-0.4), Graphon.small_world(0.1, 0.25),
                     Graphon.nearest_neighbor(0.2)]


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 1000])
@pytest.mark.parametrize("coupling", [CouplingFunction.sine(),
                                      CouplingFunction.sine_shift(0.3)],
                         ids=["sine", "sine_shift"])
def test_toeplitz_rhs_matches_double_sum(coupling, n):
    # the FFT convolution against the explicit sum over j of W_ij D(u_j - u_i)
    rng = np.random.default_rng(n)
    u = rng.uniform(-TWO_PI, 2 * TWO_PI, n)
    omega = rng.normal(size=n)
    for W in _TOEPLITZ_KERNELS:
        graph = deterministic_graph(W, n)
        assert graph._diagonals is not None
        sys_ = OscillatorSystem(graph, coupling, K=1.3, omega=omega)
        w = W.cell_average(n).values
        expected = omega + (1.3 / n) * np.sum(w * coupling(u[None, :] - u[:, None]), axis=1)
        assert np.max(np.abs(sys_.rhs_phases(u) - expected)) <= 1e-13


@pytest.mark.parametrize("n", [5, 600])
def test_custom_coupling_on_toeplitz_graph_matches_dense(n):
    coup = CouplingFunction.custom(lambda u: 0.5 * np.sin(u) + 0.25 * np.cos(2.0 * u))
    u = np.random.default_rng(3).uniform(0, TWO_PI, n)
    for W in _TOEPLITZ_KERNELS:
        graph = deterministic_graph(W, n)
        dense = WeightedGraph(np.array(graph.weights))
        assert np.array_equal(OscillatorSystem(graph, coup, K=0.7).rhs_phases(u),
                              OscillatorSystem(dense, coup, K=0.7).rhs_phases(u))


@pytest.mark.parametrize("n", [1, 7, 300])
def test_dense_rhs_matches_two_products(n):
    rng = np.random.default_rng(n)
    w = rng.uniform(-1, 1, (n, n))
    w = (w + w.T) / 2
    u = rng.uniform(0, TWO_PI, n)
    omega = rng.normal(size=n)
    alpha = 0.3
    sys_ = _system(w, CouplingFunction.sine_shift(alpha), K=1.3, omega=omega)
    coupling = (np.cos(u) * (w @ np.sin(u + alpha))
                - np.sin(u) * (w @ np.cos(u + alpha)))
    expected = omega + (1.3 / n) * coupling
    assert np.max(np.abs(sys_.rhs_phases(u) - expected)) <= 1e-13


def test_rhs_dimension_mismatch():
    with pytest.raises(ValueError):
        rhs(_system(np.ones((3, 3))), PhaseState(np.zeros(2)))


def test_zero_rhs_constant_trajectory():
    sys_ = _system(np.zeros((3, 3)))
    traj = integrate(sys_, PhaseState(np.array([0.1, 2.0, 5.0])), 2.0, 0.05)
    assert np.allclose(traj.phases, traj.phases[0], atol=1e-15)


def test_two_oscillator_closed_form():
    sys_ = _system(np.ones((2, 2)))
    traj = integrate(sys_, PhaseState(np.array([0.0, 1.0])), 1.0, 1e-3,
                     record_every=10**9)
    gap = traj.phases[-1, 1] - traj.phases[-1, 0]
    assert abs(gap - two_oscillator_gap(1.0, 1.0, 1.0)) < 1e-8


def test_rk4_halving_factor():
    # order-4 scaling shows a ~16x error drop per halving (measured where
    # truncation still dominates round-off)
    sys_ = _system(np.ones((2, 2)))
    exact = two_oscillator_gap(1.0, 1.0, 1.0)
    errs = []
    for dt in (1e-2, 5e-3):
        traj = integrate(sys_, PhaseState(np.array([0.0, 1.0])), 1.0, dt,
                         record_every=10**9)
        errs.append(abs(traj.phases[-1, 1] - traj.phases[-1, 0] - exact))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_rk4_order_slope():
    sys_ = _system(np.ones((2, 2)))
    exact = two_oscillator_gap(1.0, 1.0, 1.0)
    dts = np.array([1e-2, 5e-3, 2.5e-3])
    errs = []
    for dt in dts:
        traj = integrate(sys_, PhaseState(np.array([0.0, 1.0])), 1.0, dt,
                         record_every=10**9)
        errs.append(abs(traj.phases[-1, 1] - traj.phases[-1, 0] - exact))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 4.0) <= 0.3


def test_final_partial_step_lands_on_T_exactly():
    sys_ = _system(np.ones((2, 2)))
    traj = integrate(sys_, PhaseState(np.array([0.0, 1.0])), 0.55, 0.1)
    assert traj.times[-1] == pytest.approx(0.55, abs=1e-15)


def test_nonfinite_state_aborts_with_step_index():
    bad = CouplingFunction("custom", fn=lambda u: np.full(np.shape(u), np.nan))
    sys_ = OscillatorSystem(WeightedGraph(np.ones((2, 2))), bad)
    with pytest.raises(IntegrationError) as err:
        integrate(sys_, PhaseState(np.array([0.0, 1.0])), 1.0, 0.1)
    assert err.value.step == 1


def test_rotational_equivariance():
    rng = np.random.default_rng(7)
    w = rng.uniform(-1, 1, (8, 8))
    w = (w + w.T) / 2
    u0 = rng.uniform(0, TWO_PI, 8)
    shift = 1.234
    sys_ = _system(w)
    a = integrate(sys_, PhaseState(u0), 1.0, 1e-2)
    b = integrate(sys_, PhaseState(u0 + shift), 1.0, 1e-2)
    assert np.max(np.abs((b.phases - shift) - a.phases)) < 1e-9


def test_weight_perturbation_bound_small():
    # trajectory divergence bounded by sqrt(T e^{5T}) times the scaled
    # Frobenius distance of the weight matrices, identical initial data
    rng = np.random.default_rng(11)
    T = 1.0
    c1 = weight_perturbation_constant(T)
    for _ in range(5):
        base = np.clip((lambda a: (a + a.T) / 2)(rng.uniform(-1, 1, (16, 16))), -1, 1)
        pert = np.clip(base + (lambda a: (a + a.T) / 2)(rng.uniform(-0.4, 0.4, (16, 16))), -1, 1)
        u0 = rng.uniform(0, TWO_PI, 16)
        ta = integrate(_system(base), PhaseState(u0), T, 1e-2)
        tb = integrate(_system(pert), PhaseState(u0), T, 1e-2)
        gap = sup_norm_1n(ta, tb)
        assert gap <= c1 * np.sqrt(np.mean((base - pert) ** 2)) + 1e-12


def test_order_parameter_examples():
    r, psi = order_parameter(np.full(5, 2.2))
    assert r == pytest.approx(1.0) and psi == pytest.approx(2.2)
    r, psi = order_parameter(np.array([0.0, np.pi]))
    assert r < 1e-15 and psi == 0.0
    r, psi = order_parameter(np.array([0.0, np.pi / 2]))
    assert r == pytest.approx(np.sqrt(2) / 2)
    assert psi == pytest.approx(np.pi / 4)


def test_norm_1n_examples():
    assert norm_1n([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert norm_1n([3.0], [0.0]) == pytest.approx(3.0)
    assert norm_1n(np.ones(4), np.zeros(4)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        norm_1n(np.ones(3), np.ones(4))


def test_wrap_angle_range():
    u = np.array([-0.1, 0.0, TWO_PI, 7.0, -TWO_PI])
    w = wrap_angle(u)
    assert np.all((w >= 0.0) & (w < TWO_PI))


PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(st.floats(0.0, 1e-3))
def test_wrap_angle_just_below_two_pi(eps):
    for u in (TWO_PI - eps, -eps):
        w = wrap_angle(np.array([u]))[0]
        assert 0.0 <= w < TWO_PI


@PROPERTY_SETTINGS
@given(st.floats(1e-4, 10.0), st.floats(0.0, 1000.0),
       st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9)))
def test_time_grid_endpoints_and_steps(dt, steps, jitter):
    # near-multiples of dt (steps + jitter) probe the absorbed final remainder;
    # at most 1000 steps, so one ulp of T stays below 1e-12 * dt
    T = dt * (round(steps) + jitter) if jitter else dt * steps
    assume(0.0 <= T <= 1000.0 * dt)
    times = time_grid(T, dt)
    assert times[0] == 0.0
    assert times[-1] == T
    if len(times) > 1:
        step = np.diff(times)
        assert np.all(step > 0.0)
        assert np.all(step <= dt * (1.0 + 1e-12))


@pytest.mark.parametrize("T, dt, message", [
    (float("nan"), 0.1, "T must be finite"),
    (float("inf"), 0.1, "T must be finite"),
    (1.0, float("nan"), "dt must be finite"),
    (1.0, float("inf"), "dt must be finite"),
    (1e9, 0.01, "exceeds the limit"),
    (1.0, 1e-300, "exceeds the limit"),
])
def test_time_grid_rejects_before_allocating(T, dt, message):
    with pytest.raises(ValueError, match=message):
        time_grid(T, dt)


def test_time_grid_step_ceiling(monkeypatch):
    assert MAX_STEPS == 10**7
    monkeypatch.setattr(dynamics, "MAX_STEPS", 100)
    assert len(time_grid(100.0, 1.0)) == 101
    with pytest.raises(ValueError, match="101 steps exceeds the limit of 100"):
        time_grid(101.0, 1.0)


def test_custom_graph_rhs_memory_bounded():
    # n = 4096: slabs of whole target cells under the one element budget
    n = 4096
    coupling = CouplingFunction.custom(lambda d: 0.5 * np.sin(d) + 0.25 * np.sin(2.0 * d))
    system = OscillatorSystem(deterministic_graph(Graphon.constant(1.0), n), coupling)
    u = np.linspace(0.0, TWO_PI, n, endpoint=False)
    tracemalloc.start()
    try:
        v = system.rhs_phases(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(v)) < 1e-15  # equispaced phases: every harmonic cancels
    assert peak < 56 * 2**20


def test_recording_cadence():
    sys_ = _system(np.ones((2, 2)))
    traj = integrate(sys_, PhaseState(np.array([0.0, 1.0])), 1.0, 0.1,
                     record_every=4)
    # initial, steps 4 and 8, and the final step 10
    assert np.allclose(traj.times, [0.0, 0.4, 0.8, 1.0])


def test_omega_from_spec():
    assert np.array_equal(omega_from_spec({"kind": "zero"}, 3), np.zeros(3))
    assert np.array_equal(omega_from_spec({"kind": "constant", "value": 2.5}, 2),
                          np.full(2, 2.5))
    a = omega_from_spec({"kind": "normal", "mean": 0.0, "sd": 1.0, "seed": 9}, 5)
    b = omega_from_spec({"kind": "normal", "mean": 0.0, "sd": 1.0, "seed": 9}, 5)
    assert np.array_equal(a, b)
    sys_ = _system(np.zeros((2, 2)), omega=np.array([1.0, -1.0]))
    v = rhs(sys_, PhaseState(np.zeros(2)))
    assert np.array_equal(v, [1.0, -1.0])
