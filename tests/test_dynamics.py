"""Oscillator right-hand sides, RK4 integration, diagnostics."""

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
    sup_norm_1n,
    time_grid,
    wrap_angle,
)
from kmflow.graphon import _TOEPLITZ_NODES, Graphon
from kmflow.graphs import WeightedGraph, deterministic_graph, sample_w_random
from oracles import (
    locked_order_parameter,
    peak_traced,
    triangle_wave,
    two_oscillator_gap,
    weight_perturbation_constant,
)

TWO_PI = 2.0 * np.pi


def _system(weights, coupling=None, K=1.0, omega=None):
    return OscillatorSystem(WeightedGraph(weights), coupling or CouplingFunction.sine(),
                            K=K, omega=omega)


def test_rhs_zero_at_synchrony():
    sys_ = _system(np.ones((4, 4)))
    v = sys_.rhs_phases(np.full(4, 1.3))
    assert np.allclose(v, 0.0, atol=1e-15)


def test_rhs_two_oscillators():
    # n=2, W=1, K=1, sine, u=(0, pi/2): v = (sin(pi/2)/2, sin(-pi/2)/2)
    sys_ = _system(np.ones((2, 2)))
    v = sys_.rhs_phases(np.array([0.0, np.pi / 2]))
    assert np.allclose(v, [0.5, -0.5], atol=1e-15)


def test_rhs_single_oscillator_shifted():
    # n=1: v = omega + K * W11 * sin(alpha)
    alpha, K, w11, om = 0.4, 2.0, 0.7, 0.3
    sys_ = _system(np.array([[w11]]), CouplingFunction.sine_shift(alpha), K=K,
                   omega=np.array([om]))
    v = sys_.rhs_phases(np.array([1.0]))
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
    # the dense product below the size constant, the FFT convolution from it
    # up, against the explicit sum over j of W_ij D(u_j - u_i)
    rng = np.random.default_rng(n)
    u = rng.uniform(-TWO_PI, 2 * TWO_PI, n)
    omega = rng.normal(size=n)
    for W in _TOEPLITZ_KERNELS:
        graph = deterministic_graph(W, n)
        assert (graph._column is not None) == (n >= _TOEPLITZ_NODES)
        sys_ = OscillatorSystem(graph, coupling, K=1.3, omega=omega)
        w = W.cell_average(n).values
        expected = omega + (1.3 / n) * np.sum(w * coupling(u[None, :] - u[:, None]), axis=1)
        assert np.max(np.abs(sys_.rhs_phases(u) - expected)) <= 1e-13



@pytest.mark.parametrize("value", [1.5, np.nan])
def test_custom_coupling_probe_rejects_amplitude_and_nan(value):
    with pytest.raises(ValueError, match=r"\|D\| <= 1"):
        CouplingFunction.custom(lambda u: np.full_like(u, value))

# secant slopes of sin 6u on the 1024-point probe reach 5.9995; u / 2pi has
# slope 1/2pi but drops from ~1 to 0 across the wrap-around pair
@pytest.mark.parametrize("fn, slope", [
    pytest.param(lambda u: np.sin(6.0 * u), "5.99955", id="sin-6u"),
    pytest.param(lambda u: u / TWO_PI, "162.816", id="not-periodic"),
])
def test_custom_coupling_probe_rejects_lipschitz_above_one(fn, slope):
    with pytest.raises(ValueError, match=rf"Lip\(D\) <= 1: .* reach {slope}$"):
        CouplingFunction.custom(fn)


def test_custom_coupling_probe_rejects_one_value_for_all_phases():
    with pytest.raises(ValueError, match=r"one value per phase \(got shape \(\) for 1024 "):
        CouplingFunction.custom(lambda u: 0.5)


@pytest.mark.parametrize("fn", [
    pytest.param(lambda u: 0.5 * np.sin(u) + 0.25 * np.sin(2.0 * u), id="two-sines"),
    pytest.param(lambda u: 0.5 * np.sin(u) + 0.25 * np.cos(2.0 * u), id="sine-cosine"),
    pytest.param(lambda u: 0.8 * np.sin(u), id="0.8-sine"),
    pytest.param(np.sin, id="sine"),
])
def test_custom_coupling_probe_accepts_one_lipschitz_periodic_d(fn):
    assert CouplingFunction.custom(fn).fn is fn


# a D its probe does not resolve as a short series, so it is summed in slabs
TRIANGLE = CouplingFunction.custom(triangle_wave)


def _exp_cos(u):
    # a scaled analytic D: |D| <= 0.25 (e - I_0(1)) < 0.42, Lip < 0.25 e
    return 0.25 * (np.exp(np.cos(u)) - np.i0(1.0))


def _aliased(u):
    # 0.5 sin u on the probe's grid, where sin(1024 u) vanishes; Lip(D) = 1
    return 0.5 * np.sin(u) + (0.5 / 1024) * np.sin(1024.0 * u)


@pytest.mark.parametrize("fn, harmonics", [
    pytest.param(lambda u: 0.5 * np.sin(u) + 0.25 * np.sin(2.0 * u), [1, 2], id="two-sines"),
    pytest.param(lambda u: 0.3 + 0.5 * np.cos(u), [0, 1], id="offset-cosine"),
    pytest.param(lambda u: 0.0 * u, [], id="zero"),
    pytest.param(_exp_cos, list(range(1, 14)), id="exp-cos"),
])
def test_custom_probe_resolves_a_short_series(fn, harmonics):
    modes = CouplingFunction.custom(fn).modes
    assert modes[0].tolist() == harmonics
    u = np.random.default_rng(0).uniform(-TWO_PI, 2 * TWO_PI, 500)
    series = CouplingFunction("fourier", modes=modes)
    assert np.max(np.abs(series(u) - fn(u))) <= 1e-13


def test_workload_coupling_resolves_to_its_two_sines():
    ks, a, b = CouplingFunction.custom(lambda u: 0.5 * np.sin(u) + 0.25 * np.sin(2.0 * u)).modes
    assert ks.tolist() == [1, 2]
    assert np.allclose(a, 0.0, rtol=0.0, atol=1e-15)
    assert np.allclose(b, [0.5, 0.25], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("fn", [triangle_wave, _aliased], ids=["triangle", "aliased"])
def test_custom_probe_keeps_slabs_for_a_d_its_series_misses(fn):
    assert CouplingFunction.custom(fn).modes is None


def test_resolved_custom_rhs_never_calls_its_function():
    calls = []

    def counted(u):
        calls.append(np.shape(u))
        return 0.5 * np.sin(u) + 0.25 * np.cos(2.0 * u)

    coupling = CouplingFunction.custom(counted)
    assert len(calls) == 2  # the probe and the shifted probe
    rng = np.random.default_rng(7)
    w = rng.uniform(-1, 1, (9, 9))
    w = (w + w.T) / 2
    u = rng.uniform(0, TWO_PI, 9)
    calls.clear()
    v = _system(w, coupling, K=1.3).rhs_phases(u)
    assert calls == []
    expected = (1.3 / 9) * np.sum(w * (0.5 * np.sin(u[None] - u[:, None])
                                       + 0.25 * np.cos(2.0 * (u[None] - u[:, None]))), axis=1)
    assert np.max(np.abs(v - expected)) <= 1e-15


def test_fourier_coupling_evaluates_its_series():
    coupling = CouplingFunction.fourier([0.1, 0.2, -0.05], [0.3, 0.1])
    u = np.linspace(-3.0, 9.0, 41)
    expected = (0.1 + 0.2 * np.cos(u) - 0.05 * np.cos(2 * u) + 0.3 * np.sin(u)
                + 0.1 * np.sin(2 * u))
    assert np.allclose(coupling(u), expected, rtol=0.0, atol=1e-15)
    assert not coupling.is_sine_family and coupling.fn is None
    # one mode for each nonzero term, the constant only when it is set
    assert CouplingFunction.fourier([0.0, 0.0, 0.0], [0.0, 0.5]).modes[0].tolist() == [2]
    assert CouplingFunction.fourier([0.4], []).modes[0].tolist() == [0]
    assert CouplingFunction.fourier([0.0], []).modes[0].tolist() == []


@pytest.mark.parametrize("cos, sin, message", [
    ("0.5", [], r"coupling field 'cos' must be a list of numbers \(got '0.5'\)"),
    ([], [], r"coupling field 'sin' must hold one value fewer than 'cos' \(got 0 and 0\)"),
    ([0.0, 0.0], {"b": 1}, r"coupling field 'sin' must be a list of numbers"),
    ([0.0, np.nan], [0.5], r"coupling field 'cos' entry must be a finite number \(got nan\)"),
    ([0.0, 0.0], [True], r"coupling field 'sin' entry must be a finite number \(got True\)"),
    ([0.0, 0.0], [0.5, 0.1], r"'sin' must hold one value fewer than 'cos' \(got 2 and 2\)"),
    ([0.5, 0.0], [0.6], r"'cos' and 'sin' must satisfy \|D\| <= 1: their series bound is 1.1$"),
    ([0.0, 0.0, 0.3], [0.0, 0.45], r"must satisfy Lip\(D\) <= 1: their series bound is 1.08167$"),
])
def test_fourier_coupling_rejects_bad_fields(cos, sin, message):
    with pytest.raises(ValueError, match=message):
        CouplingFunction.fourier(cos, sin)


def test_fourier_bounds_are_checked_exactly():
    # amplitude 1 and Lipschitz 1 exactly are allowed
    CouplingFunction.fourier([0.0, 0.0, 0.0], [0.5, 0.25])
    CouplingFunction.fourier([0.0, 0.6], [0.8])
    CouplingFunction.fourier([0.0, 0.0, 0.3], [0.0, 0.4])


@pytest.mark.parametrize("n", [5, 600])
def test_custom_coupling_on_toeplitz_graph_matches_dense(n):
    coup = TRIANGLE
    assert coup.modes is None
    u = np.random.default_rng(3).uniform(0, TWO_PI, n)
    for W in _TOEPLITZ_KERNELS:
        graph = deterministic_graph(W, n)
        dense = WeightedGraph(np.array(graph.weights))
        assert np.array_equal(OscillatorSystem(graph, coup, K=0.7).rhs_phases(u),
                              OscillatorSystem(dense, coup, K=0.7).rhs_phases(u))


def test_custom_field_on_split_graph_matches_its_float_copy():
    # the slab multiplies bool weights by the masses, which gives the float bits
    coup = TRIANGLE
    graph = sample_w_random(Graphon.small_world(0.1, 0.25), 600, seed=4)
    assert graph._column is not None and graph.weights.dtype == bool
    dense = WeightedGraph(graph.weights.astype(float))
    rng = np.random.default_rng(4)
    pos, mass = rng.uniform(0, TWO_PI, (600, 3)), rng.dirichlet(np.ones(3), 600)
    for targets in (pos, rng.uniform(0, TWO_PI, (600, 2))):
        assert np.array_equal(dynamics._field(graph, coup, pos, mass, targets),
                              dynamics._field(dense, coup, pos, mass, targets))


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


def test_integrate_rejects_a_state_of_another_size():
    with pytest.raises(ValueError, match="state has 2 phases, system expects 3"):
        integrate(_system(np.ones((3, 3))), PhaseState(np.zeros(2)), 1.0, 0.1)


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
    # a NaN coupling fails the velocity bound at its first evaluation
    bad = CouplingFunction("custom", fn=lambda u: np.full(np.shape(u), np.nan))
    sys_ = OscillatorSystem(WeightedGraph(np.ones((2, 2))), bad)
    with pytest.raises(RuntimeError, match=r"velocity bound violated \(max \|V\| = nan"):
        integrate(sys_, PhaseState(np.array([0.0, 1.0])), 1.0, 0.1)
    # finite stages whose RK4 sum overflows: the step's state is non-finite
    huge = _system(np.ones((2, 2)), omega=np.array([1.7e308, 0.0]))
    with np.errstate(over="ignore"), pytest.raises(IntegrationError) as err:
        integrate(huge, PhaseState(np.array([1.7e308, 0.0])), 1.0, 0.01)
    assert err.value.step == 1 and err.value.t == 0.01


@pytest.mark.parametrize("make, message", [
    (lambda g: OscillatorSystem(g, CouplingFunction.sine(), omega=[0, np.nan, 0, 0]),
     "omega must be finite (entry 1 is nan)"),
    (lambda g: OscillatorSystem(g, CouplingFunction.sine(), omega=[0, 0, 0, -np.inf]),
     "omega must be finite (entry 3 is -inf)"),
    (lambda g: integrate(OscillatorSystem(g, CouplingFunction.sine()),
                         PhaseState([0.0, 1.0, np.nan, 0.0]), 1.0, 0.1),
     "phases must be finite (entry 2 is nan)"),
], ids=["omega-nan", "omega-inf", "phase-nan"])
def test_nonfinite_omega_and_phases_are_rejected_by_name(make, message):
    # a NaN here would otherwise fail the velocity bound, which blames the
    # kernel or the coupling
    graph = deterministic_graph(Graphon.constant(0.5), 4)
    with pytest.raises(ValueError) as error:
        make(graph)
    assert str(error.value) == message


@pytest.mark.parametrize("kernel", [Graphon.nearest_neighbor(0.2), Graphon.nearest_neighbor(0.1),
                                    Graphon.small_world(0.1, 0.25),
                                    Graphon.small_world(0.37, 0.013)],
                         ids=["nn-0.2", "nn-0.1", "sw-0.1-0.25", "sw-0.37-0.013"])
def test_twisted_states_are_equilibria_of_band_graphs(kernel):
    # W_n is circulant and symmetric, so sum_j W_ij sin(2 pi q (j - i) / n) = 0
    # exactly; n covers the dense product and, from _TOEPLITZ_NODES up, the FFT
    for n in (64, _TOEPLITZ_NODES - 1, _TOEPLITZ_NODES, 4096, 8192):
        system = OscillatorSystem(deterministic_graph(kernel, n), CouplingFunction.sine())
        for q in range(4):
            residual = np.max(np.abs(system.rhs_phases(TWO_PI * q * np.arange(n) / n)))
            assert residual <= 2e-15, (n, q, residual)


_TWIST_KERNELS = {"nn-0.2": Graphon.nearest_neighbor(0.2),
                  "sw-0.1-0.25": Graphon.small_world(0.1, 0.25)}


@pytest.mark.parametrize("kernel", sorted(_TWIST_KERNELS))
@pytest.mark.parametrize("n", [_TOEPLITZ_NODES, 512, 1000, 4096, 8192])
def test_band_spectrum_is_the_cosine_sums_of_its_column(kernel, n):
    # W_n = C(c) is a symmetric circulant, c[k] == c[n - k], so its eigenvalues
    # are real: the direct sums mu_j = sum_k c_k cos(2 pi j k / n), the angle
    # reduced mod n in integers
    graph = deterministic_graph(_TWIST_KERNELS[kernel], n)
    column, k = graph._column, np.arange(n)
    assert np.array_equal(column, graph.weights[:, 0])
    assert np.array_equal(column[1:], column[:0:-1])
    spectrum = graph._spectrum
    direct = np.array([column @ np.cos(TWO_PI * (j * k % n) / n) for j in range(n // 2 + 1)])
    scale = np.abs(column).sum()
    assert np.max(np.abs(spectrum.real - direct)) <= 1e-14 * scale
    assert np.max(np.abs(spectrum.imag)) <= 1e-14 * scale


@pytest.mark.parametrize("kernel, n, q, k", [
    *((name, n, q, k) for name in _TWIST_KERNELS for n in (64, 512, 4096, 8192)
      for q, k in ((1, 1), (1, 3), (2, 5))),
    ("nn-0.2", 512, 3, 1),  # the one growing mode: lambda = +0.0713
])
def test_twisted_states_decay_at_their_linear_rates(kernel, n, q, k):
    # Linearised about the twisted state 2 pi q i / n, the circulant W_n with
    # row 0 w_d has the Fourier modes as eigenvectors, mode k with rate
    #   lambda_k(n) = n^-1 sum_d w_d cos(2 pi q d / n) (cos(2 pi k d / n) - 1)
    # (Wiley, Strogatz & Girvan, Chaos 16 (2006); Medvedev, Physica D 266
    # (2014)).  A start eps = 1e-7 off along cos(2 pi k i / n) keeps the
    # nonlinear terms at relative O(eps).
    graph = deterministic_graph(_TWIST_KERNELS[kernel], n)
    d = np.arange(n)
    twisted, mode = TWO_PI * q * d / n, np.cos(TWO_PI * k * d / n)
    T, eps = 0.5, 1e-7
    traj = integrate(OscillatorSystem(graph, CouplingFunction.sine()),
                     PhaseState(twisted + eps * mode), T, 0.01, record_every=MAX_STEPS)
    start, end = ((2.0 / n) * (u - twisted) @ mode for u in traj.phases)
    rate = np.sum(graph.weights[0] * np.cos(TWO_PI * q * d / n) * (mode - 1.0)) / n
    assert (rate > 0.0) == (q == 3)
    # the same rate from the eigenvalues mu = spectrum / n of W_n:
    # lambda_k = (mu_{q+k} + mu_{q-k}) / 2 - mu_q, with mu_{-j} = mu_j
    stored = graph._column is not None
    assert stored == (n >= _TOEPLITZ_NODES)
    mu = (graph._spectrum if stored else np.fft.rfft(graph.weights[:, 0])).real / n
    assert abs(0.5 * (mu[q + k] + mu[abs(q - k)]) - mu[q] - rate) <= 1e-12 * abs(rate)
    assert abs(np.log(end / start) / T - rate) <= 1e-6 * abs(rate)


def test_synchronized_branch_reaches_the_locked_order_parameter():
    # all-to-all coupling K p with normal frequencies, started in synchrony:
    # every oscillator locks, phase-locked at sin(u_i - psi) = (omega_i -
    # mean omega) / (K p r), and r(T) is the largest root of Kuramoto's
    # self-consistency r = mean sqrt(1 - ((omega_i - mean omega) / (K p r))^2)
    n, p, K = 1024, 1.0, 6.0
    graph = deterministic_graph(Graphon.constant(p), n)
    assert graph._column is not None
    omega = omega_from_spec({"kind": "normal", "mean": 0.0, "sd": 1.0, "seed": 0}, n)
    traj = integrate(OscillatorSystem(graph, CouplingFunction.sine(), K=K, omega=omega),
                     PhaseState(np.zeros(n)), 10.0, 0.01, record_every=MAX_STEPS)
    r, _ = order_parameter(traj.phases[-1])
    expected = locked_order_parameter(omega, K * p)
    assert np.max(np.abs(omega - omega.mean())) < K * p * expected
    assert abs(r - expected) <= 1e-14


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


def test_wrap_angle_keeps_the_bits_of_the_where_formula():
    # np.mod, then 2 pi off where the result rounds to 2 pi, written out the
    # way wrap_angle computed it before it took ``out``
    def where_formula(u):
        r = np.mod(u, TWO_PI)
        return np.where(r >= TWO_PI, r - TWO_PI, r)

    edges = [-0.0, TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0.0), 1e-300, -1e-300, 1e17, -1e17]
    u = np.concatenate((np.random.default_rng(0).normal(0.0, 10.0, 100_000), edges))
    expected = where_formula(u).view(np.int64)
    assert np.array_equal(wrap_angle(u).view(np.int64), expected)
    inplace = u.copy()
    assert wrap_angle(inplace, out=inplace) is inplace
    assert np.array_equal(inplace.view(np.int64), expected)
    for scalar in (7.0, -1e-300, TWO_PI):
        wrapped = wrap_angle(scalar)
        assert isinstance(wrapped, np.ndarray) and wrapped.shape == ()
        assert wrapped.view(np.int64) == where_formula(scalar).view(np.int64)


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
    pytest.param(float("nan"), 0.1, r"T must be a finite number >= 0 \(got nan\)",
                 id="nan-0.1-T must be finite"),
    pytest.param(float("inf"), 0.1, r"T must be a finite number >= 0 \(got inf\)",
                 id="inf-0.1-T must be finite"),
    pytest.param(1.0, float("nan"), r"dt must be a finite number > 0 \(got nan\)",
                 id="1.0-nan-dt must be finite"),
    pytest.param(1.0, float("inf"), r"dt must be a finite number > 0 \(got inf\)",
                 id="1.0-inf-dt must be finite"),
    (1e9, 0.01, "exceeds the limit"),
    (1.0, 1e-300, "exceeds the limit"),
    (True, True, r"dt must be a finite number > 0 \(got True\)"),
    ("1", 0.1, r"T must be a finite number >= 0 \(got '1'\)"),
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
    v, peak = peak_traced(lambda: system.rhs_phases(u))
    assert np.max(np.abs(v)) < 1e-15  # equispaced phases: every harmonic cancels
    assert peak < 56 * 2**20


def test_recording_cadence():
    sys_ = _system(np.ones((2, 2)))
    traj = integrate(sys_, PhaseState(np.array([0.0, 1.0])), 1.0, 0.1,
                     record_every=4)
    # initial, steps 4 and 8, and the final step 10
    assert np.allclose(traj.times, [0.0, 0.4, 0.8, 1.0])


@pytest.mark.parametrize("T, dt, record_every", [
    (1.0, 0.1, 1), (1.0, 0.1, 4), (1.0, 0.1, 10), (1.0, 0.1, 11), (0.55, 0.1, 2),
    (0.0, 0.1, 1), (0.3, 0.1, 10**9),
])
def test_recorded_states_are_the_integrated_frames(T, dt, record_every):
    sys_ = _system(np.array([[1.0, 0.4, 0.0], [0.4, 1.0, 0.7], [0.0, 0.7, 0.2]]),
                   omega=np.array([0.3, -0.1, 0.0]))
    state0 = PhaseState(np.array([0.0, 1.0, 4.0]))
    traj = integrate(sys_, state0, T, dt, record_every=record_every)
    frames = list(dynamics.recorded_states(sys_, state0, T, dt, record_every))
    assert [t for t, _ in frames] == traj.times.tolist()
    assert np.array_equal(np.array([u for _, u in frames]), traj.phases)
    # every frame is its own array, and the start is a copy of the state
    assert len({id(u) for _, u in frames}) == len(frames)
    assert not np.shares_memory(frames[0][1], state0.phases)


def test_recorded_states_checks_arguments_at_the_call():
    sys_ = _system(np.ones((2, 2)))
    with pytest.raises(ValueError, match="record_every"):
        dynamics.recorded_states(sys_, PhaseState(np.zeros(2)), 1.0, 0.1, 0)
    with pytest.raises(ValueError, match="expects 2"):
        dynamics.recorded_states(sys_, PhaseState(np.zeros(3)), 1.0, 0.1)
    with pytest.raises(ValueError, match="dt"):
        dynamics.recorded_states(sys_, PhaseState(np.zeros(2)), 1.0, 0.0)


def test_trajectory_reductions_match_framewise_values():
    rng = np.random.default_rng(2)
    a = dynamics.Trajectory(np.arange(4.0), rng.normal(size=(4, 37)))
    b = dynamics.Trajectory(np.arange(4.0), rng.normal(size=(4, 37)))
    diff = a.phases - b.phases
    assert sup_norm_1n(a, b) == np.max(np.sqrt(np.mean(diff**2, axis=1)))
    assert [dynamics.pairwise_gap(x, y) for x, y in zip(a.phases, b.phases)] == \
        list(np.max(np.abs(diff), axis=1))
    with pytest.raises(ValueError, match="recording grid"):
        sup_norm_1n(a, dynamics.Trajectory(np.arange(3.0), b.phases[:3]))


def test_omega_from_spec():
    assert np.array_equal(omega_from_spec({"kind": "zero"}, 3), np.zeros(3))
    assert np.array_equal(omega_from_spec({"kind": "constant", "value": 2.5}, 2),
                          np.full(2, 2.5))
    a = omega_from_spec({"kind": "normal", "mean": 0.0, "sd": 1.0, "seed": 9}, 5)
    b = omega_from_spec({"kind": "normal", "mean": 0.0, "sd": 1.0, "seed": 9}, 5)
    assert np.array_equal(a, b)
    sys_ = _system(np.zeros((2, 2)), omega=np.array([1.0, -1.0]))
    v = sys_.rhs_phases(np.zeros(2))
    assert np.array_equal(v, [1.0, -1.0])
