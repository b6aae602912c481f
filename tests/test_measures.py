"""Circle measures as one-cell families, transport distances, families,
initial distributions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e
from scipy.stats import vonmises as scipy_vonmises

from kmflow.measures import (
    KAPPA_MAX,
    MeasureFamily,
    MeasureTrajectory,
    TwoCluster,
    Uniform,
    VonMises,
    VonMisesTwist,
    XDependent,
    d_alpha,
    dbar,
    density_from_dict,
    empirical_from_phases,
    family_from_rows,
    family_to_rows,
    initial_family,
    wrap_angle,
)
from oracles import (
    circle_distance,
    common_cells,
    lp_transport_distance,
    padded_family,
    peak_traced,
    random_circle_measure,
)

TWO_PI = 2.0 * np.pi


def _points(*thetas):
    """Family of point masses, one per cell."""
    return MeasureFamily(np.array(thetas)[:, None], np.ones((len(thetas), 1)))


def test_circle_distance_examples():
    assert circle_distance(0.0, 0.0) == 0.0
    assert circle_distance(0.0, np.pi) == pytest.approx(np.pi)
    assert circle_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2)
    # inputs reduced mod 2*pi
    assert circle_distance(-0.1, 0.1) == pytest.approx(0.2)


def test_bl_identity():
    rng = np.random.default_rng(0)
    mu = random_circle_measure(rng)
    assert dbar(mu, mu) == 0.0


def test_bl_point_masses_equal_arc_distance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rng.uniform(0, TWO_PI, 2)
        got = dbar(_points(a), _points(b))
        assert got == pytest.approx(circle_distance(a, b), abs=1e-14)
    assert dbar(_points(0.0), _points(np.pi / 2)) == pytest.approx(np.pi / 2)


def test_bl_matches_lp_oracle():
    rng = np.random.default_rng(2)
    for _ in range(40):
        mu = random_circle_measure(rng)
        eta = random_circle_measure(rng)
        assert abs(dbar(mu, eta) - lp_transport_distance(mu, eta)) < 1e-9


def test_bl_symmetry_exact_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        mu = random_circle_measure(rng, max_atoms=5)
        eta = random_circle_measure(rng, max_atoms=5)
        nu = random_circle_measure(rng, max_atoms=5)
        dab = dbar(mu, eta)
        assert dab == dbar(eta, mu)
        assert dab <= dbar(mu, nu) + dbar(nu, eta) + 1e-9


def test_bl_bounded_by_circle_diameter():
    rng = np.random.default_rng(4)
    for _ in range(200):
        assert dbar(random_circle_measure(rng), random_circle_measure(rng)) <= np.pi + 1e-12


def test_bl_shift_equivariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        mu = random_circle_measure(rng)
        eta = random_circle_measure(rng)
        c = rng.uniform(0, TWO_PI)
        shifted = [MeasureFamily(x.positions + c, x.masses) for x in (mu, eta)]
        assert abs(dbar(*shifted) - dbar(mu, eta)) < 1e-12


def test_measure_validation():
    with pytest.raises(ValueError):
        MeasureFamily([[0.0, 1.0]], [[0.6, 0.6]])  # mass 1.2
    with pytest.raises(ValueError):
        MeasureFamily([[0.0]], [[-1.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="atom positions must be finite"):
            MeasureFamily([[0.0, bad]], [[0.5, 0.5]])


def _read_only(a):
    a.setflags(write=False)
    return a


def test_family_shares_read_only_wrapped_positions():
    # a read-only owner in [0, 2*pi), and read-only views of it, are shared
    owner = _read_only(np.random.default_rng(0).uniform(0.0, TWO_PI, (3, 4)))
    masses = np.full((1, 4), 0.25)
    for positions in (owner[1:2], owner[2:]):
        assert MeasureFamily(positions, masses).positions is positions
    assert MeasureFamily(owner, np.full((3, 4), 0.25)).positions is owner


def _writable_owner():
    owner = np.random.default_rng(0).uniform(0.0, TWO_PI, (2, 4))
    return _read_only(owner[1:])


def _unwrapped():
    return _read_only(np.array([[0.5, TWO_PI, -1.0, 7.0]]))


def _buffer_view():
    return np.frombuffer(np.linspace(0.0, 6.0, 4).tobytes()).reshape(1, 4)


def _buffer_owner():
    return np.ndarray((1, 4), buffer=np.linspace(0.0, 6.0, 4).tobytes())


@pytest.mark.parametrize("make", [_writable_owner, _unwrapped, _buffer_view, _buffer_owner],
                         ids=["writable-owner", "unwrapped", "frombuffer", "bytes-base"])
def test_family_copies_positions_it_cannot_share(make):
    positions = make()
    assert not positions.flags.writeable
    fam = MeasureFamily(positions, np.full((1, 4), 0.25))
    assert not np.shares_memory(fam.positions, positions)
    assert np.array_equal(fam.positions, wrap_angle(positions))
    assert not fam.positions.flags.writeable


def test_dbar_examples():
    fam = _points(0.0, 1.0)
    assert dbar(fam, fam) == 0.0
    # single cell reduces to the plain distance
    assert dbar(_points(0.0), _points(1.2)) == pytest.approx(1.2)
    # two cells average their distances: (1.0 + 0.5) / 2
    assert dbar(_points(0.0, 2.0), _points(1.0, 2.5)) == pytest.approx(0.75)


def test_dbar_cell_count_mismatch_and_refinement():
    # 2 against 3 cells: the step-function integral over the 6 common cells
    fam2 = _points(0.0, 1.0)
    fam3 = _points(0.0, 0.0, 0.0)
    ra, rb = common_cells(fam2, fam3)
    assert ra.n_cells == rb.n_cells == 6
    expected = (3 * 0.0 + 3 * 1.0) / 6
    assert dbar(ra, rb) == pytest.approx(expected)
    assert dbar(fam2, fam3) == dbar(fam3, fam2) == pytest.approx(expected)


def _random_family(rng, n, m, equal_mass):
    masses = np.full((n, m), 1.0 / m) if equal_mass else rng.uniform(0.1, 1.0, (n, m))
    return MeasureFamily(rng.uniform(0.0, TWO_PI, (n, m)),
                         masses / masses.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("equal_mass", [True, False])
@pytest.mark.parametrize("n_a, n_b, exact", [
    (1, 1, True), (4, 4, True), (2, 6, True), (8, 2, True),
    (2, 3, False), (5, 7, False), (9, 6, False), (4, 10, False)])
def test_common_dbar_matches_refined_families(equal_mass, n_a, n_b, exact):
    # dbar over runs of overlapping cells against dbar of the families
    # refined to their common (lcm) cell count: the same mean when one count
    # divides the other, round-off otherwise
    rng = np.random.default_rng(n_a * 100 + n_b)
    for m_a, m_b in [(3, 3), (2, 4), (5, 3)]:
        a = _random_family(rng, n_a, m_a, equal_mass)
        b = _random_family(rng, n_b, m_b, equal_mass)
        got, expected = dbar(a, b), dbar(*common_cells(a, b))
        assert got == dbar(b, a)
        if exact:
            assert got == expected
        else:
            assert abs(got - expected) <= 1e-15


def test_common_dbar_memory_independent_of_common_cell_count():
    # 1021 and 1019 cells share 1040399 common cells but only 2039 runs
    rng = np.random.default_rng(7)
    a, b = (_random_family(rng, n, 1, True) for n in (1021, 1019))
    value, peak = peak_traced(lambda: dbar(a, b))
    assert peak < 2**20
    assert 0.0 < value <= np.pi


def test_dbar_metric_on_random_families():
    rng = np.random.default_rng(6)
    fams = [
        padded_family([random_circle_measure(rng, 4) for _ in range(3)])
        for _ in range(60)
    ]
    for a, b, c in zip(fams[::3], fams[1::3], fams[2::3]):
        assert dbar(a, b) == dbar(b, a)
        assert dbar(a, b) <= dbar(a, c) + dbar(c, b) + 1e-9


def test_d_alpha_examples():
    traj = MeasureTrajectory(np.array([0.0]), [_points(0.0)])
    assert d_alpha(traj, traj, 3.0) == 0.0
    # single time t=0 equals dbar at 0
    other = MeasureTrajectory(np.array([0.0]), [_points(0.4)])
    assert d_alpha(traj, other, 3.0) == pytest.approx(0.4)
    # two times {0, 1} with dbar values {0.1, 0.2}: max(0.1, 0.2 e^-3) = 0.1
    a = MeasureTrajectory(np.array([0.0, 1.0]), [_points(0.0), _points(0.0)])
    b = MeasureTrajectory(np.array([0.0, 1.0]), [_points(0.1), _points(0.2)])
    assert d_alpha(a, b, 3.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        d_alpha(traj, a, 3.0)  # grid mismatch
    for alpha in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="alpha must be a finite number > 0"):
            d_alpha(traj, traj, alpha)


def test_empirical_from_phases():
    fam = empirical_from_phases(np.array([0.0, np.pi, np.pi / 2, np.pi / 2]), 2, 2)
    assert fam.n_cells == 2
    assert sorted(fam.positions[0].tolist()) == pytest.approx([0.0, np.pi])
    assert np.allclose(fam.masses, 0.5)
    assert np.allclose(fam.positions[1], np.pi / 2)
    with pytest.raises(ValueError):
        empirical_from_phases(np.zeros(5), 2, 2)


def test_empirical_permutation_invariance():
    phases = np.array([0.3, 1.1, 2.9, 0.3])
    fam_a = empirical_from_phases(phases, 1, 4)
    fam_b = empirical_from_phases(phases[::-1].copy(), 1, 4)
    assert dbar(fam_a, fam_b) == 0.0


def test_single_cell_reduces_to_whole_population():
    phases = np.random.default_rng(7).uniform(0, TWO_PI, 12)
    fam = empirical_from_phases(phases, 1, 12)
    assert fam.n_cells == 1 and fam.positions.shape == fam.masses.shape == (1, 12)


def test_uniform_quantiles():
    fam = initial_family(Uniform(), 1, 4)
    assert np.allclose(fam.positions[0],
                       [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4])
    assert np.allclose(fam.masses[0], 0.25)


def test_von_mises_zero_concentration_is_uniform():
    fam_vm = initial_family(VonMises(0.0, 2.5), 2, 8)
    fam_u = initial_family(Uniform(), 2, 8)
    assert np.array_equal(fam_vm.positions, fam_u.positions)


def test_von_mises_quantiles_median_at_mode():
    spec = VonMises(3.0, 1.0)
    q = spec.quantile(np.array([0.5]))
    assert q[0] == pytest.approx(1.0, abs=1e-9)


QUANTILE_LEVELS = (np.arange(256) + 0.5) / 256


@pytest.mark.parametrize("kappa", [1e-300, 1e-8, 0.5, 2.0, 20.0])
def test_von_mises_quantiles_match_scipy_ppf(kappa):
    for mu0 in (0.0, 3.14):
        ours = VonMises(kappa, mu0).quantile(QUANTILE_LEVELS)
        ref = scipy_vonmises.ppf(QUANTILE_LEVELS, kappa, loc=mu0)
        assert np.max(circle_distance(ours, ref)) <= 1e-11


def _vonmises_cdf_by_quadrature(x, kappa):
    """F(x) for the mode-0 law on [-pi, pi], by adaptive quadrature of the
    density exp(kappa (cos t - 1)) / (2 pi i0e(kappa)) from the mode."""
    c = 1.0 / (TWO_PI * i0e(kappa))
    half, _ = quad(lambda t: c * math.exp(kappa * (math.cos(t) - 1.0)), 0.0, x,
                   epsabs=1e-14, epsrel=1e-14, limit=400)
    return 0.5 + half


@pytest.mark.parametrize("kappa", [50.0, 200.0, 1000.0, 5000.0])
def test_von_mises_quantiles_invert_the_cdf(kappa):
    # scipy's ppf uses a normal approximation of the CDF for kappa >= 50 and
    # misses the CDF by up to 3e-6 there, so the oracle is quadrature of the density
    q = QUANTILE_LEVELS[::16]
    x = VonMises(kappa, np.pi).quantile(q) - np.pi
    for xi, qi in zip(x, q):
        assert abs(_vonmises_cdf_by_quadrature(xi, kappa) - qi) <= 1e-12


@pytest.mark.parametrize("kappa", [1e-300, 1e-8, 0.5, 2.0, 20.0, 50.0, 1000.0, 5000.0])
def test_von_mises_quantiles_monotone(kappa):
    # mode at pi keeps the quantiles inside (0, 2 pi), away from the wrap
    x = VonMises(kappa, np.pi).quantile(np.linspace(1e-3, 1.0 - 1e-3, 999))
    assert np.all(np.isfinite(x))
    assert np.all(np.diff(x) > 0.0)


def test_von_mises_density_matches_bessel_formula():
    u = np.linspace(0.0, TWO_PI, 97)
    for kappa in (0.5, 2.0, 20.0, 800.0):
        ref = np.exp(kappa * (np.cos(u - 1.0) - 1.0)) / (TWO_PI * i0e(kappa))
        got = VonMises(kappa, 1.0).density(u)
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("params", [(math.nan, 0.0), (math.inf, 0.0), (-1.0, 0.0),
                                    (2.0 * KAPPA_MAX, 0.0), (1.0, math.nan),
                                    (1.0, math.inf)],
                         ids=["kappa_nan", "kappa_inf", "kappa_negative",
                              "kappa_too_large", "mu0_nan", "mu0_inf"])
def test_von_mises_rejects_bad_parameters(params):
    with pytest.raises(ValueError, match="kappa|mu0"):
        VonMises(*params)
    with pytest.raises(ValueError, match="kappa|mu0"):
        density_from_dict({"kind": "von_mises", "kappa": params[0], "mu0": params[1]})


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -1.0])
def test_von_mises_twist_rejects_bad_kappa(kappa):
    with pytest.raises(ValueError, match="kappa"):
        VonMisesTwist(kappa)


def test_von_mises_quantile_levels_checked():
    for q in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="quantile levels"):
            VonMises(2.0).quantile(np.array([0.5, q]))


def test_x_independent_spec_inverted_once():
    calls = []

    class CountingVonMises(VonMises):
        def quantile(self, q):
            calls.append(len(q))
            return super().quantile(q)

    fam = initial_family(CountingVonMises(2.0, 1.0), 5, 8)
    assert calls == [8]
    expected = VonMises(2.0, 1.0).quantile((np.arange(8) + 0.5) / 8)
    assert np.array_equal(fam.positions, np.tile(expected, (5, 1)))
    assert not fam.positions.flags.writeable and not fam.masses.flags.writeable


def test_two_cluster_quantiles_and_samples():
    spec = TwoCluster(0.5, 2.5, 0.25)
    pos = spec.quantile((np.arange(8) + 0.5) / 8)
    assert np.sum(pos == 0.5) == 2 and np.sum(pos == 2.5) == 6
    rng = np.random.default_rng(8)
    draws = spec.sample(rng, 4000)
    assert abs(np.mean(draws == 0.5) - 0.25) < 0.03
    with pytest.raises(ValueError):
        spec.density(np.array([0.0]))


def test_x_dependent_specs():
    spec = XDependent(lambda x: VonMises(2.0, TWO_PI * x))
    fam = initial_family(spec, 4, 3)
    # the median atom sits at the mode 2*pi*x of the cell representative
    for i, cell in enumerate(fam.positions):
        mode = TWO_PI * (i + 1) / 4
        assert np.min(circle_distance(cell, mode)) < 1e-6
    twist = VonMisesTwist(2.0)
    fam2 = initial_family(twist, 4, 3)
    assert np.allclose(fam.positions, fam2.positions)


def test_iid_close_to_quantile_at_large_m():
    m = 10_000
    fam_iid = initial_family(Uniform(), 1, m, mode="iid", seed=42)
    fam_q = initial_family(Uniform(), 1, m)
    assert dbar(fam_iid, fam_q) < 0.05


def test_iid_reproducible_and_needs_seed():
    a = initial_family(Uniform(), 2, 5, mode="iid", seed=3)
    b = initial_family(Uniform(), 2, 5, mode="iid", seed=3)
    assert np.array_equal(a.positions, b.positions)
    with pytest.raises(ValueError):
        initial_family(Uniform(), 2, 5, mode="iid")


def test_quantile_start_takes_no_seed():
    with pytest.raises(ValueError, match=r"a quantile start takes no seed \(got 3\)"):
        initial_family(Uniform(), 2, 5, seed=3)


@pytest.mark.parametrize("seed", [1.7, True, -1, 2**64])
def test_iid_rejects_a_seed_that_is_not_a_uint64(seed):
    with pytest.raises(ValueError, match=rf"^iid seed must be an integer in \[0, 2\*\*64\) "
                                         rf"\(got {seed!r}\)$"):
        initial_family(Uniform(), 2, 5, mode="iid", seed=seed)


def test_density_spec_json():
    uniform = density_from_dict({"kind": "uniform"})
    assert type(uniform) is Uniform
    vm = density_from_dict({"kind": "von_mises", "kappa": 2.0, "mu0": 1.0})
    assert (type(vm), vm.kappa, vm.mu0) == (VonMises, 2.0, 1.0)
    assert density_from_dict({"kind": "von_mises", "kappa": 2.0}).mu0 == 0.0
    two = density_from_dict({"kind": "two_cluster", "theta1": 0.1, "theta2": 2.0, "w": 0.3})
    assert (type(two), two.theta1, two.theta2, two.w) == (TwoCluster, 0.1, 2.0, 0.3)
    twist = density_from_dict({"kind": "von_mises_twist", "kappa": 1.5})
    assert (type(twist), twist.kappa, twist.at(0.25).mu0) == (VonMisesTwist, 1.5, np.pi / 2)
    with pytest.raises(ValueError):
        density_from_dict({"kind": "bogus"})


def test_family_rows_round_trip():
    fam = initial_family(VonMises(1.0, 0.5), 3, 4)
    back = family_from_rows(list(family_to_rows(fam)))
    assert back.n_cells == fam.n_cells
    assert np.array_equal(fam.positions, back.positions)
    assert np.array_equal(fam.masses, back.masses)
