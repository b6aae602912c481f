"""Kernel construction, cell averaging, kernel distances, and the shared check
of every real setting."""

import inspect
import json
import math
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest

from kmflow.dynamics import CouplingFunction, OscillatorSystem, omega_from_spec, time_grid
from kmflow.graphon import (
    _TOEPLITZ_NODES,
    MAX_NODES,
    Graphon,
    QuadratureError,
    _band_offset_fractions,
    kernel_distance,
)
from kmflow.graphs import WeightedGraph, deterministic_graph, sample_w_random
from kmflow.meanfield import VelocityFieldSpec, picard_solve
from kmflow.measures import (
    KAPPA_MAX,
    MeasureTrajectory,
    TwoCluster,
    Uniform,
    VonMises,
    VonMisesTwist,
    d_alpha,
    density_from_dict,
    initial_family,
)
from oracles import (
    band_cell_fraction,
    midpoint_cell_average,
    midpoint_step,
    nearest_neighbor_kernel,
    peak_traced,
    small_world_kernel,
    step_norm_2n,
    toeplitz_mean_power,
)

TWO_PI = 2.0 * np.pi


def test_constant_cell_average_is_p():
    for n in (1, 5, _TOEPLITZ_NODES + 1):
        for p in (0.5, -0.4, 1.0):
            assert np.all(Graphon.constant(p).cell_average(n).values == p)


def test_small_world_cell_average_on_and_off_band():
    # at n = 10 cell (i, j) holds offsets |x - y| within (|i - j| - 1, |i - j| + 1)/10
    avg = Graphon.small_world(0.1, 0.25).cell_average(10).values
    # offsets below 0.2: on the band of half-width 0.25
    assert avg[0, 1] == pytest.approx(0.9, abs=1e-12)
    assert avg[3, 4] == pytest.approx(0.9, abs=1e-12)
    # offsets in (0.3, 0.5]: off the band
    assert avg[0, 4] == pytest.approx(0.1, abs=1e-12)
    assert avg[2, 7] == pytest.approx(0.1, abs=1e-12)
    # wrap-around: |x - y| in (0.8, 1] is a circular distance below 0.2
    assert avg[0, 9] == pytest.approx(0.9, abs=1e-12)
    assert avg[9, 0] == pytest.approx(0.9, abs=1e-12)


def test_cell_average_symmetry_all_kinds():
    kernels = [
        Graphon.constant(-0.4),
        Graphon.small_world(0.2, 0.3),
        Graphon.nearest_neighbor(0.15),
        Graphon.step([[0.2, -0.5], [-0.5, 1.0]]),
        Graphon.custom(lambda x, y: 0.5 * np.cos(TWO_PI * (x - y))),
    ]
    for W in kernels:
        # the custom quadrature grid grows with n, so it stays small
        for n in (7,) if W.fn else (7, _TOEPLITZ_NODES + 1):
            values = W.cell_average(n).values
            assert np.array_equal(values, values.T)


def test_nearest_neighbor_is_band_indicator():
    W = Graphon.nearest_neighbor(0.25)
    avg = W.cell_average(6).values
    # every cell, the wrap-around ones and those the band edge crosses included
    for i in range(6):
        for j in range(6):
            oracle = midpoint_cell_average(nearest_neighbor_kernel(0.25), 6, i, j,
                                           points=2048)
            # the indicator discontinuity limits the midpoint oracle to O(1/points)
            assert avg[i, j] == pytest.approx(oracle, abs=2e-3)


def test_parameter_validation_at_construction():
    with pytest.raises(ValueError):
        Graphon.small_world(0.5, 0.25)
    with pytest.raises(ValueError):
        Graphon.small_world(0.1, 0.0)
    with pytest.raises(ValueError):
        Graphon.nearest_neighbor(0.6)
    with pytest.raises(ValueError):
        Graphon.constant(1.5)
    with pytest.raises(ValueError):
        WeightedGraph([[0.0, 1.0], [0.5, 0.0]])  # not symmetric
    with pytest.raises(ValueError):
        WeightedGraph([[2.0]])  # out of range


def _real_sites():
    """(id, build from one value, name, low, high, open) of every real setting
    checked by ``graphon._check_real``."""
    graph = Graphon.constant(0.5).cell_average(2)
    start = initial_family(Uniform(), 1, 1)
    frames = MeasureTrajectory(np.array([0.0]), [start])
    spec = VelocityFieldSpec(Graphon.constant(0.5).cell_average(1), CouplingFunction.sine())
    normal = {"kind": "normal", "mean": 0.0, "sd": 1.0, "seed": 0}
    half, anything = (0.0, 0.5, True), (-math.inf, math.inf, False)
    return [
        ("constant-p", Graphon.constant, "constant kernel value p", -1.0, 1.0, False),
        ("small-world-p", lambda v: Graphon.small_world(v, 0.25), "small-world parameter p",
         *half),
        ("small-world-h", lambda v: Graphon.small_world(0.1, v),
         "small-world band half-width h", *half),
        ("nearest-neighbor-h", Graphon.nearest_neighbor, "band half-width h", *half),
        ("sine-shift-alpha", CouplingFunction.sine_shift, "coupling field 'alpha'", *anything),
        ("omega-value", lambda v: omega_from_spec({"kind": "constant", "value": v}, 2),
         "omega field 'value'", *anything),
        ("omega-mean", lambda v: omega_from_spec({**normal, "mean": v}, 2),
         "omega field 'mean'", *anything),
        ("omega-sd", lambda v: omega_from_spec({**normal, "sd": v}, 2), "omega field 'sd'",
         0.0, math.inf, False),
        ("K", lambda v: OscillatorSystem(graph, CouplingFunction.sine(), K=v),
         "coupling strength K", *anything),
        ("T", lambda v: time_grid(v, 1.0), "T", 0.0, math.inf, False),
        ("dt", lambda v: time_grid(0.0, v), "dt", 0.0, math.inf, True),
        ("von-mises-kappa", VonMises, "concentration kappa", 0.0, KAPPA_MAX, False),
        ("von-mises-mu0", lambda v: VonMises(1.0, v), "von Mises mode mu0", *anything),
        ("twist-kappa", VonMisesTwist, "concentration kappa", 0.0, KAPPA_MAX, False),
        ("theta1", lambda v: TwoCluster(v, 1.0, 0.5), "cluster position theta1", *anything),
        ("theta2", lambda v: TwoCluster(1.0, v, 0.5), "cluster position theta2", *anything),
        ("w", lambda v: TwoCluster(0.0, 1.0, v), "cluster weight w", 0.0, 1.0, True),
        ("d-alpha", lambda v: d_alpha(frames, frames, v), "alpha", 0.0, math.inf, True),
        ("picard-alpha", lambda v: picard_solve(spec, start, 0.0, 0.1, alpha=v), "alpha",
         2.0, math.inf, True),
        ("picard-tol", lambda v: picard_solve(spec, start, 0.0, 0.1, tol=v), "tol",
         0.0, math.inf, True),
    ]


@pytest.mark.parametrize("site", _real_sites(), ids=lambda site: site[0])
def test_every_real_setting_is_checked_alike(site):
    _, build, name, low, high, open_ = site
    rejected, accepted = [True, math.nan, math.inf, -math.inf, "0.25", -10**400], []
    for bound, inward in ((low, math.inf), (high, -math.inf)):
        if math.isfinite(bound):
            # the bound and its float neighbour lie on either side of it
            beside = math.nextafter(bound, inward if open_ else -inward)
            rejected.append(bound if open_ else beside)
            accepted.append(beside if open_ else bound)
    for value in rejected:
        with pytest.raises(ValueError) as error:
            build(value)
        message = str(error.value)
        assert message.startswith(f"{name} must be a finite number")
        assert f"(got {value!r})" in message
    for value in accepted or [-0.75]:
        build(value)


def test_cell_average_constant():
    avg = Graphon.constant(0.3).cell_average(5)
    assert np.allclose(avg.values, 0.3)


def test_cell_average_nearest_neighbor_inner_cell():
    # |x - y| <= 0.25 holds throughout [0, 0.25)^2, so the average is 1
    avg = Graphon.nearest_neighbor(0.25).cell_average(4)
    assert avg.values[0, 0] == pytest.approx(1.0)


def test_cell_average_small_world_off_band_cell():
    # cell [0,1/8) x [1/2,5/8): |x-y| ranges over [3/8,5/8], entirely off band
    avg = Graphon.small_world(0.1, 0.25).cell_average(8)
    assert avg.values[0, 4] == pytest.approx(0.1, abs=1e-12)
    oracle = midpoint_cell_average(small_world_kernel(0.1, 0.25), 8, 0, 4)
    assert avg.values[0, 4] == pytest.approx(oracle, abs=1e-6)


def test_cell_average_small_world_boundary_cell_is_half():
    # at n=8, h=0.25 the band edge runs corner-to-corner through the cells
    # at diagonal offset 2, so they are covered exactly half: 0.1 + 0.8/2
    avg = Graphon.small_world(0.1, 0.25).cell_average(8)
    assert avg.values[0, 2] == pytest.approx(0.5, abs=1e-12)
    assert avg.values[2, 0] == pytest.approx(0.5, abs=1e-12)


def test_cell_average_band_matches_midpoint_oracle():
    W = Graphon.small_world(0.2, 0.3)
    avg = W.cell_average(5)
    rng = np.random.default_rng(2)
    for _ in range(6):
        i, j = rng.integers(0, 5, 2)
        oracle = midpoint_cell_average(small_world_kernel(0.2, 0.3), 5, int(i), int(j),
                                       points=2048)
        # the indicator discontinuity limits the midpoint oracle to O(1/points)
        assert avg.values[i, j] == pytest.approx(oracle, abs=2e-3)


def test_cell_average_step_identity():
    values = np.array([[0.1, -0.3, 0.0], [-0.3, 0.8, 0.5], [0.0, 0.5, -1.0]])
    W = Graphon.step(values)
    assert np.allclose(W.cell_average(3).values, values, atol=1e-14)


def test_cell_average_step_refinement_exact():
    values = np.array([[0.2, 0.6], [0.6, -0.4]])
    coarse = Graphon.step(values)
    fine = coarse.cell_average(4).values
    assert np.allclose(fine, np.kron(values, np.ones((2, 2))), atol=1e-14)


def test_cell_average_custom_matches_oracle():
    fn = lambda x, y: 0.5 * np.exp(-3.0 * (x - y) ** 2)
    avg = Graphon.custom(fn).cell_average(4)
    for i, j in ((0, 0), (1, 3), (2, 2)):
        oracle = midpoint_cell_average(fn, 4, i, j, points=1024)
        assert avg.values[i, j] == pytest.approx(oracle, abs=1e-6)


@pytest.mark.parametrize("fn, message", [
    # averages to 0.5 +- 3e-16 at n = 8 if symmetrized unchecked
    pytest.param(lambda x, y: 0.5 + 0.4 * np.sin(TWO_PI * (x - y)),
                 r"must be symmetric: \|W\(x, y\) - W\(y, x\)\| reaches 0\.8 on the 8 x 8 ",
                 id="asymmetric"),
    pytest.param(lambda x, y: 0.6 + 0.5 * np.cos(TWO_PI * (x - y)),
                 r"must satisfy \|W\| <= 1: \|W\| reaches 1\.1 on the 8 x 8 ", id="above-one"),
    pytest.param(lambda x, y: np.where(x == y, np.nan, 0.5), r"\|W\| reaches nan", id="nan"),
])
def test_custom_cell_average_checks_symmetry_and_bound(fn, message):
    with pytest.raises(ValueError, match=message):
        Graphon.custom(fn).cell_average(8)


@pytest.mark.parametrize("fn", [
    pytest.param(lambda x, y: 0.5 * np.cos(TWO_PI * (x - y)), id="cosine"),
    pytest.param(lambda x, y: np.sin(TWO_PI * x) * np.sin(TWO_PI * y), id="product"),
    pytest.param(lambda x, y: np.minimum(x, y), id="min"),
])
def test_custom_cell_average_accepts_symmetric_bounded_kernels(fn):
    avg = Graphon.custom(fn).cell_average(8).values
    assert np.array_equal(avg, avg.T) and np.max(np.abs(avg)) <= 1.0


def test_cell_average_custom_nonconvergence_reports_tolerance():
    jump = lambda x, y: np.where(x + y > 1.0, 1.0, 0.0)
    with pytest.raises(QuadratureError, match=r"did not converge: achieved .*; exact cell "
                       r"averages of a kernel with jumps come from Graphon\.step or a band "
                       r"kernel$") as err:
        Graphon.custom(jump).cell_average(2)
    assert err.value.achieved > err.value.target


def test_custom_cell_average_takes_at_most_1024_cells():
    # Richardson needs 4n <= 4096 midpoint points per axis; the message names
    # the cell count it got, not a parameter, as kernel_distance passes its
    # resolution
    const = Graphon.custom(lambda x, y: 0.5 + 0 * x)
    assert np.array_equal(const.cell_average(1024).values, np.full((1024, 1024), 0.5))
    for build, cells in ((const.cell_average, 1025),
                         (lambda n: deterministic_graph(const, n), 1025),
                         (lambda n: kernel_distance(const, Graphon.constant(0.5), "L1", n), 2000)):
        with pytest.raises(ValueError, match=rf"take at most 1024 cells per axis .*, "
                                             rf"got {cells} cells$"):
            build(cells)


def test_cell_average_output_satisfies_invariants():
    for W in (Graphon.small_world(0.1, 0.25), Graphon.nearest_neighbor(0.2),
              Graphon.custom(lambda x, y: np.sin(TWO_PI * x) * np.sin(TWO_PI * y))):
        avg = W.cell_average(6)
        assert np.array_equal(avg.values, avg.values.T)
        assert np.max(np.abs(avg.values)) <= 1.0


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 257, _TOEPLITZ_NODES - 1,
                               _TOEPLITZ_NODES, _TOEPLITZ_NODES + 1, 1000])
def test_band_cell_average_matches_gather_formula(n):
    # the n x n offset gather symmetrised with its transpose, written out; each
    # kernel is W = p off the band of half-width h (no band: h is None)
    idx = np.arange(n)
    for make, p, h in ((Graphon.constant, 0.3, None), (Graphon.constant, -1.0, None),
                       (Graphon.small_world, 0.1, 0.25), (Graphon.small_world, 0.37, 0.013),
                       (Graphon.nearest_neighbor, None, 0.25),
                       (Graphon.nearest_neighbor, None, 0.2)):
        W = make(*(value for value in (p, h) if value is not None))
        if h is None:
            expected = np.full((n, n), p)
        else:
            matrix = _band_offset_fractions(n, h)[(idx[:, None] - idx[None, :]) % n]
            expected = 0.5 * (matrix + matrix.T)
            if p is not None:
                expected = p + (1.0 - 2.0 * p) * expected
        expected = np.clip(expected, -1.0, 1.0)
        values = W.cell_average(n).values
        # a dense copy below the size constant, a view built from the column from it up
        assert values.flags.c_contiguous == (n < _TOEPLITZ_NODES)
        assert not values.flags.writeable
        assert np.array_equal(values, expected)


@pytest.mark.parametrize("n", [4096, 8192])
@pytest.mark.parametrize("h", [0.1, 0.2, 1 / 3])
def test_band_fractions_match_exact_polygon_areas(n, h):
    # only the offsets an edge of the band cuts are partly covered: there the
    # rational polygon areas of the cells i - j = k and i - j = k - n are the
    # reference, elsewhere the cell is in or out
    fractions = _band_offset_fractions(n, h)
    edges = [n * edge for edge in (Fraction(h), -Fraction(h), Fraction(h) - 1, 1 - Fraction(h))]
    cut = {d % n for edge in edges for d in (math.floor(edge), math.ceil(edge)) if abs(d) < n}
    assert len(cut) == 4
    for k in cut:
        for d in (k, k - n):
            assert abs(fractions[k] - float(band_cell_fraction(n, h, d))) <= 1e-12
    offsets = np.array(sorted(set(range(n)) - cut))
    inside = np.minimum(offsets, n - offsets) <= n * h
    assert np.array_equal(fractions[offsets], inside.astype(float))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("h", [0.1, 0.25, 0.45])
def test_band_fractions_match_polygon_areas_at_every_offset(n, h):
    # at a few cells the band's edges cut most of them, and at n = 1 the one
    # cell holds both of its wrap-around strips
    fractions = _band_offset_fractions(n, h)
    assert fractions.shape == (n,)
    for k in range(n):
        for d in (k, k - n) if k else (0,):
            assert abs(fractions[k] - float(band_cell_fraction(n, h, d))) <= 1e-15


def test_band_cell_average_holds_its_column_only():
    n = 4096
    avg, peak = peak_traced(lambda: Graphon.small_world(0.1, 0.25).cell_average(n))
    assert peak < 2**20
    assert isinstance(avg, WeightedGraph) and avg.values is avg.weights
    assert avg.values.shape == (n, n) and not avg.values.flags.writeable
    assert avg._column.shape == (n,) and not avg._column.flags.writeable
    # the n x n view reads the column's 2n - 1 wrapped entries, held nowhere else
    base = avg.values
    while base.base is not None:
        base = base.base
    assert base.shape == (2 * n - 1,)
    assert np.array_equal(base, np.concatenate((avg._column[1:], avg._column)))


def test_toeplitz_spectrum_is_taken_by_the_first_product(monkeypatch):
    averages = []
    cell_average = Graphon.cell_average

    def recording(self, n):
        averages.append(cell_average(self, n))
        return averages[-1]

    monkeypatch.setattr(Graphon, "cell_average", recording)
    W, n = Graphon.small_world(0.1, 0.25), _TOEPLITZ_NODES + 1
    sample_w_random(W, n, 0)
    # a distance of two band kernels reads their columns, building no average
    kernel_distance(W, Graphon.nearest_neighbor(0.2), "L1", n)
    assert len(averages) == 1
    assert all(avg._column is not None and "_spectrum" not in vars(avg)
               for avg in averages)
    avg = averages[0]
    x = np.random.default_rng(0).standard_normal((2, n))
    assert np.allclose(avg._product(x), x @ np.array(avg.weights), atol=1e-12)
    # one length-n transform of the column
    assert vars(avg)["_spectrum"].shape == (n // 2 + 1,)


def _symmetric_matrix(n, seed=0):
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
    return np.triu(a) + np.triu(a, 1).T


def _column_major(values):
    """The graph of ``values`` given as its transpose, a column-major view, so
    the tiled symmetry check, the bound check and the clip read it strided."""
    return WeightedGraph(values.T)


# the id "step" runs the column-major layout case
_CONSTRUCTORS = [_column_major, WeightedGraph]


@pytest.mark.parametrize("make", _CONSTRUCTORS, ids=["step", "weighted"])
@pytest.mark.parametrize("where", [(63, 64), (64, 63), (0, 64), (64, 127), (127, 10),
                                   (129, 3), (5, 129), (129, 128)])
def test_symmetry_check_rejects_one_entry(make, where):
    # n=130 ends in a ragged tile; 63/64 and 127/128 straddle tile edges
    values = _symmetric_matrix(130)
    make(values)
    values[where] += 1e-12
    with pytest.raises(ValueError, match="symmetric"):
        make(values)


@pytest.mark.parametrize("make", _CONSTRUCTORS, ids=["step", "weighted"])
@pytest.mark.parametrize("where", [(64, 64), (129, 129), (3, 100)])
def test_symmetry_check_rejects_nan(make, where):
    values = _symmetric_matrix(130)
    values[where] = values[where[::-1]] = np.nan
    with pytest.raises(ValueError, match="symmetric"):
        make(values)


@pytest.mark.parametrize("make", _CONSTRUCTORS, ids=["step", "weighted"])
def test_bound_check_and_clip_leave_caller_array_unchanged(make):
    values = _symmetric_matrix(70)
    values[0, 69] = values[69, 0] = 1.0 + 5e-10
    values[65, 65] = -1.0 - 5e-10
    before = values.copy()
    built = make(values)
    stored = built.weights
    assert np.array_equal(values, before)
    assert stored[0, 69] == stored[69, 0] == 1.0 and stored[65, 65] == -1.0
    assert not stored.flags.writeable
    values[1, 2] = values[2, 1] = 1.0 + 2e-9
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        make(values)
    values[1, 2] = values[2, 1] = -np.inf
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        make(values)


@pytest.mark.parametrize("make", _CONSTRUCTORS + [
    Graphon.step, lambda huge: Graphon.constant(0.5).cell_average(huge.shape[0]),
], ids=["step", "weighted", "graphon", "cell_average"])
def test_oversized_input_rejected_before_copy(make):
    huge = np.broadcast_to(0.0, (MAX_NODES + 1, MAX_NODES + 1))

    def rejected():
        with pytest.raises(ValueError, match="nodes"):
            make(huge)

    _, peak = peak_traced(rejected)
    assert peak < 2**20


def test_kernel_distance_identity_and_constants():
    W = Graphon.small_world(0.1, 0.25)
    assert kernel_distance(W, W, "L2", 64) == 0.0
    assert kernel_distance(Graphon.constant(0.3), Graphon.constant(0.7), "L1", 32) == pytest.approx(0.4)
    assert kernel_distance(Graphon.constant(0.3), Graphon.constant(0.7), "L2", 32) == pytest.approx(0.4)


_TOEPLITZ_KERNELS = [
    Graphon.constant(0.3), Graphon.constant(0.75),
    Graphon.small_world(0.1, 0.25), Graphon.small_world(0.15, 0.25),
    Graphon.nearest_neighbor(0.1), Graphon.nearest_neighbor(0.37),
]


def _within_ulps(value, reference, ulps=4):
    return abs(value - reference) <= ulps * math.ulp(reference)


def _assert_matches_exact_oracle(W, U, r):
    # the 2r - 1 diagonals d = i - j of each circulant, read at offset d mod r
    offsets = np.arange(1 - r, r) % r
    a, b = W._column(r)[offsets], U._column(r)[offsets]
    mean_square = toeplitz_mean_power(a, b, 2)
    root = (Decimal(mean_square.numerator) / Decimal(mean_square.denominator)).sqrt(
        Context(prec=40))
    assert _within_ulps(kernel_distance(W, U, "L1", r), float(toeplitz_mean_power(a, b, 1)))
    assert _within_ulps(kernel_distance(W, U, "L2", r), float(root))


@pytest.mark.parametrize("r", [1, 2, 63, 512])
def test_kernel_distance_toeplitz_route_matches_step_route(r):
    # two band kernels are compared over their columns: within 4 ulps of the
    # mean over the r x r difference and of its exact value
    for W in _TOEPLITZ_KERNELS:
        for U in _TOEPLITZ_KERNELS:
            diff = W.cell_average(r).values - U.cell_average(r).values
            assert _within_ulps(kernel_distance(W, U, "L1", r), np.mean(np.abs(diff)))
            assert _within_ulps(kernel_distance(W, U, "L2", r), np.sqrt(np.mean(diff**2)))
            _assert_matches_exact_oracle(W, U, r)


@pytest.mark.parametrize("r", [431, 4096])
def test_band_kernel_distance_matches_exact_oracle(r):
    for W in _TOEPLITZ_KERNELS:
        for U in _TOEPLITZ_KERNELS:
            _assert_matches_exact_oracle(W, U, r)


def _no_cell_average(self, n):
    raise AssertionError(f"cell_average({n}) called")


def test_band_kernel_distance_reads_only_columns(monkeypatch):
    # at the node cap a dense difference would take 512 MiB
    monkeypatch.setattr(Graphon, "cell_average", _no_cell_average)
    W, U = Graphon.small_world(0.1, 0.25), Graphon.nearest_neighbor(0.2)
    for norm in ("L1", "L2"):
        distance, peak = peak_traced(lambda: kernel_distance(W, U, norm, MAX_NODES))
        assert distance > 0.0 and peak < 5 * 2**20


def test_kernel_distance_step_band_mix_takes_dense_route(monkeypatch):
    # two band kernels are compared over their r-entry columns, building no
    # cell average; a step kernel takes both averages and their difference
    averaged = []
    cell_average = Graphon.cell_average

    def counting(self, n, *args):
        averaged.append(self.kind)
        return cell_average(self, n, *args)

    monkeypatch.setattr(Graphon, "cell_average", counting)
    band, step = Graphon.small_world(0.1, 0.25), Graphon.step([[0.2, 0.5], [0.5, 0.9]])
    r = _TOEPLITZ_NODES
    distance, peak = peak_traced(
        lambda: kernel_distance(band, Graphon.nearest_neighbor(0.2), "L1", r))
    assert distance > 0.0 and peak < 256 * r
    assert averaged == []
    mixed = kernel_distance(step, band, "L1", 64)
    assert averaged == ["step", "small_world"]
    diff = step.cell_average(64).values - band.cell_average(64).values
    assert mixed == np.mean(np.abs(diff))


def test_kernel_distance_resolution_capped():
    with pytest.raises(ValueError, match="nodes"):
        kernel_distance(Graphon.constant(0.3), Graphon.constant(0.7), "L1", MAX_NODES + 1)


@pytest.mark.parametrize("resolution", [True, 2.5, 0])
def test_kernel_distance_checks_the_resolution_it_was_given(resolution):
    # checked before it is rounded up to a multiple of the step resolutions
    step = Graphon.step([[0.2, 0.5], [0.5, 0.9]])
    with pytest.raises(ValueError, match=rf"^need an integer resolution >= 1 "
                                         rf"\(got {resolution!r}\)$"):
        kernel_distance(step, Graphon.small_world(0.1, 0.25), "L1", resolution)


def test_kernel_distance_exact_for_commensurate_steps():
    A = Graphon.step([[1.0, 0.0], [0.0, 1.0]])
    B = Graphon.step(np.zeros((4, 4)))
    # |diff| == 1 on half the square
    assert kernel_distance(A, B, "L1", 7) == pytest.approx(0.5, abs=1e-14)
    assert kernel_distance(A, B, "L2", 7) == pytest.approx(np.sqrt(0.5), abs=1e-14)


def test_refinement_l2_distance_decreases():
    W = Graphon.small_world(0.1, 0.25)
    dists = [
        kernel_distance(Graphon.step(W.cell_average(n)), W, "L2", 192)
        for n in (4, 8, 16, 32)
    ]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_refinement_l2_nonincreasing_all_builtins():
    kernels = [
        Graphon.constant(0.7),
        Graphon.small_world(0.3, 0.15),
        Graphon.nearest_neighbor(0.2),
    ]
    for W in kernels:
        dists = [
            kernel_distance(Graphon.step(W.cell_average(n)), W, "L2", 192)
            for n in (2, 4, 8, 16, 32, 64)
        ]
        assert all(a >= b - 1e-14 for a, b in zip(dists, dists[1:]))


def test_step_norm_2n():
    A = WeightedGraph([[1.0]])
    B = WeightedGraph([[0.0]])
    assert step_norm_2n(A, A) == 0.0
    assert step_norm_2n(A, B) == pytest.approx(1.0)
    # n=2, all-ones vs all-zeros: sqrt(4/4) = 1
    ones = WeightedGraph(np.ones((2, 2)))
    zeros = WeightedGraph(np.zeros((2, 2)))
    assert step_norm_2n(ones, zeros) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        step_norm_2n(A, ones)


def test_midpoint_step_alternative_discretization():
    W, kernel = Graphon.small_world(0.1, 0.25), small_world_kernel(0.1, 0.25)
    sampled = midpoint_step(kernel, 8)
    x = np.arange(1, 9) / 8
    assert np.allclose(sampled.values, kernel(x[:, None], x[None, :]))
    # both discretizations approach the kernel in L2
    d_sampled = kernel_distance(Graphon.step(sampled), W, "L2", 192)
    d_avg = kernel_distance(Graphon.step(W.cell_average(8)), W, "L2", 192)
    assert d_sampled < 0.5 and d_avg < 0.5


def test_step_kernel_of_a_split_sampled_graph():
    # a split graph's bool weights step like their float copy
    g = sample_w_random(Graphon.small_world(0.1, 0.25), 600, seed=4)
    assert g._column is not None and g.weights.dtype == bool
    for n in (97, 600, 1200):
        assert np.array_equal(Graphon.step(g).cell_average(n).values,
                              Graphon.step(g.weights.astype(float)).cell_average(n).values)


def test_json_round_trip():
    # the JSON specs the CLI reads build the kernels their constructors build
    for text, W in (('{"kind": "constant", "p": 0.5}', Graphon.constant(0.5)),
                    ('{"kind": "small_world", "p": 0.1, "h": 0.25}',
                     Graphon.small_world(0.1, 0.25)),
                    ('{"kind": "nearest_neighbor", "h": 0.2}', Graphon.nearest_neighbor(0.2)),
                    ('{"kind": "step", "values": [[0.3]]}', Graphon.step([[0.3]]))):
        back = Graphon.from_dict(json.loads(text))
        assert back.kind == W.kind
        for n in (7, _TOEPLITZ_NODES + 1):
            assert np.array_equal(back.cell_average(n).values, W.cell_average(n).values)
    with pytest.raises(ValueError, match="unknown graphon kind: 'custom'"):
        Graphon.from_dict({"kind": "custom"})


# Each JSON spec family by the name its messages use: its decoder and, per
# kind, the public constructor whose parameters are the kind's fields (None
# for omega, whose kinds are closures over n) and a spec of every field.
_SPEC_FAMILIES = {
    "graphon": (Graphon.from_dict, {
        "constant": (Graphon.constant, {"p": 0.5}),
        "small_world": (Graphon.small_world, {"p": 0.1, "h": 0.25}),
        "nearest_neighbor": (Graphon.nearest_neighbor, {"h": 0.2}),
        "step": (Graphon.step, {"values": [[0.3]]})}),
    "coupling": (CouplingFunction.from_dict, {
        "sine": (CouplingFunction.sine, {}),
        "sine_shift": (CouplingFunction.sine_shift, {"alpha": 0.3}),
        "fourier": (CouplingFunction.fourier, {"cos": [0.0, 0.1], "sin": [0.5]})}),
    "density": (density_from_dict, {
        "uniform": (Uniform, {}),
        "von_mises": (VonMises, {"kappa": 2.0, "mu0": 1.0}),
        "two_cluster": (TwoCluster, {"theta1": 0.1, "theta2": 2.0, "w": 0.3}),
        "von_mises_twist": (VonMisesTwist, {"kappa": 1.5})}),
    "omega": (lambda spec: omega_from_spec(spec, 3), {
        "zero": (None, {}),
        "constant": (None, {"value": 2.5}),
        "normal": (None, {"seed": 9, "mean": 0.0, "sd": 1.0})}),
}


@pytest.mark.parametrize("what, kind", [
    pytest.param(what, kind, id=f"{what}-{kind}")
    for what, (_, kinds) in _SPEC_FAMILIES.items() for kind in kinds])
def test_spec_fields_are_constructor_parameters(what, kind):
    decode, kinds = _SPEC_FAMILIES[what]
    constructor, fields = kinds[kind]
    built = decode({"kind": kind, **fields})
    if constructor is None:
        assert built.shape == (3,)
    else:
        assert set(fields) == set(inspect.signature(constructor).parameters)
        assert type(built) is type(constructor(**fields))
    with pytest.raises(ValueError, match=rf"^{what} kind '{kind}' takes no field 'typo'$"):
        decode({"kind": kind, **fields, "typo": 1})
    for name in set(fields) - {"mu0"}:
        with pytest.raises(KeyError) as missing:
            decode({"kind": kind, **{key: fields[key] for key in fields if key != name}})
        assert missing.value.args == (name,)


def test_spec_defaults_and_library_only_kinds():
    # a field with a default takes the constructor's; a spec with no kind is
    # zero frequencies; custom kernels and couplings are callables, with no
    # JSON form
    default = inspect.signature(VonMises).parameters["mu0"].default
    assert density_from_dict({"kind": "von_mises", "kappa": 2.0}).mu0 == default == 0.0
    assert np.array_equal(omega_from_spec({}, 3), np.zeros(3))
    for what, decode in (("graphon", Graphon.from_dict), ("coupling", CouplingFunction.from_dict)):
        with pytest.raises(ValueError, match=rf"^unknown {what} kind: 'custom'$"):
            decode({"kind": "custom"})
