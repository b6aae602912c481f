"""Independent oracles used to derive expected values in the tests.

These deliberately avoid the code paths they check: cell averages come from
brute-force midpoint sums, transport distances from an explicit linear
program over transport plans with the arc distance ``circle_distance`` as
cost (one measure being a one-cell family, as in the library), atomic
velocity fields from the explicit double sum over source cells and their
atoms, finite-volume velocities from the explicit double sum over a g x g
coupling table (also for the weak-form residual, test function by test
function), and the two-oscillator dynamics from its closed-form solution.
``small_world_kernel`` and ``nearest_neighbor_kernel`` write the band
kernels W(x, y) out from their constructors' parameters, for the midpoint
oracles, and ``band_cell_fraction`` the share of a cell the band covers,
summed from polygon areas in rational arithmetic.  ``midpoint_step`` samples a kernel at
the grid points, the alternative to cell averaging, and ``step_norm_2n`` is
the scaled Frobenius distance of two step kernels.
``exact_equal_mass_w1`` evaluates the circular W1 of equal-mass atoms in
rational arithmetic, and ``common_cells`` refines two families to their least
common cell count, the reference for dbar over unequal counts.
``locked_order_parameter`` is Kuramoto's self-consistent order parameter of
a locked all-to-all population, the synchronized branch at frequencies omega.
``toeplitz_mean_power`` is the (r - |d|)-weighted mean of |a_d - b_d|^p over
the 2r - 1 float diagonals of two Toeplitz matrices, in rational arithmetic.
``van_der_corput_order`` and ``coarse_graph_km`` start a graph KM from
quantiles in bit-reversed order in each coarse cell and coarse-grain its
final phases, for the graph-against-mean-field test.
``peak_traced`` measures the peak memory a call allocates.
``triangle_wave`` is a coupling no short Fourier series resolves (its
coefficients fall as k^-2), so ``CouplingFunction.custom`` sums it in slabs.
``moment_hierarchy`` integrates the Fourier moments of the mean-field cells
of a Fourier coupling, the moment hierarchy of Daido, Physica D 91 (1996),
from von Mises starts taken from ``scipy.special.ive``.
"""

import collections
import math
import tracemalloc
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from kmflow.dynamics import CouplingFunction, OscillatorSystem, PhaseState, integrate
from kmflow.graphon import WeightedGraph
from kmflow.measures import MeasureFamily, empirical_from_phases, initial_family

TWO_PI = 2.0 * np.pi


def _band(h, inside, outside):
    def kernel(x, y):
        dist = np.abs(np.asarray(x) - np.asarray(y))
        return np.where(np.minimum(dist, 1.0 - dist) <= h, inside, outside)
    return kernel


def small_world_kernel(p, h):
    """W(x, y) = 1 - p where the circular distance of x and y is at most h, else p."""
    return _band(h, 1.0 - p, p)


def nearest_neighbor_kernel(h):
    """The indicator of circular distance at most h."""
    return _band(h, 1.0, 0.0)


def _area_below(ax, bx, ay, by, c):
    """Area of {(x, y) in [ax, bx] x [ay, by] : x - y <= c}: a full rectangle
    up to x = ay + c, then the trapezoid under the line y = x - c."""
    x1 = min(bx, max(ax, ay + c))
    xr = min(bx, max(x1, by + c))
    return (x1 - ax) * (by - ay) + (by + c) * (xr - x1) - (xr * xr - x1 * x1) / 2


def band_cell_fraction(n, h, d) -> Fraction:
    """Exact share of a cell of diagonal offset d = i - j at resolution n covered
    by the circular band min(|x - y|, 1 - |x - y|) <= h: the strips
    |x - y| <= h, x - y >= 1 - h and x - y <= h - 1, each a difference of
    polygon areas, in ``Fraction`` arithmetic at the float value of h."""
    h = Fraction(h)
    cell = (Fraction(d, n), Fraction(d + 1, n), Fraction(0), Fraction(1, n))

    def strip(lo, hi):
        return _area_below(*cell, hi) - _area_below(*cell, lo)

    return (strip(-h, h) + strip(1 - h, 2) + strip(-2, h - 1)) * n * n


def midpoint_cell_average(kernel_eval, n, i, j, points=512):
    """Brute-force midpoint-rule average of a kernel over cell (i, j)."""
    offsets = (np.arange(points) + 0.5) / (points * n)
    xs = i / n + offsets
    ys = j / n + offsets
    return float(np.mean(kernel_eval(xs[:, None], ys[None, :])))


def midpoint_step(kernel, n: int) -> WeightedGraph:
    """Alternative discretization: sample ``kernel(x, y)`` at the grid points
    (i/n, j/n).

    This is interchangeable with cell averaging whenever both converge to the
    kernel in L^2.
    """
    x = np.arange(1, n + 1) / n
    values = kernel(x[:, None], x[None, :])
    values = 0.5 * (values + values.T)
    return WeightedGraph(values)


def step_norm_2n(a: WeightedGraph, b: WeightedGraph) -> float:
    """Scaled Frobenius distance sqrt(n^-2 sum (a_ij - b_ij)^2)."""
    if a.n != b.n:
        raise ValueError(f"resolution mismatch: {a.n} != {b.n}")
    diff = a.values - b.values
    return float(np.sqrt(np.mean(diff**2)))


def circle_distance(theta, theta_prime):
    """Arc distance on the circle: min(|a-b|, 2*pi-|a-b|), in [0, pi]."""
    a = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    b = np.mod(np.asarray(theta_prime, dtype=float), TWO_PI)
    d = np.abs(a - b)
    return np.minimum(d, TWO_PI - d)


def lp_transport_distance(mu: MeasureFamily, eta: MeasureFamily) -> float:
    """Exact optimal transport cost with arc-length ground cost between the
    measures of two one-cell families, via LP."""
    m1, m2 = mu.positions.size, eta.positions.size
    cost = circle_distance(mu.positions[0][:, None], eta.positions[0][None, :]).ravel()
    A = np.zeros((m1 + m2, m1 * m2))
    for i in range(m1):
        A[i, i * m2:(i + 1) * m2] = 1.0
    for j in range(m2):
        A[m1 + j, j::m2] = 1.0
    b = np.concatenate([mu.masses[0], eta.masses[0]])
    # one marginal constraint is redundant; drop it to keep the LP full rank
    result = linprog(cost, A_eq=A[:-1], b_eq=b[:-1], bounds=(0, None),
                     method="highs")
    assert result.success, result.message
    return float(result.fun)


def random_circle_measure(rng, max_atoms=8) -> MeasureFamily:
    """One-cell family of 1 to ``max_atoms`` atoms at uniform positions, with
    positive masses cut from the unit interval."""
    k = int(rng.integers(1, max_atoms + 1))
    positions = rng.uniform(0.0, TWO_PI, k)
    if k == 1:
        masses = np.array([1.0])
    else:
        cuts = np.sort(rng.random(k - 1))
        masses = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
        masses = np.maximum(masses, 1e-9)
        masses = masses / masses.sum()
    return MeasureFamily(positions[None], masses[None])


def exact_equal_mass_w1(pos_a, pos_b) -> float:
    """Circular W1 between m_a atoms of mass exactly 1/m_a at ``pos_a`` and
    m_b atoms of mass exactly 1/m_b at ``pos_b``, by rational arithmetic on
    the float positions: the smallest of sum_k len_k |Delta_k - t| over the
    candidate shifts t = Delta_j (the objective is convex and piecewise
    linear with its kinks there), rounded once."""
    steps = sorted([(Fraction(p), Fraction(1, len(pos_a))) for p in pos_a]
                   + [(Fraction(p), Fraction(-1, len(pos_b))) for p in pos_b])
    edges = [Fraction(0)] + [p for p, _ in steps] + [Fraction(TWO_PI)]
    delta = [Fraction(0)]
    for _, step in steps:
        delta.append(delta[-1] + step)
    lengths = [hi - lo for lo, hi in zip(edges, edges[1:])]
    return float(min(sum(w * abs(v - t) for w, v in zip(lengths, delta)) for t in delta))


def padded_family(measures, pad_position=0.0) -> MeasureFamily:
    """Family holding the measures of the given one-cell families, short
    cells padded with zero-mass atoms at ``pad_position``."""
    width = max(mu.positions.size for mu in measures)
    positions = np.full((len(measures), width), pad_position)
    masses = np.zeros((len(measures), width))
    for i, mu in enumerate(measures):
        positions[i, :mu.positions.size] = mu.positions[0]
        masses[i, :mu.masses.size] = mu.masses[0]
    return MeasureFamily(positions, masses)


def refine(family: MeasureFamily, k: int) -> MeasureFamily:
    """Every cell repeated k times: the same step family on k times as many
    cells."""
    return MeasureFamily(np.repeat(family.positions, k, axis=0),
                         np.repeat(family.masses, k, axis=0))


def common_cells(a: MeasureFamily, b: MeasureFamily) -> tuple[MeasureFamily, MeasureFamily]:
    """Both families refined to their least common cell count."""
    L = math.lcm(a.n_cells, b.n_cells)
    return refine(a, L // a.n_cells), refine(b, L // b.n_cells)


def weight_perturbation_constant(T: float) -> float:
    """Growth constant sqrt(T * e^(5T)) bounding trajectory divergence per
    unit weight-matrix distance (scaled Frobenius) over [0, T]."""
    return float(np.sqrt(T * np.exp(5.0 * T)))


def coupling_sum(w, coupling, pos, mass, targets):
    """V[k, t] = n^-1 sum_i w[k, i] sum_j mass[i, j] D(pos[i, j] - targets[k, t])
    by the explicit double sum: a loop over target cells k and source cells i,
    each source atom's D evaluated at every target of cell k."""
    pos = np.asarray(pos, dtype=float)
    mass = np.broadcast_to(mass, pos.shape)
    targets = np.asarray(targets, dtype=float)
    out = np.zeros(targets.shape)
    for k in range(len(targets)):
        for i in range(len(pos)):
            table = coupling(pos[i][:, None] - targets[k][None, :])
            out[k] += w[k][i] * (mass[i] @ table)
    return out / len(pos)


def triangle_wave(u):
    """(2/pi) arcsin(sin u): |D| <= 1, Lipschitz 2/pi, a kink at every pi/2."""
    return (2.0 / np.pi) * np.arcsin(np.sin(u))


def moment_hierarchy(w, cos, sin, kappa, mu, T, dt, modes=64):
    """z_1(T) of each cell i of the mean-field solution for D(u) = cos[0] +
    sum_l cos[l] cos(lu) + sin[l - 1] sin(lu) on the step kernel ``w``.

    The cells start von Mises with concentration ``kappa`` and modes ``mu[i]``,
    z_k(0) = e^{ik mu} I_k(kappa) / I_0(kappa).  Their moments z_k = E e^{iku}
    follow dz_k/dt = ik sum_l d_l H_l z_{k-l}, with D(u) = sum_l d_l e^{ilu} and
    H_l = n^-1 sum_j w_ij z_{l,j}, truncated at |k| <= ``modes`` and integrated
    by RK4 at the step ``dt``.
    """
    from scipy.special import ive

    w = np.asarray(w, dtype=float)
    n, L = len(mu), len(cos) - 1
    k = np.arange(-modes, modes + 1)
    z = (ive(np.abs(k), kappa) / ive(0, kappa)) * np.exp(1j * np.outer(mu, k))
    d = {0: cos[0]}
    for l in range(1, L + 1):
        d[l] = (cos[l] - 1j * sin[l - 1]) / 2
        d[-l] = np.conj(d[l])

    def rhs(z):
        H = w @ z / n
        dz = np.zeros_like(z)
        for l, d_l in d.items():
            # z_{k - l} at column k + modes, zero beyond the truncation
            shifted = np.zeros_like(z)
            if l >= 0:
                shifted[:, l:] = z[:, :z.shape[1] - l]
            else:
                shifted[:, :l] = z[:, -l:]
            dz += d_l * H[:, [l + modes]] * shifted
        return 1j * k * dz

    steps = round(T / dt)
    for _ in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z[:, modes + 1]


def grid_velocity(w, coupling, rho, points):
    """V[i, f] = n^-1 sum_j w[i, j] du sum_k rho[j, k] D(c_k - points[f]) for
    grid densities rho (n, g) with cell centers c_k, by the explicit double
    sum over the (points, centers) table of D."""
    n, g = rho.shape
    du = TWO_PI / g
    centers = (np.arange(g) + 0.5) * du
    table = coupling(centers[None, :] - points[:, None])
    return (w @ ((rho @ table.T) * du)) / n


def fv_step(w, coupling, rho, h):
    """One first-order upwind finite-volume step of length h, face velocities
    at u_f = f * du by the double sum."""
    g = rho.shape[1]
    du = TWO_PI / g
    v = grid_velocity(w, coupling, rho, np.arange(g) * du)
    flux = np.where(v > 0.0, v * np.roll(rho, 1, axis=1), v * rho)
    return rho - (h / du) * (np.roll(flux, -1, axis=1) - flux)


def weak_test_functions(T):
    """The test functions (1 - t/T)^2 {sin ku, cos ku}, k = 1, 2, 3, each as
    closed forms of (w, d_t w, d_u w) at (t, u)."""
    tests = []
    for k in (1, 2, 3):
        for trig, trig_u in ((np.sin, np.cos), (np.cos, lambda x: -np.sin(x))):
            tests.append((
                lambda t, u, k=k, f=trig: (1.0 - t / T) ** 2 * f(k * u),
                lambda t, u, k=k, f=trig: -2.0 * (1.0 - t / T) / T * f(k * u),
                lambda t, u, k=k, f=trig_u: (1.0 - t / T) ** 2 * k * f(k * u),
            ))
    return tests


def weak_residual(times, fields, w, coupling):
    """Largest weak-form defect over :func:`weak_test_functions` and x-cells,
    test by test and frame by frame: center velocities by the double sum,
    phase integrals by the midpoint rule, the time integral by the trapezoid
    rule."""
    g = fields[0].shape[1]
    du = TWO_PI / g
    centers = (np.arange(g) + 0.5) * du
    worst = 0.0
    for value, d_t, d_u in weak_test_functions(float(times[-1])):
        space = []
        for t, rho in zip(times, fields):
            v = grid_velocity(w, coupling, rho, centers)
            integrand = rho * (d_t(t, centers) + v * d_u(t, centers))
            space.append(integrand.sum(axis=1) * du)
        init = (fields[0] * value(0.0, centers)).sum(axis=1) * du
        defect = np.trapezoid(np.array(space), times, axis=0) + init
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


def two_oscillator_gap(phi0: float, K: float, t: float) -> float:
    """Closed-form phase gap: tan(phi/2) = tan(phi0/2) * exp(-K t)."""
    return 2.0 * np.arctan(np.tan(0.5 * phi0) * np.exp(-K * t))


def locked_order_parameter(omega, coupling: float) -> float:
    """Order parameter r of the locked state of the all-to-all Kuramoto model
    du_i/dt = omega_i + coupling * r sin(psi - u_i) (Kuramoto, 1984): the
    largest root of r = mean sqrt(1 - ((omega_i - mean omega) / (coupling r))^2),
    reached by fixed-point iteration down from r = 1, whose map is increasing."""
    spread = (np.asarray(omega) - np.mean(omega)) / coupling
    r = 1.0
    for _ in range(10**4):
        following = float(np.mean(np.sqrt(1.0 - (spread / r) ** 2)))
        if not following < r:
            assert following == r, "no locked state: some oscillator drifts"
            return r
        r = following
    raise AssertionError("the fixed-point iteration did not settle")


def toeplitz_mean_power(a, b, power: int) -> Fraction:
    """Exact mean of |A - B|^power over the r x r entries of the Toeplitz
    matrices with diagonals a and b (entry (i, j) = a[i - j + r - 1]):
    diagonal d holds r - |d| entries."""
    r = (len(a) + 1) // 2
    cells = collections.Counter()  # cells per distinct pair of diagonal values
    for d, pair in zip(range(1 - r, r), zip(a.tolist(), b.tolist())):
        cells[pair] += r - abs(d)
    return sum(abs(Fraction(x) - Fraction(y)) ** power * k
               for (x, y), k in cells.items()) / r**2


def van_der_corput_order(m: int) -> np.ndarray:
    """0, ..., m - 1 in bit-reversed order, m a power of two: every leading run
    of 2^j entries samples the range evenly."""
    bits = m.bit_length() - 1
    assert m == 1 << bits, f"{m} is not a power of two"
    return np.array([int(f"{i:0{bits}b}"[::-1], 2) for i in range(m)])


def coarse_graph_km(graph: WeightedGraph, rho0, cells: int, T: float, dt: float):
    """Final phases of the sine KM (K = 1, omega = 0) on ``graph`` as a
    ``cells``-cell family: each of the ``cells`` runs of m = n / cells
    consecutive nodes starts at rho0's m quantiles in van der Corput order
    (rho0 x-independent).  Sorted quantiles would bias a band that covers part
    of a run."""
    m = graph.n // cells
    quantiles = initial_family(rho0, 1, m).positions[0]
    start = PhaseState(np.tile(quantiles[van_der_corput_order(m)], cells))
    traj = integrate(OscillatorSystem(graph, CouplingFunction.sine()), start, T, dt,
                     record_every=10**9)
    return empirical_from_phases(traj.phases[-1], cells, m)


def peak_traced(fn):
    """Call ``fn()`` under tracemalloc; return (its result, peak traced bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
