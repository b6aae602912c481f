"""Independent oracles used to derive expected values in the tests.

These deliberately avoid the code paths they check: cell averages come from
brute-force midpoint sums, transport distances from an explicit linear
program over transport plans, atomic velocity fields from the explicit double
sum over source cells and their atoms, finite-volume velocities from the
explicit double sum over a g x g coupling table, and the two-oscillator
dynamics from its closed-form solution.
"""

import numpy as np
from scipy.optimize import linprog

from kmflow.measures import CircleMeasure, MeasureFamily, circle_distance

TWO_PI = 2.0 * np.pi


def midpoint_cell_average(kernel_eval, n, i, j, points=512):
    """Brute-force midpoint-rule average of a kernel over cell (i, j)."""
    offsets = (np.arange(points) + 0.5) / (points * n)
    xs = i / n + offsets
    ys = j / n + offsets
    return float(np.mean(kernel_eval(xs[:, None], ys[None, :])))


def lp_transport_distance(mu: CircleMeasure, eta: CircleMeasure) -> float:
    """Exact optimal transport cost with arc-length ground cost, via LP."""
    m1, m2 = mu.n_atoms, eta.n_atoms
    cost = circle_distance(mu.positions[:, None], eta.positions[None, :]).ravel()
    A = np.zeros((m1 + m2, m1 * m2))
    for i in range(m1):
        A[i, i * m2:(i + 1) * m2] = 1.0
    for j in range(m2):
        A[m1 + j, j::m2] = 1.0
    b = np.concatenate([mu.masses, eta.masses])
    # one marginal constraint is redundant; drop it to keep the LP full rank
    result = linprog(cost, A_eq=A[:-1], b_eq=b[:-1], bounds=(0, None),
                     method="highs")
    assert result.success, result.message
    return float(result.fun)


def random_circle_measure(rng, max_atoms=8) -> CircleMeasure:
    k = int(rng.integers(1, max_atoms + 1))
    positions = rng.uniform(0.0, TWO_PI, k)
    if k == 1:
        masses = np.array([1.0])
    else:
        cuts = np.sort(rng.random(k - 1))
        masses = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
        masses = np.maximum(masses, 1e-9)
        masses = masses / masses.sum()
    return CircleMeasure(positions, masses)


def padded_family(measures, pad_position=0.0) -> MeasureFamily:
    """Family holding the given measures, short cells padded with zero-mass
    atoms at ``pad_position``."""
    width = max(mu.n_atoms for mu in measures)
    positions = np.full((len(measures), width), pad_position)
    masses = np.zeros((len(measures), width))
    for i, mu in enumerate(measures):
        positions[i, :mu.n_atoms] = mu.positions
        masses[i, :mu.n_atoms] = mu.masses
    return MeasureFamily(positions, masses)


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


def weak_residual(times, fields, w, coupling, tests):
    """Largest weak-form defect over tests and x-cells, test by test and frame
    by frame: center velocities by the double sum, phase integrals by the
    midpoint rule, the time integral by the trapezoid rule."""
    g = fields[0].shape[1]
    du = TWO_PI / g
    centers = (np.arange(g) + 0.5) * du
    worst = 0.0
    for test in tests:
        space = []
        for t, rho in zip(times, fields):
            v = grid_velocity(w, coupling, rho, centers)
            integrand = rho * (test.dt(t, centers) + v * test.du(t, centers))
            space.append(integrand.sum(axis=1) * du)
        init = (fields[0] * test.value(0.0, centers)).sum(axis=1) * du
        defect = np.trapezoid(np.array(space), times, axis=0) + init
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


def two_oscillator_gap(phi0: float, K: float, t: float) -> float:
    """Closed-form phase gap: tan(phi/2) = tan(phi0/2) * exp(-K t)."""
    return 2.0 * np.arctan(np.tan(0.5 * phi0) * np.exp(-K * t))
