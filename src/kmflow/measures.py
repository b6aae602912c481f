"""Discrete probability measures on the circle and transport metrics.

The distance between two measures is the supremum of |int f dmu - int f deta|
over 1-Lipschitz test functions, which on a compact space equals the
Wasserstein-1 distance by Kantorovich-Rubinstein duality.  For atomic
measures on the circle it is computed exactly (Rabin, Delon & Gousseau,
JMIV 2011): merge the atom positions, form the cumulative mass difference
Delta(x) (piecewise constant), and return min over shifts t of the integral
of |Delta - t|; the optimal t is a weighted median of the segment values,
ties resolved at the interval midpoint.  One kernel, :func:`_w1_rows`, does
this for every row of two (rows, atoms) array pairs at once.  Rows of m_a
atoms of mass exactly 1/m_a against m_b atoms of mass exactly 1/m_b, with
L = lcm(m_a, m_b) <= m_a + m_b (the frames of particle and Picard runs),
take a counting path: Delta is an integer count in units of 1/L, so after
one merge of the sorted sides the weighted median is one histogram.  Padded,
ragged or unequal-mass rows, such as CSV families, take the general path.

A family of measures indexed by the cells of [0,1] is one pair of read-only
(cells, atoms) arrays, positions in [0, 2*pi) and masses; short cells are
padded with zero-mass atoms, which change no distance or velocity, and the
families of one trajectory share one masses array; a single measure is a
one-cell family.  Families carry the cell-averaged metric dbar, one function
for any two cell counts and one kernel call per pair of families, and
trajectories of families the exponentially weighted sup metric d_alpha.
Families of different cell counts are compared over the at most
n_a + n_b - 1 runs of overlapping cells, not over lcm(n_a, n_b) refined cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graphon import _check_count, _check_real, _check_seed, _from_spec

TWO_PI = 2.0 * math.pi

_MASS_TOL = 1e-12

# Largest accepted von Mises concentration.  The CDF series needs about
# 9 * sqrt(kappa) terms (~9000 here) and every quantile evaluates all of them:
# 1024 quantiles take about 4 s at this limit on a 2-vCPU VM.
KAPPA_MAX = 1e6


def wrap_angle(u, out=None):
    """Reduce angles to [0, 2*pi), into ``out`` if given (``out=u`` wraps in place)."""
    r = np.asarray(np.mod(u, TWO_PI, out=out))
    return np.subtract(r, TWO_PI, out=r, where=r >= TWO_PI)


def _w1_rows(pos_a, mass_a, pos_b, mass_b) -> np.ndarray:
    """Circular W1 between row r of (pos_a, mass_a) and row r of (pos_b, mass_b).

    Inputs are (rows, atoms) arrays of wrapped positions and masses; the two
    sides may have different widths and zero-mass padding.  Equal masses
    1/m_a and 1/m_b over widths with lcm(m_a, m_b) <= m_a + m_b take
    :func:`_w1_counts`, all others :func:`_w1_general`; both are exactly
    symmetric.
    """
    m_a, m_b = pos_a.shape[1], pos_b.shape[1]
    if (math.lcm(m_a, m_b) <= m_a + m_b and (mass_a == 1.0 / m_a).all()
            and (mass_b == 1.0 / m_b).all()):
        return _w1_counts(pos_a, pos_b)
    return _w1_general(pos_a, mass_a, pos_b, mass_b)


def _w1_general(pos_a, mass_a, pos_b, mass_b) -> np.ndarray:
    """:func:`_w1_rows` for any masses.  Both sides are padded to one width
    and each pair of rows is put in a canonical order before the merge."""
    rows, width = pos_a.shape[0], max(pos_a.shape[1], pos_b.shape[1])
    r = np.arange(rows)[:, None]
    # each side's row is (positions | masses), zero-padded to one width
    a, b = sides = np.zeros((2, rows, 2 * width))
    for side, pos, mass in zip(sides, (pos_a, pos_b), (mass_a, mass_b)):
        side[:, :pos.shape[1]], side[:, width:width + pos.shape[1]] = pos, mass
    # row-wise lexicographic key on (positions, masses): swap where b < a
    differ = a != b
    first = r, differ.argmax(axis=1)[:, None]
    swap = differ[first] & (b[first] < a[first])
    lo, hi = np.where(swap, b, a), np.where(swap, a, b)
    pos = np.concatenate([lo[:, :width], hi[:, :width]], axis=1)
    signed = np.concatenate([lo[:, width:], -hi[:, width:]], axis=1)
    order = np.argsort(pos, axis=1, kind="stable")
    atoms = 2 * width
    # Delta on segments: 0 on [0, p_0), partial sums afterwards; the final
    # partial sum is ~0 because both measures are normalized.
    delta = np.zeros((rows, atoms + 1))
    np.cumsum(signed[r, order], axis=1, out=delta[:, 1:])
    lengths = np.diff(pos[r, order], axis=1, prepend=0.0, append=TWO_PI)
    # min over t of sum_k lengths_k * |delta_k - t|: t is a weighted median
    order = np.argsort(delta, axis=1, kind="stable")
    v, w = delta[r, order], lengths[r, order]
    cw = np.cumsum(w, axis=1)
    total = cw[:, -1:]
    half = 0.5 * total
    k = (cw < half).sum(axis=1, keepdims=True)
    at_k = v[r, k]
    tie = (k < atoms) & (np.abs(cw[r, k] - half) <= 1e-12 * total)
    t = np.where(tie, 0.5 * (at_k + v[r, np.minimum(k + 1, atoms)]), at_k)
    # identical rows are exactly 0 apart; the partial sums over atoms that
    # tie within a row need not cancel exactly
    return np.where(differ.any(axis=1), np.sum(w * np.abs(v - t), axis=1), 0.0)


def _w1_counts(pos_a, pos_b) -> np.ndarray:
    """:func:`_w1_rows` for m_a atoms of mass 1/m_a against m_b atoms of mass
    1/m_b, L = lcm(m_a, m_b) <= m_a + m_b.  In units of 1/L, Delta is an
    integer cumsum of +L/m_a and -L/m_b steps over 2L + 1 levels, and the
    weighted median is one histogram of the segment lengths over them.  Delta
    counts up on the narrower side, or on the lexicographically smaller sorted
    row at equal widths; the order of tied atoms only moves zero lengths.
    """
    (rows, m_a), m_b = pos_a.shape, pos_b.shape[1]
    atoms, L = m_a + m_b, math.lcm(m_a, m_b)
    pos = np.concatenate([pos_a, pos_b], axis=1)
    a, b = pos[:, :m_a], pos[:, m_a:]
    a.sort(axis=1)
    b.sort(axis=1)
    flip = m_a > m_b
    if m_a == m_b:
        flip = np.take_along_axis(b < a, (a != b).argmax(axis=1)[:, None], axis=1)
    # timsort merges the two sorted runs
    order = np.argsort(pos, axis=1, kind="stable")
    steps = np.repeat([L // m_a, -(L // m_b)], [m_a, m_b])[order]
    np.negative(steps, out=steps, where=flip)
    order += atoms * np.arange(rows)[:, None]
    merged = np.take(pos, order)
    lengths = np.empty((rows, atoms + 1))
    lengths[:, 0], lengths[:, -1] = merged[:, 0], TWO_PI - merged[:, -1]
    np.subtract(merged[:, 1:], merged[:, :-1], out=lengths[:, 1:-1])
    # Delta + L on segments: L on [0, p_0), then partial sums of the steps,
    # each row offset into a histogram of its own
    bins = 2 * L + 1
    levels = np.zeros((rows, atoms + 1), dtype=np.intp)
    np.cumsum(steps, axis=1, out=levels[:, 1:])
    levels += L + bins * np.arange(rows)[:, None]
    hist = np.bincount(levels.ravel(), lengths.ravel(), rows * bins).reshape(rows, bins)
    cw = np.cumsum(hist, axis=1)
    # the first level where the cumulative length reaches half is a minimizer
    t = np.argmax(cw >= 0.5 * cw[:, -1:], axis=1)[:, None]
    return np.sum(hist * np.abs(np.arange(bins, dtype=float) - t), axis=1) / L


class MeasureFamily:
    """One atomic probability measure per spatial cell of the unit interval.

    ``positions`` and ``masses`` are read-only (cells, atoms) arrays; cell i
    is the measure sum_j masses[i, j] delta_{positions[i, j]}.  Masses are
    nonnegative with every row summing to 1; zero-mass atoms are padding,
    dropped from the CSV form.  Positions are finite and wrapped into a copy
    unless they lie in [0, 2*pi) already and are, or view, a read-only array
    that owns its data; masses are copied unless they are such an array.
    """

    def __init__(self, positions, masses):
        positions = np.asarray(positions, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if positions.ndim != 2 or positions.shape != masses.shape or positions.size == 0:
            raise ValueError("positions and masses must be matching non-empty "
                             "(cells, atoms) arrays")
        if not np.isfinite(positions).all():
            raise ValueError("atom positions must be finite")
        if not (masses >= 0.0).all():
            raise ValueError("atom masses must be nonnegative")
        totals = masses.sum(axis=1)
        if not (np.abs(totals - 1.0) <= _MASS_TOL).all():
            worst = float(totals[np.argmax(np.abs(totals - 1.0))])
            raise ValueError(f"atom masses must sum to 1 in every cell (got {worst!r})")
        owner = positions if positions.base is None else positions.base
        shared = (isinstance(owner, np.ndarray) and owner.base is None
                  and not owner.flags.writeable and not np.signbit(positions).any()
                  and (positions < TWO_PI).all())
        self.positions = positions if shared else wrap_angle(positions)
        self.positions.setflags(write=False)
        shared = not masses.flags.writeable and masses.base is None
        self.masses = masses if shared else masses.copy()
        self.masses.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return self.positions.shape[0]


def dbar(a: MeasureFamily, b: MeasureFamily) -> float:
    """Cell-averaged bounded-Lipschitz distance (the circular W1 above, in
    which Neunzert's method compares measures): the integral over x in [0, 1]
    of the distance between the cells holding x, exact for families constant
    on their cells, and of two one-cell families the distance of their
    measures.  Equal cell counts average the per-cell distances; other counts
    average over the runs where cell i of ``a`` overlaps cell j of ``b``,
    weighted by run length, which equals dbar of both families refined to
    lcm(n_a, n_b) cells without building them."""
    n_a, n_b = a.n_cells, b.n_cells
    if n_a == n_b:
        return float(np.mean(_w1_rows(a.positions, a.masses, b.positions, b.masses)))
    L = math.lcm(n_a, n_b)
    # run starts in units of 1/L: every cell edge of either family, once
    edges = np.sort(np.concatenate([np.arange(0, L, L // n_a), np.arange(0, L, L // n_b)]))
    starts = edges[np.diff(edges, prepend=-1) > 0]
    i, j = starts // (L // n_a), starts // (L // n_b)
    w = _w1_rows(a.positions[i], a.masses[i], b.positions[j], b.masses[j])
    if starts.size == L:  # one count divides the other: the runs are the cells
        return float(np.mean(w))
    return float(np.dot(np.diff(starts, append=L), w) / L)


@dataclass
class MeasureTrajectory:
    """Measure families recorded along a time grid starting at 0."""

    times: np.ndarray
    families: list[MeasureFamily]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.families) != self.times.size:
            raise ValueError("one family per recorded time required")
        if self.times.size == 0:
            raise ValueError("trajectory needs at least one time")
        if abs(self.times[0]) > 1e-15:
            raise ValueError("trajectory must start at t = 0")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    @property
    def final_family(self) -> MeasureFamily:
        return self.families[-1]


def check_shared_grid(a, b) -> None:
    """Reject two trajectories (phase or family) recorded on different grids."""
    if a.times.shape != b.times.shape or not np.allclose(a.times, b.times, rtol=0.0, atol=1e-12):
        raise ValueError("trajectories must share the recording grid")


def d_alpha(a: MeasureTrajectory, b: MeasureTrajectory, alpha: float = 3.0) -> float:
    """Weighted sup metric: max over shared times of e^(-alpha t) * dbar."""
    alpha = _check_real(alpha, "alpha", 0.0, open=True)
    check_shared_grid(a, b)
    return float(max(math.exp(-alpha * t) * dbar(fa, fb)
                     for t, fa, fb in zip(a.times, a.families, b.families)))


def sup_dbar(a: MeasureTrajectory, b: MeasureTrajectory) -> float:
    """Max over shared times of dbar."""
    check_shared_grid(a, b)
    return max(map(dbar, a.families, b.families))


@functools.lru_cache(maxsize=1)
def _uniform_masses(n: int, m: int) -> np.ndarray:
    """Read-only (n, m) masses 1/m, shared by consecutive families of one
    shape, such as the frames of a trajectory."""
    masses = np.full((n, m), 1.0 / m)
    masses.setflags(write=False)
    return masses


def empirical_from_phases(phases, n: int, m: int) -> MeasureFamily:
    """Family whose cell i holds atoms phases[i*m : (i+1)*m], mass 1/m each."""
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size != n * m:
        raise ValueError(f"expected {n}*{m} phases, got shape {phases.shape}")
    return MeasureFamily(phases.reshape(n, m), _uniform_masses(n, m))


# -- initial densities ----------------------------------------------------


class DensitySpec:
    """Cell-indexed initial distribution on the circle.

    ``at(x)`` resolves any x-dependence to a concrete distribution for the
    cell representative x; the base specs are x-independent.
    """

    def at(self, x: float) -> "DensitySpec":
        return self

    def quantile(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def density(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Uniform(DensitySpec):
    def quantile(self, q):
        return TWO_PI * np.asarray(q, dtype=float)

    def sample(self, rng, size):
        return rng.uniform(0.0, TWO_PI, size)

    def density(self, u):
        return np.full(np.shape(u), 1.0 / TWO_PI)


class VonMises(DensitySpec):
    """Von Mises distribution with concentration kappa and mode mu0.

    kappa = 0 degenerates to the uniform distribution (mu0 is then
    meaningless and ignored, so the degenerate case is exactly Uniform).
    kappa must be finite and at most ``KAPPA_MAX``; mu0 must be finite.

    Quantiles invert the Fourier series of the CDF (Hill, Algorithm 518,
    ACM TOMS 3, 1977), centred on the mode:

        F(x) = (x + pi) / 2pi + (1/pi) sum_{k=1..K} r_k sin(k x) / k,
        r_k = I_k(kappa) / I_0(kappa),

    with the ratios from Miller's backward recurrence and K the last index
    with r_K >= 1e-17.  All quantiles are bisected together to 1/256 of the
    spread 1/sqrt(1 + kappa), then take three Newton steps with the density
    f(x) = (1 + 2 sum r_k cos(k x)) / 2pi, kept inside the bisection
    bracket.  The CDF residual |F(x_q) - q| stays below 1e-12 up to
    kappa = 5000 (K ~ 620), checked against adaptive quadrature of the
    density, and for kappa <= 20 the quantiles agree with a per-atom
    root-finding inversion to 1e-11.  The density is
    exp(-2 kappa sin^2((u - mu0)/2)) (1 + 2 sum r_k) / 2pi, using
    e^kappa = I_0 + 2 sum I_k, so it stays finite at any allowed kappa.
    """

    def __init__(self, kappa: float, mu0: float = 0.0):
        self.kappa = _check_real(kappa, "concentration kappa", 0.0, KAPPA_MAX)
        self.mu0 = _check_real(mu0, "von Mises mode mu0")

    def quantile(self, q):
        if self.kappa == 0.0:
            return Uniform().quantile(q)
        q = np.asarray(q, dtype=float)
        if np.any(~((q >= 0.0) & (q <= 1.0))):
            raise ValueError("quantile levels must lie in [0, 1]")
        return wrap_angle(_vonmises_quantile(q, self.kappa) + self.mu0)

    def sample(self, rng, size):
        if self.kappa == 0.0:
            return Uniform().sample(rng, size)
        return wrap_angle(rng.vonmises(self.mu0, self.kappa, size))

    def density(self, u):
        if self.kappa == 0.0:
            return Uniform().density(u)
        half = np.sin(0.5 * (np.asarray(u, dtype=float) - self.mu0))
        peak = (1.0 + 2.0 * _bessel_ratios(self.kappa).sum()) / TWO_PI
        return np.exp(-2.0 * self.kappa * half * half) * peak


_RATIO_CUTOFF = 1e-17
_SERIES_BLOCK = 1 << 20  # matrix entries per block of the series sums


def _bessel_ratios(kappa: float) -> np.ndarray:
    """r_k = I_k(kappa) / I_0(kappa) for k = 1..K, K the last r_k >= 1e-17.

    Miller's backward recurrence I_{k-1} = (2k / kappa) I_k + I_{k+1}, run
    on the ratios I_k / I_{k-1} = 1 / (2k / kappa + I_{k+1} / I_k) so that
    nothing can overflow; r_k is their running product.  Starting at N with
    I_{N+1} = 0 perturbs r_k by about r_N^2 / r_k <= r_N, so N is doubled
    until r_N is below the cutoff (r_k ~ exp(-k^2 / 2 kappa) for large
    kappa, hence the 9 sqrt(kappa) first guess).
    """
    N = 32 + int(9.0 * math.sqrt(kappa))
    while True:
        ratio = np.empty(N)
        t = 0.0
        for k in range(N, 0, -1):
            t = 1.0 / (2.0 * k / kappa + t)
            ratio[k - 1] = t
        r = np.cumprod(ratio)
        if r[-1] < _RATIO_CUTOFF:
            return r[r >= _RATIO_CUTOFF]
        N *= 2


def _vonmises_series(x: np.ndarray, r: np.ndarray, with_density: bool):
    """CDF and (optionally) density of von Mises(kappa, 0) at x in [-pi, pi]."""
    k = np.arange(1.0, r.size + 1.0)
    sines = np.zeros_like(x)
    cosines = np.zeros_like(x)
    step = max(1, _SERIES_BLOCK // max(x.size, 1))
    for j in range(0, r.size, step):
        kx = np.multiply.outer(x, k[j:j + step])
        sines += np.sin(kx) @ (r[j:j + step] / k[j:j + step])
        if with_density:
            cosines += np.cos(kx) @ r[j:j + step]
    cdf = (x + math.pi) / TWO_PI + sines / math.pi
    return cdf, (1.0 + 2.0 * cosines) / TWO_PI


def _vonmises_quantile(q: np.ndarray, kappa: float) -> np.ndarray:
    """Quantiles in [-pi, pi] of the mode-0 von Mises law."""
    r = _bessel_ratios(kappa)
    lo = np.full(q.shape, -math.pi)
    hi = np.full(q.shape, math.pi)
    # bracket to 1/256 of the spread 1/sqrt(1 + kappa), where Newton's
    # quadratic convergence reaches round-off in three steps
    for _ in range(math.ceil(math.log2(TWO_PI * 256.0 * math.sqrt(1.0 + kappa)))):
        mid = 0.5 * (lo + hi)
        below = _vonmises_series(mid, r, False)[0] < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(3):
        cdf, pdf = _vonmises_series(x, r, True)
        x = np.clip(x - (cdf - q) / np.maximum(pdf, np.finfo(float).tiny), lo, hi)
    return x


class TwoCluster(DensitySpec):
    """Two-point mixture: mass w at theta1, mass 1-w at theta2."""

    def __init__(self, theta1: float, theta2: float, w: float):
        self.theta1 = _check_real(theta1, "cluster position theta1")
        self.theta2 = _check_real(theta2, "cluster position theta2")
        self.w = _check_real(w, "cluster weight w", 0.0, 1.0, open=True)

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        return wrap_angle(np.where(q < self.w, self.theta1, self.theta2))

    def sample(self, rng, size):
        pick = rng.random(size) < self.w
        return wrap_angle(np.where(pick, self.theta1, self.theta2))

    def density(self, u):
        raise ValueError("two-cluster distribution has no density")


class XDependent(DensitySpec):
    """Cell-dependent distribution: fn(x) returns the spec for position x."""

    def __init__(self, fn):
        if not callable(fn):
            raise ValueError("x-dependent spec needs a callable x -> DensitySpec")
        self.fn = fn

    def at(self, x: float) -> DensitySpec:
        return self.fn(x)


class VonMisesTwist(XDependent):
    """Von Mises whose mode rotates with the cell: mu0(x) = 2*pi*x."""

    def __init__(self, kappa: float):
        self.kappa = _check_real(kappa, "concentration kappa", 0.0, KAPPA_MAX)
        super().__init__(lambda x: VonMises(self.kappa, TWO_PI * x))


def density_from_dict(spec: dict) -> DensitySpec:
    """The start density a JSON spec names, its fields its class's parameters."""
    return _from_spec(spec, "density", {"uniform": Uniform, "von_mises": VonMises,
                                        "two_cluster": TwoCluster,
                                        "von_mises_twist": VonMisesTwist})


def cell_representative(i: int, n: int) -> float:
    """Representative position of 0-based cell i among n: (i+1)/n."""
    return (i + 1) / n


def _cell_rows(rho0: DensitySpec, n: int, evaluate) -> np.ndarray:
    """Rows ``evaluate(rho0.at(x_i))`` for the n cell representatives; an
    x-independent spec is evaluated once, into a read-only repeated row."""
    if type(rho0).at is DensitySpec.at:
        row = evaluate(rho0)
        return np.broadcast_to(row, (n, row.size))
    return np.array([evaluate(rho0.at(cell_representative(i, n))) for i in range(n)])


def initial_family(rho0: DensitySpec, n: int, m: int, mode: str = "quantile",
                   seed: int | None = None) -> MeasureFamily:
    """Build the initial family with m atoms (mass 1/m) per cell.

    ``quantile`` places atoms at the conditional quantiles (k - 1/2)/m of
    rho0(., x_i) -- deterministic, the default for mean-field runs.  ``iid``
    draws m independent samples per cell (Philox stream keyed by
    (seed, cell)); its seed must be an integer in [0, 2**64).  A quantile
    start takes no seed.
    """
    _check_count(n, "n")
    _check_count(m, "m")
    if mode == "quantile":
        if seed is not None:
            raise ValueError(f"a quantile start takes no seed (got {seed!r})")
        q = (np.arange(m) + 0.5) / m
        positions = _cell_rows(rho0, n, lambda spec: spec.quantile(q))
    elif mode == "iid":
        _check_seed(seed, "iid seed")
        positions = np.empty((n, m))
        for i in range(n):
            rng = np.random.Generator(
                np.random.Philox(key=[np.uint64(seed), np.uint64(i)])
            )
            positions[i] = rho0.at(cell_representative(i, n)).sample(rng, m)
    else:
        raise ValueError(f"unknown initialization mode: {mode!r}")
    return MeasureFamily(positions, _uniform_masses(n, m))


# -- family CSV form -------------------------------------------------------


def family_to_rows(family: MeasureFamily):
    """Rows (cell, position, mass) for CSV emission; zero-mass padding is dropped."""
    cells, atoms = np.nonzero(family.masses > 0.0)
    return zip(cells.tolist(), family.positions[cells, atoms].tolist(),
               family.masses[cells, atoms].tolist())


def family_from_rows(rows, first_line: int = 1) -> MeasureFamily:
    """Inverse of :func:`family_to_rows`: rows (cell, position, mass), numbers
    or strings, with an integer cell, a finite position and a positive mass.
    An error names its row as a line, counted from ``first_line``."""
    by_cell: dict[int, list[tuple[float, float]]] = {}
    for number, row in enumerate(rows, start=first_line):
        try:
            cell, position, mass = row
            cell, position, mass = int(cell), float(position), float(mass)
        except (TypeError, ValueError):
            problem = ("needs an integer cell and numeric position and mass"
                       if len(row) == 3 else "is not a 'cell,position,mass' row")
        else:
            problem = ("holds a non-finite position" if not math.isfinite(position)
                       else "holds a mass that is not positive" if not mass > 0.0 else "")
        if problem:
            raise ValueError(f"line {number} {problem} (got {','.join(map(str, row))!r})")
        by_cell.setdefault(cell, []).append((position, mass))
    if not by_cell:
        raise ValueError("no atoms found")
    if sorted(by_cell) != list(range(len(by_cell))):
        raise ValueError("cell indices must be contiguous from 0")
    atoms = np.zeros((len(by_cell), max(map(len, by_cell.values())), 2))
    for i, cell in by_cell.items():
        atoms[i, :len(cell)] = cell
    return MeasureFamily(atoms[..., 0], atoms[..., 1])
