"""Discrete probability measures on the circle and transport metrics.

The distance between two measures is the supremum of |int f dmu - int f deta|
over 1-Lipschitz test functions, which on a compact space equals the
Wasserstein-1 distance by Kantorovich-Rubinstein duality.  For atomic
measures on the circle it is computed exactly: merge the atom positions,
form the cumulative mass difference Delta(x) (piecewise constant), and
return min over shifts t of the integral of |Delta - t|; the optimal t is a
weighted median of the segment values, ties resolved at the interval
midpoint.

Families of measures indexed by cells of [0,1] carry the cell-averaged
metric dbar (mean of per-cell distances), and trajectories of families carry
the exponentially weighted sup metric d_alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import vonmises as _vonmises

TWO_PI = 2.0 * math.pi

_MASS_TOL = 1e-12


def wrap_angle(u):
    """Reduce angles to [0, 2*pi)."""
    r = np.mod(u, TWO_PI)
    return np.where(r >= TWO_PI, r - TWO_PI, r)


def circle_distance(theta, theta_prime):
    """Arc distance on the circle: min(|a-b|, 2*pi-|a-b|), in [0, pi]."""
    a = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    b = np.mod(np.asarray(theta_prime, dtype=float), TWO_PI)
    d = np.abs(a - b)
    return np.minimum(d, TWO_PI - d)


class CircleMeasure:
    """Atomic probability measure on [0, 2*pi): positions plus masses."""

    def __init__(self, positions, masses):
        positions = np.asarray(positions, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if positions.shape != masses.shape or positions.ndim != 1:
            raise ValueError("positions and masses must be matching 1-D arrays")
        if positions.size == 0:
            raise ValueError("measure needs at least one atom")
        if np.any(masses <= 0.0):
            raise ValueError("atom masses must be positive")
        total = float(masses.sum())
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"atom masses must sum to 1 (got {total!r})")
        self.positions = wrap_angle(positions)
        self.masses = masses.copy()
        self.positions.setflags(write=False)
        self.masses.setflags(write=False)

    @classmethod
    def point(cls, theta: float) -> "CircleMeasure":
        return cls(np.array([theta]), np.array([1.0]))

    @classmethod
    def uniform_atoms(cls, positions) -> "CircleMeasure":
        positions = np.asarray(positions, dtype=float)
        return cls(positions, np.full(positions.shape, 1.0 / positions.size))

    @property
    def n_atoms(self) -> int:
        return self.positions.size

    def shifted(self, c: float) -> "CircleMeasure":
        return CircleMeasure(self.positions + c, self.masses)


def bl_distance(mu: CircleMeasure, eta: CircleMeasure) -> float:
    """Exact Wasserstein-1 distance between atomic measures on the circle."""
    # canonical argument order makes the float result exactly symmetric
    if _measure_key(eta) < _measure_key(mu):
        mu, eta = eta, mu
    pos = np.concatenate([mu.positions, eta.positions])
    signed = np.concatenate([mu.masses, -eta.masses])
    order = np.argsort(pos, kind="stable")
    p = pos[order]
    # Delta on segments: 0 on [0, p_0), partial sums afterwards; the final
    # partial sum is ~0 because both measures are normalized.
    delta = np.concatenate([[0.0], np.cumsum(signed[order])])
    lengths = np.diff(np.concatenate([[0.0], p, [TWO_PI]]))
    return _weighted_median_cost(delta, lengths)


def _measure_key(mu: CircleMeasure) -> tuple:
    return (mu.n_atoms, mu.positions.tobytes(), mu.masses.tobytes())


def _weighted_median_cost(values: np.ndarray, weights: np.ndarray) -> float:
    """min over t of sum_k weights_k * |values_k - t| (weighted median)."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cw = np.cumsum(w)
    total = cw[-1]
    half = 0.5 * total
    k = int(np.searchsorted(cw, half))
    if k + 1 < v.size and abs(cw[k] - half) <= 1e-12 * total:
        t = 0.5 * (v[k] + v[k + 1])
    else:
        t = v[k]
    return float(np.sum(w * np.abs(v - t)))


class MeasureFamily:
    """One circle measure per spatial cell of the unit interval."""

    def __init__(self, cells: list[CircleMeasure]):
        if not cells:
            raise ValueError("family needs at least one cell")
        self.cells = list(cells)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def refine(self, k: int) -> "MeasureFamily":
        """Duplicate every cell k times (exact refinement of the step family)."""
        if k < 1:
            raise ValueError("refinement factor must be >= 1")
        if k == 1:
            return self
        return MeasureFamily([c for c in self.cells for _ in range(k)])

    def shifted(self, c: float) -> "MeasureFamily":
        return MeasureFamily([cell.shifted(c) for cell in self.cells])


def common_cells(a: MeasureFamily, b: MeasureFamily) -> tuple[MeasureFamily, MeasureFamily]:
    """Refine both families to their least common cell count."""
    L = math.lcm(a.n_cells, b.n_cells)
    return a.refine(L // a.n_cells), b.refine(L // b.n_cells)


def dbar(a: MeasureFamily, b: MeasureFamily) -> float:
    """Cell-averaged transport distance: mean over cells of the per-cell
    distance (exact, both families being constant on cells)."""
    if a.n_cells != b.n_cells:
        raise ValueError(
            f"cell-count mismatch ({a.n_cells} vs {b.n_cells}); "
            "refine to a common cell count first (see common_cells)"
        )
    return float(np.mean([bl_distance(x, y) for x, y in zip(a.cells, b.cells)]))


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


def d_alpha(a: MeasureTrajectory, b: MeasureTrajectory, alpha: float = 3.0) -> float:
    """Weighted sup metric: max over shared times of e^(-alpha t) * dbar."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if a.times.size != b.times.size or not np.allclose(a.times, b.times, atol=1e-12):
        raise ValueError("trajectories must share the time grid")
    vals = [
        math.exp(-alpha * t) * dbar(fa, fb)
        for t, fa, fb in zip(a.times, a.families, b.families)
    ]
    return float(max(vals))


def sup_dbar(a: MeasureTrajectory, b: MeasureTrajectory) -> float:
    """Max over shared times of dbar (families refined to common cells)."""
    if a.times.size != b.times.size or not np.allclose(a.times, b.times, atol=1e-12):
        raise ValueError("trajectories must share the time grid")
    vals = []
    for fa, fb in zip(a.families, b.families):
        ra, rb = common_cells(fa, fb)
        vals.append(dbar(ra, rb))
    return float(max(vals))


def empirical_from_phases(phases, n: int, m: int) -> MeasureFamily:
    """Family whose cell i holds atoms phases[i*m : (i+1)*m], mass 1/m each."""
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size != n * m:
        raise ValueError(f"expected {n}*{m} phases, got shape {phases.shape}")
    blocks = phases.reshape(n, m)
    return MeasureFamily([CircleMeasure.uniform_atoms(row) for row in blocks])


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

    def to_dict(self) -> dict:
        raise NotImplementedError


class Uniform(DensitySpec):
    def quantile(self, q):
        return TWO_PI * np.asarray(q, dtype=float)

    def sample(self, rng, size):
        return rng.uniform(0.0, TWO_PI, size)

    def density(self, u):
        return np.full(np.shape(u), 1.0 / TWO_PI)

    def to_dict(self):
        return {"kind": "uniform"}


class VonMises(DensitySpec):
    """Von Mises distribution with concentration kappa and mode mu0.

    kappa = 0 degenerates to the uniform distribution (mu0 is then
    meaningless and ignored, so the degenerate case is exactly Uniform).
    """

    def __init__(self, kappa: float, mu0: float = 0.0):
        if kappa < 0.0:
            raise ValueError("concentration kappa must be >= 0")
        self.kappa = float(kappa)
        self.mu0 = float(mu0)

    def quantile(self, q):
        if self.kappa == 0.0:
            return Uniform().quantile(q)
        return wrap_angle(_vonmises.ppf(np.asarray(q, dtype=float), self.kappa, loc=self.mu0))

    def sample(self, rng, size):
        if self.kappa == 0.0:
            return Uniform().sample(rng, size)
        return wrap_angle(rng.vonmises(self.mu0, self.kappa, size))

    def density(self, u):
        if self.kappa == 0.0:
            return Uniform().density(u)
        from scipy.special import i0

        u = np.asarray(u, dtype=float)
        return np.exp(self.kappa * np.cos(u - self.mu0)) / (TWO_PI * i0(self.kappa))

    def to_dict(self):
        return {"kind": "von_mises", "kappa": self.kappa, "mu0": self.mu0}


class TwoCluster(DensitySpec):
    """Two-point mixture: mass w at theta1, mass 1-w at theta2."""

    def __init__(self, theta1: float, theta2: float, w: float):
        if not 0.0 < w < 1.0:
            raise ValueError("cluster weight w must lie in (0, 1)")
        self.theta1 = float(theta1)
        self.theta2 = float(theta2)
        self.w = float(w)

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        return wrap_angle(np.where(q < self.w, self.theta1, self.theta2))

    def sample(self, rng, size):
        pick = rng.random(size) < self.w
        return wrap_angle(np.where(pick, self.theta1, self.theta2))

    def density(self, u):
        raise ValueError("two-cluster distribution has no density")

    def to_dict(self):
        return {"kind": "two_cluster", "theta1": self.theta1,
                "theta2": self.theta2, "w": self.w}


class XDependent(DensitySpec):
    """Cell-dependent distribution: fn(x) returns the spec for position x."""

    def __init__(self, fn):
        if not callable(fn):
            raise ValueError("x-dependent spec needs a callable x -> DensitySpec")
        self.fn = fn

    def at(self, x: float) -> DensitySpec:
        return self.fn(x)

    def to_dict(self):
        raise ValueError("callable x-dependent specs are not JSON-serializable")


class VonMisesTwist(XDependent):
    """Von Mises whose mode rotates with the cell: mu0(x) = 2*pi*x."""

    def __init__(self, kappa: float):
        self.kappa = float(kappa)
        super().__init__(lambda x: VonMises(self.kappa, TWO_PI * x))

    def to_dict(self):
        return {"kind": "von_mises_twist", "kappa": self.kappa}


def density_from_dict(spec: dict) -> DensitySpec:
    kind = spec.get("kind")
    if kind == "uniform":
        return Uniform()
    if kind == "von_mises":
        return VonMises(spec["kappa"], spec.get("mu0", 0.0))
    if kind == "two_cluster":
        return TwoCluster(spec["theta1"], spec["theta2"], spec["w"])
    if kind == "von_mises_twist":
        return VonMisesTwist(spec["kappa"])
    raise ValueError(f"unknown density kind: {kind!r}")


def cell_representative(i: int, n: int) -> float:
    """Representative position of 0-based cell i among n: (i+1)/n."""
    return (i + 1) / n


def initial_family(rho0: DensitySpec, n: int, m: int, mode: str = "quantile",
                   seed: int | None = None) -> MeasureFamily:
    """Build the initial family with m atoms (mass 1/m) per cell.

    ``quantile`` places atoms at the conditional quantiles (k - 1/2)/m of
    rho0(., x_i) -- deterministic, the default for mean-field runs.  ``iid``
    draws m independent samples per cell (Philox stream keyed by
    (seed, cell)).
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 cells and m >= 1 atoms per cell")
    cells = []
    if mode == "quantile":
        q = (np.arange(m) + 0.5) / m
        for i in range(n):
            spec = rho0.at(cell_representative(i, n))
            cells.append(CircleMeasure.uniform_atoms(spec.quantile(q)))
    elif mode == "iid":
        if seed is None:
            raise ValueError("iid mode requires a seed")
        for i in range(n):
            rng = np.random.Generator(
                np.random.Philox(key=[np.uint64(seed), np.uint64(i)])
            )
            spec = rho0.at(cell_representative(i, n))
            cells.append(CircleMeasure.uniform_atoms(spec.sample(rng, m)))
    else:
        raise ValueError(f"unknown initialization mode: {mode!r}")
    return MeasureFamily(cells)


# -- family CSV form -------------------------------------------------------


def family_to_rows(family: MeasureFamily):
    """Rows (cell, position, mass) for CSV emission."""
    for i, cell in enumerate(family.cells):
        for p, w in zip(cell.positions, cell.masses):
            yield i, float(p), float(w)


def family_from_rows(rows) -> MeasureFamily:
    """Inverse of :func:`family_to_rows`."""
    by_cell: dict[int, list[tuple[float, float]]] = {}
    for cell, position, mass in rows:
        by_cell.setdefault(int(cell), []).append((float(position), float(mass)))
    if not by_cell:
        raise ValueError("no atoms found")
    n = max(by_cell) + 1
    if sorted(by_cell) != list(range(n)):
        raise ValueError("cell indices must be contiguous from 0")
    cells = []
    for i in range(n):
        pos, mass = zip(*by_cell[i])
        cells.append(CircleMeasure(np.array(pos), np.array(mass)))
    return MeasureFamily(cells)
