"""Symmetric kernels on the unit square ("graphons") and their discretizations.

A graphon here is a bounded symmetric measurable function W on [0,1]^2 with
|W| <= 1.  Built-in families, each but ``custom`` also a JSON spec whose fields
are the constructor's parameters (:func:`_from_spec` decodes every JSON spec):

* ``constant(p)``            -- W == p (Erdos-Renyi limit for p in (0,1)),
* ``small_world(p, h)``      -- 1-p inside the circular band
  d_circ(2*pi*x, 2*pi*y) <= 2*pi*h, p outside, with p, h in (0, 1/2),
* ``nearest_neighbor(h)``    -- indicator of the same band (ring lattice limit),
* ``step(values)``           -- piecewise constant on the n x n grid of cells
  I_i = [(i-1)/n, i/n),
* ``custom(fn)``             -- arbitrary user kernel.

Cell averaging projects a kernel onto the step functions at resolution n.  The
first three kinds are one band profile ``(base, ((h, jump), ...))``, ``base``
plus ``jump`` where the circular distance is at most h (``kind`` only names the
JSON spec), averaged in closed form band by band (over a cell, x - y has a tent
density, so a band's share is a difference of its CDF); custom kernels fall
back to a composite midpoint rule with Richardson extrapolation.

The cell average W_n is a :class:`WeightedGraph`, the step kernel that is also
the deterministic graph on n nodes, which graphs and mean field multiply by
through one product.  That class describes how a graph is stored.

A custom kernel's symmetry and |W| <= 1 are checked on the first, n x n grid
of its cell-average quadrature; L^1-continuity of x -> W(x, .) stays the
caller's obligation.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAX_NODES = 8192

# Toeplitz matrices from this many rows up multiply by FFT: the (2, n) product
# of the sine field crossed over from dense between 416 and 448 on a 2-vCPU VM.
_TOEPLITZ_NODES = 432

_BOUND_SLACK = 1e-9
_TILE = 64
# custom-kernel quadrature: target agreement, largest grid per axis
_QUADRATURE_TOL = 1e-9
_QUADRATURE_POINTS = 4096


def _is_real(value) -> bool:
    """Whether a value is a real number, not a bool, within the float range."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_integer(value, low: int, high: float = math.inf) -> bool:
    """Whether a value is an integer, not a bool, in [low, high)."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value < high)


def _check_seed(seed, name: str = "seed") -> None:
    """Reject a seed that is not an integer in [0, 2**64), naming it ``name``."""
    if not _is_integer(seed, 0, 2**64):
        raise ValueError(f"{name} must be an integer in [0, 2**64) (got {seed!r})")


def _check_real(value, name: str, low: float = -math.inf, high: float = math.inf,
                open: bool = False) -> float:
    """``value`` as a float once it is a finite real number in [low, high], or
    in (low, high) if ``open``; otherwise a ValueError naming it ``name``."""
    if not (_is_real(value) and (low < value < high if open else low <= value <= high)):
        ends = "()" if open else "[]"
        bound = (f" in {ends[0]}{low:g}, {high:g}{ends[1]}" if high < math.inf
                 else f" {'>' if open else '>='} {low:g}" if low > -math.inf else "")
        raise ValueError(f"{name} must be a finite number{bound} (got {value!r})")
    return float(value)


def _check_count(value, name: str) -> None:
    """Reject a count that is not an integer >= 1, naming it ``name``."""
    if not _is_integer(value, 1):
        raise ValueError(f"need an integer {name} >= 1 (got {value!r})")


def _check_nodes(n: int) -> None:
    """Reject a node count above ``MAX_NODES``, the cap of dense storage."""
    if n > MAX_NODES:
        raise ValueError(f"dense storage supports up to {MAX_NODES} nodes, got {n}")


def _from_spec(spec: dict, what: str, kinds: dict, default=None):
    """The object a JSON spec names: ``kinds`` maps each kind to a constructor
    whose parameters are the fields it takes, those with defaults optional.  An
    unknown kind or field is rejected rather than ignored, a missing required
    field raises ``KeyError`` naming it, and the fields go in by name."""
    kind = spec.get("kind", default)
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind: {kind!r}")
    fields = inspect.signature(kinds[kind]).parameters
    extra = sorted(set(spec) - {"kind", *fields})
    if extra:
        raise ValueError(f"{what} kind {kind!r} takes no field {extra[0]!r}")
    return kinds[kind](**{name: spec[name] for name, field in fields.items()
                          if name in spec or field.default is field.empty})


class QuadratureError(RuntimeError):
    """Raised when cell-average quadrature fails to reach the target tolerance."""

    def __init__(self, achieved: float, target: float):
        self.achieved = achieved
        self.target = target
        super().__init__(
            f"cell-average quadrature did not converge: achieved "
            f"{achieved:.3e}, target {target:.3e}"
        )


class WeightedGraph:
    """Symmetric weight matrix with |w_ij| <= 1: a graph, or a step kernel.

    ``WeightedGraph(weights)`` checks outside input: a square symmetric
    matrix of at most ``MAX_NODES`` rows within slack of [-1, 1], copied and
    clipped to [-1, 1].  ``weights``, or ``values``, is read-only n x n, and
    :meth:`_product`, every coupling sum's product with it, takes one of two forms:

    * dense float ``weights`` by BLAS: step and custom kernels' cell averages,
      band profiles' below ``_TOEPLITZ_NODES`` rows, and unsplit sampled graphs;
    * the Toeplitz T of the read-only :attr:`_diagonals` by FFT, plus sums over
      E = weights - T, the :attr:`_flips` (:meth:`_from_diagonals`).  A band
      profile's cell average from ``_TOEPLITZ_NODES`` rows up is T, ``weights``
      a view of the diagonals, with no flips.  A sampled graph ``graphs._sample``
      splits holds bool 0/1 ``weights``, one byte per pair, and T is the rounding
      of its edge probabilities; its product is about 1e-13 from the dense one.

    The first product takes the spectrum and lists the flips, so sampling and
    kernel distances never do.
    """

    _diagonals = None

    def __init__(self, weights):
        weights = np.asarray(weights)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ValueError("weights must form a square matrix")
        n = weights.shape[0]
        if n < 1:
            raise ValueError("weights must have at least one row")
        _check_nodes(n)
        # the shape and the node cap are checked before anything is copied
        weights = np.array(weights, dtype=float)
        if not _is_symmetric(weights):
            raise ValueError("weights must be symmetric")
        if max(weights.max(), -weights.min()) > 1.0 + _BOUND_SLACK:
            raise ValueError("weights must lie in [-1, 1]")
        self.weights = np.clip(weights, -1.0, 1.0, out=weights)
        self.weights.setflags(write=False)

    @classmethod
    def _trusted(cls, weights: np.ndarray):
        """Instance owning weights kmflow built: a symmetric matrix within [-1, 1];
        nothing is copied or checked, and it is made read-only."""
        graph = cls.__new__(cls)
        weights.setflags(write=False)
        graph.weights = weights
        return graph

    @classmethod
    def _from_diagonals(cls, diagonals: np.ndarray, sampled: np.ndarray | None = None):
        """T[i, j] = diagonals[i - j + n - 1] from :meth:`Graphon._diagonals`:
        dense below ``_TOEPLITZ_NODES`` rows, else a view of the read-only
        diagonals with no flips; or, given the bool matrix ``sampled``, that
        graph, multiplied as T, its 0/1 rounding, plus flips."""
        n = (diagonals.shape[0] + 1) // 2
        if sampled is None and n < _TOEPLITZ_NODES:
            return cls._trusted(np.array(_toeplitz(diagonals)))
        diagonals.setflags(write=False)
        graph = cls._trusted(_toeplitz(diagonals) if sampled is None else sampled)
        graph._diagonals = diagonals
        if sampled is None:
            graph._flips = ()
        return graph

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def values(self) -> np.ndarray:
        """``weights`` read as a step kernel: ``values[i, j]`` is its value on
        cell ``[i/n, (i+1)/n) x [j/n, (j+1)/n)`` (0-based indices)."""
        return self.weights

    @functools.cached_property
    def _spectrum(self) -> np.ndarray:
        """The diagonals' FFT, taken on the first :meth:`_product`, at a length
        whose circular convolution does not wrap into the n Toeplitz outputs."""
        return np.fft.rfft(self._diagonals, 1 << (2 * self.n - 2).bit_length())

    @functools.cached_property
    def _flips(self) -> list:
        """E = weights - T, listed by the first :meth:`_product` in blocks of
        ``_TILE`` rows, each gathered whole: the rows that hold a flip, where
        each row's flips start, and their columns, plus n where E is -1."""
        flips, rounded, n = [], _toeplitz(self._diagonals), self.n
        for i in range(0, n, _TILE):
            sampled = self.weights[i:i + _TILE]
            flat = np.flatnonzero(sampled != rounded[i:i + _TILE])
            bounds = np.searchsorted(flat, np.arange(len(sampled)) * n)
            rows = np.flatnonzero(np.diff(bounds, append=flat.size))
            columns = flat % n
            columns[sampled.ravel()[flat] == 0.0] += n
            flips.append((i + rows, bounds[rows], columns))
        return flips

    def _product(self, x: np.ndarray) -> np.ndarray:
        """``x @ weights`` for rows x: W times each row, W being symmetric."""
        if self._diagonals is None:
            return x @ self.weights
        spectrum, n = self._spectrum, self.n
        size = 2 * (spectrum.shape[0] - 1)
        product = np.fft.irfft(np.fft.rfft(x, size) * spectrum, size)[..., n - 1:2 * n - 1]
        if self._flips:
            # rows 2q and 2q + 1 of x as one complex row, then its negation
            packed = x[0::2].astype(complex)
            packed[:len(x) // 2].imag = x[1::2]
            flipped = np.zeros_like(packed)
            for source, out in zip(np.concatenate((packed, -packed), axis=1), flipped):
                for rows, starts, columns in self._flips:
                    out[rows] = np.add.reduceat(source[columns], starts)
            product[0::2] += flipped.real
            product[1::2] += flipped.imag[:len(x) // 2]
        return product


class Graphon:
    """A bounded symmetric kernel on [0,1]^2, constructed via the classmethods."""

    def __init__(self, kind: str, *, bands=None, step=None, fn=None):
        self.kind = kind
        self._bands = bands
        self.step_values = step
        self.fn = fn

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, p: float) -> "Graphon":
        return cls("constant", bands=(_check_real(p, "constant kernel value p", -1.0, 1.0), ()))

    @classmethod
    def small_world(cls, p: float, h: float) -> "Graphon":
        p = _check_real(p, "small-world parameter p", 0.0, 0.5, open=True)
        h = _check_real(h, "small-world band half-width h", 0.0, 0.5, open=True)
        return cls("small_world", bands=(p, ((h, 1.0 - 2.0 * p),)))

    @classmethod
    def nearest_neighbor(cls, h: float) -> "Graphon":
        h = _check_real(h, "band half-width h", 0.0, 0.5, open=True)
        return cls("nearest_neighbor", bands=(0.0, ((h, 1.0),)))

    @classmethod
    def step(cls, values) -> "Graphon":
        step = values if isinstance(values, WeightedGraph) else WeightedGraph(values)
        return cls("step", step=step)

    @classmethod
    def custom(cls, fn) -> "Graphon":
        """Wrap a vectorized kernel ``fn(x, y)``.

        :meth:`cell_average` checks symmetry and |fn| <= 1 on its first
        quadrature grid; enough smoothness for the quadrature is the caller's
        obligation.
        """
        if not callable(fn):
            raise ValueError("custom kernel must be callable")
        return cls("custom", fn=fn)

    # -- cell averaging ------------------------------------------------

    def cell_average(self, n: int) -> WeightedGraph:
        """Project onto the step functions at resolution n.

        Entry (i, j) is n^2 times the integral of W over the cell
        I_i x I_j.  Closed forms are used for band profiles and step kernels;
        custom kernels use midpoint quadrature refined until the Richardson
        extrapolants agree to 1e-9, on at most 4096 points per axis (n <= 1024).
        """
        diagonals = self._diagonals(n)
        if diagonals is not None:
            return WeightedGraph._from_diagonals(diagonals)
        if self.step_values is not None:
            return WeightedGraph(_step_cell_average(self.step_values.values, n))
        return WeightedGraph(_custom_cell_average(self.fn, n))

    def _diagonals(self, n: int) -> np.ndarray | None:
        """The 2n-1 diagonals of the resolution-n cell average, once n is checked.

        A band profile has a Toeplitz cell average: entry (i, j) is
        ``diagonals[i - j + n - 1]``, ``base`` plus each band's ``jump`` times
        the fraction of the cell it covers.  The constructors keep the vector
        in [-1, 1], and it is symmetrised, so ``diagonals == diagonals[::-1]``
        exactly.  Step and custom kernels return None.
        """
        _check_count(n, "resolution n")
        _check_nodes(n)
        if self._bands is None:
            return None
        base, bands = self._bands
        diagonals = np.full(2 * n - 1, base)
        for h, jump in bands:
            diagonals += jump * _band_offset_fractions(n, h)
        return diagonals

    # -- deserialization -----------------------------------------------

    @classmethod
    def from_dict(cls, spec: dict) -> "Graphon":
        """The kernel a JSON spec names; a custom kernel has no JSON form."""
        return _from_spec(spec, "graphon", {kind: getattr(cls, kind) for kind in (
            "constant", "small_world", "nearest_neighbor", "step")})


def kernel_distance(W: Graphon, U: Graphon, norm: str = "L2", resolution: int = 256) -> float:
    """L1 or L2 distance between two kernels over the unit square.

    Both kernels are projected onto a common refinement grid and the distance
    of the projections is returned.  The requested ``resolution`` is rounded
    up to a multiple of every step-kernel resolution among the arguments, so
    the result is exact when both kernels are step functions; otherwise it is
    a quadrature estimate with O(1/resolution) error.  Two band profiles differ
    by a Toeplitz matrix, whose mean is taken over its 2r - 1 diagonals, each
    weighted by its cells, in one compensated sum: exact over the diagonals up
    to rounding, in O(r) time and memory.
    """
    if norm not in ("L1", "L2"):
        raise ValueError("norm must be 'L1' or 'L2'")
    _check_count(resolution, "resolution")
    r = _common_resolution(W, U, resolution)
    a, b = W._diagonals(r), U._diagonals(r)
    dense = a is None or b is None
    diff = W.cell_average(r).values - U.cell_average(r).values if dense else a - b
    power = np.abs(diff, out=diff) if norm == "L1" else np.square(diff, out=diff)
    # between band profiles diagonal d of the difference holds r - |d| cells
    mean = (float(np.mean(power)) if dense
            else math.fsum((r - np.abs(np.arange(1 - r, r))) * power) / r**2)
    return mean if norm == "L1" else math.sqrt(mean)


# -- internals ----------------------------------------------------------


def _common_resolution(W: Graphon, U: Graphon, resolution: int) -> int:
    """``resolution`` rounded up to a multiple of every step-kernel resolution
    among W and U; :meth:`Graphon._diagonals` checks the result."""
    base = 1
    for kernel in (W, U):
        if kernel.step_values is not None:
            base = math.lcm(base, kernel.step_values.n)
    return -(-resolution // base) * base


def _band_offset_fractions(n: int, h: float) -> np.ndarray:
    """Fraction of each cell covered by the circular band min(|x-y|, 1-|x-y|) <= h.

    Over the cell of diagonal offset d = i - j (entry d + n - 1), n (x - y) - d
    has the tent density on (-1, 1), with CDF 1/2 + z - z|z|/2 at z in [-1, 1],
    and the band is x - y in [-h, h], below h - 1 or above 1 - h.  Each edge
    is n h minus an integer, exact where it cuts the cell, so the fractions
    are exact up to the rounding of n h.  They are clamped to [0, 1] and
    symmetrised, ``0.5 * (frac + frac[::-1])``, as d and -d agree up to rounding.
    """
    d, nh = np.arange(-(n - 1), n), n * h

    def cdf(z):
        z = np.clip(z, -1.0, 1.0)
        return 0.5 + z - 0.5 * z * np.abs(z)

    frac = cdf(nh - d) - cdf(-nh - d) + cdf(nh - (d + n)) + 1.0 - cdf((n - d) - nh)
    frac = np.clip(frac, 0.0, 1.0)
    return 0.5 * (frac + frac[::-1])


def _toeplitz(diagonals: np.ndarray) -> np.ndarray:
    """Read-only n x n view T[i, j] = diagonals[i - j + n - 1] of a 2n-1 vector."""
    n = (diagonals.shape[0] + 1) // 2
    return sliding_window_view(diagonals[::-1], n)[::-1]


def _is_symmetric(a: np.ndarray) -> bool:
    """``np.array_equal(a, a.T)``, compared tile by tile so both reads stay in cache.

    NaN entries compare unequal, so a matrix holding one is not symmetric.
    """
    n = a.shape[0]
    for i in range(0, n, _TILE):
        rows = a[i:i + _TILE]
        for j in range(i, n, _TILE):
            if not (rows[:, j:j + _TILE] == a[j:j + _TILE, i:i + _TILE].T).all():
                return False
    return True


def _step_cell_average(values: np.ndarray, n: int) -> np.ndarray:
    """Exact cell average of a step kernel via 1-D interval overlaps."""
    q = values.shape[0]
    i = np.arange(n)
    k = np.arange(q)
    lo = np.maximum(i[:, None] / n, k[None, :] / q)
    hi = np.minimum((i[:, None] + 1) / n, (k[None, :] + 1) / q)
    overlap = np.maximum(0.0, hi - lo)  # (n, q)
    averaged = n * n * (overlap @ values @ overlap.T)
    return 0.5 * (averaged + averaged.T)


def _check_custom_values(vals: np.ndarray) -> None:
    """Reject a custom kernel whose values on the n x n midpoint grid break
    |W| <= 1 or symmetry by more than the bound slack, naming the excess."""
    grid = "on the {0} x {0} midpoint grid".format(vals.shape[0])
    peak = float(np.max(np.abs(vals)))
    if not peak <= 1.0 + _BOUND_SLACK:
        raise ValueError(f"custom kernel must satisfy |W| <= 1: |W| reaches {peak:.6g} {grid}")
    # vals - vals.T is antisymmetric, so its max is its largest absolute entry
    gap = float(np.max(vals - vals.T))
    if not gap <= _BOUND_SLACK:
        raise ValueError(f"custom kernel must be symmetric: |W(x, y) - W(y, x)| "
                         f"reaches {gap:.6g} {grid}")


def _custom_cell_average(fn, n: int) -> np.ndarray:
    """Composite midpoint quadrature with Richardson extrapolation per cell;
    the first, n x n grid is checked by :func:`_check_custom_values`."""
    if 4 * n > _QUADRATURE_POINTS:  # Richardson needs grids of n, 2n and 4n points
        raise ValueError(f"custom kernel cell averages take at most {_QUADRATURE_POINTS // 4} "
                         f"cells per axis (4 quadrature points each), got {n} cells")
    prev_est = None
    prev_rich = None
    achieved = math.inf
    s = 1
    while n * s <= _QUADRATURE_POINTS:
        g = n * s
        mid = (np.arange(g) + 0.5) / g
        vals = np.broadcast_to(np.asarray(fn(mid[:, None], mid[None, :]), dtype=float), (g, g))
        if s == 1:
            _check_custom_values(vals)
        est = vals.reshape(n, s, n, s).mean(axis=(1, 3))
        if prev_est is not None:
            rich = (4.0 * est - prev_est) / 3.0
            if prev_rich is not None:
                achieved = float(np.max(np.abs(rich - prev_rich)))
                if achieved < _QUADRATURE_TOL:
                    return 0.5 * (rich + rich.T)
            prev_rich = rich
        prev_est = est
        s *= 2
    raise QuadratureError(achieved=achieved, target=_QUADRATURE_TOL)
