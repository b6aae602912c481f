"""Finite coupled phase-oscillator systems and their time integration.

The model integrated here is

    du_i/dt = omega_i + (K/n) * sum_j W_ij * D(u_j - u_i),

with a symmetric weight matrix W, coupling strength K, intrinsic frequencies
omega, and a 2*pi-periodic coupling function D with |D| <= 1 and Lipschitz
constant <= 1.  ``D(u) = sin(u + alpha)`` recovers the classical
phase-shifted sine model.

Integration is fixed-step classical RK4 (the right-hand side is globally
Lipschitz, so stability is predictable and runs are reproducible).  Phases
evolve as raw reals; they are wrapped to [0, 2*pi) only when a state is
explicitly reduced, so trajectories of nearby systems can be compared with
unwrapped differences over short horizons.

:func:`recorded_states` yields the recorded frames one at a time, and
:func:`integrate` fills one (records, n) array from it.  A sup-over-time
comparison of two runs can therefore advance both together and keep only
running maxima; :func:`sup_norm_1n` takes its per-frame values from
:func:`norm_1n`, which, with :func:`pairwise_gap`, is what such a streaming
reduction applies to each pair of frames.

Every velocity in kmflow is one coupling sum, :func:`_field`: V(u) = n^-1
sum_i W_ki sum_j m_ij D(v_ij - u) over the atoms v_ij of mass m_ij in cell i.
The right-hand side here is that sum with one unit-mass atom per oscillator;
the mean-field particle system and the Picard transport of
:mod:`kmflow.meanfield` call it too.  A coupling with a short Fourier series
(the sine family, a ``fourier`` spec, a custom D its probe resolves) is summed
through moments, by angle addition: W, through ``WeightedGraph._product``,
applies to the (2K, n) per-cell moments of sin kv, cos kv, rotated by the
coefficients, and each target takes sin ku, cos ku, so O(K N) trig calls for N
atoms.  Any other custom D is evaluated in slabs of whole target cells under
one element budget.  Every RK4 step, there too, is :func:`_rk4_step`, and
every run, finite volumes too, steps along its time grid in :func:`_march`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphon import WeightedGraph, _check_count, _check_real, _check_seed, _from_spec
from .measures import TWO_PI, check_shared_grid, wrap_angle

# Longest time grid (steps) a run may ask for; the grid is allocated up front.
MAX_STEPS = 10**7

_VELOCITY_SLACK = 1e-9

# Elements (target rows x source atoms) of one custom-coupling slab; each
# temporary of a slab then takes 8 MiB.
_SLAB_ELEMENTS = 1 << 20


class IntegrationError(RuntimeError):
    """Raised when the state becomes non-finite during integration."""

    def __init__(self, step: int, t: float):
        self.step = step
        self.t = t
        super().__init__(f"non-finite state at step {step} (t = {t:.6g})")


class CouplingFunction:
    """2*pi-periodic coupling function with |D| <= 1 and Lipschitz constant <= 1.

    ``modes = (ks, a, b)``, when D has a short Fourier series, is D(u) = sum
    a_k cos(ku) + b_k sin(ku) over the harmonics ks, or over k = 1 alone with
    float a, b when ks is None (the sine family); :func:`_field` sums through it.
    """

    def __init__(self, kind: str, alpha: float = 0.0, fn=None, modes=None):
        self.kind = kind
        self.alpha = alpha
        self.fn = fn
        self.modes = modes

    @classmethod
    def sine(cls) -> "CouplingFunction":
        return cls("sine", modes=(None, 0.0, 1.0))

    @classmethod
    def sine_shift(cls, alpha: float) -> "CouplingFunction":
        alpha = _check_real(alpha, "coupling field 'alpha'")
        return cls("sine_shift", alpha=alpha, modes=(None, math.sin(alpha), math.cos(alpha)))

    @classmethod
    def fourier(cls, cos, sin) -> "CouplingFunction":
        """D(u) = cos[0] + sum_k cos[k] cos(ku) + sin[k - 1] sin(ku), k = 1..K; with
        |c_k| = hypot(a_k, b_k), |a_0| + sum |c_k| <= 1 and sum k |c_k| <= 1 are
        checked, which bound |D| and Lip(D) exactly."""
        fields = {"cos": cos, "sin": sin}
        for name, values in fields.items():
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"coupling field {name!r} must be a list of numbers "
                                 f"(got {values!r})")
            fields[name] = [_check_real(x, f"coupling field {name!r} entry") for x in values]
        a, b = np.array(fields["cos"], dtype=float), np.array(fields["sin"], dtype=float)
        if a.size != b.size + 1:
            raise ValueError(f"coupling field 'sin' must hold one value fewer than 'cos' "
                             f"(got {b.size} and {a.size})")
        size = np.hypot(a[1:], b)
        for name, bound in (("|D|", abs(a[0]) + size.sum()),
                            ("Lip(D)", np.arange(1, a.size) @ size)):
            if not bound <= 1.0:
                raise ValueError(f"coupling fields 'cos' and 'sin' must satisfy {name} <= 1: "
                                 f"their series bound is {bound:.6g}")
        return cls("fourier", modes=_harmonics(a, np.append(0.0, b)))

    @classmethod
    def custom(cls, fn) -> "CouplingFunction":
        """Wrap a vectorized coupling function.

        One call of ``fn`` at 1024 equispaced points checks |fn| <= 1 and, by
        the secant slopes (the pair across 2*pi included, so a D that is not
        periodic fails too), Lip(fn) <= 1; between the points both stay the
        caller's obligation.  The probe's rfft, its modes above a round-off
        floor of 1e-15, gives ``modes`` when they are at most 256 harmonics
        and match ``fn`` to 1e-13 at 1024 points shifted by an irrational
        fraction of a cell; otherwise (a kink, a NaN, a mismatch) ``fn``
        itself is summed, in slabs.
        """
        if not callable(fn):
            raise ValueError("custom coupling must be callable")
        u = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
        probe = np.asarray(fn(u))
        if probe.shape != u.shape:
            raise ValueError(f"coupling function must return one value per phase "
                             f"(got shape {probe.shape} for {u.size} phases)")
        if not np.max(np.abs(probe)) <= 1.0 + 1e-9:
            raise ValueError("coupling function must satisfy |D| <= 1")
        slope = np.max(np.abs(np.diff(probe, append=probe[:1]))) / u[1]
        if not slope <= 1.0 + 1e-9:
            raise ValueError(f"coupling function must satisfy Lip(D) <= 1: its secant "
                             f"slopes on {u.size} points reach {slope:.6g}")
        c = np.fft.rfft(probe) / u.size  # a_0, then (a_k - i b_k) / 2
        c[1:] *= 2.0
        c[np.abs(c) <= 1e-15] = 0.0
        series = cls("fourier", modes=_harmonics(c.real, -c.imag))
        u += (math.sqrt(5.0) - 1.0) / 2.0 * u[1]
        resolved = np.all(series.modes[0] <= 256) and np.max(np.abs(series(u) - fn(u))) <= 1e-13
        return cls("custom", fn=fn, modes=series.modes if resolved else None)

    @property
    def is_sine_family(self) -> bool:
        return self.kind in ("sine", "sine_shift")

    def __call__(self, u):
        if self.is_sine_family:
            return np.sin(np.asarray(u, dtype=float) + self.alpha)
        if self.fn is None:
            ks, a, b = self.modes
            ku = np.multiply.outer(ks, np.asarray(u, dtype=float))
            return np.tensordot(a, np.cos(ku), 1) + np.tensordot(b, np.sin(ku), 1)
        return np.asarray(self.fn(u), dtype=float)

    @classmethod
    def from_dict(cls, spec: dict) -> "CouplingFunction":
        """The coupling a JSON spec names; a custom coupling has no JSON form."""
        return _from_spec(spec, "coupling", {"sine": cls.sine, "sine_shift": cls.sine_shift,
                                             "fourier": cls.fourier})


def _harmonics(a, b):
    """``modes`` of the nonzero terms of the series with cos and sin
    coefficients ``a``, ``b`` of the harmonics 0, 1, ..."""
    ks = np.flatnonzero(np.hypot(a, b))
    return ks, a[ks], b[ks]


@dataclass
class PhaseState:
    """Oscillator phases (raw reals)."""

    phases: np.ndarray

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=float)
        if self.phases.ndim != 1:
            raise ValueError("phases must be a 1-D vector")
        _check_finite(self.phases, "phases")

    @property
    def n(self) -> int:
        return self.phases.shape[0]


class OscillatorSystem:
    """Coupled oscillators on an explicit weighted graph."""

    def __init__(self, graph: WeightedGraph, coupling: CouplingFunction,
                 K: float = 1.0, omega=None):
        self.graph = graph
        self.coupling = coupling
        self.K = _check_real(K, "coupling strength K")
        if omega is None:
            omega = np.zeros(graph.n)
        self.omega = np.asarray(omega, dtype=float)
        if self.omega.shape != (graph.n,):
            raise ValueError(
                f"omega must have length {graph.n}, got shape {self.omega.shape}"
            )
        _check_finite(self.omega, "omega")

    @property
    def n(self) -> int:
        return self.graph.n

    def rhs_phases(self, u: np.ndarray) -> np.ndarray:
        # each oscillator is a cell holding one atom of unit mass
        atoms = u[:, None]
        return self.omega + self.K * _field(self.graph, self.coupling, atoms, 1.0,
                                            atoms).ravel()


def _check_finite(values: np.ndarray, name: str) -> None:
    """Reject a vector holding a NaN or an infinity, naming it and the entry."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{name} must be finite (entry {bad[0]} is {values[bad[0]]})")


def _field(w: WeightedGraph, coupling: CouplingFunction, pos, mass, targets):
    """Velocity field of atoms ``pos``/``mass`` at the phases ``targets``.

    Returns V[k, t] = n^-1 sum_i w[i, k] sum_j mass[i, j] D(pos[i, j] -
    targets[k, t]) for source atoms of shape (n, atoms) and targets of shape
    (k, t); ``mass`` may be a scalar.  ``w`` is the graph, so k = n and
    column k is row k.  A coupling with ``modes`` costs one product of its
    (2K, n) moments and O(K N) trig calls; any other calls D in slabs.
    """
    n = pos.shape[0]
    if coupling.modes is not None:
        # D(v - u) = sum_k cos(ku) P_k(v) - sin(ku) Q_k(v) by angle addition,
        # P_k = b_k sin kv + a_k cos kv and Q_k = b_k cos kv - a_k sin kv: W
        # applies to the (2, modes, n) per-cell moments of P, Q, which rotate
        # those of sin kv, cos kv; the sine family's one mode keeps 2-D arrays
        ks, a, b = coupling.modes
        if ks is not None:
            ks, a, b = ks[:, None, None], a[:, None], b[:, None]
        angles = pos if ks is None else ks * pos
        trig = np.empty((2, *angles.shape))
        sin_u, cos_u = np.sin(angles, out=trig[0]), np.cos(angles, out=trig[1])
        moments = (mass * trig).sum(axis=-1)
        if ks is not None or a:
            s, c = moments
            s[:], c[:] = s * b + c * a, c * b - s * a
        p, q = (w._product(moments) if ks is None
                else w._product(moments.reshape(-1, n)).reshape(moments.shape))
        if targets is not pos:  # targets that are the sources reuse the pair
            angles = targets if ks is None else ks * targets
            sin_u, cos_u = np.sin(angles), np.cos(angles)
        out = cos_u * (p / n)[..., None] - sin_u * (q / n)[..., None]
        if ks is not None:
            out = out.sum(axis=0)
    else:
        columns = w.weights.T
        src = pos.ravel()
        mass = np.broadcast_to(mass, pos.shape)
        # a slab is a run of whole target cells, or part of one cell's
        # targets when that cell alone exceeds the budget
        span = max(1, _SLAB_ELEMENTS // src.size)
        cells = max(1, span // targets.shape[1])
        cols = min(span, targets.shape[1])
        out = np.empty(targets.shape)
        for k in range(0, len(targets), cells):
            block = slice(k, k + cells)
            # C order for any strides of w, so that matmul sums alike
            weights = np.multiply(columns[block, :, None], mass, order="C")
            weights = weights.reshape(-1, src.size, 1)
            for lo in range(0, targets.shape[1], cols):
                d = coupling(src - targets[block, lo:lo + cols, None])
                out[block, lo:lo + cols] = np.matmul(d, weights)[..., 0]
        out /= n
    _check_velocity_bound(out)
    return out


def _check_velocity_bound(v) -> None:
    # written so that a NaN velocity fails the bound too
    worst = float(np.max(np.abs(v)))
    if not worst <= 1.0 + _VELOCITY_SLACK:
        raise RuntimeError(
            f"velocity bound violated (max |V| = {worst:.6g}, not <= 1); "
            "kernel or coupling breaks its amplitude bound"
        )


@dataclass
class Trajectory:
    """Recorded states of one integration run: times[k] <-> phases[k, :]."""

    times: np.ndarray
    phases: np.ndarray  # shape (records, n), raw (unwrapped) phases

    @property
    def n(self) -> int:
        return self.phases.shape[1]

    @property
    def final_state(self) -> PhaseState:
        return PhaseState(self.phases[-1].copy())

    def wrapped_phases(self) -> np.ndarray:
        return wrap_angle(self.phases)


def _rk4_step(rhs_fn, u, dt):
    """One classical RK4 step; ``rhs_fn(u, s)`` is told the fraction s of the
    step (0, 1/2 or 1) at which its stage is evaluated."""
    k1 = rhs_fn(u, 0.0)
    k2 = rhs_fn(u + 0.5 * dt * k1, 0.5)
    k3 = rhs_fn(u + 0.5 * dt * k2, 0.5)
    k4 = rhs_fn(u + dt * k3, 1.0)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def time_grid(T: float, dt: float) -> np.ndarray:
    """Step endpoints 0, dt, 2*dt, ..., T with a shortened final step."""
    dt = _check_real(dt, "dt", 0.0, open=True)
    T = _check_real(T, "T", 0.0)
    if T / dt > MAX_STEPS:
        raise ValueError(
            f"T / dt = {T / dt:.6g} steps exceeds the limit of {MAX_STEPS}")
    n_full = int(np.floor(T / dt + 1e-9))
    times = dt * np.arange(n_full + 1)
    # the last step absorbs a remainder at round-off level (of dt, or of T
    # itself), so no step exceeds dt by more than that; a longer remainder
    # becomes a final short step
    if n_full > 0 and T - times[-1] <= max(1e-12 * dt, 4.0 * np.spacing(T)):
        times[-1] = T
    elif T > times[-1]:
        times = np.append(times, T)
    return times


def _march(step, state, times, record_every: int):
    """Iterator over ``(t, state)`` at t = 0, every ``record_every``-th step
    and the last, where ``step(state, k, h)`` takes ``state`` from ``times[k]``
    to ``times[k] + h``.  A non-finite state aborts with its step index.
    """
    _check_count(record_every, "record_every")
    last = len(times) - 1

    def frames(state):
        yield times[0], state
        for k in range(1, last + 1):
            state = step(state, k - 1, times[k] - times[k - 1])
            if not np.all(np.isfinite(state)):
                raise IntegrationError(k, float(times[k]))
            if k % record_every == 0 or k == last:
                yield times[k], state

    return frames(state)


def recorded_states(system, state0: PhaseState, T: float, dt: float,
                    record_every: int = 1):
    """Iterator over the ``(t, u)`` that :func:`integrate` records.

    The arguments are checked at the call; the steps run as the frames are
    taken, so a caller that reduces each frame as it arrives holds one state
    at a time.  Each ``u`` is a fresh array that is never written again.
    """
    if state0.n != system.n:
        raise ValueError(f"state has {state0.n} phases, system expects {system.n}")
    rhs = lambda u, _: system.rhs_phases(u)
    return _march(lambda u, _, h: _rk4_step(rhs, u, h), state0.phases.astype(float),
                  time_grid(T, dt), record_every)


def integrate(system, state0: PhaseState, T: float, dt: float,
              record_every: int = 1) -> Trajectory:
    """Integrate with classical RK4 at fixed step ``dt``.

    The final step is shortened so the run lands on T exactly.  States are
    recorded at t = 0, every ``record_every``-th step, and at T.  A
    non-finite state aborts with the offending step index.
    """
    frames = recorded_states(system, state0, T, dt, record_every)
    # t = 0, then ceil(steps / record_every) recorded steps
    records = 1 + -(-(len(time_grid(T, dt)) - 1) // record_every)
    times, phases = np.empty(records), np.empty((records, state0.n))
    for k, (t, u) in enumerate(frames):
        times[k], phases[k] = t, u
    return Trajectory(times, phases)


def order_parameter(state) -> tuple[float, float]:
    """Complex mean r * exp(i*psi) of the phases; psi = 0 when r < 1e-15."""
    phases = state.phases if isinstance(state, PhaseState) else np.asarray(state, dtype=float)
    if phases.size < 1:
        raise ValueError("order parameter needs at least one phase")
    z = np.mean(np.exp(1j * phases))
    r = float(np.abs(z))
    if r < 1e-15:
        return 0.0, 0.0
    psi = float(np.angle(z))
    if psi < 0.0:
        psi += TWO_PI
    if psi >= TWO_PI:
        psi = 0.0
    return r, psi


def _difference(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return a - b


def norm_1n(a, b) -> float:
    """Scaled Euclidean distance sqrt(n^-1 sum (a_i - b_i)^2), unwrapped reals."""
    return float(np.sqrt(np.mean(_difference(a, b) ** 2)))


def pairwise_gap(a, b) -> float:
    """Largest |a_i - b_i| between two phase vectors (unwrapped reals)."""
    return float(np.max(np.abs(_difference(a, b))))


def sup_norm_1n(a: Trajectory, b: Trajectory) -> float:
    """Max over shared recorded times of the scaled distance between runs."""
    check_shared_grid(a, b)
    return max(map(norm_1n, a.phases, b.phases))


def omega_from_spec(spec: dict, n: int) -> np.ndarray:
    """n intrinsic frequencies from {'kind': 'zero' (the default) | 'constant' | 'normal'}."""
    def normal(seed, mean, sd):
        _check_seed(seed, "omega field 'seed'")
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        return rng.normal(_check_real(mean, "omega field 'mean'"),
                          _check_real(sd, "omega field 'sd'", 0.0), n)

    return _from_spec(spec, "omega", {
        "zero": lambda: np.zeros(n), "normal": normal,
        "constant": lambda value: np.full(n, _check_real(value, "omega field 'value'"))}, "zero")
