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

For the sine family the coupling sum is evaluated through the angle-addition
split sin(u_j - u_i + a) = sin(u_j + a) cos(u_i) - cos(u_j + a) sin(u_i),
which needs W times the two vectors sin(u + a) and cos(u + a) and no n x n
temporaries.  A dense W is read once per evaluation, by one (2, n) @ W
product (W is symmetric).  A Toeplitz W (deterministic graphs of constant and
band kernels, stored as their 2n-1 diagonals) is never read as a matrix: its
product with a vector is a convolution with the diagonals, done by one batched
real FFT of length >= 2n-1 against the diagonals' spectrum, which is computed
once per system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph
from .measures import TWO_PI, wrap_angle

_CHUNK_ROWS = 512


class IntegrationError(RuntimeError):
    """Raised when the state becomes non-finite during integration."""

    def __init__(self, step: int, t: float):
        self.step = step
        self.t = t
        super().__init__(f"non-finite state at step {step} (t = {t:.6g})")


class CouplingFunction:
    """2*pi-periodic coupling function with |D| <= 1 and Lipschitz constant <= 1."""

    def __init__(self, kind: str, alpha: float = 0.0, fn=None):
        self.kind = kind
        self.alpha = alpha
        self.fn = fn

    @classmethod
    def sine(cls) -> "CouplingFunction":
        return cls("sine")

    @classmethod
    def sine_shift(cls, alpha: float) -> "CouplingFunction":
        return cls("sine_shift", alpha=float(alpha))

    @classmethod
    def custom(cls, fn) -> "CouplingFunction":
        """Wrap a vectorized coupling function.

        Periodicity, |fn| <= 1, and the Lipschitz bound are the caller's
        obligation; only the amplitude bound is spot-checked on a grid.
        """
        if not callable(fn):
            raise ValueError("custom coupling must be callable")
        probe = np.asarray(fn(np.linspace(0.0, TWO_PI, 1024, endpoint=False)))
        if np.max(np.abs(probe)) > 1.0 + 1e-9:
            raise ValueError("coupling function must satisfy |D| <= 1")
        return cls("custom", fn=fn)

    @property
    def is_sine_family(self) -> bool:
        return self.kind in ("sine", "sine_shift")

    def __call__(self, u):
        if self.is_sine_family:
            return np.sin(np.asarray(u, dtype=float) + self.alpha)
        return np.asarray(self.fn(u), dtype=float)

    def to_dict(self) -> dict:
        if self.kind == "sine":
            return {"kind": "sine"}
        if self.kind == "sine_shift":
            return {"kind": "sine_shift", "alpha": self.alpha}
        raise ValueError("custom couplings are not JSON-serializable")

    @classmethod
    def from_dict(cls, spec: dict) -> "CouplingFunction":
        kind = spec.get("kind")
        if kind == "sine":
            return cls.sine()
        if kind == "sine_shift":
            return cls.sine_shift(spec["alpha"])
        raise ValueError(f"unknown coupling kind: {kind!r}")


@dataclass
class PhaseState:
    """Oscillator phases (raw reals) at a model time."""

    phases: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=float)
        if self.phases.ndim != 1:
            raise ValueError("phases must be a 1-D vector")

    @property
    def n(self) -> int:
        return self.phases.shape[0]

    def wrapped(self) -> np.ndarray:
        return wrap_angle(self.phases)


class OscillatorSystem:
    """Coupled oscillators on an explicit weighted graph."""

    def __init__(self, graph: WeightedGraph, coupling: CouplingFunction,
                 K: float = 1.0, omega=None):
        self.graph = graph
        self.coupling = coupling
        self.K = float(K)
        if omega is None:
            omega = np.zeros(graph.n)
        self.omega = np.asarray(omega, dtype=float)
        if self.omega.shape != (graph.n,):
            raise ValueError(
                f"omega must have length {graph.n}, got shape {self.omega.shape}"
            )
        if graph._diagonals is None:
            self._spectrum = None
        else:
            # circular convolution of this length has no wrap-around in the
            # n outputs that are the Toeplitz product
            self._fft_size = 1 << (2 * graph.n - 2).bit_length()
            self._spectrum = np.fft.rfft(graph._diagonals, self._fft_size)

    @property
    def n(self) -> int:
        return self.graph.n

    def rhs_phases(self, u: np.ndarray) -> np.ndarray:
        n = self.n
        if self.coupling.is_sine_family:
            shifted = u + self.coupling.alpha
            ws, wc = self._times_weights(np.stack((np.sin(shifted), np.cos(shifted))))
            coupling = np.cos(u) * ws - np.sin(u) * wc
            return self.omega + (self.K / n) * coupling
        w = self.graph.weights
        out = np.empty(n)
        for start in range(0, n, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, n)
            diffs = u[None, :] - u[start:stop, None]
            out[start:stop] = np.sum(w[start:stop] * self.coupling(diffs), axis=1)
        return self.omega + (self.K / n) * out

    def _times_weights(self, x: np.ndarray) -> np.ndarray:
        """``x @ W``: W times each row of x, since W is symmetric."""
        if self._spectrum is None:
            return x @ self.graph.weights
        size, n = self._fft_size, self.n
        product = np.fft.irfft(np.fft.rfft(x, size) * self._spectrum, size)
        return product[:, n - 1:2 * n - 1]


def rhs(system, state: PhaseState) -> np.ndarray:
    """Phase velocities of ``system`` at ``state``."""
    if state.n != system.n:
        raise ValueError(f"state has {state.n} phases, system expects {system.n}")
    return system.rhs_phases(state.phases)


@dataclass
class Trajectory:
    """Recorded states of one integration run: times[k] <-> phases[k, :]."""

    times: np.ndarray
    phases: np.ndarray  # shape (records, n), raw (unwrapped) phases

    @property
    def n(self) -> int:
        return self.phases.shape[1]

    def state(self, k: int) -> PhaseState:
        return PhaseState(self.phases[k].copy(), float(self.times[k]))

    @property
    def final_state(self) -> PhaseState:
        return self.state(len(self.times) - 1)

    def wrapped_phases(self) -> np.ndarray:
        return wrap_angle(self.phases)


def _rk4_step(rhs_fn, u, dt):
    k1 = rhs_fn(u)
    k2 = rhs_fn(u + 0.5 * dt * k1)
    k3 = rhs_fn(u + 0.5 * dt * k2)
    k4 = rhs_fn(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def time_grid(T: float, dt: float) -> np.ndarray:
    """Step endpoints 0, dt, 2*dt, ..., T with a shortened final step."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if T < 0.0:
        raise ValueError("T must be nonnegative")
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


def integrate(system, state0: PhaseState, T: float, dt: float,
              record_every: int = 1) -> Trajectory:
    """Integrate with classical RK4 at fixed step ``dt``.

    The final step is shortened so the run lands on T exactly.  States are
    recorded at t = 0, every ``record_every``-th step, and at T.  A
    non-finite state aborts with the offending step index.
    """
    if state0.n != system.n:
        raise ValueError(f"state has {state0.n} phases, system expects {system.n}")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    times = time_grid(T, dt)
    n_steps = len(times) - 1
    u = state0.phases.astype(float).copy()
    rec_times = [times[0]]
    rec_states = [u.copy()]
    for step in range(1, n_steps + 1):
        h = times[step] - times[step - 1]
        u = _rk4_step(system.rhs_phases, u, h)
        if not np.all(np.isfinite(u)):
            raise IntegrationError(step, float(times[step]))
        if step % record_every == 0 or step == n_steps:
            rec_times.append(times[step])
            rec_states.append(u.copy())
    return Trajectory(np.array(rec_times), np.array(rec_states))


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


def norm_1n(a, b) -> float:
    """Scaled Euclidean distance sqrt(n^-1 sum (a_i - b_i)^2), unwrapped reals."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def sup_norm_1n(a: Trajectory, b: Trajectory) -> float:
    """Max over shared recorded times of the scaled distance between runs."""
    if a.phases.shape != b.phases.shape or not np.allclose(a.times, b.times):
        raise ValueError("trajectories must share the recording grid")
    diff = a.phases - b.phases
    return float(np.max(np.sqrt(np.mean(diff**2, axis=1))))


def max_pairwise_gap(a: Trajectory, b: Trajectory) -> float:
    """Largest |a_i(t) - b_i(t)| over the run; > pi means the unwrapped
    comparison has become chart-dependent."""
    return float(np.max(np.abs(a.phases - b.phases)))


def weight_perturbation_constant(T: float) -> float:
    """Growth constant sqrt(T * e^(5T)) bounding trajectory divergence per
    unit weight-matrix distance (scaled Frobenius) over [0, T]."""
    return float(np.sqrt(T * np.exp(5.0 * T)))


def omega_from_spec(spec: dict, n: int) -> np.ndarray:
    """Intrinsic frequencies from {'kind': 'zero' | 'constant' | 'normal'}."""
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, float(spec["value"]))
    if kind == "normal":
        rng = np.random.Generator(np.random.Philox(key=np.uint64(spec["seed"])))
        return rng.normal(float(spec["mean"]), float(spec["sd"]), n)
    raise ValueError(f"unknown omega kind: {kind!r}")
