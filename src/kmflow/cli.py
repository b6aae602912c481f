"""Experiment runner: configuration parsing, convergence studies, file I/O.

Every run that finishes writes a ``manifest.json`` holding the fully resolved
configuration (defaults included), so re-running from a manifest reproduces
the outputs byte for byte.  Numeric CSV output uses 17 significant digits.

Experiments
-----------
simulate             integrate oscillators on a graphon-derived graph
sample_graph         draw a W-random graph, emit its weight matrix (and PGM)
meanfield_particles  particle mean-field run, final family to CSV
meanfield_fv         finite-volume mean-field run, final density to CSV
picard               pushforward fixed-point iteration plus iteration report
convergence_main     empirical-vs-reference study over (n, m) pairs
convergence_ave      deterministic-vs-sampled graphs across n and seeds
stability_initial    paired runs with perturbed initial data vs e^T bound
stability_kernel     paired runs with two kernels vs e^(2T) L1 bound
distance             cell-averaged distance between two family CSV files
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as kio
from . import meanfield as mf
from .dynamics import (
    CouplingFunction,
    OscillatorSystem,
    PhaseState,
    integrate,
    norm_1n,
    omega_from_spec,
    order_parameter,
    pairwise_gap,
    recorded_states,
    time_grid,
)
from .graphon import Graphon
from .graphs import WeightedGraph, deterministic_graph, pixel_picture, sample_w_random
from .measures import (
    MeasureFamily,
    common_cells,
    common_dbar,
    dbar,
    density_from_dict,
    family_from_rows,
    family_to_rows,
    initial_family,
)

MAX_PARTICLES = 2**20

# The settings each experiment reads, besides ``experiment`` and
# ``output_dir``.  Any other key set to a value other than its default is
# rejected rather than silently ignored; defaults pass, so manifests (which
# hold every key) still replay.  The mean-field solvers run with K = 1 and
# zero frequencies, convergence_main always starts from quantile atoms, and
# meanfield_fv writes only the final field.
_MEANFIELD_KEYS = ("graphon", "coupling", "rho0", "n", "T", "dt")
_READ_KEYS = {
    "simulate": ("graphon", "coupling", "omega", "n", "T", "dt", "K",
                 "record_every", "seeds", "sampled"),
    "sample_graph": ("graphon", "n", "seeds", "render_pgm"),
    "meanfield_particles": _MEANFIELD_KEYS + ("m", "record_every", "init_mode",
                                              "init_seed"),
    "meanfield_fv": _MEANFIELD_KEYS + ("g",),
    "picard": _MEANFIELD_KEYS + ("m", "init_mode", "init_seed", "alpha", "tol",
                                 "max_iter"),
    "convergence_main": _MEANFIELD_KEYS + ("m", "ref_n", "ref_m", "record_every"),
    "convergence_ave": ("graphon", "coupling", "omega", "n", "T", "dt", "K",
                        "record_every", "seeds"),
    "stability_initial": _MEANFIELD_KEYS + ("m", "init_mode", "init_seed",
                                            "record_every", "seeds", "perturbation",
                                            "perturbation_seed"),
    "stability_kernel": _MEANFIELD_KEYS + ("m", "init_mode", "init_seed",
                                           "record_every", "graphon_b",
                                           "kernel_resolution"),
    "distance": ("inputs",),
}


def _integer(value, low: int, high: float = math.inf) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and low <= value < high)


def _real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


_COUNT = (lambda v: _integer(v, 1), "a positive integer")
_COUNTS = (lambda v: all(_integer(x, 1) for x in (v if isinstance(v, list) else [v])),
           "a positive integer or a list of them")
_SEED = (lambda v: _integer(v, 0, 2**64), "an integer in [0, 2**64)")
# Numeric keys -> (test, what the error says a value must be).  A key whose
# default is None may also stay None.
_NUMERIC_KEYS = {
    "n": _COUNTS,
    "m": _COUNTS,
    "ref_n": _COUNT,
    "ref_m": _COUNT,
    "g": _COUNT,
    "max_iter": _COUNT,
    "record_every": _COUNT,
    "kernel_resolution": _COUNT,
    "T": (lambda v: _real(v) and v >= 0.0, "a finite number >= 0"),
    "dt": (lambda v: _real(v) and v > 0.0, "a finite number > 0"),
    "perturbation": (lambda v: _real(v) and v >= 0.0, "a finite number >= 0"),
    "tol": (lambda v: _real(v) and v > 0.0, "a finite number > 0"),
    "alpha": (lambda v: _real(v) and v > 2.0, "a finite number > 2"),
    "K": (_real, "a finite number"),
    "seeds": (lambda v: isinstance(v, list) and all(_integer(x, 0, 2**64) for x in v),
              "a list of integers in [0, 2**64)"),
    "init_seed": _SEED,
    "perturbation_seed": _SEED,
}

# JSON-valued keys -> the constructor that turns the spec into its object.
# Each experiment builds the ones it reads in ``validate``, so a bad spec is
# rejected, naming its key, before anything is run or removed.
_SPEC_KEYS = {
    "graphon": Graphon.from_dict,
    "graphon_b": Graphon.from_dict,
    "coupling": CouplingFunction.from_dict,
    "rho0": density_from_dict,
    "omega": lambda spec: omega_from_spec(spec, 1),
}

EXPERIMENTS = (
    "simulate",
    "sample_graph",
    "meanfield_particles",
    "meanfield_fv",
    "picard",
    "convergence_main",
    "convergence_ave",
    "stability_initial",
    "stability_kernel",
    "distance",
)


@dataclass
class ExperimentConfig:
    experiment: str
    graphon: dict | None = None
    graphon_b: dict | None = None
    coupling: dict = field(default_factory=lambda: {"kind": "sine"})
    rho0: dict = field(default_factory=lambda: {"kind": "uniform"})
    omega: dict = field(default_factory=lambda: {"kind": "zero"})
    n: object = None          # int or list of ints
    m: object = None          # int or list of ints
    ref_n: int | None = None
    ref_m: int | None = None
    T: float = 1.0
    dt: float = 0.01
    K: float = 1.0
    g: int = 128
    alpha: float = 3.0
    tol: float = 1e-4
    max_iter: int = 25
    record_every: int = 1
    seeds: list = field(default_factory=list)
    sampled: bool = False
    init_mode: str = "quantile"
    init_seed: int | None = None
    perturbation: float = 0.1
    perturbation_seed: int = 0
    kernel_resolution: int = 512
    render_pgm: bool = False
    inputs: list = field(default_factory=list)
    output_dir: str = "."

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "experiment" not in raw:
            raise ValueError("config must name an experiment")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; pick one of "
                f"{', '.join(EXPERIMENTS)}"
            )
        defaults = ExperimentConfig(self.experiment)
        for key, (valid, what) in _NUMERIC_KEYS.items():
            value = getattr(self, key)
            if value is None and getattr(defaults, key) is None:
                continue
            if not valid(value):
                raise ValueError(f"{key!r} must be {what} (got {value!r})")
        read = {"experiment", "output_dir", *_READ_KEYS[self.experiment]}
        unread = sorted(f.name for f in dataclasses.fields(self)
                        if f.name not in read
                        and getattr(self, f.name) != getattr(defaults, f.name))
        if unread:
            raise ValueError(f"{self.experiment} does not use " + ", ".join(
                f"{key!r} (got {getattr(self, key)!r}, must keep its default "
                f"{getattr(defaults, key)!r})" for key in unread))
        for key in [key for key in _SPEC_KEYS if key in read]:
            spec = getattr(self, key)
            if spec is None:
                raise ValueError(f"experiment {self.experiment!r} needs the {key!r} key")
            if not isinstance(spec, dict):
                raise ValueError(f"the {key!r} spec must be a JSON object (got {spec!r})")
            try:
                _SPEC_KEYS[key](spec)
            except KeyError as exc:
                raise ValueError(f"the {key!r} spec {spec!r} lacks the field {exc}"
                                 ) from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{exc} in the {key!r} spec {spec!r}") from None
        for n in self.n_list() or []:
            for m in self.m_list() or [1]:
                if n * m > MAX_PARTICLES:
                    raise ValueError(
                        f"capacity exceeded: n*m = {n * m} > {MAX_PARTICLES}"
                    )
                if self.experiment == "picard":
                    mf.check_picard_capacity(len(time_grid(self.T, self.dt)), n * m)
        if self.ref_n is not None and self.ref_m is not None:
            if self.ref_n * self.ref_m > MAX_PARTICLES:
                raise ValueError("capacity exceeded for the reference run")

    def n_list(self) -> list[int] | None:
        if self.n is None:
            return None
        return [int(v) for v in (self.n if isinstance(self.n, list) else [self.n])]

    def m_list(self) -> list[int] | None:
        if self.m is None:
            return None
        return [int(v) for v in (self.m if isinstance(self.m, list) else [self.m])]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(kio.read_json(path))


# -- individual experiments --------------------------------------------------


def _out(cfg: ExperimentConfig, name: str) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _graphon(cfg: ExperimentConfig, which: str = "graphon") -> Graphon:
    return Graphon.from_dict(getattr(cfg, which))


def _coupling(cfg: ExperimentConfig) -> CouplingFunction:
    return CouplingFunction.from_dict(cfg.coupling)


def _single(value, name: str) -> int:
    if value is None:
        raise ValueError(f"experiment needs {name!r}")
    if isinstance(value, list):
        if len(value) != 1:
            raise ValueError(f"{name!r} must be a single value here")
        return int(value[0])
    return int(value)


def _initial_phases(n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(2**32)]))
    return rng.uniform(0.0, 2.0 * math.pi, n)


def _run_simulate(cfg: ExperimentConfig) -> None:
    n = _single(cfg.n, "n")
    W = _graphon(cfg)
    seed = cfg.seeds[0] if cfg.seeds else 0
    graph = sample_w_random(W, n, seed) if cfg.sampled else deterministic_graph(W, n)
    system = OscillatorSystem(graph, _coupling(cfg), K=cfg.K,
                              omega=omega_from_spec(cfg.omega, n))
    u0 = _initial_phases(n, seed)
    traj = integrate(system, PhaseState(u0), cfg.T, cfg.dt,
                     record_every=cfg.record_every)
    wrapped = traj.wrapped_phases()
    rows = []
    for k, t in enumerate(traj.times):
        r, psi = order_parameter(wrapped[k])
        rows.append([float(t), *map(float, wrapped[k]), r, psi])
    header = ["t"] + [f"u_{i + 1}" for i in range(n)] + ["r", "psi"]
    kio.write_csv(_out(cfg, "results.csv"), header, rows)


def _run_sample_graph(cfg: ExperimentConfig) -> None:
    n = _single(cfg.n, "n")
    seed = cfg.seeds[0] if cfg.seeds else 0
    graph = sample_w_random(_graphon(cfg), n, seed)
    kio.write_matrix_csv(_out(cfg, "results.csv"), graph.weights)
    if cfg.render_pgm:
        kio.write_pgm(_out(cfg, "graph.pgm"), pixel_picture(graph))


def _spec(cfg: ExperimentConfig, n: int) -> mf.VelocityFieldSpec:
    return mf.VelocityFieldSpec(_graphon(cfg).cell_average(n), _coupling(cfg))


def _run_meanfield_particles(cfg: ExperimentConfig) -> None:
    n = _single(cfg.n, "n")
    m = _single(cfg.m, "m")
    family0 = initial_family(density_from_dict(cfg.rho0), n, m,
                             mode=cfg.init_mode, seed=cfg.init_seed)
    # each drift row is taken as its frame arrives; only the first frame and
    # the current one are held
    drift, first = [], None
    for t, family in mf.particle_frames(_spec(cfg, n), family0, cfg.T, cfg.dt,
                                        cfg.record_every):
        first = family if first is None else first
        drift.append([float(t), dbar(family, first)])
    kio.write_csv(_out(cfg, "results.csv"), ["cell", "position", "mass"],
                  family_to_rows(family))
    kio.write_csv(_out(cfg, "drift.csv"), ["t", "dbar_to_initial"], drift)


def _run_meanfield_fv(cfg: ExperimentConfig) -> None:
    n = _single(cfg.n, "n")
    field0 = mf.density_field_from_spec(density_from_dict(cfg.rho0), n, cfg.g)
    # only the final field is written, so record t = 0 and T alone
    traj = mf.solve_fv(_spec(cfg, n), field0, cfg.T, cfg.dt,
                       record_every=sys.maxsize)
    rows = []
    for i in range(n):
        for k in range(cfg.g):
            rows.append([i, k, float(traj.final_field.values[i, k])])
    kio.write_csv(_out(cfg, "results.csv"), ["cell", "u_index", "value"], rows)


def _run_picard(cfg: ExperimentConfig) -> None:
    n = _single(cfg.n, "n")
    m = _single(cfg.m, "m")
    family0 = initial_family(density_from_dict(cfg.rho0), n, m,
                             mode=cfg.init_mode, seed=cfg.init_seed)
    traj, report = mf.picard_solve(_spec(cfg, n), family0, cfg.T, cfg.dt,
                                   alpha=cfg.alpha, tol=cfg.tol,
                                   max_iter=cfg.max_iter)
    kio.write_csv(_out(cfg, "results.csv"), ["cell", "position", "mass"],
                  family_to_rows(traj.final_family))
    kio.write_json(_out(cfg, "iteration_report.json"), report)


def _run_convergence_main(cfg: ExperimentConfig) -> None:
    n_list = cfg.n_list()
    m_list = cfg.m_list()
    if not n_list or not m_list:
        raise ValueError("convergence_main needs n and m lists")
    ref_n = cfg.ref_n if cfg.ref_n is not None else 2 * max(n_list)
    ref_m = cfg.ref_m if cfg.ref_m is not None else 4 * max(m_list)
    if ref_n < 2 * max(n_list) or ref_m < 4 * max(m_list):
        raise ValueError(
            "reference must satisfy ref_n >= 2*max(n) and ref_m >= 4*max(m)"
        )
    if ref_n * ref_m > MAX_PARTICLES:
        raise ValueError("capacity exceeded for the reference run")
    rho0 = density_from_dict(cfg.rho0)

    def frames(n, m, spec):
        return mf.particle_frames(spec, initial_family(rho0, n, m), cfg.T,
                                  cfg.dt, cfg.record_every)

    pairs = [(n, m) for n in n_list for m in m_list]
    specs = {n: _spec(cfg, n) for n in n_list}
    runs = [frames(n, m, specs[n]) for n, m in pairs]
    # the reference and every run advance together, each holding its
    # current frame and its running max of dbar
    sup = [0.0] * len(pairs)
    for (_, ref), *current in zip(frames(ref_n, ref_m, _spec(cfg, ref_n)), *runs):
        for k, (_, family) in enumerate(current):
            sup[k] = max(sup[k], common_dbar(family, ref))
    rows = [[n, m, d] for (n, m), d in zip(pairs, sup)]
    kio.write_csv(_out(cfg, "results.csv"), ["n", "m", "sup_dbar"], rows)


def _run_convergence_ave(cfg: ExperimentConfig) -> None:
    n_list = cfg.n_list()
    if not n_list:
        raise ValueError("convergence_ave needs an n list")
    seeds = cfg.seeds or [0]
    W = _graphon(cfg)
    coupling = _coupling(cfg)
    rows = []
    warned = False
    for n in n_list:
        det = deterministic_graph(W, n)
        omega = omega_from_spec(cfg.omega, n)
        for seed in seeds:
            u0 = PhaseState(_initial_phases(n, seed))
            base, rand = (recorded_states(OscillatorSystem(graph, coupling, K=cfg.K,
                                                           omega=omega),
                                          u0, cfg.T, cfg.dt, cfg.record_every)
                          for graph in (det, sample_w_random(W, n, seed)))
            # the two runs advance together, keeping running maxima only
            sup_norm = gap = 0.0
            for (_, x), (_, y) in zip(base, rand):
                sup_norm = max(sup_norm, norm_1n(x, y))
                gap = max(gap, pairwise_gap(x, y))
            if not warned and gap > math.pi:
                print(
                    "warning: a pairwise phase difference exceeded pi; the "
                    "unwrapped comparison is chart-dependent", file=sys.stderr)
                warned = True
            rows.append([n, seed, sup_norm])
    kio.write_csv(_out(cfg, "results.csv"), ["n", "seed", "sup_norm_1n"], rows)


def _perturbed_family(family: MeasureFamily, scale: float, seed: int) -> MeasureFamily:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    noise = rng.uniform(-scale, scale, family.positions.shape)
    return MeasureFamily(family.positions + noise, family.masses)


def _run_stability(cfg: ExperimentConfig, perturb_kernel: bool) -> None:
    n = _single(cfg.n, "n")
    m = _single(cfg.m, "m")
    rho0 = density_from_dict(cfg.rho0)
    fam_a = initial_family(rho0, n, m, mode=cfg.init_mode, seed=cfg.init_seed)
    rows = []
    if perturb_kernel:
        result = mf.stability_experiments(mf.StabilityConfig(
            graphon_a=_graphon(cfg), graphon_b=_graphon(cfg, "graphon_b"),
            n=n, m=m, T=cfg.T, dt=cfg.dt, coupling=_coupling(cfg),
            family_a=fam_a, kernel_resolution=cfg.kernel_resolution,
            record_every=cfg.record_every))
        rows.append([0, result["measured"], result["bound"],
                     "pass" if result["passed"] else "fail"])
    else:
        seeds = cfg.seeds or [cfg.perturbation_seed]
        for trial, seed in enumerate(seeds):
            fam_b = _perturbed_family(fam_a, cfg.perturbation, seed)
            result = mf.stability_experiments(mf.StabilityConfig(
                graphon_a=_graphon(cfg), n=n, m=m, T=cfg.T, dt=cfg.dt,
                coupling=_coupling(cfg), family_a=fam_a, family_b=fam_b,
                record_every=cfg.record_every))
            rows.append([trial, result["measured"], result["bound"],
                         "pass" if result["passed"] else "fail"])
    kio.write_csv(_out(cfg, "results.csv"),
                  ["trial", "measured", "bound", "status"], rows)
    failures = [r for r in rows if r[3] == "fail"]
    if failures:
        raise RuntimeError(f"{len(failures)} stability trial(s) exceeded the bound")


def _read_family_csv(path) -> MeasureFamily:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].strip() != "cell,position,mass":
        raise ValueError(f"{path} is not a family CSV (expected header "
                         "'cell,position,mass')")
    rows = []
    for line in lines[1:]:
        cell, pos, mass = line.split(",")
        rows.append((int(cell), float(pos), float(mass)))
    return family_from_rows(rows)


def _run_distance(cfg: ExperimentConfig) -> None:
    if len(cfg.inputs) != 2:
        raise ValueError("distance experiment needs exactly two input files")
    fam_a = _read_family_csv(cfg.inputs[0])
    fam_b = _read_family_csv(cfg.inputs[1])
    ra, rb = common_cells(fam_a, fam_b)
    value = dbar(ra, rb)
    kio.write_csv(_out(cfg, "results.csv"), ["dbar"], [[value]])
    print(kio.fmt(value))


_RUNNERS = {
    "simulate": _run_simulate,
    "sample_graph": _run_sample_graph,
    "meanfield_particles": _run_meanfield_particles,
    "meanfield_fv": _run_meanfield_fv,
    "picard": _run_picard,
    "convergence_main": _run_convergence_main,
    "convergence_ave": _run_convergence_ave,
    "stability_initial": lambda cfg: _run_stability(cfg, perturb_kernel=False),
    "stability_kernel": lambda cfg: _run_stability(cfg, perturb_kernel=True),
    "distance": _run_distance,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; writes results + manifest, returns exit status.

    An earlier run's manifest is removed first and the new one is written only
    after the experiment has finished, so a run that fails leaves none behind
    to vouch for outputs it did not write.
    """
    cfg.validate()
    (Path(cfg.output_dir) / "manifest.json").unlink(missing_ok=True)
    _RUNNERS[cfg.experiment](cfg)
    kio.write_json(_out(cfg, "manifest.json"), cfg.to_dict())
    return 0


def render(matrix_file, out_path) -> None:
    """Turn a CSV weight matrix into a binary PGM pixel picture."""
    weights = kio.read_matrix_csv(matrix_file)
    graph = WeightedGraph(weights)
    kio.write_pgm(out_path, pixel_picture(graph))


# -- command line ------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config (or manifest) file")
    parser.add_argument("--graphon", help="graphon spec as inline JSON")
    parser.add_argument("--graphon-b", dest="graphon_b",
                        help="second graphon spec (stability_kernel)")
    parser.add_argument("--coupling", help="coupling spec as inline JSON")
    parser.add_argument("--rho0", help="initial density spec as inline JSON")
    parser.add_argument("--omega", help="frequency spec as inline JSON")
    parser.add_argument("--n", help="node/cell count or comma list")
    parser.add_argument("--m", help="particles per cell or comma list")
    parser.add_argument("--T", type=float)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--K", type=float)
    parser.add_argument("--g", type=int, help="phase grid size (finite volumes)")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-iter", dest="max_iter", type=int)
    parser.add_argument("--record-every", dest="record_every", type=int)
    parser.add_argument("--seeds", help="comma-separated seed list")
    parser.add_argument("--sampled", action="store_true", default=None)
    parser.add_argument("--perturbation", type=float)
    parser.add_argument("--render-pgm", dest="render_pgm", action="store_true",
                        default=None)
    parser.add_argument("--output-dir", dest="output_dir")


_JSON_KEYS = ("graphon", "graphon_b", "coupling", "rho0", "omega")
_LIST_KEYS = ("n", "m", "seeds")


def _cli_overrides(args: argparse.Namespace) -> dict:
    raw = {}
    for key, value in vars(args).items():
        if key in ("command", "config", "inputs", "matrix", "out") or value is None:
            continue
        if key in _JSON_KEYS:
            raw[key] = json.loads(value)
        elif key in _LIST_KEYS:
            try:
                nums = [int(p) for p in str(value).split(",") if p]
            except ValueError:
                nums = []
            if not nums:
                raise ValueError(f"--{key} takes an integer or a comma list of "
                                 f"integers (got {value!r})")
            raw[key] = nums if key == "seeds" or len(nums) > 1 else nums[0]
        else:
            raw[key] = value
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kmflow",
        description="coupled oscillators on graphon graphs and their mean-field limit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _add_common(p)
        if name == "distance":
            p.add_argument("inputs", nargs="*", help="two family CSV files")
    p_render = sub.add_parser("render", help="CSV weight matrix -> PGM image")
    p_render.add_argument("matrix", help="CSV matrix file")
    p_render.add_argument("out", help="output PGM path")

    args = parser.parse_args(argv)
    try:
        if args.command == "render":
            render(args.matrix, args.out)
            return 0
        raw = kio.read_json(args.config) if args.config else {}
        raw.update(_cli_overrides(args))
        raw.setdefault("experiment", args.command)
        if raw["experiment"] != args.command:
            raise ValueError(
                f"config names experiment {raw['experiment']!r} but the "
                f"subcommand is {args.command!r}"
            )
        if args.command == "distance" and args.inputs:
            raw["inputs"] = list(args.inputs)
        return run(ExperimentConfig.from_dict(raw))
    except Exception as exc:  # surface a one-line error, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
