"""Experiment runner: configuration parsing, convergence studies, file I/O.

Every run that finishes writes a ``manifest.json`` holding the fully resolved
configuration (defaults included), so re-running from a manifest reproduces
the outputs byte for byte.  Numeric CSV output uses 17 significant digits.

``ExperimentConfig.validate`` is the one place a run's settings are checked
and its inputs built; ``EXPERIMENTS`` gives each experiment its runner, the
keys it reads and the lists it sweeps.  :func:`run` calls it once and hands
the built inputs to the runner, so every config error is raised before the
output directory is touched.

Every ``ExperimentConfig`` key but ``experiment`` and ``inputs`` is also a
flag on every subcommand, spelled with dashes; its ``--help`` is what
``_CHECKS`` says its value must be, and its text is read by the key's kind
(:func:`_flag_value`), a malformed one being an error that names the flag.

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
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import io as kio
from . import meanfield as mf
from .dynamics import (
    CouplingFunction,
    OscillatorSystem,
    PhaseState,
    norm_1n,
    omega_from_spec,
    order_parameter,
    pairwise_gap,
    recorded_states,
    time_grid,
)
from .graphon import MAX_NODES, Graphon, _check_nodes, _common_resolution, _is_integer, _is_real
from .graphs import (
    WeightedGraph,
    _edge_probabilities,
    _sample,
    pixel_picture,
)
from .measures import (
    MeasureFamily,
    dbar,
    density_from_dict,
    family_from_rows,
    family_to_rows,
    initial_family,
    wrap_angle,
)

MAX_PARTICLES = 2**20

_COUNT = (lambda v: _is_integer(v, 1), "a positive integer")
_COUNTS = (lambda v: v != [] and all(_is_integer(x, 1) for x in
                                     (v if isinstance(v, list) else [v])),
           "a positive integer or a list of them")
_SEED = (lambda v: _is_integer(v, 0, 2**64), "an integer in [0, 2**64)")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
# Scalar and list keys -> (test, what the error and the flag's --help say a
# value must be).  A key whose default is None may also stay None.
_CHECKS = {
    "n": _COUNTS, "m": _COUNTS,
    "ref_n": _COUNT, "ref_m": _COUNT, "g": _COUNT, "max_iter": _COUNT,
    "record_every": _COUNT, "kernel_resolution": _COUNT,
    "T": (lambda v: _is_real(v) and v >= 0.0, "a finite number >= 0"),
    "dt": (lambda v: _is_real(v) and v > 0.0, "a finite number > 0"),
    "perturbation": (lambda v: _is_real(v) and v >= 0.0, "a finite number >= 0"),
    "tol": (lambda v: _is_real(v) and v > 0.0, "a finite number > 0"),
    "alpha": (lambda v: _is_real(v) and v > 2.0, "a finite number > 2"),
    "K": (_is_real, "a finite number"),
    "seeds": (lambda v: isinstance(v, list) and all(_is_integer(x, 0, 2**64) for x in v),
              "a list of integers in [0, 2**64)"),
    "init_seed": _SEED, "perturbation_seed": _SEED,
    "sampled": _FLAG, "render_pgm": _FLAG,
    "init_mode": (lambda v: v in ("quantile", "iid"), "'quantile' or 'iid'"),
    "inputs": (lambda v: isinstance(v, list) and all(isinstance(p, str) for p in v),
               "a list of file paths"),
    "output_dir": (lambda v: isinstance(v, str), "a directory path"),
}


def _frequencies(spec: dict):
    """The ``omega`` spec as n -> frequencies, its fields checked now."""
    omega_from_spec(spec, 1)
    return functools.partial(omega_from_spec, spec)


# JSON-valued keys -> the constructor that turns the spec into the object its
# runner takes.
_SPEC_KEYS = {
    "graphon": Graphon.from_dict,
    "graphon_b": Graphon.from_dict,
    "coupling": CouplingFunction.from_dict,
    "rho0": density_from_dict,
    "omega": _frequencies,
}


@dataclass
class ExperimentConfig:
    experiment: str
    graphon: dict | None = None
    graphon_b: dict | None = None
    coupling: dict = field(default_factory=lambda: {"kind": "sine"})
    rho0: dict = field(default_factory=lambda: {"kind": "uniform"})
    omega: dict = field(default_factory=lambda: {"kind": "zero"})
    n: int | list | None = None  # a list where the experiment sweeps n
    m: int | list | None = None  # a list where the experiment sweeps m
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
        """The config a dict names; its settings are checked by :meth:`validate`."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "experiment" not in raw:
            raise ValueError("config must name an experiment")
        return cls(**raw)

    def validate(self) -> dict:
        """Check every setting and build the experiment's inputs.

        Returns the keyword arguments of the experiment's runner: the objects
        its JSON specs describe (for ``meanfield_fv``, ``rho0`` is its start
        field on the phase grid), ``n``/``m`` (a list for the counts it
        sweeps, an int otherwise), ``convergence_main``'s reference sizes as
        ``ref`` and ``distance``'s two families.  An experiment that builds
        graphs takes, in place of ``graphon``, its cell averages at each entry
        of n as ``averages``, checked as edge probabilities where it samples.
        A bad setting raises ValueError naming its key or file.
        """
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; pick one of "
                             f"{', '.join(EXPERIMENTS)}")
        entry = EXPERIMENTS[self.experiment]
        defaults = ExperimentConfig(self.experiment)
        for key, (valid, what) in _CHECKS.items():
            value = getattr(self, key)
            if value is None and getattr(defaults, key) is None:
                continue
            if not valid(value):
                raise ValueError(f"{key!r} must be {what} (got {value!r})")
        read = {"experiment", "output_dir", *entry.reads}
        unread = sorted(f.name for f in dataclasses.fields(self)
                        if f.name not in read
                        and getattr(self, f.name) != getattr(defaults, f.name))
        if unread:
            raise ValueError(f"{self.experiment} does not use " + ", ".join(
                f"{key!r} (got {getattr(self, key)!r}, must keep its default "
                f"{getattr(defaults, key)!r})" for key in unread))
        if self.init_mode == "iid" and self.init_seed is None:
            raise ValueError("init_mode 'iid' needs an 'init_seed'")
        if self.init_mode != "iid" and self.init_seed is not None:
            raise ValueError(f"'init_seed' needs init_mode 'iid' (got init_seed "
                             f"{self.init_seed!r} with init_mode {self.init_mode!r})")
        if "seeds" not in entry.sweeps and len(self.seeds) > 1:
            raise ValueError(f"{self.experiment} takes a single 'seeds' entry "
                             f"(got {self.seeds!r})")
        if self.seeds and self.perturbation_seed != defaults.perturbation_seed:
            raise ValueError(f"'perturbation_seed' is not used with 'seeds' (got "
                             f"perturbation_seed {self.perturbation_seed!r} with seeds "
                             f"{self.seeds!r})")
        inputs, counts = {}, {}
        for key in [key for key in (*_SPEC_KEYS, "n", "m") if key in read]:
            value = getattr(self, key)
            if value is None:
                raise ValueError(f"experiment {self.experiment!r} needs the {key!r} key")
            if key in _SPEC_KEYS:
                inputs[key] = _build_spec(key, value)
                continue
            counts[key] = value if isinstance(value, list) else [value]
            if key not in entry.sweeps and len(counts[key]) != 1:
                raise ValueError(f"{self.experiment} takes a single {key!r} "
                                 f"(got {value!r})")
            inputs[key] = counts[key] if key in entry.sweeps else counts[key][0]
        sizes = [("", n, m) for n in counts.get("n", []) for m in counts.get("m", [1])]
        if self.experiment == "convergence_main":
            low_n, low_m = 2 * max(counts["n"]), 4 * max(counts["m"])
            inputs["ref"] = ref = (self.ref_n or low_n, self.ref_m or low_m)
            if ref[0] < low_n or ref[1] < low_m:
                raise ValueError(
                    f"the reference must satisfy ref_n >= 2*max(n) = {low_n} and "
                    f"ref_m >= 4*max(m) = {low_m} (got {ref[0]} and {ref[1]})")
            sizes.append(("ref_", *ref))
        for p, n, m in sizes:
            if n > MAX_NODES or n * m > MAX_PARTICLES:
                raise ValueError(f"capacity exceeded: {p}n = {n} (at most {MAX_NODES}), "
                                 f"{p}n*{p}m = {n * m} (at most {MAX_PARTICLES})")
        frames = len(time_grid(self.T, self.dt))  # checks the step count
        if self.experiment == "picard":
            mf.check_picard_capacity(frames, inputs["n"] * inputs["m"])
        if self.experiment in ("simulate", "sample_graph", "convergence_ave"):
            # the runner's graphs are, or are sampled from, these averages
            kernel = inputs.pop("graphon")
            average = (Graphon.cell_average if self.experiment == "simulate"
                       and not self.sampled else _edge_probabilities)
            inputs["averages"] = [average(kernel, cells) for cells in counts["n"]]
        if self.experiment == "meanfield_fv":
            if (phase_cells := inputs["n"] * self.g) > MAX_PARTICLES:
                raise ValueError(f"capacity exceeded: n*g = {inputs['n']}*{self.g} = "
                                 f"{phase_cells} phase cells (at most {MAX_PARTICLES})")
            mf.check_cfl(self.dt, self.g)
            # the runner starts from this field, so a rho0 without a density
            # is rejected here
            try:
                inputs["rho0"] = mf.density_field_from_spec(inputs["rho0"],
                                                            inputs["n"], self.g)
            except ValueError as exc:
                raise ValueError(f"{exc} in the 'rho0' spec {self.rho0!r}") from None
        if self.experiment == "stability_kernel":
            # the size check of kernel_distance's refinement grid
            _check_nodes(_common_resolution(inputs["graphon"], inputs["graphon_b"],
                                            self.kernel_resolution))
        if self.experiment == "distance":
            if len(self.inputs) != 2:
                raise ValueError(f"'inputs' must name two family CSV files "
                                 f"(got {self.inputs!r})")
            inputs["families"] = [_read_family_csv(path) for path in self.inputs]
        return inputs

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _build_spec(key: str, spec):
    if not isinstance(spec, dict):
        raise ValueError(f"the {key!r} spec must be a JSON object (got {spec!r})")
    try:
        return _SPEC_KEYS[key](spec)
    except KeyError as exc:
        raise ValueError(f"the {key!r} spec {spec!r} lacks the field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{exc} in the {key!r} spec {spec!r}") from None


def _read_config(path) -> dict:
    try:
        raw = kio.read_json(path)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object "
                         f"(got {type(raw).__name__})")
    return raw


def _read_family_csv(path) -> MeasureFamily:
    lines = Path(path).read_text().strip().splitlines()
    try:
        if not lines or lines[0].strip() != "cell,position,mass":
            raise ValueError("not a family CSV (expected header 'cell,position,mass')")
        return family_from_rows((line.split(",") for line in lines[1:]), first_line=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# -- individual experiments --------------------------------------------------
# Each runner takes the config, for its plain settings, and by keyword the
# inputs ``validate`` built for it.


def _out(cfg: ExperimentConfig, name: str) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _initial_phases(n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(2**32)]))
    return rng.uniform(0.0, 2.0 * math.pi, n)


def _run_simulate(cfg: ExperimentConfig, coupling, omega, n, averages) -> None:
    seed = cfg.seeds[0] if cfg.seeds else 0
    graph = _sample(averages[0], seed) if cfg.sampled else averages[0]
    system = OscillatorSystem(graph, coupling, K=cfg.K, omega=omega(n))
    states = recorded_states(system, PhaseState(_initial_phases(n, seed)), cfg.T,
                             cfg.dt, cfg.record_every)
    # each row is written as its frame arrives; no trajectory is stored
    wrapped = ((t, wrap_angle(u)) for t, u in states)
    header = ["t"] + [f"u_{i + 1}" for i in range(n)] + ["r", "psi"]
    kio.write_csv(_out(cfg, "results.csv"), header,
                  ([float(t), *map(float, u), *order_parameter(u)] for t, u in wrapped))


def _run_sample_graph(cfg: ExperimentConfig, n, averages) -> None:
    graph = _sample(averages[0], cfg.seeds[0] if cfg.seeds else 0)
    kio.write_matrix_csv(_out(cfg, "results.csv"), graph.weights)
    if cfg.render_pgm:
        kio.write_pgm(_out(cfg, "graph.pgm"), pixel_picture(graph))


def _spec(graphon: Graphon, coupling: CouplingFunction, n: int) -> mf.VelocityFieldSpec:
    return mf.VelocityFieldSpec(graphon.cell_average(n), coupling)


def _run_meanfield_particles(cfg: ExperimentConfig, graphon, coupling, rho0,
                             n, m) -> None:
    family0 = initial_family(rho0, n, m, mode=cfg.init_mode, seed=cfg.init_seed)
    # each drift row is taken as its frame arrives; only the first frame and
    # the current one are held
    drift, first = [], None
    for t, family in mf.particle_frames(_spec(graphon, coupling, n), family0,
                                        cfg.T, cfg.dt, cfg.record_every):
        first = family if first is None else first
        drift.append([float(t), dbar(family, first)])
    kio.write_csv(_out(cfg, "results.csv"), ["cell", "position", "mass"],
                  family_to_rows(family))
    kio.write_csv(_out(cfg, "drift.csv"), ["t", "dbar_to_initial"], drift)


def _run_meanfield_fv(cfg: ExperimentConfig, graphon, coupling, rho0, n) -> None:
    # only the final field is written, so record t = 0 and T alone
    traj = mf.solve_fv(_spec(graphon, coupling, n), rho0, cfg.T, cfg.dt,
                       record_every=sys.maxsize)
    rows = ([i, k, float(v)] for (i, k), v in np.ndenumerate(traj.final_field.values))
    kio.write_csv(_out(cfg, "results.csv"), ["cell", "u_index", "value"], rows)


def _run_picard(cfg: ExperimentConfig, graphon, coupling, rho0, n, m) -> None:
    family0 = initial_family(rho0, n, m, mode=cfg.init_mode, seed=cfg.init_seed)
    traj, report = mf.picard_solve(_spec(graphon, coupling, n), family0, cfg.T,
                                   cfg.dt, alpha=cfg.alpha, tol=cfg.tol,
                                   max_iter=cfg.max_iter)
    kio.write_csv(_out(cfg, "results.csv"), ["cell", "position", "mass"],
                  family_to_rows(traj.final_family))
    kio.write_json(_out(cfg, "iteration_report.json"), report)


def _run_convergence_main(cfg: ExperimentConfig, graphon, coupling, rho0,
                          n, m, ref) -> None:
    def frames(cells, atoms, spec):
        return mf.particle_frames(spec, initial_family(rho0, cells, atoms), cfg.T,
                                  cfg.dt, cfg.record_every)

    pairs = [(cells, atoms) for cells in n for atoms in m]
    specs = {cells: _spec(graphon, coupling, cells) for cells in n}
    runs = [frames(cells, atoms, specs[cells]) for cells, atoms in pairs]
    # the reference and every run advance together, each holding its
    # current frame and its running max of dbar
    sup = [0.0] * len(pairs)
    for (_, reference), *current in zip(frames(*ref, _spec(graphon, coupling, ref[0])),
                                        *runs):
        for k, (_, family) in enumerate(current):
            sup[k] = max(sup[k], dbar(family, reference))
    rows = [[cells, atoms, d] for (cells, atoms), d in zip(pairs, sup)]
    kio.write_csv(_out(cfg, "results.csv"), ["n", "m", "sup_dbar"], rows)


def _run_convergence_ave(cfg: ExperimentConfig, coupling, omega, n, averages) -> None:
    rows = []
    warned = False
    for cells in n:
        # each average is dropped once its seeds have run
        det = averages.pop(0)
        frequencies = omega(cells)
        for seed in cfg.seeds or [0]:
            u0 = PhaseState(_initial_phases(cells, seed))
            base, rand = (recorded_states(OscillatorSystem(graph, coupling, K=cfg.K,
                                                           omega=frequencies),
                                          u0, cfg.T, cfg.dt, cfg.record_every)
                          for graph in (det, _sample(det, seed)))
            # the two runs advance together, keeping running maxima only
            sup_norm = gap = 0.0
            for (_, x), (_, y) in zip(base, rand):
                sup_norm = max(sup_norm, norm_1n(x, y))
                gap = max(gap, pairwise_gap(x, y))
            if not warned and gap > math.pi:
                print("warning: a pairwise phase difference exceeded pi; the "
                      "unwrapped comparison is chart-dependent", file=sys.stderr)
                warned = True
            rows.append([cells, seed, sup_norm])
    kio.write_csv(_out(cfg, "results.csv"), ["n", "seed", "sup_norm_1n"], rows)


def _perturbed_family(family: MeasureFamily, scale: float, seed: int) -> MeasureFamily:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    noise = rng.uniform(-scale, scale, family.positions.shape)
    return MeasureFamily(family.positions + noise, family.masses)


def _run_stability(cfg: ExperimentConfig, graphon, coupling, rho0, n, m,
                   graphon_b=None) -> None:
    """stability_kernel (given ``graphon_b``) runs one trial with the second
    kernel; stability_initial runs one per seed from a perturbed start."""
    fam_a = initial_family(rho0, n, m, mode=cfg.init_mode, seed=cfg.init_seed)
    if graphon_b is not None:
        trials = [dict(graphon_b=graphon_b, kernel_resolution=cfg.kernel_resolution)]
    else:
        trials = (dict(family_b=_perturbed_family(fam_a, cfg.perturbation, seed))
                  for seed in cfg.seeds or [cfg.perturbation_seed])
    rows = []
    for trial, perturbed in enumerate(trials):
        result = mf.stability_experiments(mf.StabilityConfig(
            graphon_a=graphon, n=n, m=m, T=cfg.T, dt=cfg.dt, coupling=coupling,
            family_a=fam_a, record_every=cfg.record_every, **perturbed))
        rows.append([trial, result["measured"], result["bound"],
                     "pass" if result["passed"] else "fail"])
    kio.write_csv(_out(cfg, "results.csv"),
                  ["trial", "measured", "bound", "status"], rows)
    failures = [r for r in rows if r[3] == "fail"]
    if failures:
        raise RuntimeError(f"{len(failures)} stability trial(s) exceeded the bound")


def _run_distance(cfg: ExperimentConfig, families) -> None:
    value = dbar(*families)
    kio.write_csv(_out(cfg, "results.csv"), ["dbar"], [[value]])
    print(kio.fmt(value))


class _Experiment(NamedTuple):
    run: Callable
    reads: tuple         # the keys it reads, besides experiment and output_dir
    sweeps: tuple = ()   # the lists ("n", "m", "seeds") it runs once per entry


# Any key an experiment does not read, set to a value other than its default,
# is rejected rather than silently ignored; defaults pass, so manifests (which
# hold every key) still replay.  The mean-field solvers run with K = 1 and
# zero frequencies, convergence_main always starts from quantile atoms, and
# meanfield_fv writes only the final field.
_GRAPH = ("graphon", "coupling", "omega", "n", "T", "dt", "K", "record_every", "seeds")
_FIELD = ("graphon", "coupling", "rho0", "n", "T", "dt")
_ATOMS = _FIELD + ("m", "init_mode", "init_seed")
EXPERIMENTS = {
    "simulate": _Experiment(_run_simulate, _GRAPH + ("sampled",)),
    "sample_graph": _Experiment(_run_sample_graph, ("graphon", "n", "seeds",
                                                   "render_pgm")),
    "meanfield_particles": _Experiment(_run_meanfield_particles,
                                       _ATOMS + ("record_every",)),
    "meanfield_fv": _Experiment(_run_meanfield_fv, _FIELD + ("g",)),
    "picard": _Experiment(_run_picard, _ATOMS + ("alpha", "tol", "max_iter")),
    "convergence_main": _Experiment(_run_convergence_main, _FIELD + (
        "m", "ref_n", "ref_m", "record_every"), sweeps=("n", "m")),
    "convergence_ave": _Experiment(_run_convergence_ave, _GRAPH, sweeps=("n", "seeds")),
    "stability_initial": _Experiment(_run_stability, _ATOMS + (
        "record_every", "seeds", "perturbation", "perturbation_seed"), sweeps=("seeds",)),
    "stability_kernel": _Experiment(_run_stability, _ATOMS + (
        "record_every", "graphon_b", "kernel_resolution")),
    "distance": _Experiment(_run_distance, ("inputs",)),
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; writes results + manifest, returns exit status.

    An earlier run's manifest and optional outputs are removed first, and the
    new manifest is written once the experiment has finished, so no manifest
    vouches for outputs its run did not write and no run keeps another's.
    """
    inputs = cfg.validate()
    for name in ("manifest.json", "drift.csv", "iteration_report.json", "graph.pgm"):
        (Path(cfg.output_dir) / name).unlink(missing_ok=True)
    EXPERIMENTS[cfg.experiment].run(cfg, **inputs)
    kio.write_json(_out(cfg, "manifest.json"), cfg.to_dict())
    return 0


def render(matrix_file, out_path) -> None:
    """Turn a CSV weight matrix into a binary PGM pixel picture."""
    matrix = kio.read_matrix_csv(matrix_file)
    try:
        graph = WeightedGraph(matrix)
    except ValueError as exc:
        raise ValueError(f"{matrix_file}: {exc}") from None
    kio.write_pgm(out_path, pixel_picture(graph))


# -- command line ------------------------------------------------------------

_FLAG_FIELDS = [f for f in dataclasses.fields(ExperimentConfig)
                if f.name not in ("experiment", "inputs")]
_NUMBERS = {"int": (int, "an integer"), "float": (float, "a number")}


def _flag_value(f: dataclasses.Field, text):
    """A flag's text as the value of its key: inline JSON for a spec, a comma
    list of integers for a list key (one count stays an int where the key takes
    one), else by the key's annotation; a store_true flag passes True."""
    flag, kinds = "--" + f.name.replace("_", "-"), f.type.split(" | ")
    if f.name in _SPEC_KEYS:
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{flag} is not JSON: {exc} (got {text!r})") from None
    if "list" in kinds:
        try:
            nums = [int(p) for p in text.split(",") if p]
        except ValueError:
            nums = []
        if not nums:
            raise ValueError(f"{flag} takes an integer or a comma list of "
                             f"integers (got {text!r})")
        return nums[0] if "int" in kinds and len(nums) == 1 else nums
    parse, what = _NUMBERS.get(kinds[0], (lambda v: v, None))
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{flag} takes {what} (got {text!r})") from None


def _flag_help(f: dataclasses.Field) -> str:
    if f.name in _SPEC_KEYS:
        return f"the {f.name} spec as inline JSON"
    if f.type == "bool":
        return "set it to true"
    return _CHECKS[f.name][1] + (", comma-separated" if "list" in f.type else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kmflow", description="coupled oscillators "
                                     "on graphon graphs and their mean-field limit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config (or manifest) file")
        for f in _FLAG_FIELDS:
            p.add_argument("--" + f.name.replace("_", "-"), default=None,
                           action="store_true" if f.type == "bool" else "store",
                           help=_flag_help(f))
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
        raw = _read_config(args.config) if args.config else {}
        raw.update({f.name: _flag_value(f, getattr(args, f.name)) for f in _FLAG_FIELDS
                    if getattr(args, f.name) is not None})
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
