"""The three benchmark workloads: inputs made from a seed, and one timed pass.

Each workload is a shrunk README experiment run through kmflow's public API,
the way the CLI runs it.  Every call into kmflow goes through a module
attribute (``graphs.sample_w_random``, never a name bound at import), so the
traced run can rebind those names from outside (see ``spans.py``).

A pass returns a flat dict of outputs; ``checks.py`` compares them with the
values recorded in ``reference.json`` and with the invariants below.

Seeds.  The seed selects one of ``VARIANTS`` input variants, ``seed %
VARIANTS``, so that every seed has recorded reference outputs.  The variants
change the inputs but not the amount of work: the mean-field workloads rotate
the von Mises start by ``2*pi*v/VARIANTS`` (a whole number of finite-volume
phase cells), and the graph workload draws its W-random graphs, frequencies
and initial phases from Philox streams keyed by the variant.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from kmflow import dynamics, graphon, graphs, io, meanfield, measures

VARIANTS = 16

TWO_PI = 2.0 * math.pi
T_MEANFIELD = 1.0
T_DENSE = 0.5
DT = 0.01
MU0 = 3.14
KAPPA = 2.0
IID_SEED = 0
# (cells, atoms per cell).  These keep a mean-field pass to a few seconds, so
# a run's lower quartile rests on many passes (see README.md).
PARTICLE_REFERENCE = (16, 64)
PARTICLE_CELLS = 8
PARTICLE_ATOMS = (4, 16)
FV_GRID = 512
PICARD_SINE = (16, 64)
PICARD_CUSTOM = (8, 16)
STABILITY = (16, 64)
DENSE_SIZES = (1024, 4096)
CSV_DENSE_SIZE = 1024

# Output name -> (comparison, limit): invariants every pass must satisfy.
# The limit is the check, so these outputs are not recorded in reference.json.
INVARIANTS = {
    "particles_vm": {"fv.mass_drift": ("<=", 1e-12)},
    "graphs_dense": {},
    "picard_custom": {
        "picard.sine.max_ratio": ("<", 1.0),
        "picard.custom.max_ratio": ("<", 1.0),
        "stability.measured_over_bound": ("<=", 1.0),
    },
}


def variant(seed: int) -> int:
    return seed % VARIANTS


def _rotated_start(seed: int) -> measures.VonMises:
    mu0 = math.fmod(MU0 + TWO_PI * variant(seed) / VARIANTS, TWO_PI)
    return measures.VonMises(KAPPA, mu0)


def _coupling_custom(u):
    return 0.5 * np.sin(u) + 0.25 * np.sin(2.0 * u)


def make_inputs(name: str, seed: int) -> dict:
    """Everything a pass needs that does not depend on timing: specs and arrays."""
    if name == "particles_vm":
        return {
            "kernel": graphon.Graphon.small_world(0.1, 0.25),
            "coupling": dynamics.CouplingFunction.sine(),
            "rho0": _rotated_start(seed),
        }
    if name == "graphs_dense":
        v = variant(seed)
        per_size = {}
        for n in DENSE_SIZES:
            rng = np.random.Generator(
                np.random.Philox(key=[np.uint64(v), np.uint64(n)]))
            per_size[n] = {
                "u0": rng.uniform(0.0, TWO_PI, n),
                "omega": dynamics.omega_from_spec(
                    {"kind": "normal", "mean": 0.0, "sd": 1.0, "seed": v}, n),
                "graph_seed": v,
            }
        return {
            "kernel": graphon.Graphon.small_world(0.1, 0.25),
            "coupling": dynamics.CouplingFunction.sine(),
            "sizes": per_size,
        }
    if name == "picard_custom":
        return {
            "kernel": graphon.Graphon.small_world(0.1, 0.25),
            "kernel_b": graphon.Graphon.small_world(0.15, 0.25),
            "sine_shift": dynamics.CouplingFunction.sine_shift(0.3),
            "custom": dynamics.CouplingFunction.custom(_coupling_custom),
            "rho0": _rotated_start(seed),
        }
    raise ValueError(f"unknown workload {name!r}")


def run_pass(name: str, inputs: dict, out_dir: Path) -> dict:
    """One full pass of a workload; returns its outputs for checking."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return _PASSES[name](inputs, out_dir)


def _particles_vm(inp: dict, out_dir: Path) -> dict:
    W, D, rho0 = inp["kernel"], inp["coupling"], inp["rho0"]
    ref_n, ref_m = PARTICLE_REFERENCE
    spec_ref = meanfield.VelocityFieldSpec(W.cell_average(ref_n), D)
    spec = meanfield.VelocityFieldSpec(W.cell_average(PARTICLE_CELLS), D)
    ref = meanfield.solve_particles(spec_ref, rho0, ref_n, ref_m, T_MEANFIELD, DT)
    out = {}
    for m in PARTICLE_ATOMS:
        traj = meanfield.solve_particles(spec, rho0, PARTICLE_CELLS, m, T_MEANFIELD, DT)
        out[f"sup_dbar.m{m}"] = measures.sup_dbar(traj, ref)
    field0 = meanfield.density_field_from_spec(rho0, ref_n, FV_GRID)
    fv = meanfield.solve_fv(spec_ref, field0, T_MEANFIELD, DT)
    drift = fv.final_field.cell_masses() - field0.cell_masses()
    out["fv.mass_drift"] = float(np.max(np.abs(drift)))
    out["fv.weak_residual"] = meanfield.weak_residual(fv, spec_ref)
    fv_family = meanfield.quantile_family_from_density(fv.final_field, ref_m)
    out["fv.dbar_to_particles"] = measures.dbar(fv_family, ref.final_family)
    out.update(_write_family(out_dir / "particles_vm_final.csv", ref.final_family))
    return out


def _graphs_dense(inp: dict, out_dir: Path) -> dict:
    W, D = inp["kernel"], inp["coupling"]
    out = {}
    for n, per in inp["sizes"].items():
        det = graphs.deterministic_graph(W, n)
        rnd = graphs.sample_w_random(W, n, per["graph_seed"])
        adjacency = rnd.weights != 0.0
        out[f"n{n}.adjacency_sha256"] = hashlib.sha256(
            np.packbits(adjacency).tobytes()).hexdigest()
        out[f"n{n}.edges"] = int(
            (np.count_nonzero(adjacency) + np.count_nonzero(np.diagonal(adjacency))) // 2)
        out[f"n{n}.deterministic_weight_sum"] = float(det.weights.sum())
        del adjacency
        det_run = _integrate_dense(det, D, per)
        rnd_run = _integrate_dense(rnd, D, per)
        out[f"n{n}.sup_norm_1n"] = dynamics.sup_norm_1n(det_run, rnd_run)
        out[f"n{n}.r_deterministic"] = dynamics.order_parameter(det_run.final_state)[0]
        out[f"n{n}.r_sampled"] = dynamics.order_parameter(rnd_run.final_state)[0]
        if n == CSV_DENSE_SIZE:
            out.update(_write_trajectory(out_dir / "graphs_dense_n1024.csv", rnd_run))
        del det, rnd, det_run, rnd_run
    return out


def _integrate_dense(graph, coupling, per: dict):
    system = dynamics.OscillatorSystem(graph, coupling, omega=per["omega"])
    return dynamics.integrate(system, dynamics.PhaseState(per["u0"]), T_DENSE, DT,
                              record_every=10)


def _picard_custom(inp: dict, out_dir: Path) -> dict:
    W, rho0 = inp["kernel"], inp["rho0"]
    out = {}
    n, m = PICARD_SINE
    spec_sine = meanfield.VelocityFieldSpec(W.cell_average(n), inp["sine_shift"])
    family = measures.initial_family(rho0, n, m, mode="iid", seed=IID_SEED)
    _, report = meanfield.picard_solve(spec_sine, family, T_MEANFIELD, DT,
                                       alpha=3.0, tol=1e-4)
    out.update(_picard_outputs("picard.sine", report))

    n, m = PICARD_CUSTOM
    spec_custom = meanfield.VelocityFieldSpec(W.cell_average(n), inp["custom"])
    family = measures.initial_family(rho0, n, m, mode="iid", seed=IID_SEED)
    fixed_point, report = meanfield.picard_solve(spec_custom, family, T_MEANFIELD,
                                                 DT, alpha=3.0, tol=1e-4)
    out.update(_picard_outputs("picard.custom", report))
    particles = meanfield.evolve_family(spec_custom, family, T_MEANFIELD, DT)
    out["custom.particles_vs_picard_dbar"] = measures.dbar(
        particles.final_family, fixed_point.final_family)

    n, m = STABILITY
    family = measures.initial_family(rho0, n, m, mode="iid", seed=IID_SEED)
    stability = meanfield.stability_experiments(meanfield.StabilityConfig(
        graphon_a=W, graphon_b=inp["kernel_b"], n=n, m=m, T=T_MEANFIELD,
        dt=DT, family_a=family))
    out["stability.measured"] = stability["measured"]
    out["stability.bound"] = stability["bound"]
    out["stability.measured_over_bound"] = stability["measured"] / stability["bound"]
    out.update(_write_family(out_dir / "picard_custom_final.csv",
                             fixed_point.final_family))
    return out


def _picard_outputs(prefix: str, report: dict) -> dict:
    ratios = report["contraction_ratios"]
    return {
        f"{prefix}.iterations": int(report["iterations"]),
        f"{prefix}.converged": bool(report["converged"]),
        f"{prefix}.final_d_alpha": float(report["d_alpha"][-1]),
        f"{prefix}.max_ratio": max(ratios) if ratios else math.inf,
    }


def _write_family(path: Path, family) -> dict:
    """Write a family CSV the way the CLI does, then read it back."""
    io.write_csv(path, ["cell", "position", "mass"], measures.family_to_rows(family))
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    expected = np.array(list(measures.family_to_rows(family)), dtype=float)
    return {
        "csv.rows": int(table.shape[0]),
        "csv.round_trip": bool(np.array_equal(table, expected)),
    }


def _write_trajectory(path: Path, traj) -> dict:
    """Write a trajectory CSV (columns t, u_1..u_n, r, psi), then read it back."""
    wrapped = traj.wrapped_phases()
    rows = []
    for k, t in enumerate(traj.times):
        r, psi = dynamics.order_parameter(wrapped[k])
        rows.append([float(t), *map(float, wrapped[k]), r, psi])
    header = ["t"] + [f"u_{i + 1}" for i in range(traj.n)] + ["r", "psi"]
    io.write_csv(path, header, rows)
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {
        "csv.rows": int(table.shape[0]),
        "csv.round_trip": bool(np.array_equal(table, np.array(rows))),
    }


_PASSES = {
    "particles_vm": _particles_vm,
    "graphs_dense": _graphs_dense,
    "picard_custom": _picard_custom,
}
