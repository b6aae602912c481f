"""Tests of the benchmark itself: output checks, span arithmetic, hooks.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kmflow import dynamics, graphon, graphs, io, meanfield, measures  # noqa: E402

KM = SimpleNamespace(graphon=graphon, graphs=graphs, dynamics=dynamics,
                     measures=measures, meanfield=meanfield, io=io)


def _recorded(workload="picard_custom", variant="0"):
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    return reference["workloads"][workload][variant]


def _good_outputs(expected):
    outputs = dict(expected)
    outputs.update({"picard.sine.max_ratio": 0.1, "picard.custom.max_ratio": 0.1,
                    "stability.measured_over_bound": 0.01})
    return outputs


def _error_rate(monkeypatch, outputs):
    expected = _recorded()
    monkeypatch.setattr(workloads, "run_pass", lambda *args: dict(outputs))
    result = run.run_passes(
        "picard_custom", None, expected, workloads.INVARIANTS["picard_custom"],
        seconds=0.0, trace=0, km=KM, probe=lambda: {"setup_s": 0.0})
    return len(result.failures) / result.attempted


def test_recorded_outputs_pass_every_check(monkeypatch):
    assert _error_rate(monkeypatch, _good_outputs(_recorded())) == 0.0


@pytest.mark.parametrize("key, value", [
    ("stability.measured", lambda v: v * (1 + 1e-5)),         # float beyond tolerance
    ("picard.custom.iterations", lambda v: v + 1),             # exact count
    ("picard.sine.converged", lambda v: not v),                # flag
    ("csv.round_trip", lambda v: False),                       # written file differs
    ("picard.custom.max_ratio", lambda v: 1.0),                # invariant: contraction
    ("stability.measured_over_bound", lambda v: 1.5),          # invariant: bound holds
])
def test_perturbed_output_raises_error_rate(monkeypatch, key, value):
    outputs = _good_outputs(_recorded())
    outputs[key] = value(outputs[key])
    expected = _recorded()
    attempted = len(expected) + len(workloads.INVARIANTS["picard_custom"])
    assert _error_rate(monkeypatch, outputs) == pytest.approx(1 / attempted)


def test_round_off_drift_is_admitted():
    expected = _recorded("particles_vm")
    outputs = {k: v + 4e-12 if isinstance(v, float) else v for k, v in expected.items()}
    outputs["fv.mass_drift"] = 0.0
    assert checks.evaluate(outputs, expected, workloads.INVARIANTS["particles_vm"]) == []


def test_changed_graph_hash_fails():
    expected = _recorded("graphs_dense")
    outputs = dict(expected, **{"n1024.adjacency_sha256": "0" * 64})
    assert len(checks.evaluate(outputs, expected, {})) == 1


def test_raised_pass_fails_every_check():
    expected = _recorded()
    invariants = workloads.INVARIANTS["picard_custom"]
    assert len(checks.evaluate(None, expected, invariants)) == len(expected) + len(invariants)


def test_self_times_exact_on_synthetic_tree():
    tree = [
        ["meanfield.a", 0.0, 16.0, -1],
        ["dynamics.b", 1.0, 5.0, 0],
        ["dynamics.c", 4.0, 9.0, 0],     # overlaps b: the union [1, 9] is covered once
        ["measures.d", 12.0, 14.0, 0],
        ["dynamics.e", 2.0, 3.0, 1],
        ["io.f", 13.0, 20.0, 3],         # runs past its parent: clipped to [13, 14]
        ["graphs.g", 30.0, 32.5, -1],
    ]
    assert spans.self_times(tree) == [6.0, 3.0, 5.0, 1.0, 1.0, 7.0, 2.5]
    assert spans.layer_self_times(tree) == {
        "graphon": 0.0, "graphs": 2.5, "dynamics": 9.0, "measures": 1.0,
        "meanfield": 6.0, "io": 7.0}
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) == 3.0


def test_lower_quartile_of_pass_times():
    assert run.lower_quartile([2.0]) == 2.0
    assert run.lower_quartile([1.0, 2.0]) == 1.25
    assert run.lower_quartile([5.0, 1.0, 4.0, 2.0, 3.0]) == 2.0


def test_tracer_records_parents():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.call("outer", lambda: tracer.call("inner", lambda: None, (), {}), (), {})
    assert tracer.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]


def test_hooks_nest_and_restore():
    originals = (dynamics.integrate, meanfield.dbar, measures.dbar,
                 meanfield.BlockOscillatorSystem.rhs_phases)
    tracer = spans.Tracer()
    saved = spans.install(tracer, KM)
    try:
        spec = meanfield.VelocityFieldSpec(
            graphon.Graphon.constant(0.5).cell_average(2), dynamics.CouplingFunction.sine())
        family = measures.initial_family(measures.Uniform(), 2, 3)
        traj = meanfield.evolve_family(spec, family, 0.02, 0.01)
        measures.dbar(traj.final_family, family)
    finally:
        spans.restore(saved)
    assert (dynamics.integrate, meanfield.dbar, measures.dbar,
            meanfield.BlockOscillatorSystem.rhs_phases) == originals
    names = [s[0] for s in tracer.spans]
    parent = {i: s[3] for i, s in enumerate(tracer.spans)}
    rhs = names.index("dynamics.rhs")
    integrate = parent[rhs]
    assert names[integrate] == "dynamics.integrate"
    assert names[parent[integrate]] == "meanfield.evolve_family.sine"
    assert names.count("dynamics.rhs") == tracer.counts["dynamics.rhs_evals"] == 8
    assert tracer.counts["dynamics.rk4_steps"] == 2
    assert tracer.counts["measures.atoms_placed"] == 6
    assert tracer.counts["measures.cell_distances"] == 2
    assert tracer.counts["measures.families_built"] >= 4


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graphs_dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_follow_the_seed():
    a = workloads.make_inputs("graphs_dense", 3)["sizes"][1024]
    b = workloads.make_inputs("graphs_dense", 3)["sizes"][1024]
    c = workloads.make_inputs("graphs_dense", 4)["sizes"][1024]
    assert np.array_equal(a["u0"], b["u0"]) and not np.array_equal(a["u0"], c["u0"])
    assert workloads.make_inputs("particles_vm", 5)["rho0"].mu0 != \
        workloads.make_inputs("particles_vm", 6)["rho0"].mu0
