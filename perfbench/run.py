"""kmflow benchmark: run one workload for a fixed time and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload particles_vm --seed 0 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count output checks, so error_rate = failed / attempted.  With
``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median of the
set-up probes), ``solve_s`` (lower quartile of the pass times) and
``peak_rss_mib``.  With ``--trace 1`` passes alternate between untraced and
traced, and the metrics are the per-layer ones read from the traced pass
nearest the lower quartile, its self times and the tracing overhead.  Spans
are kept in memory and written to ``perfbench/out/`` at the end.  See
README.md for the workloads and for why ``solve_s`` is a lower quartile.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("particles_vm", "graphs_dense", "picard_custom")
SETUP_PROBES = 5
# The passes run one after another in one process; only BLAS may use more
# than one thread, and it is pinned to at most two (the machine's vCPUs).
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics: "<span name>_s" is the summed duration of those spans in
# one pass; "self.<layer>_s" the layer's self time; the rest are counters.
PER_LAYER = {
    "import.kmflow_s": "s",
    "import.scipy_modules": "count",
    "graphon.cell_average_s": "s",
    "graphs.deterministic_graph_s": "s",
    "graphs.sample_w_random_s": "s",
    "graphs.pairs_sampled": "count",
    "graphs.edges_kept": "count",
    "dynamics.integrate_s": "s",
    "dynamics.rk4_steps": "count",
    "dynamics.rhs_evals": "count",
    "dynamics.rhs_s": "s",
    "dynamics.rhs_bytes_computed": "bytes",
    "measures.initial_family.quantile_s": "s",
    "measures.initial_family.iid_s": "s",
    "measures.atoms_placed": "count",
    "measures.empirical_from_phases_s": "s",
    "measures.families_built": "count",
    "measures.dbar_s": "s",
    "measures.dbar_calls": "count",
    "measures.cell_distances": "count",
    "measures.d_alpha_s": "s",
    "meanfield.evolve_family.sine_s": "s",
    "meanfield.evolve_family.custom_s": "s",
    "meanfield.solve_fv_s": "s",
    "meanfield.fv_steps": "count",
    "meanfield.weak_residual_s": "s",
    "meanfield.picard_solve.sine_s": "s",
    "meanfield.picard_solve.custom_s": "s",
    "meanfield.picard_sweeps": "count",
    "meanfield.picard_converged": "ratio",
    "meanfield.stability_s": "s",
    "io.write_csv_s": "s",
    "io.bytes_written": "bytes",
    "self.graphon_s": "s",
    "self.graphs_s": "s",
    "self.dynamics_s": "s",
    "self.measures_s": "s",
    "self.meanfield_s": "s",
    "self.io_s": "s",
    "self.unattributed_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def lower_quartile(times: list[float]) -> float:
    """Lower quartile of the pass times: on a shared host the slow periods
    only add time, and they move a quartile less than the median."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[0]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> dict:
    """Start a fresh interpreter that imports kmflow and makes the inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(probe["kmflow"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up probe imported kmflow from {probe['kmflow']}")
    probe["setup_s"] = probe["ready"] - started
    return probe


def run_passes(workload, inputs, expected, invariants, seconds, trace, km, probe):
    """Passes back to back until another, with the set-up probes still due,
    would overrun ``seconds``.

    A set-up probe runs before each of the first ``SETUP_PROBES`` passes, so
    set-up samples are spread over the run like the passes are; if the run
    ends sooner, the remaining probes follow the last pass.  With
    tracing, untraced and traced passes alternate and each kind runs once at
    least.  Returns pass times, traced-pass records, set-up samples and the
    check results."""
    import checks
    import spans
    import workloads

    run = SimpleNamespace(plain=[], traced=[], records=[], setup=[], attempted=0,
                          failures=[])
    start = time.perf_counter()
    while True:
        if len(run.setup) < SETUP_PROBES:
            run.setup.append(probe())
        tracer = spans.Tracer() if trace and len(run.traced) < len(run.plain) else None
        t0 = time.perf_counter()
        saved = spans.install(tracer, km) if tracer else None
        try:
            outputs = workloads.run_pass(workload, inputs, OUT_DIR / workload)
        except Exception:  # the pass still counts: its checks fail, its time stays
            traceback.print_exc()
            outputs = None
        finally:
            if saved:
                spans.restore(saved)
        failed = checks.evaluate(outputs, expected, invariants)
        elapsed = time.perf_counter() - t0
        run.attempted += len(expected) + len(invariants)
        run.failures += failed
        if tracer:
            run.traced.append(elapsed)
            run.records.append({"solve_s": elapsed, "tracer": tracer})
        else:
            run.plain.append(elapsed)
        if trace and not (run.plain and run.traced):
            continue
        still_to_run = (statistics.median(run.plain + run.traced)
                        + (SETUP_PROBES - len(run.setup))
                        * statistics.median(p["setup_s"] for p in run.setup))
        if time.perf_counter() - start + still_to_run > seconds:
            break
    while len(run.setup) < SETUP_PROBES:
        run.setup.append(probe())
    return run


def pass_layer_metrics(record: dict) -> dict:
    import spans

    tracer = record["tracer"]
    totals = spans.span_totals(tracer.spans)
    counts = tracer.counts
    out = {}
    for name, unit in PER_LAYER.items():
        if name.startswith(("import.", "trace.", "self.")):
            continue
        out[name] = totals.get(name[:-2], 0.0) if unit == "s" else counts.get(name, 0)
    solves = counts.get("meanfield.picard_solves", 0)
    out["meanfield.picard_converged"] = (
        counts.get("meanfield.picard_converged_solves", 0) / solves if solves else 0.0)
    for layer, seconds in spans.layer_self_times(tracer.spans).items():
        out[f"self.{layer}_s"] = seconds
    roots = [(s, e) for _, s, e, parent in tracer.spans if parent < 0]
    out["self.unattributed_s"] = record["solve_s"] - spans.covered(
        roots, float("-inf"), float("inf"))
    out["trace.spans"] = len(tracer.spans)
    return out


def write_spans(workload: str, seed: int, records: list[dict]) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    payload = {
        "workload": workload,
        "seed": seed,
        "fields": ["name", "start_s", "end_s", "parent"],
        "passes": [{"solve_s": r["solve_s"], "spans": r["tracer"].spans} for r in records],
    }
    path.write_text(json.dumps(payload) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kmflow" / "__init__.py").is_file():
        print(f"error: no kmflow sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False

    # Importing here first also writes the bytecode cache the set-up probes use.
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import kmflow
    import workloads
    from kmflow import dynamics, graphon, graphs, io, meanfield, measures

    if not Path(kmflow.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported kmflow from {kmflow.__file__}, not {SRC}")
    km = SimpleNamespace(graphon=graphon, graphs=graphs, dynamics=dynamics,
                         measures=measures, meanfield=meanfield, io=io)
    variant = workloads.variant(args.seed)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    expected = reference["workloads"][args.workload][str(variant)]
    invariants = workloads.INVARIANTS[args.workload]
    inputs = workloads.make_inputs(args.workload, args.seed)

    run = run_passes(args.workload, inputs, expected, invariants, args.seconds,
                     args.trace, km, lambda: setup_probe(args.workload, args.seed))
    failures = run.failures

    print(f"# env: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
          f"BLAS threads {BLAS_THREADS}; workload {args.workload}, seed {args.seed} "
          f"(variant {variant}), {args.seconds:g} s")
    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"# error_rate = {len(failures) / run.attempted:.6g} ratio "
          f"({len(failures)} failed of {run.attempted} checks)")
    if args.trace:
        traced_s = lower_quartile(run.traced)
        layer = pass_layer_metrics(min(run.records, key=lambda r: abs(r["solve_s"] - traced_s)))
        layer["import.kmflow_s"] = statistics.median(p["import_s"] for p in run.setup)
        layer["import.scipy_modules"] = run.setup[-1]["scipy_modules"]
        layer["trace.solve_s"] = traced_s
        layer["trace.overhead_s"] = traced_s - lower_quartile(run.plain)
        values = {name: (layer[name], unit) for name, unit in PER_LAYER.items()}
        spans_file = write_spans(args.workload, args.seed, run.records)
        print(f"# {len(run.traced)} traced and {len(run.plain)} untraced passes; spans in "
              f"{spans_file.relative_to(BENCH_DIR.parent)}")
    else:
        values = {
            "setup_s": (statistics.median(p["setup_s"] for p in run.setup), "s"),
            "solve_s": (lower_quartile(run.plain), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        setups = ", ".join(f"{p['setup_s']:.3f}" for p in run.setup)
        passes = ", ".join(f"{t:.3f}" for t in run.plain)
        print(f"# setup_s: median of {len(run.setup)} fresh interpreters ({setups}); "
              f"solve_s: lower quartile of {len(run.plain)} passes ({passes})")
    for name, (value, unit) in values.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": run.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
