"""Write BENCH_<number>.json: the benchmark's end-to-end metrics, Tier-1 and the source size.

Run from anywhere, with the checkout's own interpreter:

    python3 tools/bench_json.py --number N --seeds 0,1,2

For each workload that ``BENCHMARK.json`` declares and each seed, it runs
``perfbench/run.py --trace 0`` in a fresh process, one after another, and
reads the JSON object on the last line of its output.  The file holds, per
workload, the median over the seeds of each end-to-end metric (with every
run's value), the checks failed and attempted, and the line count of each
``src/kmflow/*.py`` file as ``wc -l`` gives it.  After the perfbench runs it
runs the Tier-1 suite once in a fresh process,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

and records its wall time and its passed and failed counts (errors count as
failed).  Last it runs each ``kmflow`` example of README's ``## CLI`` block,
in order and in one fresh temporary directory (later examples read earlier
outputs), as ``python -m kmflow.cli ...`` with ``src`` on ``PYTHONPATH``, and
records each command's wall time and exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_perfbench(workload: str, seed: int, seconds: float) -> dict:
    """The result object of one ``perfbench/run.py --trace 0`` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _env(src: str) -> dict:
    """This process's environment with ``src`` first on ``PYTHONPATH``."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (f":{path}" if path else "")}


def run_tier1(run=subprocess.run, clock=time.perf_counter) -> dict:
    """Wall time and counts of one Tier-1 run, through ``run`` (``subprocess.run``)."""
    start = clock()
    proc = run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
               cwd=ROOT, env=_env("src"), capture_output=True, text=True)
    return {"wall_s": clock() - start, **tier1_counts(proc.stdout)}


def readme_examples() -> list[list[str]]:
    """The arguments of each ``kmflow`` command in README's ``## CLI`` sh block,
    backslash continuations joined."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("kmflow ")]


def run_readme_cli(run=subprocess.run, clock=time.perf_counter) -> list[dict]:
    """Command, wall time and exit code of each README CLI example, run in
    order through ``run`` (``subprocess.run``) in one fresh directory."""
    env, timings = _env(str(ROOT / "src")), []
    with tempfile.TemporaryDirectory() as workdir:
        for argv in readme_examples():
            start = clock()
            proc = run([sys.executable, "-m", "kmflow.cli", *argv], cwd=workdir, env=env,
                       capture_output=True, text=True)
            timings.append({"command": shlex.join(["kmflow", *argv]),
                            "wall_s": clock() - start, "exit_code": proc.returncode})
    return timings


def tier1_counts(output: str) -> dict:
    """Passed and failed tests in pytest's closing summary line, such as
    ``2 failed, 748 passed, 1 error in 51.80s``; errors count as failed."""
    counts = dict.fromkeys(("passed", "failed", "error"), 0)
    summary = (output.strip().splitlines() or [""])[-1]
    for number, word in re.findall(r"(\d+) (passed|failed|error)", summary):
        counts[word] = int(number)
    return {"passed": counts["passed"], "failed": counts["failed"] + counts["error"]}


def source_lines() -> dict:
    """Newlines in each ``src/kmflow/*.py`` file, as ``wc -l`` counts them, and their total."""
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in sorted((ROOT / "src" / "kmflow").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def bench(seeds: list[int], seconds: float, runner=run_perfbench,
          tier1=run_tier1, readme_cli=run_readme_cli) -> dict:
    """Run every declared workload over ``seeds`` through ``runner`` and
    summarize the end-to-end metrics ``BENCHMARK.json`` names; then run
    Tier-1 once through ``tier1`` and the README CLI examples through
    ``readme_cli``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in declared["end_to_end"]]
    workloads = {}
    for workload in (entry["name"] for entry in declared["workloads"]):
        results = [runner(workload, seed, seconds) for seed in seeds]
        metrics = {}
        for name in names:
            values = [result["metrics"][name]["value"] for result in results]
            metrics[name] = {"median": statistics.median(values), "values": values,
                             "unit": results[0]["metrics"][name]["unit"]}
        workloads[workload] = {
            "failed": sum(result["failed"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "metrics": metrics,
        }
    return {"seeds": seeds, "seconds": seconds, "workloads": workloads,
            "tier1": tier1(), "readme_cli": readme_cli(), "source_lines": source_lines()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--number", type=int, required=True,
                        help="number of the change, used in the file name")
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=float, default=40.0, help="length of each run")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    payload = {"number": args.number, **bench(seeds, args.seconds)}
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
