"""Write BENCH_<number>.json: the benchmark's end-to-end metrics and the source size.

Run from anywhere, with the checkout's own interpreter:

    python3 tools/bench_json.py --number N --seeds 0,1,2

For each workload that ``BENCHMARK.json`` declares and each seed, it runs
``perfbench/run.py --trace 0`` in a fresh process, one after another, and
reads the JSON object on the last line of its output.  The file holds, per
workload, the median over the seeds of each end-to-end metric (with every
run's value), the checks failed and attempted, and the line count of each
``src/kmflow/*.py`` file as ``wc -l`` gives it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_perfbench(workload: str, seed: int, seconds: float) -> dict:
    """The result object of one ``perfbench/run.py --trace 0`` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_lines() -> dict:
    """Newlines in each ``src/kmflow/*.py`` file, as ``wc -l`` counts them, and their total."""
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in sorted((ROOT / "src" / "kmflow").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def bench(seeds: list[int], seconds: float, runner=run_perfbench) -> dict:
    """Run every declared workload over ``seeds`` through ``runner`` and
    summarize the end-to-end metrics ``BENCHMARK.json`` names."""
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
            "source_lines": source_lines()}


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
