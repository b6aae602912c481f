"""tools/bench_json.py summarizes perfbench runs; a stub stands in for them."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_json", ROOT / "tools" / "bench_json.py")
bench_json = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_json)


def _stub(calls):
    def runner(workload, seed, seconds):
        calls.append((workload, seed, seconds))
        base = {"particles_vm": 1.0, "graphs_dense": 2.0, "picard_custom": 3.0}[workload]
        return {"correct": seed != 5, "attempted": 10, "failed": int(seed == 5), "metrics": {
            "setup_s": {"value": base + seed, "unit": "s"},
            "solve_s": {"value": base * seed, "unit": "s"},
            "peak_rss_mib": {"value": 40.0 + seed, "unit": "MiB"},
        }}
    return runner


def _tier1():
    return {"wall_s": 51.8, "passed": 750, "failed": 0}


def _readme_cli():
    return [{"command": "kmflow render a.csv b.pgm", "wall_s": 0.3, "exit_code": 0}]


def test_bench_json_takes_medians_of_every_declared_metric():
    calls = []
    payload = bench_json.bench([0, 5, 1], 40.0, runner=_stub(calls), tier1=_tier1,
                               readme_cli=_readme_cli)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in declared["workloads"]]
    assert calls == [(w, seed, 40.0) for w in workloads for seed in (0, 5, 1)]
    assert list(payload["workloads"]) == workloads
    picard = payload["workloads"]["picard_custom"]
    assert picard["failed"] == 1 and picard["attempted"] == 30
    assert picard["metrics"] == {
        "setup_s": {"median": 4.0, "values": [3.0, 8.0, 4.0], "unit": "s"},
        "solve_s": {"median": 3.0, "values": [0.0, 15.0, 3.0], "unit": "s"},
        "peak_rss_mib": {"median": 41.0, "values": [40.0, 45.0, 41.0], "unit": "MiB"},
    }
    assert set(picard["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert payload["tier1"] == _tier1()
    assert payload["readme_cli"] == _readme_cli()
    json.dumps(payload)


def test_bench_json_times_one_tier1_run(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    calls, ticks = [], iter([10.0, 62.5])

    def run(command, **kwargs):
        calls.append((command, kwargs))
        return subprocess.CompletedProcess(command, 1, stdout=(
            "...F.E\n= short test summary info =\n"
            "FAILED tests/test_x.py::test_y\n2 failed, 748 passed, 1 error in 51.80s\n"))

    result = bench_json.run_tier1(run=run, clock=lambda: next(ticks))
    assert result == {"wall_s": 52.5, "passed": 748, "failed": 3}
    [(command, kwargs)] = calls
    assert command[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
    assert kwargs["cwd"] == ROOT
    assert kwargs["env"]["PYTHONPATH"] == "src:/elsewhere"


def test_bench_json_times_each_readme_cli_example(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    calls, ticks = [], iter(range(16))

    def run(command, **kwargs):
        # the examples share one directory, fresh for this run
        assert Path(kwargs["cwd"]).is_dir() and kwargs["cwd"] != str(ROOT)
        calls.append((command, kwargs))
        return subprocess.CompletedProcess(command, int(command[-1] == "out/dist"))

    timings = bench_json.run_readme_cli(run=run, clock=lambda: float(next(ticks)))
    examples = bench_json.readme_examples()
    assert len(examples) == 8 and examples[0][0] == "sample_graph"
    assert [command[1:] for command, _ in calls] == [["-m", "kmflow.cli", *argv]
                                                      for argv in examples]
    assert len({kwargs["cwd"] for _, kwargs in calls}) == 1
    assert not Path(calls[0][1]["cwd"]).exists()
    assert calls[0][1]["env"]["PYTHONPATH"] == f"{ROOT / 'src'}:/elsewhere"
    assert timings[-2] == {
        "command": "kmflow distance out/mfp/results.csv out/mfp/results.csv "
                   "--output-dir out/dist",
        "wall_s": 1.0, "exit_code": 1}
    assert [t["exit_code"] for t in timings] == [0] * 6 + [1, 0]
    assert timings[0]["command"].startswith(
        "kmflow sample_graph --graphon '{\"kind\": \"small_world\"")
    json.dumps(timings)


@pytest.mark.parametrize("output, counts", [
    ("750 passed in 51.82s", (750, 0)),
    ("1 failed, 749 passed, 2 xfailed, 1 warning in 3.1s", (749, 1)),
    ("3 errors in 1.0s", (0, 3)),
    ("", (0, 0)),
])
def test_tier1_counts_read_the_summary_line(output, counts):
    assert bench_json.tier1_counts(output) == dict(zip(("passed", "failed"), counts))


def test_bench_json_counts_source_lines_as_wc_does():
    lines = bench_json.source_lines()
    sources = sorted((ROOT / "src" / "kmflow").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *map(str, sources)], capture_output=True, text=True,
                        check=True).stdout.splitlines()
    assert lines == {**{Path(line.split()[1]).name: int(line.split()[0]) for line in wc[:-1]},
                     "total": int(wc[-1].split()[0])}
