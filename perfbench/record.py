"""Record the reference outputs that ``checks.py`` compares passes against.

Runs one untraced pass per workload variant and stores its outputs, minus
the invariant ones, in ``perfbench/reference.json`` (merged into the file).
Record at a commit whose outputs are known good; a change that alters an
output beyond the check tolerances must say so and re-record.

    python3 perfbench/record.py [workload ...]
"""

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"


def main(argv: list[str]) -> int:
    import run

    for var in run.BLAS_VARS:
        os.environ[var] = run.BLAS_THREADS
    sys.path.insert(0, str(run.SRC))
    import checks
    import workloads

    names = argv or list(run.WORKLOADS)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference["variants"] = workloads.VARIANTS
    for name in names:
        invariants = workloads.INVARIANTS[name]
        recorded = reference.setdefault("workloads", {}).setdefault(name, {})
        for v in range(workloads.VARIANTS):
            outputs = workloads.run_pass(name, workloads.make_inputs(name, v),
                                         run.OUT_DIR / name)
            broken = checks.evaluate(outputs, {}, invariants)
            if broken:
                raise RuntimeError(f"{name} variant {v}: {broken}")
            recorded[str(v)] = {k: val for k, val in outputs.items() if k not in invariants}
            print(name, v, flush=True)
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
