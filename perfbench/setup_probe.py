"""Set-up probe: a fresh interpreter imports kmflow and makes one workload's inputs.

Prints one JSON line: the ``time.monotonic()`` reading when the inputs are
ready (the parent subtracts the reading it took before starting this
process), the import time, and how many scipy modules the import loaded.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import kmflow

    import_s = time.perf_counter() - start
    scipy_modules = sum(1 for name in sys.modules if name.split(".", 1)[0] == "scipy")
    import workloads

    workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_s": import_s,
                      "scipy_modules": scipy_modules, "kmflow": kmflow.__file__}))


if __name__ == "__main__":
    main()
