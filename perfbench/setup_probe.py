"""Time one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD CSV SIZE SEED

Prints the seconds taken by ``import mvgdp`` plus building the workload's
inputs through the public API (loading the CSV once and constructing the
parameter objects). run.py starts this several times and reports the median
as ``setup_s``.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mvgdp  # noqa: E402,F401
import workloads  # noqa: E402


def main(argv) -> int:
    name, path, size, seed = argv
    workloads.build(name, path, size, int(seed))
    print(repr(time.perf_counter() - _START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
