"""Time one fresh-process set-up of a workload and print it in seconds.

Set-up is ``import divga`` (through the workloads module) plus building
the inputs of the workload's first call, the work done before the first
timed call.

    python3 perfbench/setup_probe.py <workload> <seed> <work_dir>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name].build(seed, 0, work_dir)
    print(repr(time.perf_counter() - START))
