"""Time one set-up of a workload in a fresh process.

    python3 perfbench/setup_probe.py <src dir> <workload> <seed> <work dir>

Imports kquad from <src dir>, builds the workload's inputs in <work dir> and
prints the seconds this took.  `run.py` starts it several times per run and
reports the median as `setup_s`.
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    src, workload, seed, workdir = sys.argv[1:]
    sys.path.insert(0, src)
    import kquad  # noqa: F401

    from workloads import WORKLOADS

    WORKLOADS[workload].setup(int(seed), Path(workdir))
    print(time.perf_counter() - _t0)


if __name__ == "__main__":
    main()
