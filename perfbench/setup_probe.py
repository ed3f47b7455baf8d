"""Prints the seconds one fresh interpreter spends importing dynkmeans and
constructing a workload's controller or runner.

    python3 perfbench/setup_probe.py <workload> <seed> [--smoke]
"""

import os
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_target, smoke


def main():
    w = WORKLOADS[sys.argv[1]]
    if "--smoke" in sys.argv[3:]:
        w = smoke(w)
    src = Path(__file__).resolve().parent.parent / "src"
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import dynkmeans
    make_target(dynkmeans, w, int(sys.argv[2]))
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    main()
