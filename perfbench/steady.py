"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steady.py [--workload NAME ...] [--seeds 10]
                                [--first-seed 1] [--seconds 25]

Runs each workload once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles, the spread (interquartile
distance over the median) and the bound in BENCHMARK.json, plus the share
of failed updates and the wall time of a run. A bound holds when the spread
stays below it; aim for a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="default: the workloads of BENCHMARK.json")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    ok = True
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        runs, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            t0 = time.monotonic()
            res = subprocess.run(cmd, capture_output=True, text=True,
                                 cwd=HERE.parent, timeout=600)
            walls.append(time.monotonic() - t0)
            if res.returncode != 0:
                print(res.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(res.stdout.strip().splitlines()[-1]))
        fail_shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        ok = ok and correct
        print(f"{name}: {len(runs)} runs, correct={correct}, "
              f"failed share {fail_shares}, wall s median "
              f"{statistics.median(walls):.1f} max {max(walls):.1f}")
        print(f"  {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  values by seed")
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"  {metric:22} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound:6.3f}  "
                  + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
