"""Layered benchmark for dynkmeans.

    python3 perfbench/run.py --workload window-k20 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
Each run drives one workload through the public update API in a closed loop
(the next update goes out when the previous one returns), checks every
update, and prints one JSON line last: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. `--smoke` shrinks the
workload so that every check runs within seconds.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # one BLAS thread; set before numpy loads

import argparse
import json
import math
import numbers
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import reference
from workloads import WORKLOADS, Stream, make_target, smoke, u_size_bound

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 4   # set-up samples before the workload, and again after
# criterion 14's quality gate
RATIO_P50_MAX = 5.0
RATIO_MAX_MAX = 50.0

_now = time.perf_counter_ns


def import_program():
    """The dynkmeans package of this checkout, never an installed copy."""
    if not (SRC / "dynkmeans" / "__init__.py").is_file():
        sys.exit(f"run.py: no program at {SRC}/dynkmeans; "
                 "run from the root of a dynkmeans checkout")
    sys.path.insert(0, str(SRC))
    import dynkmeans
    if Path(dynkmeans.__file__).resolve().parent != SRC / "dynkmeans":
        sys.exit(f"run.py: imported dynkmeans from {dynkmeans.__file__}")
    return dynkmeans


def setup_seconds(args) -> list:
    """Import-plus-construction time, each sample in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload,
           str(args.seed)] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            sys.exit(f"run.py: set-up probe failed:\n{res.stderr}")
        out.append(float(res.stdout.split()[-1]))
    return out


class Session:
    """One controller or runner driven through a workload, with the checks."""

    def __init__(self, dk, w, seed: int, tracer=None):
        self.w = w
        self.sparse = w.mode == "sparse"
        self.stream = Stream(w, seed)
        self.target = make_target(dk, w, seed)
        self.tracer = tracer
        self.ref_rng = np.random.default_rng([seed, 14])
        if self.sparse:
            sp = self.target.sparsifier
            self.u_bound = u_size_bound(w, sp.c_u, sp.block)
        self.live = {}              # key -> point, from the benchmark's input
        self.count = Counter()      # live point -> multiplicity
        self.prev = frozenset()
        self.timed = False
        self.times = []             # ns per timed update
        self.recourse = 0           # over timed updates
        self.ratios = []            # cost ratios at timed checkpoints
        self.u_size_max = 0
        self.attempted = self.failed = 0
        self.broken = False         # an update raised; the run stops
        self.last_failed = False
        self.checks = Counter()     # check name -> times run
        self.problems = []
        self.steps = self.rounds = 0

    # -- driving ---------------------------------------------------------------

    def fill(self):
        for op in self.stream.fill():
            self.apply(op)
        self.checkpoint()

    def run(self, seconds=None, rounds=None):
        """Whole rounds, until `seconds` of wall time or `rounds` rounds."""
        self.timed = True
        w = self.w
        end = time.monotonic() + (seconds or 0.0)
        while not self.broken:
            for _ in range(w.round_steps):
                for op in self.stream.step():
                    self.apply(op)
                self.steps += 1
                if self.steps % w.checkpoint_steps == 0:
                    self.checkpoint()
            self.rounds += 1
            if rounds is not None:
                if self.rounds >= rounds:
                    break
            elif time.monotonic() >= end:
                break
        self.timed = False

    def apply(self, op):
        if self.broken:
            return
        kind, key, point, weight = op
        self.attempted += 1
        tr = self.tracer if self.timed else None
        t0 = _now()
        try:
            if tr is not None:
                tr.armed = True
            rep = self.target.update(kind, key, point, weight)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.broken = True
            return
        finally:
            if tr is not None:
                tr.armed = False
        dt = _now() - t0
        if kind == "insert":
            self.live[key] = point
            self.count[point] += 1
        else:
            p = self.live.pop(key)
            self.count[p] -= 1
            if not self.count[p]:
                del self.count[p]
        if self.timed:
            self.times.append(dt)
        self.last_failed = False
        self.check(rep)

    # -- checks ----------------------------------------------------------------

    def fail(self, what: str):
        if len(self.problems) < 20:
            self.problems.append(f"update {self.attempted}: {what}")
        if not self.last_failed:
            self.failed += 1
            self.last_failed = True

    def check(self, rep):
        w, target = self.w, self.target
        S = target.solution()
        self.checks["size"] += 1
        if len(S) > w.k:
            self.fail(f"|S| = {len(S)} > k")
        self.checks["grid"] += 1
        for c in S:
            if len(c) != w.d or not all(isinstance(x, numbers.Integral)
                                        and 1 <= x <= w.delta for x in c):
                self.fail(f"center {c} is not a grid point of [1, {w.delta}]^{w.d}")
        rec = len(S ^ self.prev)
        self.prev = S
        if self.timed:
            self.recourse += rec
        if self.sparse:
            self.checks["contract"] += 1
            if not target.contract_holds():
                self.fail("sparsified contract violated")
            u = target.u_size()
            self.u_size_max = max(self.u_size_max, u)
            self.checks["u_size"] += 1
            if u > self.u_bound:
                self.fail(f"|U| = {u} above {self.u_bound:.0f}")
            return
        self.checks["recourse"] += 1
        if rec != rep.recourse:
            self.fail(f"recourse {rep.recourse} reported, {rec} observed")
        if len(self.count) <= w.k:
            self.checks["small_input"] += 1
            if S != frozenset(self.count):
                self.fail("S differs from the live points while at most k")

    def checkpoint(self):
        """Weight conservation and cost against the reference, untimed."""
        if self.broken:
            return
        target = self.target
        if self.sparse:
            u = target.U.entries.values()
            live_w = math.fsum(wt for _, wt in u)
            ctrls = [target.primary] + target.copies
            self.checks["u_subset"] += 1
            if any(p not in self.count for p, _ in u):
                self.fail("U holds a point that is not live")
        else:
            live_w = float(len(self.live))   # unit weights
            ctrls = [target]
        for c in ctrls:
            if c.assign.centers:
                self.checks["weights"] += 1
                got = c.assign.weights_total()
                if abs(got - live_w) > 1e-9 * max(1.0, live_w):
                    self.fail(f"assigned weight {got!r} != live weight {live_w!r}")
        S = target.solution()
        if len(self.count) > self.w.k and S:
            pts, wts = reference.aggregate(self.count.items())
            ratio = (reference.cost(pts, wts, S)
                     / reference.reference_cost(pts, wts, self.w.k, self.ref_rng))
            self.checks["quality"] += 1
            if self.timed:
                self.ratios.append(ratio)

    def close(self):
        """Drop the program's structures; keep the measurements."""
        self.target = self.stream = None


def quality_ok(ratios) -> bool:
    return (bool(ratios) and float(np.median(ratios)) <= RATIO_P50_MAX
            and max(ratios) <= RATIO_MAX_MAX)


def end_to_end(s: Session, setup) -> dict:
    t = s.times
    return {
        "setup_s": (float(np.median(setup)), "s"),
        "updates_per_s": (len(t) / (sum(t) / 1e9), "1/s"),
        "update_p50_us": (float(np.percentile(t, 50)) / 1e3, "us"),
        "update_tail_us": (float(np.percentile(t, s.w.tail_pct)) / 1e3, "us"),
        "cost_ratio_p50": (float(np.median(s.ratios)), "ratio"),
        "cost_ratio_max": (max(s.ratios), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def drive(dk, w, seed, seconds=None, rounds=None, tracer=None) -> Session:
    s = Session(dk, w, seed, tracer)
    s.fill()
    s.run(seconds=seconds, rounds=rounds)
    s.close()
    return s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)

    dk = import_program()
    if args.trace:
        # the same updates again, traced: the ratio of their summed times is
        # the tracing overhead
        plain = drive(dk, w, args.seed, seconds=args.seconds / 2)
        from tracer import Tracer
        tr = Tracer()
        tr.install(dk)
        try:
            traced = drive(dk, w, args.seed, rounds=plain.rounds, tracer=tr)
        finally:
            tr.uninstall()
        sessions = [plain, traced]
    else:
        setup = setup_seconds(args)
        sessions = [drive(dk, w, args.seed, seconds=args.seconds)]
        setup += setup_seconds(args)

    for x in sessions:
        for line in x.problems:
            print(f"CHECK FAILED: {line}", file=sys.stderr)
    if any(not x.times for x in sessions):
        sys.exit("run.py: no timed update completed")
    if args.trace:
        metrics = tr.metrics(traced.recourse / len(traced.times),
                             traced.u_size_max, sum(plain.times),
                             sum(traced.times))
    else:
        metrics = end_to_end(sessions[0], setup)
    checks = Counter()
    for x in sessions:
        checks.update(x.checks)
    print("checks " + json.dumps(dict(sorted(checks.items()))))
    result = {
        "correct": all(x.failed == 0 and quality_ok(x.ratios)
                       for x in sessions),
        "attempted": sum(x.attempted for x in sessions),
        "failed": sum(x.failed for x in sessions),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
