"""In-process A/B of two dynkmeans checkouts on one benchmark workload.

    python3 tools/ab_lockstep.py A B --workload window-k20 --rounds 60 --seed 1

A and B are checkout roots; each one's `src/dynkmeans` is imported as its
own package into this interpreter. Both are driven through perfbench's
`Session` (the benchmark's inputs and checks, from this checkout's
`perfbench/`) in alternating whole rounds, so machine noise falls on both
sides alike. After the fill and after every round, the two sides must agree
on the solution after every update, the recourse, the checkpoint cost
ratios and the state of every controller's random generator (the
controller, or the runner's primary and verifiers), so a change in the
number of draws shows at the round it happens in; any difference, or a
failed benchmark check, exits 1. The summed
update times of the timed rounds give the printed ratio and gain.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # one BLAS thread, as in perfbench/run.py

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from run import Session  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_package(root: Path, name: str):
    """`root`/src/dynkmeans imported under the package name `name`."""
    pkg = root / "src" / "dynkmeans"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"ab_lockstep: no program at {pkg}")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


class Recording(Session):
    """A Session that also digests the solution after every update."""

    def __init__(self, label, dk, w, seed):
        super().__init__(dk, w, seed)
        self.label = label
        self.trail = hashlib.sha256()

    def check(self, rep):
        super().check(rep)
        self.trail.update(repr(sorted(self.prev)).encode())


def rng_states(side: Recording) -> list:
    t = side.target
    controllers = [t.primary, *t.copies] if side.sparse else [t]
    return [c.rng.getstate() for c in controllers]


def differences(a: Recording, b: Recording) -> list:
    out = []
    for side in (a, b):
        if side.failed or side.broken:
            out.append(f"{side.label}: {side.failed} failed checks "
                       f"{side.problems[:3]}")
    if a.trail.digest() != b.trail.digest():
        out.append("solutions differ")
    if a.recourse != b.recourse:
        out.append(f"recourse {a.recourse} != {b.recourse}")
    if a.ratios != b.ratios:
        out.append("cost ratios differ")
    if rng_states(a) != rng_states(b):
        out.append("controller rng states differ")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="checkout root of side A (base)")
    ap.add_argument("b", type=Path, help="checkout root of side B (change)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    sides = []
    for label, root in (("A", args.a), ("B", args.b)):
        dk = load_package(root.resolve(), f"dynkmeans_{label}")
        s = Recording(label, dk, w, args.seed)
        s.fill()
        sides.append(s)
    a, b = sides
    for r in range(args.rounds):
        bad = differences(a, b)
        if bad:
            print(f"before round {r}: " + "; ".join(bad), file=sys.stderr)
            return 1
        for s in (sides if r % 2 == 0 else sides[::-1]):
            s.run(rounds=s.rounds + 1)
    bad = differences(a, b)
    if bad:
        print("after the last round: " + "; ".join(bad), file=sys.stderr)
        return 1

    ta, tb = sum(a.times) / 1e9, sum(b.times) / 1e9
    n = len(a.times)
    print(f"{w.name} seed {args.seed}: {args.rounds} rounds, {n} timed "
          f"updates per side, outputs identical, rng states identical")
    print(f"A {ta:.3f} s ({n / ta:.1f} updates/s)  "
          f"B {tb:.3f} s ({n / tb:.1f} updates/s)")
    print(f"time ratio B/A {tb / ta:.4f}  updates/s gain {ta / tb - 1:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
