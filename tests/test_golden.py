"""Golden replay: committed streams must reproduce their committed metrics CSV
and summary byte for byte under a fixed time source.

Regenerate the files under tests/golden/ (only when a behaviour change is
intended) with:

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

Named cases are regenerated; with no names, every case is.
"""

import sys
from pathlib import Path

import pytest

from dynkmeans.harness import run_stream
from dynkmeans.params import Params
from dynkmeans.verify import cert_overrides
from dynkmeans.workload import UpdateStream, gen_workload

GOLDEN = Path(__file__).parent / "golden"


_P_CERT = Params(epsilon=0.5, d=2, delta=1024, seed=203)

# name -> (gen_workload arguments, Params, run_stream arguments)
CASES = {
    "clustered-k5": (
        dict(mode="clustered", n=400, d=2, delta=256, k=5, ins_frac=0.7,
             seed=201),
        Params(epsilon=0.5, d=2, delta=256, seed=201),
        dict(k=5, baseline_every=50)),
    "window-k20": (
        dict(mode="sliding-window", n=600, d=2, delta=256, k=20, seed=202),
        Params(epsilon=0.5, d=2, delta=256, seed=202),
        dict(k=20, baseline_every=50)),
    "cert-d1024": (
        dict(mode="clustered", n=300, d=2, delta=1024, k=5, ins_frac=0.72,
             seed=203),
        _P_CERT,
        dict(k=5, baseline_every=50, witness=True,
             sched_overrides=cert_overrides(_P_CERT))),
    "sparse-k3": (
        dict(mode="clustered", n=300, d=2, delta=256, k=3, ins_frac=0.8,
             seed=204),
        Params(epsilon=0.5, d=2, delta=256, seed=204),
        dict(k=3, baseline_every=50, mode="sparsified", verifiers=2)),
}


def fixed_clock():
    state = [0]

    def clock():
        state[0] += 1000
        return state[0]
    return clock


def replay(name, stream):
    _, params, run_kw = CASES[name]
    return run_stream(stream, params, time_source=fixed_clock(), **run_kw)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_replay(name):
    stream = UpdateStream.parse((GOLDEN / f"{name}.stream").read_text())
    res = replay(name, stream)
    assert res.metrics_csv() == (GOLDEN / f"{name}.csv").read_text()
    assert res.summary_text() == (GOLDEN / f"{name}.summary").read_text()


def regenerate(names=()):
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}; "
              f"cases: {', '.join(CASES)}", file=sys.stderr)
        raise SystemExit(2)
    GOLDEN.mkdir(exist_ok=True)
    for name, (gkw, _, _) in CASES.items():
        if names and name not in names:
            continue
        gkw = dict(gkw)
        stream = gen_workload(gkw.pop("mode"), gkw.pop("n"), gkw.pop("d"),
                              gkw.pop("delta"), gkw.pop("k"), **gkw)
        (GOLDEN / f"{name}.stream").write_text(stream.serialize())
        res = replay(name, stream)
        (GOLDEN / f"{name}.csv").write_text(res.metrics_csv())
        (GOLDEN / f"{name}.summary").write_text(res.summary_text())


if __name__ == "__main__":
    regenerate(sys.argv[1:])
