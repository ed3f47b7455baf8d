"""Golden replay: committed streams must reproduce their committed metrics CSV
and summary byte for byte under a fixed time source.

Regenerate the files under tests/golden/ (only when a behaviour change is
intended) with:

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

Named cases are regenerated; with no names, every case is.
"""

import copy
import sys
from collections import Counter
from pathlib import Path

import pytest

from dynkmeans import controller
from dynkmeans.harness import run_stream
from dynkmeans.params import Params
from dynkmeans.range_query import CenterIndex
from dynkmeans.verify import cert_schedule
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
        dict(k=5, baseline_every=50, sched=cert_schedule(_P_CERT))),
    "sparse-k3": (
        dict(mode="clustered", n=300, d=2, delta=256, k=3, ins_frac=0.8,
             seed=204),
        Params(epsilon=0.5, d=2, delta=256, seed=204),
        dict(k=3, baseline_every=50, mode="sparsified")),
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


def _summary_keys(text):
    return dict(line.partition("=")[::2] for line in text.splitlines())


def mismatch(name, got_csv, want_csv, got_summary, want_summary):
    """None when both replays match byte for byte, else a short report: the
    first differing CSV line with its number, and the summary keys that
    differ. Kept short so a failing case reports at once."""
    out = []
    if got_csv != want_csv:
        got, want = got_csv.splitlines(True), want_csv.splitlines(True)
        n = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                 min(len(got), len(want)))
        g = got[n] if n < len(got) else "<end of file>"
        w = want[n] if n < len(want) else "<end of file>"
        out.append(f"{name}.csv: first difference at line {n + 1} "
                   f"(got {len(got)} lines, want {len(want)}):\n"
                   f"  got:  {g!r}\n  want: {w!r}")
    if got_summary != want_summary:
        got, want = _summary_keys(got_summary), _summary_keys(want_summary)
        keys = [k for k in dict.fromkeys([*want, *got])
                if got.get(k) != want.get(k)]
        diff = "".join(f"\n  {k}: got {got.get(k)!r}, want {want.get(k)!r}"
                       for k in keys)
        out.append(f"{name}.summary: keys differ:{diff or ' (bytes only)'}")
    return "\n".join(out) or None


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_replay(name):
    stream = UpdateStream.parse((GOLDEN / f"{name}.stream").read_text())
    res = replay(name, stream)
    report = mismatch(name, res.metrics_csv(),
                      (GOLDEN / f"{name}.csv").read_text(),
                      res.summary_text(),
                      (GOLDEN / f"{name}.summary").read_text())
    if report is not None:
        pytest.fail(report, pytrace=False)


def test_mismatch_reports_first_line_and_summary_keys():
    csv = "h\n" + "".join(f"{i},x\n" for i in range(600))
    changed = csv.replace("\n300,x\n", "\n300,y\n")
    assert mismatch("c", csv, csv, "a=1\nb=2\n", "a=1\nb=2\n") is None
    report = mismatch("c", changed, csv, "a=1\nb=3\n", "a=1\nb=2\n")
    assert report == ("c.csv: first difference at line 302 "
                      "(got 601 lines, want 601):\n"
                      "  got:  '300,y\\n'\n  want: '300,x\\n'\n"
                      "c.summary: keys differ:\n  b: got '3', want '2'")
    short = mismatch("c", csv[:-6], csv, "", "")
    assert "line 601 (got 600 lines, want 601)" in short
    assert "got:  '<end of file>'" in short


@pytest.mark.parametrize("name", ["sparse-k3", "window-k20"])
def test_staging_dhat_and_epoch_ordering_match_their_oracles(name,
                                                               monkeypatch):
    # While centers are staged, a committed center's dhat is read from its
    # record; the ANN walk from it must give the same level. The ordering an
    # epoch start hands to restricted_kmeans must be a fresh ctx.ordering().
    seen = Counter()
    record_read = CenterIndex.dhat

    def dhat(index, s):
        got = record_read(index, s)
        if index.staged:
            assert got == index._bound(index._walk(s)[0]), s
            seen["committed" if s in index.centers else "staged"] += 1
        return got

    shrink = controller.restricted_kmeans

    def restricted(ctx, r, rng, ordering=None):
        if ordering is not None:
            assert ordering == ctx.ordering()
            seen[sys._getframe(1).f_code.co_name] += 1
        return shrink(ctx, r, rng, ordering)

    monkeypatch.setattr(CenterIndex, "dhat", dhat)
    monkeypatch.setattr(controller, "restricted_kmeans", restricted)
    res = replay(name, UpdateStream.parse(
        (GOLDEN / f"{name}.stream").read_text()))
    assert mismatch(name, res.metrics_csv(),
                    (GOLDEN / f"{name}.csv").read_text(), res.summary_text(),
                    (GOLDEN / f"{name}.summary").read_text()) is None
    assert seen["committed"] and seen["staged"] and seen["_estimate_ell"]
    if name == "window-k20":    # k <= 4 gives ell = 0: no shrink call
        assert seen["_start_epoch"]


@pytest.mark.parametrize("name", ["sparse-k3", "window-k20"])
def test_ruled_out_ell_trials_would_fail(name, monkeypatch):
    # _estimate_ell stops without solving a trial only when its lower bound
    # rules the trial out. Solve each such trial anyway, on a copy of the
    # trials' generator: it must fail the stop rule. The replay must still
    # match the golden.
    seen = Counter()
    solved = []
    solve = controller.restricted_kmeans
    estimate = controller.DynamicKMeans._estimate_ell

    def restricted(ctx, r, rng, ordering=None):
        if rng is ctx.ell_rng:
            solved.append(r)
        return solve(ctx, r, rng, ordering)

    def checked(dk, ordering=None):
        solved.clear()
        ell_hat, ell = estimate(dk, ordering)
        # the trial after the last one solved, unless that one failed
        nxt = 2 * ell_hat or 1
        if nxt < min(dk.k, len(dk.S_init)) and solved[-1:] in ([], [ell_hat]):
            removed = solve(dk, nxt, copy.deepcopy(dk.ell_rng), dk.ordering())
            base = dk.X.cost(dk.S_init)
            cost = dk.X.cost(dk.S_init - removed)
            assert cost > dk.sched.ell_stop_factor * base, (nxt, cost, base)
            seen["ruled out"] += 1
        seen["solved"] += len(solved)
        return ell_hat, ell

    monkeypatch.setattr(controller, "restricted_kmeans", restricted)
    monkeypatch.setattr(controller.DynamicKMeans, "_estimate_ell", checked)
    res = replay(name, UpdateStream.parse(
        (GOLDEN / f"{name}.stream").read_text()))
    assert mismatch(name, res.metrics_csv(),
                    (GOLDEN / f"{name}.csv").read_text(), res.summary_text(),
                    (GOLDEN / f"{name}.summary").read_text()) is None
    assert seen["ruled out"] > 0, seen


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
