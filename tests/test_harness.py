import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dynkmeans import cli
from dynkmeans.errors import UsageError
from dynkmeans.harness import METRICS_COLUMNS, run_stream
from dynkmeans.params import ExponentSchedule, Params, schedule_for
from dynkmeans.workload import MODES, UpdateStream, gen_workload

P = Params(epsilon=0.5, d=2, delta=64, seed=71)
GOLDEN = Path(__file__).parent / "golden"


def fake_clock():
    state = [0]

    def clock():
        state[0] += 1000
        return state[0]
    return clock


def test_gen_empty():
    stream = gen_workload("uniform", 0, 2, 64, 3, seed=1)
    assert stream.records == []


def test_gen_pure_insertions():
    stream = gen_workload("uniform", 50, 2, 64, 3, ins_frac=1.0, seed=2)
    assert all(r[0] == "I" for r in stream.records)
    live = {r[1] for r in stream.records}
    assert len(live) == 50


def test_gen_sliding_window_live_bound():
    w = 20
    stream = gen_workload("sliding-window", 200, 2, 64, 3, seed=3, window=w)
    live = set()
    for rec in stream.records:
        if rec[0] == "I":
            live.add(rec[1])
        else:
            live.discard(rec[1])
        assert len(live) <= w + 1


def test_gen_deterministic():
    a = gen_workload("clustered", 100, 2, 64, 4, seed=9)
    b = gen_workload("clustered", 100, 2, 64, 4, seed=9)
    assert a.serialize() == b.serialize()


def test_gen_bad_spec():
    with pytest.raises(UsageError):
        gen_workload("nope", 10, 2, 64, 3)
    with pytest.raises(UsageError):
        gen_workload("uniform", -1, 2, 64, 3)


def test_stream_round_trip_byte_exact():
    stream = gen_workload("clustered", 120, 3, 32, 4, ins_frac=0.6, seed=4)
    text = stream.serialize()
    again = UpdateStream.parse(text)
    assert again.serialize() == text


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 16), st.integers(1, 16)), max_size=25),
       st.integers(0, 2 ** 31))
def test_stream_round_trip_property(points, seed):
    stream = UpdateStream(d=2, delta=16, n=len(points), k_hint=2)
    for i, p in enumerate(points):
        stream.records.append(("I", i, 1.0, p))
    text = stream.serialize()
    assert UpdateStream.parse(text).serialize() == text


def test_stream_parse_errors():
    with pytest.raises(UsageError):
        UpdateStream.parse("I 1 1.0 2 2\n")
    with pytest.raises(UsageError):
        UpdateStream.parse("H d=2 delta=16 n=1 k=1\nD 7\n")
    with pytest.raises(UsageError):
        UpdateStream.parse("H d=2 delta=16 n=1 k=1\nI 1 1.0 99 1\n")
    with pytest.raises(UsageError):
        UpdateStream.parse("")


BAD_STREAMS = {
    "header without n": "H d=2 delta=16 k=1\nI 1 1.0 2 2\n",
    "header field without =": "H d=2 delta=16 n=1 k\n",
    "weight x": "H d=2 delta=16 n=1 k=1\nI 1 x 2 2\n",
    "weight nan": "H d=2 delta=16 n=1 k=1\nI 1 nan 2 2\n",
    "weight inf": "H d=2 delta=16 n=1 k=1\nI 1 inf 2 2\n",
    "negative weight": "H d=2 delta=16 n=1 k=1\nI 1 -1.0 2 2\n",
    "id not an integer": "H d=2 delta=16 n=1 k=1\nI a 1.0 2 2\n",
    "delete without id": "H d=2 delta=16 n=1 k=1\nI 1 1.0 2 2\nD\n",
    "coordinate not an integer": "H d=2 delta=16 n=1 k=1\nI 1 1.0 2 2.5\n",
    "delete with trailing field": "H d=2 delta=16 n=2 k=1\nI 1 1.0 2 2\nD 1 extra\n",
    "second header": "H d=2 delta=16 n=1 k=1\nI 1 1.0 12 12\n"
                     "H d=2 delta=8 n=1 k=1\n",
}


@pytest.mark.parametrize("name", sorted(BAD_STREAMS))
def test_malformed_stream_is_usage_error(name, tmp_path, capsys):
    with pytest.raises(UsageError):
        UpdateStream.parse(BAD_STREAMS[name])
    path = tmp_path / "bad.txt"
    path.write_text(BAD_STREAMS[name])
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_run_off_grid_delta_is_usage_error(tmp_path, capsys):
    # the stream's points lie in [1, 256]; --delta 16 leaves most off the grid
    path = tmp_path / "s.txt"
    path.write_text(gen_workload("clustered", 40, 2, 256, 3, seed=2).serialize())
    assert cli.main(["run", str(path), "--delta", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "integers in" in err


def test_run_has_no_d_option(tmp_path):
    # a stream fixes its own d; --d is not read as an abbreviation of --delta
    path = tmp_path / "s.txt"
    path.write_text(gen_workload("clustered", 20, 2, 64, 2, seed=1).serialize())
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(path), "--d", "2"])
    assert exc.value.code == 2


def test_overflowing_schedule_is_usage_error(tmp_path, capsys):
    # epsilon=1e-21 gives lam ~ 9.5e31, and lam**10 overflows a float
    cfg = tmp_path / "c.cfg"
    cfg.write_text("epsilon=1e-21\n")
    path = tmp_path / "s.txt"
    path.write_text(gen_workload("clustered", 20, 2, 64, 2, seed=1).serialize())
    assert cli.main(["--config", str(cfg), "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert "epsilon=1e-21 is too small" in err


def test_run_huge_d_is_usage_error(tmp_path, capsys):
    # Params rejects the dimension before any structure is built
    path = tmp_path / "s.txt"
    path.write_text("H d=4000 delta=8 n=1 k=2\n")
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert "d=4000 is too large" in err


def test_run_stream_insertions_only_ratio_one():
    stream = gen_workload("uniform", 4, 2, 64, 4, ins_frac=1.0, seed=5)
    res = run_stream(stream, P, 4, baseline_every=2, time_source=fake_clock())
    for row in res.rows:
        assert row["ratio"] == 1.0  # solution covers every point, 0/0 -> 1


def test_run_stream_deterministic_files():
    stream = gen_workload("clustered", 150, 2, 64, 4, ins_frac=0.7, seed=6)
    r1 = run_stream(stream, P, 4, baseline_every=50, time_source=fake_clock())
    r2 = run_stream(stream, P, 4, baseline_every=50, time_source=fake_clock())
    assert r1.metrics_csv() == r2.metrics_csv()


def test_metrics_schema_golden():
    assert METRICS_COLUMNS == (
        "update_index", "op_kind", "cost_alg", "cost_baseline", "ratio",
        "recourse_step", "recourse_cum", "makerobust_cum", "resets_cum",
        "time_us", "n_live", "epoch_len")
    stream = gen_workload("uniform", 5, 2, 64, 2, ins_frac=1.0, seed=7)
    res = run_stream(stream, P, 2, time_source=fake_clock())
    header = res.metrics_csv().splitlines()[0]
    assert header == ",".join(METRICS_COLUMNS)


def test_run_stream_direct_vs_sparsified_comparable():
    stream = gen_workload("clustered", 150, 2, 64, 3, ins_frac=0.8, seed=8)
    d = run_stream(stream, P, 3, mode="direct", baseline_every=50,
                   time_source=fake_clock())
    s = run_stream(stream, P, 3, mode="sparsified", baseline_every=50,
                   time_source=fake_clock())
    assert d.summary["n_updates"] == s.summary["n_updates"] == 150
    assert "ratio_p50" in d.summary and "ratio_p50" in s.summary
    assert s.summary["resets_total"] >= 0


@pytest.mark.parametrize("every", [0, -3])
def test_baseline_every_below_one_is_usage_error(every, capsys):
    stream = gen_workload("uniform", 5, 2, 64, 2, seed=9)
    with pytest.raises(UsageError, match="baseline_every"):
        run_stream(stream, P, 2, baseline_every=every)
    assert cli.main(["run", str(GOLDEN / "sparse-k3.stream"),
                     "--baseline-every", str(every)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_run_stream_bad_mode():
    stream = gen_workload("uniform", 5, 2, 64, 2, seed=9)
    with pytest.raises(UsageError):
        run_stream(stream, P, 2, mode="warp")


CLI = [sys.executable, "-m", "dynkmeans.cli"]
# the child interpreter imports the package from where this one did, so the
# CLI tests run from a checkout without an install
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [os.path.dirname(os.path.dirname(cli.__file__))]
    + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x]))


def test_cli_gen_run_verify(tmp_path):
    stream_path = tmp_path / "s.txt"
    out = subprocess.run(CLI + ["gen", "--mode", "clustered", "--n", "80",
                                "--k", "3", "--delta", "64",
                                "--out", str(stream_path)],
                         capture_output=True, text=True, env=ENV)
    assert out.returncode == 0
    metrics = tmp_path / "m.csv"
    out = subprocess.run(CLI + ["run", str(stream_path), "--k", "3",
                                "--baseline-every", "40", "--fixed-time",
                                "--out", str(metrics)],
                         capture_output=True, text=True, env=ENV)
    assert out.returncode == 0, out.stderr
    assert metrics.exists() and metrics.with_suffix(".csv.summary").exists()
    assert "ratio_p50=" in out.stdout
    out = subprocess.run(CLI + ["verify", "--suite", "lemmas"],
                         capture_output=True, text=True, env=ENV)
    assert out.returncode == 0
    assert "PASS lemmas.projection" in out.stdout


def test_cli_verify_injected_failure():
    out = subprocess.run(CLI + ["verify", "--suite", "hashing",
                                "--lambda-cap", "1"],
                         capture_output=True, text=True, env=ENV)
    assert out.returncode == 1
    assert "FAIL" in out.stdout


@pytest.mark.parametrize("suite", ["range", "all"])
def test_cli_lambda_cap_only_with_hashing(suite, capsys):
    assert cli.main(["verify", "--suite", suite, "--lambda-cap", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_cli_usage_errors():
    out = subprocess.run(CLI + ["run", "/nonexistent/stream.txt"],
                         capture_output=True, text=True, env=ENV)
    assert out.returncode == 2
    out = subprocess.run(CLI + ["gen", "--mode", "bogus"],
                         capture_output=True, text=True, env=ENV)
    assert out.returncode == 2  # argparse rejects the choice


def test_cli_bench_smoke():
    out = subprocess.run(CLI + ["bench", "--k", "3", "--n-small", "60",
                                "--n-large", "150", "--delta", "64"],
                         capture_output=True, text=True, env=ENV)
    assert out.returncode == 0, out.stderr
    assert "growth_alg=" in out.stdout and "growth_naive=" in out.stdout


@pytest.mark.parametrize("n_small, n_large", [(0, 10), (49, 1000),
                                              (100, 100), (200, 100)])
def test_bench_sizes_without_a_growth_are_usage_errors(n_small, n_large,
                                                       capsys):
    # below 50 updates the recompute side takes no sample, and a growth
    # needs a larger second size
    assert cli.main(["bench", "--n-small", str(n_small),
                     "--n-large", str(n_large)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "n_" in err


def test_bench_d_and_delta_fall_back_to_config_then_params(tmp_path,
                                                          monkeypatch):
    seen = []

    def growth(params, k, n_small, n_large, stream_seed):
        seen.append((params.d, params.delta))
        return {}

    monkeypatch.setattr(cli, "measure_growth", growth)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("d=3\ndelta=64\n")
    assert cli.main(["bench"]) == 0
    assert cli.main(["--config", str(cfg), "bench"]) == 0
    assert cli.main(["--config", str(cfg), "bench", "--d", "4",
                     "--delta", "32"]) == 0
    assert seen == [(Params().d, Params().delta), (3, 64), (4, 32)]


def test_verify_seed_from_flag_then_config_then_zero(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed=7\n")
    verify = ["verify", "--suite", "subroutines"]

    def out(pre):
        assert cli.main(pre + verify) == 0
        return capsys.readouterr().out

    flag = out(["--seed", "7"])
    assert out(["--config", str(cfg)]) == flag
    assert out(["--config", str(cfg), "--seed", "0"]) == out([]) != flag


def test_cli_jl_and_config(tmp_path):
    stream_path = tmp_path / "s4.txt"
    subprocess.run(CLI + ["gen", "--mode", "clustered", "--n", "60",
                          "--d", "4", "--k", "3", "--delta", "64",
                          "--out", str(stream_path)], check=True, env=ENV)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("epsilon=0.5\nseed=9\n")
    out = subprocess.run(CLI + ["--config", str(cfg), "run", str(stream_path),
                                "--k", "3", "--jl-dim", "2", "--fixed-time",
                                "--baseline-every", "30"],
                         capture_output=True, text=True, env=ENV)
    assert out.returncode == 0, out.stderr
    out2 = subprocess.run(CLI + ["--config", str(cfg), "run", str(stream_path),
                                 "--k", "3", "--jl-dim", "2", "--fixed-time",
                                 "--baseline-every", "30"],
                          capture_output=True, text=True, env=ENV)
    assert out.stdout == out2.stdout  # projection is seed-deterministic


def test_run_stream_jl_projects_dimension():
    stream = gen_workload("clustered", 80, 5, 64, 3, ins_frac=1.0, seed=12)
    res = run_stream(stream, Params(epsilon=0.5, d=5, delta=64, seed=12), 3,
                     baseline_every=40, time_source=fake_clock(), jl_dim=2)
    assert res.summary["n_updates"] == 80


def test_adversarial_churn_keeps_base_live():
    stream = gen_workload("adversarial-churn", 300, 2, 64, 4, seed=13)
    live = set()
    min_live_after_warmup = 10 ** 9
    for i, rec in enumerate(stream.records):
        if rec[0] == "I":
            live.add(rec[1])
        else:
            live.discard(rec[1])
        if i > 120:
            min_live_after_warmup = min(min_live_after_warmup, len(live))
    assert min_live_after_warmup >= 40  # persistent clustered base remains


@pytest.mark.parametrize("line, key", [("lambda_cap=x", "lambda_cap"),
                                       ("epsilon=abc", "epsilon")])
def test_config_value_it_cannot_read_is_usage_error(line, key, tmp_path,
                                                    capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["--config", str(cfg), "run",
                     str(GOLDEN / "sparse-k3.stream")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert f"config key {key}:" in err


@pytest.mark.parametrize("alpha", ["0", "nan"])
def test_run_sparsified_bad_alpha_is_usage_error(alpha, capsys):
    assert cli.main(["run", str(GOLDEN / "sparse-k3.stream"), "--mode",
                     "sparsified", "--alpha", alpha]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert "alpha" in err


@pytest.mark.parametrize("line, key", [
    ("epsilonn=0.3", "epsilonn"),               # a typo
    ("sched.t_capp=3", "sched.t_capp"),         # a typo of a schedule entry
    ("preset=paper_faithful", "preset"),        # removed keys
    ("sched.ell_stop_factor=20", "sched.ell_stop_factor"),
    ("sched.t_cap=3", "sched.t_cap"),
    ("gamma=8", "gamma"), ("theta=2", "theta"), ("lam=20", "lam")])
def test_unknown_config_key_is_usage_error(line, key, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed=3\n" + line + "\n")
    assert cli.main(["--config", str(cfg), "run",
                     str(GOLDEN / "sparse-k3.stream")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert f"unknown config key {key!r}" in err


def test_cli_has_no_preset_option():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--preset", "practical", "verify", "--suite", "lemmas"])
    assert exc.value.code == 2


def test_directory_as_stream_is_usage_error(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_directory_as_config_is_usage_error(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path), "run",
                     str(GOLDEN / "sparse-k3.stream")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_explicit_seed_zero_overrides_config(tmp_path):
    # --seed 0 is a seed, not "unset": it beats the config file's seed
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed=5\n")
    gen = ["gen", "--mode", "clustered", "--n", "40", "--k", "3"]
    paths = {}
    for tag, pre in (("zero", ["--config", str(cfg), "--seed", "0"]),
                     ("default", []), ("config", ["--config", str(cfg)])):
        paths[tag] = tmp_path / f"{tag}.txt"
        assert cli.main(pre + gen + ["--out", str(paths[tag])]) == 0
    text = {tag: p.read_text() for tag, p in paths.items()}
    assert text["zero"] == text["default"] != text["config"]


@pytest.mark.parametrize("k", [0, -2])
def test_run_k_below_one_is_usage_error(k, capsys):
    assert cli.main(["run", str(GOLDEN / "sparse-k3.stream"),
                     "--k", str(k)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert "k must be >= 1" in err


@pytest.mark.parametrize("window", [0, -3])
def test_sliding_window_below_one_is_usage_error(window, tmp_path, capsys):
    with pytest.raises(UsageError, match="window"):
        gen_workload("sliding-window", 20, 2, 64, 2, seed=1, window=window)
    out = tmp_path / "s.txt"
    assert cli.main(["gen", "--mode", "sliding-window", "--n", "20",
                     "--window", str(window), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("mode", [m for m in MODES if m != "sliding-window"])
def test_window_outside_sliding_window_is_usage_error(mode, tmp_path, capsys):
    with pytest.raises(UsageError, match="window"):
        gen_workload(mode, 20, 2, 64, 2, seed=1, window=5)
    out = tmp_path / "s.txt"
    assert cli.main(["gen", "--mode", mode, "--n", "20", "--window", "5",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "window" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["sliding-window", "adversarial-churn"])
def test_ins_frac_outside_clustered_and_uniform_is_usage_error(
        mode, tmp_path, capsys):
    with pytest.raises(UsageError, match="ins_frac"):
        gen_workload(mode, 20, 2, 64, 2, ins_frac=0.7, seed=1)
    out = tmp_path / "s.txt"
    assert cli.main(["gen", "--mode", mode, "--n", "20", "--ins-frac", "0.2",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "ins_frac" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["clustered", "uniform"])
def test_ins_frac_defaults_to_0_7_and_changes_the_stream(mode, tmp_path):
    def gen(*extra):
        out = tmp_path / "s.txt"
        assert cli.main(["gen", "--mode", mode, "--n", "40", *extra,
                         "--out", str(out)]) == 0
        return out.read_text()
    assert gen() == gen("--ins-frac", "0.7")
    assert gen() != gen("--ins-frac", "0.2")


def test_makerobust_cum_never_falls_across_swaps():
    # after a swap the new primary's own count can be lower than the old
    # one's; the column adds each update's calls by the primary it ran on
    stream = gen_workload("clustered", 80, 2, 64, 3, seed=6)
    res = run_stream(stream, Params(epsilon=0.5, d=2, delta=64, seed=0), 3,
                     mode="sparsified", alpha=1.0)
    assert res.summary["resets_total"] > 0
    col = [row["makerobust_cum"] for row in res.rows]
    assert col == sorted(col)
    assert res.summary["makerobust_per_update"] == col[-1] / len(col)


def test_run_stream_sched_with_sparsified_is_usage_error():
    stream = gen_workload("clustered", 20, 2, 64, 2, seed=1)
    with pytest.raises(UsageError, match="schedule"):
        run_stream(stream, P, 2, mode="sparsified", sched=schedule_for(P))


# Every `run` option but --out and --fixed-time (which the test reads the
# output through): a value that must change the run, and the modes it
# applies to. In any other mode the option is a usage error.
RUN_OPTIONS = {
    "--k": ("2", ("direct", "sparsified")),
    "--baseline-every": ("7", ("direct", "sparsified")),
    # on this stream 1.5 fires no swap; 1.2 fires 2, against none at 25
    "--alpha": ("1.2", ("sparsified",)),
    # on this stream the grid reaches the run through d2_samples, which
    # goes from 1 to 2 at delta 256
    "--delta": ("256", ("direct", "sparsified")),
    "--jl-dim": ("1", ("direct", "sparsified")),
}


def test_every_run_option_changes_the_run(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == set(RUN_OPTIONS) | {"--help", "--mode", "--out",
                                         "--fixed-time"}

    stream = tmp_path / "s.txt"
    stream.write_text(gen_workload("clustered", 80, 2, 64, 3,
                                   seed=6).serialize())
    out = tmp_path / "m.csv"

    def run(args):
        code = cli.main(["run", str(stream), "--fixed-time", "--out", str(out)]
                        + args)
        if code:
            return code, None
        return code, out.read_text() + Path(f"{out}.summary").read_text()

    base = {m: run(["--mode", m]) for m in ("direct", "sparsified")}
    assert base["direct"][0] == base["sparsified"][0] == 0
    assert base["direct"][1] != base["sparsified"][1]       # --mode
    for opt, (value, modes) in RUN_OPTIONS.items():
        for mode in ("direct", "sparsified"):
            code, text = run(["--mode", mode, opt, value])
            if mode in modes:
                assert code == 0 and text != base[mode][1], (opt, mode)
            else:
                err = capsys.readouterr().err
                assert code == 2 and err.startswith("usage error: ") \
                    and opt in err, (opt, mode)

    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(stream), "--witness"])
    assert exc.value.code == 2
    cfg = tmp_path / "c.cfg"
    for f in fields(ExponentSchedule):
        cfg.write_text(f"sched.{f.name}=1\n")
        assert cli.main(["--config", str(cfg), "run", str(stream)]) == 2
        assert f"unknown config key 'sched.{f.name}'" in capsys.readouterr().err
