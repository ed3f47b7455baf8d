"""Command line interface: gen, run, verify, bench.

Exit codes: 0 ok, 1 invariant failure, 2 usage error. Config files are flat
key=value lines mirroring the parameter names; CLI flags override them.
"""

from __future__ import annotations

import argparse
import sys

from .errors import UsageError
from .harness import measure_growth, run_stream
from .params import Params
from .verify import SUITES, run_suite
from .workload import MODES, UpdateStream, gen_workload

PARAM_KEYS = {"epsilon": float, "d": int, "delta": int, "lambda_cap": int,
              "colors": int, "seed": int}


def load_config(path: str) -> dict:
    """key=value lines; a key that is not a Params value is a usage error
    that names it, so a misspelt key is never ignored."""
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in PARAM_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            cfg[key] = value.strip()
    return cfg


def config_value(cfg: dict, key: str, cast):
    """cfg[key] read as `cast`; a value it cannot read is a usage error that
    names the key."""
    try:
        return cast(cfg[key])
    except ValueError:
        raise UsageError(f"config key {key}: cannot read {cfg[key]!r} as "
                         f"{cast.__name__}") from None


def params_from(cfg: dict, args) -> Params:
    kw = {}
    for key, cast in PARAM_KEYS.items():
        if key in cfg:
            kw[key] = config_value(cfg, key, cast)
    if args.seed is not None:
        kw["seed"] = args.seed
    if getattr(args, "d", None) is not None:
        kw["d"] = args.d
    if getattr(args, "delta", None) is not None:
        kw["delta"] = args.delta
    return Params(**kw)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dynkmeans")
    ap.add_argument("--config", help="key=value config file")
    ap.add_argument("--seed", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a workload stream")
    g.add_argument("--mode", choices=MODES, default="clustered")
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--delta", type=int, default=256)
    g.add_argument("--k", type=int, default=5)
    g.add_argument("--ins-frac", type=float, default=None,
                   help="insert share of clustered and uniform (default 0.7)")
    g.add_argument("--window", type=int, default=None)
    g.add_argument("--out", default="-")

    # no abbreviations: `run --d` would otherwise be read as --delta
    r = sub.add_parser("run", help="replay a stream through the algorithm",
                       allow_abbrev=False)
    r.add_argument("stream", help="stream file path")
    r.add_argument("--mode", choices=("direct", "sparsified"), default="direct")
    r.add_argument("--k", type=int, default=None)
    r.add_argument("--baseline-every", type=int, default=100)
    r.add_argument("--out", default=None, help="metrics CSV path")
    r.add_argument("--fixed-time", action="store_true",
                   help="deterministic time column for reproducible files")
    r.add_argument("--alpha", type=float, default=None,
                   help="swap threshold of --mode sparsified (default 25)")
    r.add_argument("--delta", type=int, default=None)
    r.add_argument("--jl-dim", type=int, default=None,
                   help="project incoming points to this dimension first")

    v = sub.add_parser("verify", help="run an invariant suite")
    v.add_argument("--suite", choices=SUITES, default="all")
    v.add_argument("--lambda-cap", type=int, default=None,
                   help="bucket cap for --suite hashing only")

    b = sub.add_parser("bench", help="update-time growth measurement")
    b.add_argument("--k", type=int, default=5)
    b.add_argument("--n-small", type=int, default=1000)
    b.add_argument("--n-large", type=int, default=10000)
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--delta", type=int, default=256)

    try:
        args = ap.parse_args(argv)
        cfg = load_config(args.config) if args.config else {}
        if args.cmd == "gen":
            if args.seed is not None:
                seed = args.seed
            else:
                seed = config_value(cfg, "seed", int) if "seed" in cfg else 0
            stream = gen_workload(args.mode, args.n, args.d, args.delta,
                                  args.k, ins_frac=args.ins_frac, seed=seed,
                                  window=args.window)
            text = stream.serialize()
            if args.out == "-":
                sys.stdout.write(text)
            else:
                with open(args.out, "w") as fh:
                    fh.write(text)
            return 0

        if args.cmd == "run":
            with open(args.stream) as fh:
                stream = UpdateStream.parse(fh.read())
            args.d = stream.d       # a stream fixes its own dimension
            if args.delta is None:
                args.delta = stream.delta
            params = params_from(cfg, args)
            k = args.k if args.k is not None else stream.k_hint
            if k < 1:
                raise UsageError(f"k must be >= 1, got {k}")
            if args.alpha is not None and args.mode != "sparsified":
                raise UsageError("--alpha applies to --mode sparsified only")
            time_source = None
            if args.fixed_time:
                counter = [0]

                def time_source():
                    counter[0] += 1000
                    return counter[0]
            result = run_stream(stream, params, k, mode=args.mode,
                                baseline_every=args.baseline_every,
                                time_source=time_source,
                                alpha=25.0 if args.alpha is None else args.alpha,
                                jl_dim=args.jl_dim)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(result.metrics_csv())
                with open(args.out + ".summary", "w") as fh:
                    fh.write(result.summary_text())
            sys.stdout.write(result.summary_text())
            return 0

        if args.cmd == "verify":
            results = run_suite(args.suite, seed=args.seed or 0,
                                lambda_cap=args.lambda_cap)
            failed = 0
            for name, ok, detail in results:
                print(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
                failed += 0 if ok else 1
            print(f"checks={len(results)} failed={failed}")
            return 0 if failed == 0 else 1

        if args.cmd == "bench":
            params = params_from(cfg, args)
            out = measure_growth(params, args.k, args.n_small, args.n_large,
                                 stream_seed=params.seed)
            for key in sorted(out):
                print(f"{key}={out[key]}")
            return 0
        return 2
    except (UsageError, OSError) as exc:   # OSError: a path it cannot use
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
