"""Stream replay with metrics, baseline comparison, and summaries."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

from .controller import DynamicKMeans
from .errors import UsageError
from .geometry import WeightedSet, jl_project, make_jl_matrix
from .params import ExponentSchedule, Params
from .rng import make_np_rng, make_rng
from .sparsifier import SparsifiedRunner
from .subroutines import static_weighted_kmeans
from .workload import UpdateStream, gen_workload

METRICS_COLUMNS = (
    "update_index", "op_kind", "cost_alg", "cost_baseline", "ratio",
    "recourse_step", "recourse_cum", "makerobust_cum", "resets_cum",
    "time_us", "n_live", "epoch_len",
)


@dataclass
class RunResult:
    rows: list
    summary: dict

    def metrics_csv(self) -> str:
        lines = [",".join(METRICS_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(_fmt(row[c]) for c in METRICS_COLUMNS))
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        return "".join(f"{k}={_fmt(v)}\n" for k, v in sorted(self.summary.items()))


def _fmt(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return repr(v)
    return str(v)


def _ratio(cost_alg: float, cost_base: float) -> float:
    if cost_base > 0:
        return cost_alg / cost_base
    return 1.0 if cost_alg <= 0 else math.inf


def baseline_solve(X: WeightedSet, k: int, rng) -> float:
    """Static solve from scratch on the live points; returns its cost."""
    if not len(X):
        return 0.0
    pts, ws = X.arrays()
    points = [tuple(int(v) for v in row) for row in pts]
    k_eff = min(k, len(set(points)))
    centers = static_weighted_kmeans(points, ws, k_eff, rng)
    return X.cost(centers)


def run_stream(stream: UpdateStream, params: Params, k: int,
               mode: str = "direct", baseline_every: int = 100,
               time_source=None, alpha: float = 25.0,
               sched: ExponentSchedule | None = None,
               jl_dim: int | None = None) -> RunResult:
    """Replay a stream through the controller (direct) or the sparsified
    runner; one metrics row per update, baseline re-solves at checkpoints.

    sched replaces the direct controller's schedule (the sparsified runner's
    controllers keep the default). jl_dim projects every incoming point
    (treated as a raw real vector) down to that dimension first.
    """
    if mode not in ("direct", "sparsified"):
        raise UsageError(f"unknown mode {mode!r}")
    if sched is not None and mode != "direct":
        raise UsageError("a schedule applies to mode 'direct' only")
    if baseline_every < 1:
        raise UsageError(f"baseline_every must be >= 1, got {baseline_every!r}")
    clock = time_source or time.perf_counter_ns
    brng = make_rng(params.seed, "baseline")

    jl_matrix = None
    if jl_dim is not None:
        if jl_dim < 1:
            raise UsageError("jl dimension must be >= 1")
        params = replace(params, d=jl_dim)
        jl_matrix = make_jl_matrix(stream.d, jl_dim,
                                   make_np_rng(params.seed, "jl"))

    direct = mode == "direct"
    if direct:
        target = DynamicKMeans(params, k, sched=sched)
    else:
        target = SparsifiedRunner(params, k, n_hint=max(stream.n, 16),
                                  alpha=alpha)
    ctrl = target if direct else target.primary   # a swap replaces the primary
    full_x = WeightedSet(params.d)   # the live input, kept on the measuring side

    rows = []
    recourse_cum = 0
    resets_cum = 0
    time_update_ns = 0
    time_baseline_ns = 0
    cost_alg = 0.0
    cost_base = 0.0
    ratio = 1.0
    n_live_max = 0
    prev_solution = frozenset()

    for idx, (op, key, point, weight) in enumerate(stream.ops(), start=1):
        if jl_matrix is not None and point is not None:
            point = jl_project(point, jl_matrix, params.delta)
        t0 = clock()
        out = target.update(op, key, point, weight)
        solution = target.solution()
        t1 = clock()
        time_update_ns += t1 - t0
        if op == "insert":
            full_x.insert(key, tuple(point), weight)
        else:
            full_x.delete(key)
        if not direct:
            resets_cum += out           # the runner returns 1 on a swap
            ctrl = target.primary
        step_recourse = len(prev_solution.symmetric_difference(solution))
        prev_solution = solution
        recourse_cum += step_recourse

        n_live = len(full_x)
        n_live_max = max(n_live_max, n_live)
        if idx == 1 or idx % baseline_every == 0:
            tb = clock()
            if solution and n_live:
                cost_alg = full_x.cost(solution)
            else:
                cost_alg = 0.0
            cost_base = baseline_solve(full_x, k, brng)
            ratio = _ratio(cost_alg, cost_base)
            time_baseline_ns += clock() - tb
        rows.append({
            "update_index": idx,
            "op_kind": "ins" if op == "insert" else "del",
            "cost_alg": cost_alg,
            "cost_baseline": cost_base,
            "ratio": ratio,
            "recourse_step": step_recourse,
            "recourse_cum": recourse_cum,
            "makerobust_cum": ctrl.makerobust_cum,
            "resets_cum": resets_cum,
            "time_us": (t1 - t0) // 1000,
            "n_live": n_live,
            "epoch_len": ctrl.ell + 1,
        })

    n_updates = max(1, len(rows))
    ratios = [r["ratio"] for r in rows if r["update_index"] == 1
              or r["update_index"] % baseline_every == 0]
    finite = sorted(x for x in ratios if not math.isinf(x))
    summary = {
        "n_updates": len(rows),
        "amortized_recourse": recourse_cum / n_updates,
        "amortized_time_us": time_update_ns / 1000 / n_updates,
        "time_updates_s": time_update_ns / 1e9,
        "time_baseline_s": time_baseline_ns / 1e9,
        "makerobust_per_update": ctrl.makerobust_cum / n_updates,
        "resets_total": resets_cum,
        "ratio_p50": _pct(finite, 0.5),
        "ratio_p95": _pct(finite, 0.95),
        "ratio_max": max(ratios) if ratios else 1.0,
        "n_live_max": n_live_max,
        "mode": mode,
    }
    if direct:
        summary["nocolor_events"] = target.nocolor_events
        summary["instrumented_violations"] = len(target.violations)
        if time_source is None:  # wall-clock only; breaks replay determinism
            summary["time_points_s"] = target.time_points_ns / 1e9
            summary["time_epochs_s"] = target.time_epoch_ns / 1e9
    return RunResult(rows=rows, summary=summary)


def _pct(sorted_vals, q: float) -> float:
    if not sorted_vals:
        return 1.0
    i = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[i]


def time_naive_recompute(stream: UpdateStream, params: Params, k: int,
                         sample_every: int = 50) -> float:
    """Average per-update seconds for recompute-from-scratch, measured on a
    sample of updates and extrapolated."""
    X = WeightedSet(params.d)
    rng = make_rng(params.seed, "naive")
    solve_ns = 0
    solves = 0
    for idx, (op, key, point, weight) in enumerate(stream.ops(), start=1):
        if op == "insert":
            X.insert(key, tuple(point), weight)
        else:
            X.delete(key)
        if idx % sample_every == 0 and len(X):
            t0 = time.perf_counter_ns()
            baseline_solve(X, k, rng)
            solve_ns += time.perf_counter_ns() - t0
            solves += 1
    if not solves:
        return 0.0
    return solve_ns / solves / 1e9


def measure_growth(params: Params, k: int, n_small: int, n_large: int,
                   stream_seed: int) -> dict:
    """Per-update time of the controller and of recompute-from-scratch on
    clustered streams of n_small and n_large updates, and their growth."""
    out = {}
    for tag, n in (("small", n_small), ("large", n_large)):
        stream = gen_workload("clustered", n, params.d, params.delta, k,
                              seed=stream_seed)
        t0 = time.perf_counter()
        res = run_stream(stream, params, k, baseline_every=n + 1)
        out[f"time_{tag}_us"] = res.summary["amortized_time_us"]
        out[f"naive_{tag}_s"] = time_naive_recompute(
            stream, params, k, sample_every=max(50, n // 20))
        out[f"wall_{tag}_s"] = time.perf_counter() - t0
    out["growth_alg"] = out["time_large_us"] / max(out["time_small_us"], 1e-9)
    out["growth_naive"] = out["naive_large_s"] / max(out["naive_small_s"], 1e-12)
    return out
