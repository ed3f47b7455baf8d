"""Named invariant suites behind the `verify` CLI subcommand.

Each suite returns a list of (check_name, ok, detail). Suites are sized to
run in seconds and cover the structural invariants of each subsystem; the
full acceptance battery lives in the test suite.
"""

from __future__ import annotations

import itertools
import math

from .assignment import AssignmentStructure
from .controller import DynamicKMeans, validate_certificate
from .errors import NoColorError
from .geometry import (brute_nn, brute_opt_restricted, cost, dist, dist2,
                       opt_kmeans_exact, opt_kmeans_restricted_exact)
from .hashing import ConsistentHash
from .params import Params
from .range_query import BallOneMeans, CenterIndex, RangeIndex
from .rng import make_rng
from .sparsifier import SparsifiedRunner
from .subroutines import ClusterContext, restricted_kmeans
from .workload import gen_workload

SUITES = ("hashing", "range", "assignment", "subroutines", "controller",
          "sparsifier", "lemmas", "all")


def _grid(delta, d):
    return itertools.product(range(1, delta + 1), repeat=d)


def verify_hashing(seed=0, lambda_cap=None):
    out = []
    p = Params(epsilon=0.5, d=2, delta=16, seed=seed,
               **({"lambda_cap": lambda_cap} if lambda_cap else {}))
    rho = 4.0
    h = ConsistentHash(p, rho=rho, seed_tag="verify")
    values = {}
    nocolor = 0
    for x in _grid(16, 2):
        try:
            values[x] = h.eval(x)
        except NoColorError:
            nocolor += 1
    out.append(("hashing.no_color_events", nocolor == 0, f"count={nocolor}"))
    groups = {}
    for x, v in values.items():
        groups.setdefault(v, []).append(x)
    bad = 0
    for members in groups.values():
        for a in members:
            for b in members:
                if dist2(a, b) > rho * rho + 1e-9:
                    bad += 1
    out.append(("hashing.diameter", bad == 0, f"pairs over rho: {bad}"))
    over = 0
    sandwich_bad = 0
    if nocolor == 0:
        by_value = {}
        for x, v in values.items():
            by_value.setdefault(v, []).append(x)
        for x in _grid(16, 2):
            phi = h.ball_buckets(x)
            if len(phi) > p.lambda_cap:
                over += 1
            inner = rho / p.gamma
            for y in _grid(16, 2):
                if dist(x, y) <= inner and values[y] not in phi:
                    sandwich_bad += 1
            for v in phi:
                pts = by_value.get(v)
                if pts and min(dist(x, q) for q in pts) > 2 * rho + 1e-9:
                    sandwich_bad += 1
    out.append(("hashing.consistency_cap", over == 0, f"overflows: {over}"))
    out.append(("hashing.image_sandwich", sandwich_bad == 0,
                f"violations: {sandwich_bad}"))
    h2 = ConsistentHash(p, rho=rho, seed_tag="verify")
    same = all(h2.eval(x) == values.get(x) for x in _grid(16, 2)) \
        if nocolor == 0 else False
    out.append(("hashing.determinism", same, "same seed, same values"))
    return out


def verify_range(seed=0):
    out = []
    p = Params(epsilon=0.5, d=2, delta=64, seed=seed)
    rng = make_rng(seed, "verify-range")
    idx = RangeIndex(p, "verify")
    pts = {}
    for i in range(200):
        pt = (rng.randint(1, 64), rng.randint(1, 64))
        idx.insert(i, pt, 1.0)
        pts[i] = pt
    bad = 0
    for _ in range(150):
        x = (rng.randint(1, 64), rng.randint(1, 64))
        r = rng.random() * 40
        _, ids = idx.query(x, r, with_ids=True)
        got = set(ids)
        inner = {i for i, q in pts.items() if dist(q, x) <= r}
        outer = {i for i, q in pts.items() if dist(q, x) <= 3 * p.gamma * r}
        if not (inner <= got <= outer):
            bad += 1
    out.append(("range.query_sandwich", bad == 0, f"violations: {bad}"))

    ci = CenterIndex(p, "verify-ann", track_dist=True, gammas=(1.0, 8.0))
    S = set()
    ann_bad = dist_bad = flip_bad = 0
    bits = {}
    for step in range(300):
        if not S or rng.random() < 0.6:
            s = (rng.randint(1, 64), rng.randint(1, 64))
            if s in S:
                continue
            S.add(s)
            ci.insert(s)
        else:
            s = rng.choice(sorted(S))
            S.discard(s)
            ci.delete(s)
            for g in ci.gammas:
                bits.pop((s, g), None)  # bits vanish with the center
        for ss in S:
            others = S - {ss}
            dh = ci.dhat(ss)
            if others:
                true_d = min(dist(ss, t) for t in others)
                if not (true_d - 1e-9 <= dh <= 6 * p.gamma * true_d + 1e-9):
                    dist_bad += 1
            elif not math.isinf(dh):
                dist_bad += 1
        for s_ev, g, bit in ci.drain_events():
            key = (s_ev, g)
            if bits.get(key, 0) == bit:
                flip_bad += 1
            bits[key] = bit
        for ss in S:
            for gi, g in enumerate(ci.gammas):
                b = ci.indicator_bit(ss, gi)
                if bits.get((ss, g), 0) != b:
                    flip_bad += 1
                others = S - {ss}
                if others:
                    true_d = min(dist(ss, t) for t in others)
                    if true_d <= g and b != 1:
                        flip_bad += 1
                    if true_d > 6 * p.gamma * g and b != 0:
                        flip_bad += 1
        if len(S) >= 2:
            x = (rng.randint(1, 64), rng.randint(1, 64))
            ans = ci.ann_query(x, exclude=frozenset({x}))
            _, nd = brute_nn(x, S, exclude_self=True)
            if ans is None or (nd > 0 and dist(x, ans) > 6 * p.gamma * nd + 1e-9):
                ann_bad += 1
    out.append(("range.ann_ratio", ann_bad == 0, f"violations: {ann_bad}"))
    out.append(("range.dhat_two_sided", dist_bad == 0, f"violations: {dist_bad}"))
    out.append(("range.indicator_flips", flip_bad == 0, f"violations: {flip_bad}"))

    b1m = BallOneMeans(p, "verify-b1m")
    for i, pt in pts.items():
        b1m.insert(i, pt, 1.0)
    ball_bad = 0
    for _ in range(100):
        x = (rng.randint(1, 64), rng.randint(1, 64))
        r = rng.random() * 30
        ans = b1m.query(x, r, witness=True)
        wit = ans.witness
        ws = [(pts[i], 1.0) for i in wit]
        if abs(ans.b - len(wit)) > 1e-9:
            ball_bad += 1
        if ws:
            cx = cost(ws, [x])
            if abs(cx - ans.cost_x) > 1e-6 * max(1.0, cx):
                ball_bad += 1
            opt1 = min(cost(ws, [c]) for c in
                       set(q for q, _ in ws) | {ans.c_star})
            if ans.cost_c_star > 4 * opt1 + 1e-9:
                ball_bad += 1
    out.append(("range.ball_1means", ball_bad == 0, f"violations: {ball_bad}"))
    return out


def verify_assignment(seed=0):
    out = []
    p = Params(epsilon=0.5, d=2, delta=64, seed=seed)
    rng = make_rng(seed, "verify-assign")
    a = AssignmentStructure(p, seed_tag="verify")
    pts, centers = {}, set()
    part_bad = eq_bad = 0
    for step in range(400):
        r = rng.random()
        if r < 0.45 or not pts:
            pt = (rng.randint(1, 64), rng.randint(1, 64))
            a.point_insert(step, pt, rng.choice([1.0, 2.0]))
            pts[step] = pt
        elif r < 0.6:
            k = rng.choice(sorted(pts))
            a.point_delete(k)
            del pts[k]
        elif r < 0.85 or not centers:
            s = (rng.randint(1, 64), rng.randint(1, 64))
            if s not in centers:
                a.center_insert(s)
                centers.add(s)
        else:
            s = rng.choice(sorted(centers))
            a.center_delete(s)
            centers.discard(s)
        if centers:
            part_bad += len(a.audit_partition())
            eq_bad += len(a.audit_equidistant(centers))
    out.append(("assignment.partition", part_bad == 0, f"violations: {part_bad}"))
    out.append(("assignment.equidistant", eq_bad == 0, f"violations: {eq_bad}"))
    tot = sum(w for _, w, _ in a.points.values())
    ok = centers and abs(a.weights_total() - tot) <= 1e-9 * max(1.0, tot)
    out.append(("assignment.weight_conservation", bool(ok),
                f"{a.weights_total()} vs {tot}"))
    order = a.ordering(lambda c: 1.0)
    keys = [a.w_S[c] for c in order]
    out.append(("assignment.ordering", keys == sorted(keys), "recomputed keys"))
    return out


def verify_subroutines(seed=0):
    out = []
    p = Params(epsilon=0.5, d=2, delta=64, seed=seed)
    rng = make_rng(seed, "verify-sub")
    worst = 0.0
    for trial in range(30):
        n = rng.randint(8, 30)
        pw = [((rng.randint(1, 64), rng.randint(1, 64)), 1.0) for _ in range(n)]
        S = set()
        while len(S) < 6:
            S.add((rng.randint(1, 64), rng.randint(1, 64)))
        r = rng.randint(1, 3)
        ctx = ClusterContext.from_instance(p, pw, S, seed_tag=("v", trial))
        R = restricted_kmeans(ctx, r, rng)
        got = cost(pw, S - R)
        _, best = brute_opt_restricted(pw, S, r)
        worst = max(worst, got / best if best > 0 else (1.0 if got <= 1e-9 else math.inf))
    out.append(("subroutines.restricted_ratio", worst <= 50.0,
                f"worst ratio {worst:.2f}"))
    return out


def verify_controller(seed=0):
    out = []
    p = Params(epsilon=0.5, d=2, delta=256, seed=seed)
    dk = DynamicKMeans(p, 5, witness=True)
    stream = gen_workload("clustered", 500, 2, 256, 5, ins_frac=0.7, seed=seed)
    rec_sum = 0
    prev = frozenset()
    drift_bad = 0

    def on_mr(ctrl, rec):
        nonlocal drift_bad
        bad = validate_certificate(rec, ctrl.X, ctrl.sched, ctrl.params.delta)
        drift_bad += len(bad)

    dk.on_makerobust = on_mr
    for op, key, point, w in stream.ops():
        rep = dk.update(op, key, point, w)
        now = dk.solution()
        if len(prev.symmetric_difference(now)) != rep.recourse:
            rec_sum += 1
        prev = now
    out.append(("controller.recourse_identity", rec_sum == 0,
                f"mismatches: {rec_sum}"))
    out.append(("controller.instrumented", not dk.violations,
                f"{dk.violations[:2]}"))
    out.append(("controller.certificates", drift_bad == 0,
                f"violations: {drift_bad}"))
    out.append(("controller.solution_size", len(dk.solution()) <= 5,
                f"|S|={len(dk.solution())}"))
    revalid = dk.revalidate_certificates()
    out.append(("controller.cert_revalidation", not revalid, f"{revalid[:2]}"))
    return out


def verify_sparsifier(seed=0):
    out = []
    p = Params(epsilon=0.5, d=2, delta=256, seed=seed)
    k = 5
    runner = SparsifiedRunner(p, k, n_hint=300, verifiers=2, alpha=30.0)
    stream = gen_workload("clustered", 300, 2, 256, k, ins_frac=0.8, seed=seed)
    ok = True
    size_ok = True
    for op, key, point, w in stream.ops():
        runner.update(op, key, point, w)
        ok = ok and runner.contract_holds()
        size_ok = size_ok and runner.u_size() <= runner.sparsifier.size_bound()
    out.append(("sparsifier.post_update_contract", ok, "cost(U,S*) <= alpha*E"))
    out.append(("sparsifier.size_bound", size_ok, f"|U|={runner.u_size()}"))
    runner.primary.force_solution = frozenset({(1, 1)})  # fault injection
    resets = runner.update("insert", 999999, (128, 128), 1.0)
    out.append(("sparsifier.fault_reset", resets >= 1, f"resets={resets}"))
    return out


def check_lemmas(rng, instances: int):
    """Projection and lazy-update lemmas against the exact oracles on
    `instances` random small instances each; returns the two violation
    counts."""
    proj_bad = lazy_bad = 0
    for _ in range(instances):
        n = rng.randint(4, 8)
        k = rng.randint(1, 3)
        pw = [((rng.randint(1, 32), rng.randint(1, 32)), 1.0)
              for _ in range(n)]
        C = set()
        while len(C) < k + rng.randint(0, 2):
            C.add((rng.randint(1, 32), rng.randint(1, 32)))
        opt_k = opt_kmeans_exact(pw, k)
        opt_restr = opt_kmeans_restricted_exact(pw, C, min(k, len(C)))
        if opt_restr > 2 * cost(pw, C) + 8 * opt_k + 1e-6:
            proj_bad += 1
    for _ in range(instances):
        n = rng.randint(4, 8)
        k = rng.randint(1, 3)
        s = rng.randint(1, 2)
        pw = [((rng.randint(1, 32), rng.randint(1, 32)), 1.0)
              for _ in range(n)]
        pw2 = list(pw)
        for _ in range(s):
            if pw2 and rng.random() < 0.5:
                pw2.pop(rng.randrange(len(pw2)))
            else:
                pw2.append(((rng.randint(1, 32), rng.randint(1, 32)), 1.0))
        if opt_kmeans_exact(pw2, k + s) > opt_kmeans_exact(pw, k) + 1e-6:
            lazy_bad += 1
    return proj_bad, lazy_bad


def verify_lemmas(seed=0):
    proj_bad, lazy_bad = check_lemmas(make_rng(seed, "verify-lemmas"), 60)
    return [("lemmas.projection", proj_bad == 0, f"violations: {proj_bad}"),
            ("lemmas.lazy_updates", lazy_bad == 0, f"violations: {lazy_bad}")]


def run_suite(name: str, seed: int = 0, **kw):
    table = {
        "hashing": verify_hashing,
        "range": verify_range,
        "assignment": verify_assignment,
        "subroutines": verify_subroutines,
        "controller": verify_controller,
        "sparsifier": verify_sparsifier,
        "lemmas": verify_lemmas,
    }
    if name == "all":
        results = []
        for key in table:
            results.extend(table[key](seed=seed))
        return results
    if name not in table:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return table[name](seed=seed, **kw)
