"""Invariant checks, and the named suites behind the `verify` CLI subcommand.

Each `check_*` function drives one structure, checks it against a
brute-force oracle or a stated invariant, and returns violation counts. The acceptance battery
(`tests/test_acceptance.py`) calls them at full size; each `verify_*` suite
calls the same functions at a smaller size, sized to run in seconds, and
returns a list of (check_name, ok, detail).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .assignment import AssignmentStructure
from .controller import DynamicKMeans, validate_certificate
from .errors import NoColorError, UsageError
from .geometry import (brute_nn, brute_opt_restricted, cost, dist,
                       opt_kmeans_exact, opt_kmeans_restricted_exact)
from .hashing import ConsistentHash
from .params import Params, schedule_for
from .range_query import BallOneMeans, CenterIndex
from .rng import make_rng
from .sparsifier import SparsifiedRunner
from .subroutines import ClusterContext, restricted_kmeans
from .workload import gen_workload


def _point(rng, params):
    return tuple(rng.randint(1, params.delta) for _ in range(params.d))


# ------------------------------------------------------------------ hashing

def _hash_grid(params, rho, seed_tag):
    """Hash of every point of the grid [delta]^d, in grid order; points that
    hit NoColor are left out and counted."""
    h = ConsistentHash(params, rho=rho, seed_tag=seed_tag)
    values, nocolor = {}, 0
    for x in itertools.product(range(1, params.delta + 1), repeat=params.d):
        try:
            values[x] = h.eval(x)
        except NoColorError:
            nocolor += 1
    return h, values, nocolor


def check_hash_diameter(params, rho, seed_tag):
    """Criterion 1: points sharing a hash value lie within rho of each other.
    Returns (NoColor events, pairs farther apart than rho)."""
    _, values, nocolor = _hash_grid(params, rho, seed_tag)
    groups = {}
    for x, v in values.items():
        groups.setdefault(v, []).append(x)
    bad = 0
    for members in groups.values():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if dist(a, b) > rho + 1e-9:
                    bad += 1
    return nocolor, bad


def check_hash_consistency(rng, params, rho, seed_tag, queries):
    """Criterion 2: on `queries` random points, eval finds a color and
    ball_buckets returns at most lambda_cap values. Returns (NoColor events,
    cap overflows)."""
    h = ConsistentHash(params, rho=rho, seed_tag=seed_tag)
    nocolor = over = 0
    for _ in range(queries):
        x = _point(rng, params)
        try:
            h.eval(x)
        except NoColorError:
            nocolor += 1
        if len(h.ball_buckets(x)) > params.lambda_cap:
            over += 1
    return nocolor, over


def check_hash_sandwich(params, rho, seed_tag):
    """Criterion 3 over the full grid: ball_buckets(x) has at most lambda_cap
    values, holds the value of every point within rho/gamma of x, and each of
    its values is realized by some point within 2*rho of x. Returns (NoColor
    events, cap overflows, sandwich violations)."""
    h, values, nocolor = _hash_grid(params, rho, seed_tag)
    realized = {}
    for x, v in values.items():
        realized.setdefault(v, []).append(x)
    inner_r = rho / params.gamma
    over = bad = 0
    for x in values:
        phi = h.ball_buckets(x)
        if len(phi) > params.lambda_cap:
            over += 1
        for y, vy in values.items():
            if dist(x, y) <= inner_r and vy not in phi:
                bad += 1
        for v in phi:
            mem = realized.get(v)
            if mem and min(dist(x, q) for q in mem) > 2 * rho + 1e-9:
                bad += 1
    return nocolor, over, bad


# ------------------------------------------------------------ range queries

def check_ann(rng, params, steps, seed_tag):
    """Criterion 4: a script of center inserts, deletes and ANN queries,
    replayed on two indexes built alike. Returns (answers missing or farther
    than 6*gamma times the true nearest distance, whether both replays gave
    the same answers, number of queries)."""
    script = []
    S = set()
    for _ in range(steps):
        r = rng.random()
        if r < 0.35 or len(S) < 2:
            s = _point(rng, params)
            if s not in S:
                S.add(s)
                script.append(("ins", s))
            continue
        if r < 0.5 and len(S) > 2:
            s = rng.choice(sorted(S))
            S.discard(s)
            script.append(("del", s))
        else:
            script.append(("query", _point(rng, params)))
    bad = 0
    replays = []
    for against_oracle in (True, False):
        ci = CenterIndex(params, seed_tag)
        S = set()
        answers = []
        for op, v in script:
            if op == "ins":
                S.add(v)
                ci.insert(v)
            elif op == "del":
                S.discard(v)
                ci.delete(v)
            else:
                ans = ci.ann_query(v, exclude=frozenset({v}))
                answers.append(ans)
                if against_oracle:
                    _, nd = brute_nn(v, S, exclude_self=True)
                    if ans is None or (nd > 0 and dist(v, ans)
                                       > 6 * params.gamma * nd + 1e-9):
                        bad += 1
        replays.append(answers)
    return bad, replays[0] == replays[1], len(replays[0])


def audit_neighbor_counts(ci: CenterIndex) -> int:
    """Count and `ell` audit of a CenterIndex: every maintained neighbor
    count must equal a from-scratch count of the other centers whose cell
    lies in the footprint, every neighbor bit (count > 0) must equal the
    index's own probe, and every `ell` must be the lowest level whose probe
    holds, or None. Returns the number of (center, level) pairs and of
    centers that disagree."""
    bad = 0
    low = {}                # center -> lowest level whose probe holds
    for i in ci.hashes:
        at = {}
        for rec in ci.centers.values():
            at[rec.cells[i]] = at.get(rec.cells[i], 0) + 1
        for s, rec in ci.centers.items():
            fp = rec.footprints[i]
            want = sum(at.get(c, 0) for c in fp) - (rec.cells[i] in fp)
            probe = ci._probe_bit(s, i)
            if rec.counts[i] != want or (rec.counts[i] > 0) != probe:
                bad += 1
            if probe:
                low.setdefault(s, i)
    return bad + sum(rec.ell != low.get(s) for s, rec in ci.centers.items())


def check_indicators(rng, params, gammas, steps, seed_tag):
    """Criterion 5: random center inserts and deletes on a distance-tracking
    index. After every step, for each center s with true nearest distance d
    (inf when alone): dhat(s) lies in [d, 6*gamma*d]; every reported flip
    changed its bit and no change went unreported; indicator i is 1 when
    d <= gammas[i] and 0 when d > 6*gamma*gammas[i]; and the neighbor counts
    and `ell` pass `audit_neighbor_counts`. Returns (indicator and count
    violations, dhat violations)."""
    ci = CenterIndex(params, seed_tag, gammas=gammas)
    S = set()
    bits = {}
    bad = dhat_bad = 0
    g6 = 6 * params.gamma
    for _ in range(steps):
        if not S or rng.random() < 0.55:
            s = _point(rng, params)
            if s in S:
                continue
            S.add(s)
            ci.insert(s)
        else:
            s = rng.choice(sorted(S))
            S.discard(s)
            ci.delete(s)
            for g in gammas:
                bits.pop((s, g), None)  # bits vanish with the center
        for s_ev, g, bit in ci.drain_events():
            if bits.get((s_ev, g), 0) == bit:
                bad += 1  # spurious flip
            bits[(s_ev, g)] = bit
        bad += audit_neighbor_counts(ci)
        for s in S:
            true_d = min((dist(s, t) for t in S if t != s), default=math.inf)
            if not true_d - 1e-9 <= ci.dhat(s) <= g6 * true_d + 1e-9:
                dhat_bad += 1
            for gi, g in enumerate(gammas):
                b = ci.indicator_bit(s, gi)
                if bits.get((s, g), 0) != b:
                    bad += 1  # missed flip
                if true_d <= g and b != 1:
                    bad += 1
                if true_d > g6 * g and b != 0:
                    bad += 1
    return bad, dhat_bad


def check_ball_one_means(rng, params, n_points, queries, r_max, seed_tag):
    """Criterion 6: `n_points` random weighted points, then `queries` ball
    queries with radius below r_max. The witness ids must contain every point
    within r and none beyond 3*gamma*r; on them the answer's weight and
    costs at x and at c_star must be exact and c_star within 4 of the best
    1-means center. Returns (sandwich violations, estimate violations)."""
    bm = BallOneMeans(params, seed_tag)
    pts = {}
    for i in range(n_points):
        pt = _point(rng, params)
        bm.insert(i, pt, rng.choice([1.0, 2.0, 0.5]))
        pts[i] = pt
    sandwich = bad = 0
    for _ in range(queries):
        x = _point(rng, params)
        r = rng.random() * r_max
        ans = bm.query(x, r, witness=True)
        wit = ans.witness
        inner = {i for i, q in pts.items() if dist(q, x) <= r}
        outer = {i for i, q in pts.items() if dist(q, x) <= 3 * params.gamma * r}
        if not (inner <= wit <= outer):
            sandwich += 1
            continue
        ws = [(pts[i], bm.registry[i][1]) for i in wit]
        total = sum(w for _, w in ws)
        if abs(ans.b - total) > 1e-6 * max(1.0, total):
            bad += 1
        if ws:
            cx = cost(ws, [x])
            cc = cost(ws, [ans.c_star])
            if abs(cx - ans.cost_x) > 1e-6 * max(1.0, cx):
                bad += 1  # c_est = 1 demands exact estimates
            if abs(cc - ans.cost_c_star) > 1e-6 * max(1.0, cc):
                bad += 1
            cands = set(q for q, _ in ws) | {ans.c_star}
            opt1 = min(cost(ws, [c]) for c in cands)
            if ans.cost_c_star > 4 * opt1 + 1e-6:
                bad += 1  # c_opt = 4
    return sandwich, bad


# --------------------------------------------------------------- assignment

def check_assignment(rng, params, updates, seed_tag):
    """Criteria 7 and 8: a random mix of point and center inserts and
    deletes; after every update with a center, audit the partition and
    equidistance, and check that the cluster weights sum to the live weight
    within 1e-9. Returns (partition, equidistance and conservation violation
    counts, the structure)."""
    a = AssignmentStructure(params, seed_tag=seed_tag)
    pts, centers = {}, set()
    part_bad = eq_bad = cons_bad = 0
    for step in range(updates):
        r = rng.random()
        if r < 0.40 or not pts:
            pt = _point(rng, params)
            a.point_insert(step, pt, rng.choice([1.0, 2.0]))
            pts[step] = pt
        elif r < 0.62:
            key = rng.choice(sorted(pts))
            a.point_delete(key)
            del pts[key]
        elif r < 0.86 or not centers:
            s = _point(rng, params)
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
            total = sum(w for _, w, _ in a.points.values())
            if abs(a.weights_total() - total) > 1e-9 * max(1.0, total):
                cons_bad += 1
    return part_bad, eq_bad, cons_bad, a


# -------------------------------------------------------------- subroutines

def check_restricted(rng, params, trials, seed_tag):
    """Criterion 10: restricted k-means against the exhaustive optimum on
    small instances, uniform and clustered in turn. Returns (instances with
    ratio above C_restr = 50, the sorted ratios)."""
    delta = params.delta
    ratios = []
    bad = 0
    for trial in range(trials):
        n = rng.randint(12, 60)
        if trial % 2 == 0:
            pw = [((rng.randint(1, delta), rng.randint(1, delta)), 1.0)
                  for _ in range(n)]
        else:
            cents = [(rng.randint(4, delta - 4), rng.randint(4, delta - 4))
                     for _ in range(4)]
            pw = []
            for _ in range(n):
                c = cents[rng.randrange(4)]
                pw.append(((min(max(c[0] + rng.randint(-2, 2), 1), delta),
                            min(max(c[1] + rng.randint(-2, 2), 1), delta)),
                           1.0))
        S = set()
        while len(S) < rng.randint(5, 10):
            S.add((rng.randint(1, delta), rng.randint(1, delta)))
        r = rng.randint(1, 3)
        ctx = ClusterContext.from_instance(params, pw, S,
                                           seed_tag=(seed_tag, trial))
        R = restricted_kmeans(ctx, r, rng)
        got = cost(pw, S - R)
        _, best = brute_opt_restricted(pw, S, r)
        if best > 0:
            ratios.append(got / best)
            if got / best > 50.0:
                bad += 1
        elif got > 1e-9:
            bad += 1
        else:
            ratios.append(1.0)
    ratios.sort()
    return bad, ratios


# --------------------------------------------------------------- controller

def cert_schedule(params):
    """The certificate schedule: the default one with divisors small enough
    that make_robust reaches t >= 1 and queries BallOneMeans."""
    sched = schedule_for(params)
    return replace(sched, makerobust_div=sched.lam ** 0.5,
                   robust_div=sched.lam, t_cap=max(2, sched.t_cap))


def cert_controller(params, k=5):
    """A witness-mode controller under the certificate schedule."""
    return DynamicKMeans(params, k, witness=True, sched=cert_schedule(params))


@dataclass
class CertCheck:
    controller: DynamicKMeans
    calls: int = 0          # make_robust calls
    certified: int = 0      # calls that reached t >= 1
    max_t: int = 0
    cert_bad: int = 0       # certificate violations
    drift_bad: int = 0      # t >= 1 moves beyond 4*lam^(3t-1)
    recourse_bad: int = 0   # updates whose recourse misstates the change


def check_certificates(dk, stream, stop_calls=None) -> CertCheck:
    """Criteria 12 and 13: replay `stream` through the witness-mode
    controller `dk`, validate every make_robust certificate against the live
    dataset and the drift of every t >= 1 move, and compare each update's
    reported recourse with the change of the solution. With `stop_calls`,
    stop once that many calls were made and one reached t >= 1. The
    controller's instrumented violations are left in `dk.violations`."""
    out = CertCheck(dk)

    def on_mr(ctrl, rec):
        out.calls += 1
        out.max_t = max(out.max_t, rec.t)
        out.cert_bad += len(validate_certificate(rec, ctrl.X, ctrl.sched,
                                                 ctrl.params.delta))
        if rec.t >= 1:
            out.certified += 1
            if dist(rec.u, rec.v) > 4 * ctrl.sched.lam ** (3 * rec.t - 1) + 1e-9:
                out.drift_bad += 1

    dk.on_makerobust = on_mr
    prev = dk.solution()
    for op, key, point, w in stream.ops():
        rep = dk.update(op, key, point, w)
        now = dk.solution()
        if len(prev.symmetric_difference(now)) != rep.recourse:
            out.recourse_bad += 1
        prev = now
        if stop_calls is not None and out.calls >= stop_calls and out.max_t >= 1:
            break
    return out


# --------------------------------------------------------------- sparsifier

def u_size_bound(sparsifier, n: int) -> float:
    """Criterion 16's bound on |U| over n updates: c_u*k*log2(n)^2 + 2*block."""
    return (sparsifier.c_u * sparsifier.k * math.log2(max(n, 4)) ** 2
            + 2 * sparsifier.block)


def check_sparsified(runner, stream):
    """Criterion 16: replay `stream` through a SparsifiedRunner. After every
    update the primary's cost on U stays within alpha times the verifier
    minimum, and |U| within u_size_bound for the stream's length. Returns
    (contract violations, size violations, most primary swaps in one
    update, which is at most 1)."""
    bound = u_size_bound(runner.sparsifier, len(stream.records))
    contract_bad = size_bad = burst_max = 0
    for op, key, point, w in stream.ops():
        burst_max = max(burst_max, runner.update(op, key, point, w))
        if not runner.contract_holds():
            contract_bad += 1
        if runner.u_size() > bound:
            size_bad += 1
    return contract_bad, size_bad, burst_max


# ------------------------------------------------------------------- lemmas

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


# ------------------------------------------------------------------- suites

def _violations(name, count):
    return (name, count == 0, f"violations: {count}")


def verify_hashing(seed=0, lambda_cap=None):
    cap = lambda_cap or 0   # 0 selects the default cap of Params
    p = Params(epsilon=0.5, d=2, delta=16, seed=seed, lambda_cap=cap)
    p8 = Params(epsilon=0.5, d=8, delta=1024, seed=seed, lambda_cap=cap)
    rho = 4.0
    nocolor_d, diameter = check_hash_diameter(p, rho, "verify")
    nocolor_c, over_c = check_hash_consistency(
        make_rng(seed, "verify-hash"), p8, 64.0, "verify", 20)
    nocolor_s, over_s, sandwich = check_hash_sandwich(p, rho, "verify")
    nocolor = nocolor_d + nocolor_c + nocolor_s
    over = over_c + over_s
    same = _hash_grid(p, rho, "verify")[1] == _hash_grid(p, rho, "verify")[1]
    return [("hashing.no_color_events", nocolor == 0, f"count={nocolor}"),
            ("hashing.diameter", diameter == 0, f"pairs over rho: {diameter}"),
            ("hashing.consistency_cap", over == 0, f"overflows: {over}"),
            _violations("hashing.image_sandwich", sandwich),
            ("hashing.determinism", same, "same seed, same values")]


def verify_range(seed=0):
    p = Params(epsilon=0.5, d=2, delta=64, seed=seed)
    rng = make_rng(seed, "verify-range")
    ann_bad, same, queries = check_ann(rng, p, 600, "verify-ann")
    flips, dhat_bad = check_indicators(rng, p, (1.0, 4.0, 16.0), 200,
                                       "verify-ind")
    sandwich, ball_bad = check_ball_one_means(rng, p, 200, 100, 30.0,
                                              "verify-b1m")
    return [_violations("range.query_sandwich", sandwich),
            ("range.ann_ratio", ann_bad == 0 and same,
             f"violations: {ann_bad} deterministic={same} over {queries} "
             f"queries"),
            _violations("range.dhat_two_sided", dhat_bad),
            _violations("range.indicator_flips", flips),
            _violations("range.ball_1means", ball_bad)]


def verify_assignment(seed=0):
    p = Params(epsilon=0.5, d=2, delta=64, seed=seed)
    part_bad, eq_bad, cons_bad, a = check_assignment(
        make_rng(seed, "verify-assign"), p, 400, "verify")
    keys = [a.w_S[c] for c in a.ordering(lambda c: 1.0)]
    return [_violations("assignment.partition", part_bad),
            _violations("assignment.equidistant", eq_bad),
            _violations("assignment.weight_conservation", cons_bad),
            ("assignment.ordering", keys == sorted(keys), "recomputed keys")]


def verify_subroutines(seed=0):
    p = Params(epsilon=0.5, d=2, delta=64, seed=seed)
    bad, ratios = check_restricted(make_rng(seed, "verify-sub"), p, 20, "v")
    return [("subroutines.restricted_ratio", bad == 0,
             f"violations: {bad} worst ratio {max(ratios, default=0.0):.2f} "
             f"(C_restr=50)")]


def verify_controller(seed=0):
    p = Params(epsilon=0.5, d=2, delta=1024, seed=seed)
    res = check_certificates(cert_controller(p), gen_workload(
        "clustered", 300, 2, 1024, 5, ins_frac=0.72, seed=seed))
    # Stored certificates outlive later updates only where robustness levels
    # are separated, which the production divisors (lam^7, lam^10) give once
    # centers lie about lam^7 ~ 6e8 apart. Under the certificate schedule
    # one insert invalidates every t = 1 witness set (lam^3 exceeds delta).
    wide = Params(epsilon=0.5, d=2, delta=1 << 30, seed=seed, colors=3)
    res_wide = check_certificates(
        DynamicKMeans(wide, 4, witness=True),
        gen_workload("clustered", 150, 2, wide.delta, 4, ins_frac=0.8,
                     seed=seed))
    runs = (res, res_wide)
    mismatches = sum(r.recourse_bad for r in runs)
    violations = [v for r in runs for v in r.controller.violations]
    bad = sum(r.cert_bad + r.drift_bad for r in runs)
    certified = sum(r.certified for r in runs)
    stored = sum(rec.t >= 1 for rec in res_wide.controller.certs.values())
    revalid = res_wide.controller.revalidate_certificates()
    return [("controller.recourse_identity", mismatches == 0,
             f"mismatches: {mismatches}"),
            ("controller.instrumented", not violations, f"{violations[:2]}"),
            ("controller.certificates", bad == 0 and certified >= 1,
             f"violations: {bad}, {certified} certificates with t>=1"),
            ("controller.solution_size",
             all(len(r.controller.solution()) <= r.controller.k for r in runs),
             f"|S|={[len(r.controller.solution()) for r in runs]}"),
            ("controller.cert_revalidation", not revalid and stored >= 1,
             f"{stored} stored with t>=1, failures: {revalid[:2]}")]


def verify_sparsifier(seed=0):
    p = Params(epsilon=0.5, d=2, delta=256, seed=seed)
    runner = SparsifiedRunner(p, 5, n_hint=300, verifiers=2, alpha=30.0)
    stream = gen_workload("clustered", 300, 2, 256, 5, ins_frac=0.8, seed=seed)
    contract_bad, size_bad, burst = check_sparsified(runner, stream)
    out = [("sparsifier.post_update_contract", contract_bad == 0,
            f"violations: {contract_bad} of cost(U,S*) <= alpha*E, "
            f"max_burst={burst}"),
           ("sparsifier.size_bound", size_bad == 0,
            f"violations: {size_bad} |U|={runner.u_size()}")]
    runner.primary.solution = lambda: frozenset({(1, 1)})  # fault injection
    resets = runner.update("insert", 999999, (128, 128), 1.0)
    out.append(("sparsifier.fault_reset", resets == 1, f"resets={resets}"))
    return out


def verify_lemmas(seed=0):
    proj_bad, lazy_bad = check_lemmas(make_rng(seed, "verify-lemmas"), 60)
    return [_violations("lemmas.projection", proj_bad),
            _violations("lemmas.lazy_updates", lazy_bad)]


_SUITE_FUNCS = {
    "hashing": verify_hashing,
    "range": verify_range,
    "assignment": verify_assignment,
    "subroutines": verify_subroutines,
    "controller": verify_controller,
    "sparsifier": verify_sparsifier,
    "lemmas": verify_lemmas,
}
SUITES = (*_SUITE_FUNCS, "all")


def run_suite(name: str, seed: int = 0, lambda_cap: int | None = None):
    """Run one suite, or every suite for "all". `lambda_cap` overrides the
    bucket cap of the hashing suite and is a usage error elsewhere."""
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; choose from {SUITES}")
    if lambda_cap is not None and name != "hashing":
        raise UsageError("--lambda-cap applies only to --suite hashing")
    if name == "hashing":
        return verify_hashing(seed, lambda_cap)
    names = _SUITE_FUNCS if name == "all" else (name,)
    return [row for key in names for row in _SUITE_FUNCS[key](seed)]
