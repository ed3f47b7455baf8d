"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line with its measured quantities."""

import itertools
import math
import time
from dataclasses import replace

from dynkmeans.assignment import AssignmentStructure
from dynkmeans.controller import DynamicKMeans, validate_certificate
from dynkmeans.errors import NoColorError
from dynkmeans.geometry import (brute_nn, brute_opt_augmented,
                                brute_opt_restricted, cost, dist)
from dynkmeans.hashing import ConsistentHash
from dynkmeans.params import Params, schedule_for
from dynkmeans.range_query import BallOneMeans, CenterIndex
from dynkmeans.rng import make_rng
from dynkmeans.sparsifier import SparsifiedRunner
from dynkmeans.subroutines import (ClusterContext, augmented_kmeans,
                                   restricted_kmeans)
from dynkmeans.harness import run_stream, time_naive_recompute
from dynkmeans.verify import check_lemmas
from dynkmeans.workload import gen_workload


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def grid(delta, d):
    return itertools.product(range(1, delta + 1), repeat=d)


def test_criterion_01_hashing_diameter():
    bad = 0
    for d in (1, 2, 3):
        for rho in (2.0, 4.0, 8.0):
            p = Params(epsilon=0.5, d=d, delta=16, seed=101)
            h = ConsistentHash(p, rho=rho, seed_tag=("acc1", d, rho))
            groups = {}
            for x in grid(16, d):
                groups.setdefault(h.eval(x), []).append(x)
            for members in groups.values():
                for i, a in enumerate(members):
                    for b in members[i + 1:]:
                        if dist(a, b) > rho + 1e-9:
                            bad += 1
    report(1, "hashing diameter", bad == 0, f"pairs over rho: {bad}")


def test_criterion_02_hashing_consistency():
    nocolor = 0
    over = 0
    for seed in range(20):
        p = Params(epsilon=0.5, d=8, delta=1024, seed=seed)
        h = ConsistentHash(p, rho=64.0, seed_tag="acc2")
        rng = make_rng(seed, "acc2")
        for _ in range(50):
            x = tuple(rng.randint(1, 1024) for _ in range(8))
            try:
                h.eval(x)
            except NoColorError:
                nocolor += 1
            if len(h.ball_buckets(x)) > p.lambda_cap:
                over += 1
    report(2, "hashing consistency", nocolor == 0 and over == 0,
           f"nocolor={nocolor} cap-overflows={over} over 20 seeds x 50 queries")


def test_criterion_03_phi_sandwich_full():
    bad = 0
    for d in (2, 3):
        p = Params(epsilon=0.5, d=d, delta=16, seed=103)
        rho = 8.0
        h = ConsistentHash(p, rho=rho, seed_tag=("acc3", d))
        pts = list(grid(16, d))
        value = {x: h.eval(x) for x in pts}
        realized = {}
        for x, v in value.items():
            realized.setdefault(v, []).append(x)
        inner_r = rho / p.gamma
        for x in pts:
            phi = h.ball_buckets(x)
            if len(phi) > p.lambda_cap:
                bad += 1
            for y in pts:
                if dist(x, y) <= inner_r and value[y] not in phi:
                    bad += 1
            for v in phi:
                mem = realized.get(v)
                if mem and min(dist(x, q) for q in mem) > 2 * rho + 1e-9:
                    bad += 1
    report(3, "phi sandwich (full grid)", bad == 0, f"violations: {bad}")


def test_criterion_04_ann_ratio():
    p = Params(epsilon=0.5, d=2, delta=256, seed=104)
    ci = CenterIndex(p, "acc4")
    ci2 = CenterIndex(p, "acc4")
    rng = make_rng(104, "ops")
    script = []
    S = set()
    for _ in range(10000):
        r = rng.random()
        if r < 0.35 or len(S) < 2:
            s = (rng.randint(1, 256), rng.randint(1, 256))
            if s not in S:
                S.add(s)
                script.append(("ins", s))
            continue
        if r < 0.5 and len(S) > 2:
            s = rng.choice(sorted(S))
            S.discard(s)
            script.append(("del", s))
        else:
            script.append(("query", (rng.randint(1, 256), rng.randint(1, 256))))
    bad = 0
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
            nn, nd = brute_nn(v, S, exclude_self=True)
            if ans is None or (nd > 0 and dist(v, ans) > 6 * p.gamma * nd + 1e-9):
                bad += 1
    answers2 = []
    for op, v in script:
        if op == "ins":
            ci2.insert(v)
        elif op == "del":
            ci2.delete(v)
        else:
            answers2.append(ci2.ann_query(v, exclude=frozenset({v})))
    det = answers == answers2
    report(4, "ann ratio + determinism", bad == 0 and det,
           f"violations={bad} deterministic={det} over {len(answers)} queries")


def test_criterion_05_indicator_two_sidedness():
    p = Params(epsilon=0.5, d=2, delta=256, seed=105)
    gammas = (1.0, 4.0, 16.0, 64.0)
    ci = CenterIndex(p, "acc5", track_dist=True, gammas=gammas)
    rng = make_rng(105, "ops")
    S = set()
    bits = {}
    bad = 0
    for step in range(1000):
        if not S or rng.random() < 0.55:
            s = (rng.randint(1, 256), rng.randint(1, 256))
            if s in S:
                continue
            S.add(s)
            ci.insert(s)
        else:
            s = rng.choice(sorted(S))
            S.discard(s)
            ci.delete(s)
            for g in gammas:
                bits.pop((s, g), None)
        for s_ev, g, bit in ci.drain_events():
            if bits.get((s_ev, g), 0) == bit:
                bad += 1  # spurious flip
            bits[(s_ev, g)] = bit
        for s in S:
            others = S - {s}
            for gi, g in enumerate(gammas):
                b = ci.indicator_bit(s, gi)
                if bits.get((s, g), 0) != b:
                    bad += 1  # missed flip
                if others:
                    true_d = min(dist(s, t) for t in others)
                    if true_d <= g and b != 1:
                        bad += 1
                    if true_d > 6 * p.gamma * g and b != 0:
                        bad += 1
    report(5, "indicator two-sidedness + flips", bad == 0, f"violations: {bad}")


def test_criterion_06_ball_one_means():
    p = Params(epsilon=0.5, d=2, delta=256, seed=106)
    bm = BallOneMeans(p, "acc6")
    rng = make_rng(106, "pts")
    pts = {}
    for i in range(400):
        pt = (rng.randint(1, 256), rng.randint(1, 256))
        bm.insert(i, pt, rng.choice([1.0, 2.0, 0.5]))
        pts[i] = pt
    bad = 0
    for _ in range(500):
        x = (rng.randint(1, 256), rng.randint(1, 256))
        r = rng.random() * 80
        ans = bm.query(x, r, witness=True)
        wit = ans.witness
        inner = {i for i, q in pts.items() if dist(q, x) <= r}
        outer = {i for i, q in pts.items() if dist(q, x) <= 3 * p.gamma * r}
        if not (inner <= wit <= outer):
            bad += 1
            continue
        ws = [(pts[i], bm.index.registry[i][1]) for i in wit]
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
    report(6, "ball 1-means properties", bad == 0,
           f"violations: {bad} over 500 queries")


def _assignment_sequence(n_updates=2000):
    p = Params(epsilon=0.5, d=2, delta=256, seed=107)
    a = AssignmentStructure(p, seed_tag="acc7")
    rng = make_rng(107, "mix")
    pts, centers = {}, set()
    part_bad = eq_bad = cons_bad = 0
    for step in range(n_updates):
        r = rng.random()
        if r < 0.40 or not pts:
            pt = (rng.randint(1, 256), rng.randint(1, 256))
            a.point_insert(step, pt, rng.choice([1.0, 2.0]))
            pts[step] = pt
        elif r < 0.62:
            key = rng.choice(sorted(pts))
            a.point_delete(key)
            del pts[key]
        elif r < 0.86 or not centers:
            s = (rng.randint(1, 256), rng.randint(1, 256))
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
    return part_bad, eq_bad, cons_bad


SEQ_RESULT = {}


def test_criterion_07_assignment_partition_equidistance():
    part_bad, eq_bad, cons_bad = _assignment_sequence()
    SEQ_RESULT["cons"] = cons_bad
    report(7, "assignment partition + equidistance", part_bad == 0 and eq_bad == 0,
           f"partition={part_bad} equidistant={eq_bad} over 2000 updates")


def test_criterion_08_weight_conservation():
    cons_bad = SEQ_RESULT.get("cons")
    if cons_bad is None:
        _, _, cons_bad = _assignment_sequence()
    report(8, "weight conservation 1e-9", cons_bad == 0,
           f"violations: {cons_bad}")


def test_criterion_09_d2_sampling_dominance():
    p = Params(epsilon=0.5, d=2, delta=64, seed=109)
    g3 = 3.0 * p.gamma
    gamma_s = g3 ** -4 / 4.0
    draws = 100000
    bad = 0
    instances = [
        [((2, 2), 1.0), ((3, 2), 1.0), ((30, 30), 1.0)],
        [((1, 1), 1.0), ((11, 1), 1.0)],
        [((5, 5), 2.0), ((6, 5), 1.0), ((20, 20), 1.0), ((40, 40), 1.0)],
        [((10, 10), 1.0), ((10, 12), 3.0), ((50, 50), 0.5)],
        [((7, 7), 1.0), ((8, 8), 1.0), ((9, 9), 1.0), ((60, 60), 2.0)],
    ]
    for inst_no, pw in enumerate(instances):
        a = AssignmentStructure(p, seed_tag=("acc9", inst_no))
        center = (1, 2)
        a.center_insert(center)
        ideal = {}
        for i, (pt, w) in enumerate(pw):
            a.point_insert(i, pt, w)
            ideal[i] = w * dist(pt, center) ** 2
        tot = sum(ideal.values())
        rng = make_rng(109, "mc", inst_no)
        counts = {i: 0 for i in ideal}
        for _ in range(draws):
            counts[a.d2_sample(rng)[0]] += 1
        for i, mass in ideal.items():
            p_min = gamma_s * mass / tot
            sigma = math.sqrt(draws * p_min * (1 - p_min))
            if counts[i] < draws * p_min - 3 * sigma:
                bad += 1
    report(9, "d2 sampling dominance", bad == 0,
           f"violations: {bad} over 5 instances x {draws} draws")


def test_criterion_10_restricted_vs_oracle():
    p = Params(epsilon=0.5, d=2, delta=64, seed=110)
    rng = make_rng(110, "inst")
    ratios = []
    bad = 0
    for trial in range(100):
        n = rng.randint(12, 60)
        if trial % 2 == 0:
            pw = [((rng.randint(1, 64), rng.randint(1, 64)), 1.0)
                  for _ in range(n)]
        else:
            cents = [(rng.randint(4, 60), rng.randint(4, 60)) for _ in range(4)]
            pw = []
            for _ in range(n):
                c = cents[rng.randrange(4)]
                pw.append(((min(max(c[0] + rng.randint(-2, 2), 1), 64),
                            min(max(c[1] + rng.randint(-2, 2), 1), 64)), 1.0))
        S = set()
        while len(S) < rng.randint(5, 10):
            S.add((rng.randint(1, 64), rng.randint(1, 64)))
        r = rng.randint(1, 3)
        ctx = ClusterContext.from_instance(p, pw, S, seed_tag=("acc10", trial))
        R = restricted_kmeans(ctx, r, rng)
        got = cost(pw, S - R)
        _, best = brute_opt_restricted(pw, S, r)
        if best > 0:
            ratio = got / best
            ratios.append(ratio)
            if ratio > 50.0:
                bad += 1
        elif got > 1e-9:
            bad += 1
        else:
            ratios.append(1.0)
    ratios.sort()
    med = ratios[len(ratios) // 2]
    report(10, "restricted k-means vs oracle", bad == 0,
           f"violations={bad} median_ratio={med:.2f} max={ratios[-1]:.2f} "
           f"(C_restr=50)")


def test_criterion_11_augmented_vs_oracle():
    p = Params(epsilon=0.5, d=2, delta=32, seed=111, preset="paper_faithful")
    sched = schedule_for(p)
    t = sched.d2_samples
    assert t >= p.epsilon ** -6 * p.d  # paper-faithful draw count
    rng = make_rng(111, "inst")
    ok = 0
    trials = 50
    for trial in range(trials):
        n = rng.randint(15, 40)
        cents = [(rng.randint(3, 30), rng.randint(3, 30)) for _ in range(3)]
        pw = []
        for _ in range(n):
            c = cents[rng.randrange(3)]
            pw.append(((min(max(c[0] + rng.randint(-1, 1), 1), 32),
                        min(max(c[1] + rng.randint(-1, 1), 1), 32)), 1.0))
        S = set()
        while len(S) < 2:
            S.add((rng.randint(1, 32), rng.randint(1, 32)))
        a = rng.randint(1, 2)
        ctx = ClusterContext.from_instance(p, pw, S, seed_tag=("acc11", trial))
        A = augmented_kmeans(ctx, a, t, rng)
        got = cost(pw, set(S) | set(A))
        _, best = brute_opt_augmented(pw, S, a, [q for q, _ in pw])
        if got <= 32 * best + 1e-9:
            ok += 1
    report(11, "augmented k-means vs oracle", ok >= 0.95 * trials,
           f"{ok}/{trials} within 32x oracle (need >= 95%)")


def _cert_controller(seed):
    p = Params(epsilon=0.5, d=2, delta=1024, seed=seed)
    sched = schedule_for(p)
    lam = sched.lam
    sched = replace(sched, makerobust_div=lam ** 0.5, robust_div=lam,
                    t_cap=max(2, sched.t_cap))
    return DynamicKMeans(p, 5, witness=True, sched=sched)


def test_criterion_12_makerobust_certificates():
    dk = _cert_controller(112)
    calls = 0
    failures = []
    drift_bad = 0
    max_t = 0

    def on_mr(ctrl, rec):
        nonlocal calls, drift_bad, max_t
        calls += 1
        max_t = max(max_t, rec.t)
        failures.extend(validate_certificate(rec, ctrl.X, ctrl.sched,
                                             ctrl.params.delta))
        bound = 4 * ctrl.sched.lam ** (3 * rec.t - 1)
        if rec.t >= 1 and dist(rec.u, rec.v) > bound + 1e-9:
            drift_bad += 1

    dk.on_makerobust = on_mr
    stream = gen_workload("clustered", 1200, 2, 1024, 5, ins_frac=0.72,
                          seed=112)
    for op, key, point, w in stream.ops():
        dk.update(op, key, point, w)
        if calls >= 200 and max_t >= 1:
            break
    report(12, "makerobust certificates", calls >= 200 and not failures
           and drift_bad == 0,
           f"calls={calls} max_t={max_t} cert_violations={len(failures)} "
           f"drift_violations={drift_bad}")


def test_criterion_13_calls_once_and_chains():
    violations = []
    for seed, mode in ((113, "clustered"), (114, "adversarial-churn"),
                       (115, "uniform")):
        dk = _cert_controller(seed)
        stream = gen_workload(mode, 800, 2, 1024, 5, ins_frac=0.7, seed=seed)
        for op, key, point, w in stream.ops():
            dk.update(op, key, point, w)
        violations.extend(dk.violations)
    report(13, "robustify-calls-once + chain bound", not violations,
           f"instrumented violations: {violations[:3] or 0}")


def test_criterion_14_end_to_end_quality():
    all_ok = True
    details = []
    for k in (5, 20):
        p = Params(epsilon=0.5, d=2, delta=256, seed=14)
        stream = gen_workload("clustered", 10000, 2, 256, k, ins_frac=0.7,
                              seed=140 + k)
        res = run_stream(stream, p, k, baseline_every=100)
        s = res.summary
        rec_cap = 10 * math.log2(max(s["n_live_max"], 2))
        mr_cap = 5 * math.log2(math.sqrt(2) * 256)
        ok = (s["ratio_p50"] <= 5.0 and s["ratio_max"] <= 50.0
              and s["amortized_recourse"] <= rec_cap
              and s["makerobust_per_update"] <= mr_cap
              and s["instrumented_violations"] == 0)
        all_ok = all_ok and ok
        details.append(f"k={k}: p50={s['ratio_p50']:.2f} max={s['ratio_max']:.2f} "
                       f"rec={s['amortized_recourse']:.2f}<={rec_cap:.0f} "
                       f"mr={s['makerobust_per_update']:.2f}<={mr_cap:.0f}")
    report(14, "end-to-end quality", all_ok, "; ".join(details))


def test_criterion_15_sublinearity_signal():
    p = Params(epsilon=0.5, d=2, delta=256, seed=15)
    k = 5
    times = {}
    naive = {}
    for n in (1000, 10000):
        stream = gen_workload("clustered", n, 2, 256, k, ins_frac=0.7,
                              seed=150)
        res = run_stream(stream, p, k, baseline_every=n + 1)
        times[n] = res.summary["amortized_time_us"]
        naive[n] = time_naive_recompute(stream, p, k, sample_every=max(50, n // 20))
    growth = times[10000] / max(times[1000], 1e-9)
    naive_growth = naive[10000] / max(naive[1000], 1e-12)
    report(15, "sublinearity signal", growth < 10.0,
           f"alg growth {growth:.2f} (soft target < 5, hard < 10); "
           f"naive recompute growth {naive_growth:.2f}")


def test_criterion_16_sparsified_wrapper():
    p = Params(epsilon=0.5, d=2, delta=256, seed=16)
    k = 5
    n = 5000
    runner = SparsifiedRunner(p, k, n_hint=n, verifiers=3, alpha=25.0)
    stream = gen_workload("clustered", n, 2, 256, k, ins_frac=0.72, seed=160)
    contract_bad = 0
    size_bad = 0
    burst_max = 0
    c_u = runner.sparsifier.c_u
    for op, key, point, w in stream.ops():
        resets = runner.update(op, key, point, w)
        burst_max = max(burst_max, resets)
        if not runner.contract_holds():
            contract_bad += 1
        bound = c_u * k * math.log2(max(n, 4)) ** 2 + 2 * runner.sparsifier.block
        if runner.u_size() > bound:
            size_bad += 1
    burst_cap = 10 * math.log2(n)
    report(16, "sparsified wrapper", contract_bad == 0 and size_bad == 0
           and burst_max <= burst_cap,
           f"contract_violations={contract_bad} size_violations={size_bad} "
           f"max_burst={burst_max}<={burst_cap:.0f} |U|={runner.u_size()}")


def test_criterion_17_lemma_oracles():
    proj_bad, lazy_bad = check_lemmas(make_rng(17, "lemmas"), 200)
    report(17, "lemma oracles", proj_bad == 0 and lazy_bad == 0,
           f"projection violations={proj_bad} lazy-update violations={lazy_bad} "
           f"(200 instances each)")
