"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line with its measured quantities."""

import functools
import math

from dynkmeans.assignment import AssignmentStructure
from dynkmeans.geometry import brute_opt_augmented, cost, dist
from dynkmeans.harness import measure_growth, run_stream
from dynkmeans.params import Params
from dynkmeans.rng import make_rng
from dynkmeans.sparsifier import SparsifiedRunner
from dynkmeans.subroutines import ClusterContext, augmented_kmeans
from dynkmeans.verify import (check_ann, check_assignment, check_ball_one_means,
                              cert_controller, check_certificates,
                              check_hash_consistency,
                              check_hash_diameter, check_hash_sandwich,
                              check_indicators, check_lemmas, check_restricted,
                              check_sparsified)
from dynkmeans.workload import gen_workload


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_hashing_diameter():
    bad = 0
    for d in (1, 2, 3):
        for rho in (2.0, 4.0, 8.0):
            p = Params(epsilon=0.5, d=d, delta=16, seed=101)
            nocolor, pairs = check_hash_diameter(p, rho, ("acc1", d, rho))
            bad += nocolor + pairs
    report(1, "hashing diameter", bad == 0, f"pairs over rho: {bad}")


def test_criterion_02_hashing_consistency():
    nocolor = 0
    over = 0
    for seed in range(20):
        p = Params(epsilon=0.5, d=8, delta=1024, seed=seed)
        nc, ov = check_hash_consistency(make_rng(seed, "acc2"), p, 64.0,
                                        "acc2", 50)
        nocolor += nc
        over += ov
    report(2, "hashing consistency", nocolor == 0 and over == 0,
           f"nocolor={nocolor} cap-overflows={over} over 20 seeds x 50 queries")


def test_criterion_03_phi_sandwich_full():
    bad = 0
    for d in (2, 3):
        p = Params(epsilon=0.5, d=d, delta=16, seed=103)
        bad += sum(check_hash_sandwich(p, 8.0, ("acc3", d)))
    report(3, "phi sandwich (full grid)", bad == 0, f"violations: {bad}")


def test_criterion_04_ann_ratio():
    p = Params(epsilon=0.5, d=2, delta=256, seed=104)
    bad, det, queries = check_ann(make_rng(104, "ops"), p, 10000, "acc4")
    report(4, "ann ratio + determinism", bad == 0 and det,
           f"violations={bad} deterministic={det} over {queries} queries")


def test_criterion_05_indicator_two_sidedness():
    p = Params(epsilon=0.5, d=2, delta=256, seed=105)
    bad = sum(check_indicators(make_rng(105, "ops"), p,
                               (1.0, 4.0, 16.0, 64.0), 1000, "acc5"))
    report(5, "indicator two-sidedness + flips", bad == 0, f"violations: {bad}")


def test_criterion_06_ball_one_means():
    p = Params(epsilon=0.5, d=2, delta=256, seed=106)
    bad = sum(check_ball_one_means(make_rng(106, "pts"), p, 400, 500, 80.0,
                                   "acc6"))
    report(6, "ball 1-means properties", bad == 0,
           f"violations: {bad} over 500 queries")


@functools.cache
def _assignment_counts():
    p = Params(epsilon=0.5, d=2, delta=256, seed=107)
    return check_assignment(make_rng(107, "mix"), p, 2000, "acc7")[:3]


def test_criterion_07_assignment_partition_equidistance():
    part_bad, eq_bad, _ = _assignment_counts()
    report(7, "assignment partition + equidistance", part_bad == 0 and eq_bad == 0,
           f"partition={part_bad} equidistant={eq_bad} over 2000 updates")


def test_criterion_08_weight_conservation():
    cons_bad = _assignment_counts()[2]
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
    bad, ratios = check_restricted(make_rng(110, "inst"), p, 100, "acc10")
    med = ratios[len(ratios) // 2]
    report(10, "restricted k-means vs oracle", bad == 0,
           f"violations={bad} median_ratio={med:.2f} max={ratios[-1]:.2f} "
           f"(C_restr=50)")


def test_criterion_11_augmented_vs_oracle():
    p = Params(epsilon=0.5, d=2, delta=32, seed=111)
    # the paper's draw count, not the schedule's desk-scale one
    t = math.ceil(p.epsilon ** -6 * p.d * math.log2(p.delta))
    assert t == 640
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


def test_criterion_12_makerobust_certificates():
    stream = gen_workload("clustered", 1200, 2, 1024, 5, ins_frac=0.72,
                          seed=112)
    p = Params(epsilon=0.5, d=2, delta=1024, seed=112)
    res = check_certificates(cert_controller(p), stream, stop_calls=200)
    report(12, "makerobust certificates", res.calls >= 200 and res.cert_bad == 0
           and res.drift_bad == 0,
           f"calls={res.calls} max_t={res.max_t} cert_violations={res.cert_bad} "
           f"drift_violations={res.drift_bad}")


def test_criterion_13_calls_once_and_chains():
    violations = []
    for seed, mode in ((113, "clustered"), (114, "adversarial-churn"),
                       (115, "uniform")):
        stream = gen_workload(mode, 800, 2, 1024, 5, seed=seed)
        p = Params(epsilon=0.5, d=2, delta=1024, seed=seed)
        res = check_certificates(cert_controller(p), stream)
        violations.extend(res.controller.violations)
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
    out = measure_growth(p, k, 1000, 10000, stream_seed=150)
    growth, naive_growth = out["growth_alg"], out["growth_naive"]
    report(15, "sublinearity signal", growth < 10.0,
           f"alg growth {growth:.2f} (soft target < 5, hard < 10); "
           f"naive recompute growth {naive_growth:.2f}")


def test_criterion_16_sparsified_wrapper():
    p = Params(epsilon=0.5, d=2, delta=256, seed=16)
    k = 5
    n = 5000
    runner = SparsifiedRunner(p, k, n_hint=n, verifiers=3, alpha=25.0)
    stream = gen_workload("clustered", n, 2, 256, k, ins_frac=0.72, seed=160)
    contract_bad, size_bad, burst_max = check_sparsified(runner, stream)
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
