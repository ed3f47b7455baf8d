import copy
import math

import pytest

from dynkmeans.errors import UsageError
from dynkmeans.geometry import (brute_opt_augmented, brute_opt_restricted,
                                cost, dist)
from dynkmeans.params import Params
from dynkmeans.rng import make_rng
from dynkmeans.subroutines import (ClusterContext, augmented_kmeans,
                                   restricted_kmeans, static_weighted_kmeans)

P = Params(epsilon=0.5, d=2, delta=64, seed=41)


def test_static_k_equals_support():
    pts = [(1, 1), (5, 5), (9, 9)]
    out = static_weighted_kmeans(pts, [1, 1, 1], 3, make_rng(0, "s"))
    assert set(out) == set(pts)
    assert cost([(p, 1.0) for p in pts], out) == 0.0


def test_static_two_clusters():
    rng = make_rng(1, "s")
    pts = [(2 + rng.randint(-1, 1), 2 + rng.randint(-1, 1)) for _ in range(10)]
    pts += [(60 + rng.randint(-1, 1), 60 + rng.randint(-1, 1)) for _ in range(10)]
    ws = [1.0] * len(pts)
    out = static_weighted_kmeans(pts, ws, 2, make_rng(2, "s"))
    side = {p[0] < 30 for p in out}
    assert side == {True, False}


def test_static_k1_matches_exhaustive():
    rng = make_rng(3, "s")
    pts = [(rng.randint(1, 64), rng.randint(1, 64)) for _ in range(12)]
    ws = [rng.random() + 0.2 for _ in pts]
    out = static_weighted_kmeans(pts, ws, 1, make_rng(4, "s"))
    pw = list(zip(pts, ws))
    best = min(cost(pw, [c]) for c in set(pts))
    assert math.isclose(cost(pw, out), best, rel_tol=1e-9)


def test_static_idempotent_local_optimum():
    rng = make_rng(5, "s")
    pts = list({(rng.randint(1, 64), rng.randint(1, 64)) for _ in range(20)})
    ws = [1.0] * len(pts)
    out1 = static_weighted_kmeans(pts, ws, 4, make_rng(6, "s"))
    # rerun seeded exactly at the previous output: no improving swap remains
    pw = list(zip(pts, ws))
    c1 = cost(pw, out1)
    out2 = static_weighted_kmeans(pts, ws, 4, make_rng(7, "s"))
    c2 = cost(pw, out2)
    # both runs land on local optima; re-running local search from out1's
    # cost level cannot improve past a strict local optimum
    for cand in pts:
        if cand in out1:
            continue
        for j in range(len(out1)):
            trial = list(out1)
            trial[j] = cand
            assert cost(pw, trial) >= c1 * (1 - 1e-9)
    assert c2 >= 0.0


def test_static_usage_errors():
    with pytest.raises(UsageError):
        static_weighted_kmeans([(1, 1)], [1.0], 2, make_rng(8, "s"))
    with pytest.raises(UsageError):
        static_weighted_kmeans([(1, 1)], [1.0], 0, make_rng(8, "s"))


def _instance(rng, n_pts, n_centers, delta=64, cluster=False):
    pts = []
    if cluster:
        cents = [(rng.randint(5, delta - 5), rng.randint(5, delta - 5))
                 for _ in range(max(2, n_centers // 2))]
        for _ in range(n_pts):
            c = cents[rng.randrange(len(cents))]
            pts.append((min(max(c[0] + rng.randint(-2, 2), 1), delta),
                        min(max(c[1] + rng.randint(-2, 2), 1), delta)))
    else:
        pts = [(rng.randint(1, delta), rng.randint(1, delta))
               for _ in range(n_pts)]
    S = set()
    while len(S) < n_centers:
        S.add((rng.randint(1, delta), rng.randint(1, delta)))
    return [(p, 1.0) for p in pts], S


def test_restricted_returns_r_distinct_members():
    rng = make_rng(9, "r")
    pw, S = _instance(rng, 30, 8)
    ctx = ClusterContext.from_instance(P, pw, S, seed_tag="t1")
    for r in (1, 3, 7):
        R = restricted_kmeans(ctx, r, rng)
        assert len(R) == r and R <= S
        assert S - R


def test_restricted_r_out_of_range():
    rng = make_rng(10, "r")
    pw, S = _instance(rng, 10, 4)
    ctx = ClusterContext.from_instance(P, pw, S, seed_tag="t2")
    with pytest.raises(UsageError):
        restricted_kmeans(ctx, 4, rng)
    with pytest.raises(UsageError):
        restricted_kmeans(ctx, 0, rng)


def test_restricted_removes_redundant_center():
    pw = [((2, 2), 1.0), ((62, 62), 1.0)]
    S = {(2, 2), (62, 62), (32, 32)}
    ctx = ClusterContext.from_instance(P, pw, S, seed_tag="t3")
    R = restricted_kmeans(ctx, 1, make_rng(11, "r"))
    assert R == {(32, 32)}
    assert cost(pw, S - R) == 0.0


def test_restricted_r_equals_all_but_one():
    rng = make_rng(12, "r")
    pw, S = _instance(rng, 20, 5)
    ctx = ClusterContext.from_instance(P, pw, S, seed_tag="t4")
    R = restricted_kmeans(ctx, len(S) - 1, rng)
    survivor = (S - R).pop()
    best = min(cost(pw, [s]) for s in S)
    assert cost(pw, [survivor]) <= 50 * best + 1e-9


def test_restricted_oracle_sweep():
    rng = make_rng(13, "r")
    worst = 0.0
    for trial in range(40):
        pw, S = _instance(rng, rng.randint(10, 40), rng.randint(4, 8),
                          cluster=trial % 2 == 0)
        r = rng.randint(1, 3)
        ctx = ClusterContext.from_instance(P, pw, S, seed_tag=("t5", trial))
        R = restricted_kmeans(ctx, r, rng)
        got = cost(pw, S - R)
        _, best = brute_opt_restricted(pw, S, r)
        if best > 0:
            worst = max(worst, got / best)
        else:
            assert got <= 1e-9
    assert worst <= 50.0, worst


def test_restricted_t2_ann_contract():
    # the sketch's partner set must contain a near neighbor for each pick
    rng = make_rng(14, "r")
    pw, S = _instance(rng, 25, 8)
    ctx = ClusterContext.from_instance(P, pw, S, seed_tag="t6")
    r = 1
    t1 = set(ctx.ordering()[:min(6 * r, len(S))])
    rest = S - t1
    assert rest
    for c in t1:
        s = ctx.cent.ann_query(c, exclude=t1)
        true_d = min(dist(c, t) for t in rest)
        assert s in rest
        assert dist(c, s) <= 6 * P.gamma * true_d + 1e-9


def test_restricted_leaves_center_index_unchanged(monkeypatch):
    # 9 centers and r = 1: the sketch masks the 6 cheapest in the one center
    # index, read-only
    rng = make_rng(20, "r")
    pw, S = _instance(rng, 30, 9)
    ctx = ClusterContext.from_instance(P, pw, S, seed_tag="t12")
    before = copy.deepcopy(ctx.cent.centers)
    writes = []
    for name in ("insert", "delete"):
        def spy(*args, _real=getattr(ctx.cent, name), _name=name, **kw):
            writes.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(ctx.cent, name, spy)
    R = restricted_kmeans(ctx, 1, rng)
    assert len(R) == 1 and R <= S
    assert writes == []
    assert ctx.cent.centers == before


def test_ann_answers_at_the_dhat_level():
    # dhat(s) is read from ell[s], the first level whose footprint cells of s
    # hold another center; ann_query(s) must answer from those same cells
    rng = make_rng(21, "r")
    checked = 0
    for t in range(30):
        pw, S = _instance(rng, 20, rng.randint(2, 30))
        ctx = ClusterContext.from_instance(P, pw, S, seed_tag=("t13", t))
        idx = ctx.cent
        for s in idx.centers:
            e = idx.ell[s]
            assert e is not None and idx.dhat(s) == 3.0 * P.gamma * (1 << e)
            near = set().union(*(idx.cells[e].get(c, ())
                                 for c in idx.footprints[s][e]))
            assert idx.ann_query(s) in near - {s}
            checked += 1
    assert checked >= 300


def test_augmented_empty_when_no_mass():
    pw = [((5, 5), 1.0)]
    ctx = ClusterContext.from_instance(P, pw, {(5, 5)}, seed_tag="t7")
    out = augmented_kmeans(ctx, 2, 4, make_rng(15, "a"))
    assert out == []


def test_augmented_returns_points_of_x():
    rng = make_rng(16, "a")
    pw, S = _instance(rng, 30, 3)
    xs = {p for p, _ in pw}
    ctx = ClusterContext.from_instance(P, pw, S, seed_tag="t8")
    out = augmented_kmeans(ctx, 2, 3, rng)
    assert len(out) <= (2 + 1) * 3
    assert set(out) <= xs
    assert set(ctx.centers()) == S | set(out)


def test_augmented_cost_nonincreasing_over_rounds():
    rng = make_rng(17, "a")
    pw, S = _instance(rng, 40, 3, cluster=True)
    ctx = ClusterContext.from_instance(P, pw, S, seed_tag="t9")
    out = augmented_kmeans(ctx, 2, 2, rng)
    costs = [cost(pw, S)]
    centers = set(S)
    for p in out:
        centers.add(p)
        costs.append(cost(pw, centers))
    assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))


def test_augmented_catches_outlier_cluster():
    rng = make_rng(18, "a")
    pw = [((5 + rng.randint(-1, 1), 5 + rng.randint(-1, 1)), 1.0)
          for _ in range(20)]
    pw += [((60 + rng.randint(-1, 1), 60 + rng.randint(-1, 1)), 1.0)
           for _ in range(10)]
    S = {(5, 5)}
    hits = 0
    trials = 30
    for t in range(trials):
        ctx = ClusterContext.from_instance(P, pw, S, seed_tag=("t10", t))
        out = augmented_kmeans(ctx, 1, 4, make_rng(t, "mc"))
        if any(p[0] > 30 for p in out):
            hits += 1
    assert hits >= trials * 0.8  # outlier cluster holds nearly all d2 mass


def test_augmented_vs_oracle_small():
    rng = make_rng(19, "a")
    ok = 0
    for t in range(10):
        pw, S = _instance(rng, 25, 2, cluster=True)
        ctx = ClusterContext.from_instance(P, pw, S, seed_tag=("t11", t))
        out = augmented_kmeans(ctx, 2, 6, rng)
        got = cost(pw, set(S) | set(out))
        _, best = brute_opt_augmented(pw, S, 2, [p for p, _ in pw])
        if got <= 32 * best + 1e-9:
            ok += 1
    assert ok >= 9
