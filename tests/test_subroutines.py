import copy
import math

import numpy as np
import pytest

from dynkmeans.errors import UsageError
from dynkmeans.geometry import (brute_opt_augmented, brute_opt_restricted,
                                cost, dist, pairwise_d2)
from dynkmeans.params import Params
from dynkmeans.rng import make_rng
from dynkmeans.subroutines import (_EXHAUSTIVE_LIMIT, ClusterContext,
                                   _seed, _swap_costs, augmented_kmeans,
                                   replay_restricted_draws, restricted_kmeans,
                                   static_weighted_kmeans, weighted_kmeanspp)

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


# The per-candidate solver the array-shaped one replaced, kept verbatim as
# the oracle: same centers and the same random draws on every instance.

def _oracle_kmeanspp(pts, w, k, rng):
    n = pts.shape[0]
    probs = w / w.sum() if w.sum() > 0 else np.full(n, 1.0 / n)
    first = _oracle_draw(probs, rng)
    chosen = [first]
    d2 = ((pts - pts[first]) ** 2).sum(axis=1)
    while len(chosen) < k:
        mass = w * d2
        tot = mass.sum()
        if tot <= 0:
            for i in range(n):
                if i not in chosen:
                    chosen.append(i)
                    if len(chosen) == k:
                        break
            break
        idx = _oracle_draw(mass / tot, rng)
        chosen.append(idx)
        d2 = np.minimum(d2, ((pts - pts[idx]) ** 2).sum(axis=1))
    return chosen[:k]


def _oracle_draw(probs, rng):
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u <= acc:
            return i
    return len(probs) - 1


def _oracle_static(points, weights, k, rng):
    support = []
    seen = {}
    agg = []
    for p, w in zip(points, weights):
        p = tuple(p)
        if p in seen:
            agg[seen[p]] += w
        else:
            seen[p] = len(support)
            support.append(p)
            agg.append(float(w))
    n = len(support)
    if k == n:
        return list(support)
    pts = np.asarray(support, dtype=np.float64)
    w = np.asarray(agg, dtype=np.float64)
    chosen = _oracle_kmeanspp(pts, w, k, rng)
    d2 = pairwise_d2(pts, pts[chosen])

    def refresh():
        assign = d2.argmin(axis=1)
        best1 = d2[np.arange(n), assign]
        if k > 1:
            best2 = np.partition(d2, 1, axis=1)[:, 1]
        else:
            best2 = np.full(n, np.inf)
        return assign, best1, best2

    assign, best1, best2 = refresh()
    cur = float(np.dot(w, best1))
    swaps = 0
    misses = 0
    exhaustive = n <= _EXHAUSTIVE_LIMIT
    miss_budget = n if exhaustive else 3 * k
    order = list(range(n))
    while swaps < 50 * k and cur > 0:
        if exhaustive:
            cand_iter = order
        else:
            mass = w * best1
            tot = mass.sum()
            if tot <= 0:
                break
            cand_iter = [_oracle_draw(mass / tot, rng)]
        improved = False
        for cand in cand_iter:
            if cand in chosen:
                continue
            dnew = ((pts - pts[cand]) ** 2).sum(axis=1)
            t1 = w * np.minimum(best1, dnew)
            t2 = w * np.minimum(best2, dnew)
            base = t1.sum()
            delta = np.bincount(assign, weights=t2 - t1, minlength=k)
            costs = base + delta
            j = int(costs.argmin())
            new_cost = float(costs[j])
            if new_cost < cur * (1 - 1e-12):
                chosen[j] = cand
                d2[:, j] = dnew
                assign, best1, best2 = refresh()
                cur = float(np.dot(w, best1))
                swaps += 1
                improved = True
                misses = 0
                break
            misses += 1
        if not improved:
            if exhaustive or misses >= miss_budget:
                break
    return [support[i] for i in chosen]


def _random_weighted_points(rng, n, d):
    """n points on a small grid (so duplicates occur) or spread out, with
    unit, fractional, heavy or zero weights."""
    side = rng.choice((3, 8, 64))
    pts = [tuple(rng.randint(1, side) for _ in range(d)) for _ in range(n)]
    style = rng.randrange(5)
    if style == 0:
        ws = [1.0] * n
    elif style == 1:
        ws = [rng.random() for _ in range(n)]
    elif style == 2:
        ws = [rng.choice((0.0, 0.0, rng.random() * 1e6)) for _ in range(n)]
    elif style == 3:
        ws = [0.0] * n
    else:
        ws = [rng.choice((1, 2, 5)) / 3.0 for _ in range(n)]
    return pts, ws


def test_static_matches_per_candidate_oracle():
    rng = make_rng(30, "eq")
    regimes = {True: 0, False: 0}
    for t in range(400):
        d = rng.choice((1, 2, 3, 8))
        n = rng.randint(1, 40) if t % 20 else rng.randint(120, 160)
        pts, ws = _random_weighted_points(rng, n, d)
        support = len(set(pts))
        k = rng.randint(1, support)
        regimes[support <= _EXHAUSTIVE_LIMIT] += 1
        r_new, r_old = make_rng(31, "eq", t), make_rng(31, "eq", t)
        assert static_weighted_kmeans(pts, ws, k, r_new) == \
            _oracle_static(pts, ws, k, r_old), t
        assert r_new.getstate() == r_old.getstate(), t
    assert regimes[True] and regimes[False]


def test_swap_costs_bitwise_per_candidate():
    # one broadcast prices every (candidate, slot) pair exactly as the
    # per-candidate sum and bincount did
    rng = make_rng(34, "eq")
    for t in range(100):
        d = rng.choice((1, 2, 3, 8))
        pts, ws = _random_weighted_points(rng, rng.randint(2, 70), d)
        pts = np.asarray(pts, dtype=np.float64)
        w = np.asarray(ws, dtype=np.float64) + rng.random()
        n = len(pts)
        k = rng.randint(1, n)
        D = pairwise_d2(pts, pts)
        d2 = D[:, rng.sample(range(n), k)]
        assign = d2.argmin(axis=1)
        best1 = d2[np.arange(n), assign]
        best2 = (np.partition(d2, 1, axis=1)[:, 1] if k > 1
                 else np.full(n, np.inf))
        got = _swap_costs(w, D, assign, best1, best2, k)
        for c in range(n):
            dnew = ((pts - pts[c]) ** 2).sum(axis=1)
            assert np.array_equal(D[c], dnew)
            t1 = w * np.minimum(best1, dnew)
            t2 = w * np.minimum(best2, dnew)
            want = t1.sum() + np.bincount(assign, weights=t2 - t1,
                                          minlength=k)
            assert np.array_equal(got[c], want), (t, c)


def test_kmeanspp_matches_oracle_under_numpy_generator():
    rng = make_rng(32, "eq")
    for t in range(200):
        d = rng.choice((1, 2, 3, 8))
        pts, ws = _random_weighted_points(rng, rng.randint(1, 60), d)
        pts = np.asarray(pts, dtype=np.float64)
        ws = np.asarray(ws, dtype=np.float64)
        k = rng.randint(1, len(pts))
        want_g = np.random.default_rng([33, t])
        want = _oracle_kmeanspp(pts, ws, k, want_g)
        wD = pairwise_d2(pts, pts) * ws
        for seed in (lambda g: weighted_kmeanspp(pts, ws, k, g),
                     lambda g: _seed(wD.__getitem__, ws, k, g)):
            g = np.random.default_rng([33, t])
            assert seed(g) == want, t
            assert g.bit_generator.state == want_g.bit_generator.state, t


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


def test_restricted_with_given_ordering_is_unchanged():
    # the epoch controller computes the ordering once for several calls
    rng = make_rng(22, "r")
    for t in range(12):
        pw, S = _instance(rng, rng.randint(10, 40), rng.randint(3, 12),
                          cluster=t % 2 == 0)
        ctx = ClusterContext.from_instance(P, pw, S, seed_tag=("t14", t))
        for r in range(1, len(S)):
            r_plain, r_given = make_rng(23, t, r), make_rng(23, t, r)
            want = restricted_kmeans(ctx, r, r_plain)
            got = restricted_kmeans(ctx, r, r_given, ordering=ctx.ordering())
            assert got == want
            assert r_given.getstate() == r_plain.getstate()


def _weighted_centers(rng, n, positive):
    """n distinct centers, `positive` of them carrying points exactly at the
    center (unit or fractional weight); a few zero-weight points sit on the
    others, so their weight stays 0."""
    S = set()
    while len(S) < n:
        S.add((rng.randint(1, 256), rng.randint(1, 256)))
    S = sorted(S)
    rng.shuffle(S)
    pw = []
    for i, c in enumerate(S):
        if i < positive:
            for _ in range(rng.randint(1, 3)):
                pw.append((c, rng.choice((1.0, rng.random() + 0.01))))
        elif rng.random() < 0.5:
            pw.append((c, 0.0))
    return pw, S


def test_replayed_draws_match_a_real_restricted_call():
    # whenever the replay acts, it leaves the generator where a real call
    # leaves it; it acts only when 6r >= |S|, |S| <= _EXHAUSTIVE_LIMIT and
    # at least |S| - r centers weigh more than zero
    rng = make_rng(24, "replay")
    acted = declined = 0
    why = set()
    cases = [(n, pos) for n in (2, 3, 5, 8, 12) for pos in range(n + 1)]
    cases += [(_EXHAUSTIVE_LIMIT + 2, _EXHAUSTIVE_LIMIT + 2),
              (_EXHAUSTIVE_LIMIT, _EXHAUSTIVE_LIMIT)]
    for t, (n, positive) in enumerate(cases):
        pw, S = _weighted_centers(rng, n, positive)
        ctx = ClusterContext.from_instance(P, pw, S, seed_tag=("t15", t))
        heavy = sum(1 for s in S if ctx.weight(s) > 0)
        assert heavy == positive
        rs = range(1, n) if n <= 12 else (n // 6, n // 6 + 1, n - 1)
        for r in rs:
            replayed, real = make_rng(25, t, r), make_rng(25, t, r)
            before = replayed.getstate()
            if replay_restricted_draws(ctx, r, replayed):
                acted += 1
                restricted_kmeans(ctx, r, real)
                assert replayed.getstate() == real.getstate(), (t, r)
                assert 6 * r >= n and n <= _EXHAUSTIVE_LIMIT
                assert heavy >= n - r
            else:
                declined += 1
                assert replayed.getstate() == before
                why.add("sketch" if 6 * r < n else
                        "size" if n > _EXHAUSTIVE_LIMIT else
                        "weight" if heavy < n - r else "other")
    assert acted and declined
    assert why == {"sketch", "size", "weight"}


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
    # index, read-only; each record compares by tag, cells, footprints, bits,
    # ell and indicator bits
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
        for s, rec in idx.centers.items():
            e = rec.ell
            assert e is not None and idx.dhat(s) == 3.0 * P.gamma * (1 << e)
            near = set().union(*(idx.cells[e].get(c, ())
                                 for c in rec.footprints[e]))
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
