import math

import pytest
from hypothesis import given, settings, strategies as st

from dynkmeans.errors import UsageError
from dynkmeans.geometry import brute_nn, cost, dist
from dynkmeans.params import Params
from dynkmeans.range_query import (BallOneMeans, CenterIndex, RangeIndex,
                                   level_for_radius)
from dynkmeans.rng import make_rng

P = Params(epsilon=0.5, d=2, delta=64, seed=21)


def test_level_brackets():
    assert level_for_radius(1.0, 10) == 1
    assert level_for_radius(1.9, 10) == 1
    assert level_for_radius(2.0, 10) == 2
    assert level_for_radius(5.0, 10) == 3


def test_insert_delete_inverse():
    idx = RangeIndex(P, "t")
    idx.query((1, 1), 4.0)  # materialize a level
    idx.insert("a", (3, 3), 1.0)
    idx.delete("a")
    assert len(idx) == 0
    assert all(not b for b in idx.buckets.values())
    assert not idx.exact
    assert idx.global_summary.n == 0


def test_duplicate_and_missing_ids():
    idx = RangeIndex(P, "t")
    idx.insert("a", (3, 3), 1.0)
    with pytest.raises(UsageError):
        idx.insert("a", (4, 4), 1.0)
    with pytest.raises(UsageError):
        idx.delete("zz")


def test_partition_counts_per_level():
    idx = RangeIndex(P, "t")
    idx.query((1, 1), 2.0)
    idx.query((1, 1), 10.0)
    rng = make_rng(4, "rq")
    for i in range(100):
        idx.insert(i, (rng.randint(1, 64), rng.randint(1, 64)), 1.0)
    for level, buckets in idx.buckets.items():
        assert sum(len(ids) for ids, _ in buckets.values()) == 100


def test_far_points_different_buckets():
    idx = RangeIndex(P, "t")
    idx.query((1, 1), 2.0)
    level = level_for_radius(2.0, idx.max_level)
    rho = P.gamma * (1 << level)
    h = idx.hashes[level]
    a, b = (1, 1), (64, 64)
    assert dist(a, b) > rho
    assert h.eval(a) != h.eval(b)


def test_query_r_below_one_exact():
    idx = RangeIndex(P, "t")
    idx.insert("a", (5, 5), 2.0)
    idx.insert("b", (5, 6), 1.0)
    summaries, ids = idx.query((5, 5), 0.5, with_ids=True)
    assert ids == ["a"]
    assert summaries[0].w == 2.0
    assert idx.query((9, 9), 0.0, with_ids=True)[1] == []


def test_query_sandwich_brute():
    p = Params(epsilon=0.5, d=2, delta=16, seed=22)
    idx = RangeIndex(p, "t")
    rng = make_rng(5, "rq")
    pts = {}
    for i in range(120):
        pt = (rng.randint(1, 16), rng.randint(1, 16))
        idx.insert(i, pt, 1.0)
        pts[i] = pt
    for _ in range(300):
        x = (rng.randint(1, 16), rng.randint(1, 16))
        r = rng.random() * 12
        _, ids = idx.query(x, r, with_ids=True)
        got = set(ids)
        inner = {i for i, q in pts.items() if dist(q, x) <= r}
        outer = {i for i, q in pts.items() if dist(q, x) <= 3 * p.gamma * r}
        assert inner <= got <= outer


# -- ANN oracle -------------------------------------------------------------


def test_ann_single_candidate():
    ci = CenterIndex(P, "ann")
    ci.insert((9, 9))
    assert ci.ann_query((2, 2)) == (9, 9)


def test_ann_excludes_self():
    ci = CenterIndex(P, "ann")
    ci.insert((2, 2))
    ci.insert((9, 9))
    assert ci.ann_query((2, 2)) == (9, 9)


def test_ann_ratio_dynamic_sweep():
    ci = CenterIndex(P, "ann")
    rng = make_rng(6, "ann")
    S = set()
    for step in range(600):
        if not S or rng.random() < 0.6:
            s = (rng.randint(1, 64), rng.randint(1, 64))
            if s not in S:
                S.add(s)
                ci.insert(s)
        else:
            s = rng.choice(sorted(S))
            S.discard(s)
            ci.delete(s)
        if len(S) >= 2:
            x = (rng.randint(1, 64), rng.randint(1, 64))
            ans = ci.ann_query(x, exclude=frozenset({x}))
            _, nd = brute_nn(x, S, exclude_self=True)
            assert ans is not None and ans != x
            assert dist(x, ans) <= 6 * P.gamma * max(nd, 1.0) + 1e-9
            if nd > 0:
                assert dist(x, ans) <= 6 * P.gamma * nd + 1e-9


def test_ann_tag_filter():
    ci = CenterIndex(P, "ann")
    ci.insert((5, 5), tag=0)
    ci.insert((6, 6), tag=1)
    assert ci.ann_query((5, 6), tag=1) == (6, 6)
    assert ci.ann_query((5, 6), tag=0) == (5, 5)
    assert ci.ann_query((5, 6), tag=2) is None


# -- indicators and maintained distances -------------------------------------


def test_indicator_adjacent_centers_bit_one():
    ci = CenterIndex(P, "ind", gammas=(1.0,))
    ci.insert((5, 5))
    ci.insert((5, 6))
    assert ci.indicator_bit((5, 5), 0) == 1
    assert ci.indicator_bit((5, 6), 0) == 1


def test_indicator_isolated_center_bit_zero():
    gamma_val = 1.0
    ci = CenterIndex(P, "ind", gammas=(gamma_val,))
    ci.insert((1, 1))
    ci.insert((64, 64))
    assert dist((1, 1), (64, 64)) > 6 * P.gamma * gamma_val
    assert ci.indicator_bit((1, 1), 0) == 0


def test_indicator_deletion_flip_reported():
    ci = CenterIndex(P, "ind", gammas=(1.0,))
    ci.insert((5, 5))
    ci.insert((5, 6))
    ci.insert((60, 60))
    ci.drain_events()
    ci.delete((5, 6))
    flips = ci.drain_events()
    assert ((5, 5), 1.0, 0) in flips


def test_indicator_flips_exact_vs_recompute():
    ci = CenterIndex(P, "ind", gammas=(1.0, 4.0, 16.0))
    rng = make_rng(7, "ind")
    S = set()
    bits = {}
    for step in range(500):
        if not S or rng.random() < 0.55:
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
                bits.pop((s, g), None)
        for s_ev, g, bit in ci.drain_events():
            assert bits.get((s_ev, g), 0) != bit, "spurious flip"
            bits[(s_ev, g)] = bit
        for s in S:
            others = S - {s}
            for gi, g in enumerate(ci.gammas):
                b = ci.indicator_bit(s, gi)
                assert bits.get((s, g), 0) == b, "missed flip"
                if others:
                    true_d = min(dist(s, t) for t in others)
                    if true_d <= g:
                        assert b == 1
                    if true_d > 6 * P.gamma * g:
                        assert b == 0


def test_dhat_two_point_bounds():
    ci = CenterIndex(P, "dh")
    ci.insert((10, 10))
    assert math.isinf(ci.dhat((10, 10)))
    ci.insert((20, 10))
    d = dist((10, 10), (20, 10))
    for s in ((10, 10), (20, 10)):
        assert d - 1e-9 <= ci.dhat(s) <= 2 * 6 * P.gamma * d + 1e-9


def test_dhat_adjacent_insertion_forces_small():
    ci = CenterIndex(P, "dh")
    ci.insert((30, 30))
    ci.insert((50, 50))
    ci.insert((30, 31))
    assert ci.dhat((30, 30)) <= 2 * 6 * P.gamma


def test_dhat_dynamic_sweep_two_sided():
    ci = CenterIndex(P, "dh")
    rng = make_rng(8, "dh")
    S = set()
    for step in range(400):
        if not S or rng.random() < 0.6:
            s = (rng.randint(1, 64), rng.randint(1, 64))
            if s not in S:
                S.add(s)
                ci.insert(s)
        else:
            s = rng.choice(sorted(S))
            S.discard(s)
            ci.delete(s)
        for s in S:
            others = S - {s}
            dh = ci.dhat(s)
            if not others:
                assert math.isinf(dh)
            else:
                true_d = min(dist(s, t) for t in others)
                assert true_d - 1e-9 <= dh <= 6 * P.gamma * true_d + 1e-9


# -- 1-means over approximate balls ------------------------------------------


def test_ball_one_means_single_point():
    bm = BallOneMeans(P, "b1m")
    bm.insert("a", (7, 7), 2.5)
    for r in (0.0, 1.0, 5.0, 100.0):
        ans = bm.query((7, 7), r)
        assert ans.b == 2.5
        assert ans.c_star == (7, 7)
        assert ans.cost_c_star == 0.0 and ans.cost_x == 0.0


def test_ball_one_means_empty():
    bm = BallOneMeans(P, "b1m")
    ans = bm.query((5, 5), 3.0, witness=True)
    assert ans.b == 0.0 and ans.c_star == (5, 5) and ans.witness == frozenset()


def test_ball_one_means_witness_checks():
    bm = BallOneMeans(P, "b1m")
    rng = make_rng(9, "b1m")
    pts = {}
    for i in range(250):
        pt = (rng.randint(1, 64), rng.randint(1, 64))
        bm.insert(i, pt, rng.choice([1.0, 2.0]))
        pts[i] = pt
    for _ in range(200):
        x = (rng.randint(1, 64), rng.randint(1, 64))
        r = rng.random() * 20
        ans = bm.query(x, r, witness=True)
        wit = ans.witness
        inner = {i for i, q in pts.items() if dist(q, x) <= r}
        outer = {i for i, q in pts.items() if dist(q, x) <= 3 * P.gamma * r}
        assert inner <= wit <= outer
        ws = [(pts[i], bm.index.registry[i][1]) for i in wit]
        total = sum(w for _, w in ws)
        assert math.isclose(ans.b, total, rel_tol=1e-9, abs_tol=1e-9)
        if ws:
            # c_est = 1: exact costs from moments
            assert math.isclose(ans.cost_x, cost(ws, [x]), rel_tol=1e-7,
                                abs_tol=1e-6)
            assert math.isclose(ans.cost_c_star, cost(ws, [ans.c_star]),
                                rel_tol=1e-7, abs_tol=1e-6)
            # c_opt = 4 against the support-plus-rounded-centroid oracle
            cands = set(q for q, _ in ws) | {ans.c_star}
            opt1 = min(cost(ws, [c]) for c in cands)
            assert ans.cost_c_star <= 4 * opt1 + 1e-6


def test_ball_one_means_b_monotone_within_level():
    bm = BallOneMeans(P, "b1m")
    rng = make_rng(10, "mono")
    for i in range(150):
        bm.insert(i, (rng.randint(1, 64), rng.randint(1, 64)), 1.0)
    for _ in range(50):
        x = (rng.randint(1, 64), rng.randint(1, 64))
        base = 1 << rng.randint(1, 5)
        r1 = base * (1.0 + 0.3 * rng.random())
        r2 = base * (1.4 + 0.5 * rng.random())
        lvl = level_for_radius(r1, bm.index.max_level)
        if lvl == level_for_radius(r2, bm.index.max_level):
            assert bm.query(x, r1).b <= bm.query(x, r2).b + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 32), st.integers(1, 32),
                          st.floats(0.5, 4.0)), min_size=2, max_size=20))
def test_moment_summary_merge_matches_bulk(entries):
    from dynkmeans.range_query import MomentSummary
    half = len(entries) // 2
    a, b, full = MomentSummary(2), MomentSummary(2), MomentSummary(2)
    for i, (x, y, w) in enumerate(entries):
        (a if i < half else b).add((x, y), w)
        full.add((x, y), w)
    a.merge(b)
    probe = (7, 9)
    assert math.isclose(a.w, full.w, rel_tol=1e-12)
    assert math.isclose(a.cost_at(probe), full.cost_at(probe), rel_tol=1e-9)
    assert a.centroid_rounded(32) == full.centroid_rounded(32)


def test_insert_then_delete_same_id_range_usage():
    bm = BallOneMeans(P, "b1m")
    bm.insert("k", (3, 3), 1.0)
    with pytest.raises(UsageError):
        bm.insert("k", (4, 4), 1.0)
    bm.delete("k")
    with pytest.raises(UsageError):
        bm.delete("k")
