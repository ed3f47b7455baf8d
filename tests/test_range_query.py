import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dynkmeans.errors import UsageError
from dynkmeans.geometry import brute_nn, cost, dist
from dynkmeans.params import Params
from dynkmeans.range_query import BallOneMeans, CenterIndex, level_for_radius
from dynkmeans.rng import make_rng
from dynkmeans.verify import audit_neighbor_counts

P = Params(epsilon=0.5, d=2, delta=64, seed=21)


def test_level_brackets():
    assert level_for_radius(1.0, 10) == 1
    assert level_for_radius(1.9, 10) == 1
    assert level_for_radius(2.0, 10) == 2
    assert level_for_radius(5.0, 10) == 3


def test_insert_delete_inverse():
    idx = BallOneMeans(P, "t")
    idx.query((1, 1), 0.5)  # materialize the exact level
    idx.query((1, 1), 4.0)  # and a hashed one
    idx.insert("a", (3, 3), 1.0)
    idx.delete("a")
    assert len(idx) == 0
    assert set(idx.buckets) == {0, level_for_radius(4.0, idx.max_level)}
    assert all(not b for b in idx.buckets.values())  # the exact level too


def test_updates_before_first_query_build_no_level():
    idx = BallOneMeans(P, "t")
    rng = make_rng(11, "lazy")
    for i in range(40):
        idx.insert(i, (rng.randint(1, 64), rng.randint(1, 64)), 1.0)
    for i in range(0, 40, 3):
        idx.delete(i)
    assert idx.buckets == {}
    assert all(not cells for _, _, cells in idx.registry.values())


def test_duplicate_and_missing_ids():
    idx = BallOneMeans(P, "t")
    idx.insert("a", (3, 3), 1.0)
    with pytest.raises(UsageError):
        idx.insert("a", (4, 4), 1.0)
    with pytest.raises(UsageError):
        idx.delete("zz")


def test_partition_counts_per_level():
    idx = BallOneMeans(P, "t")
    idx.query((1, 1), 0.5)
    idx.query((1, 1), 2.0)
    idx.query((1, 1), 10.0)
    rng = make_rng(4, "rq")
    for i in range(100):
        idx.insert(i, (rng.randint(1, 64), rng.randint(1, 64)), 1.0)
    assert len(idx.buckets) == 3    # the exact level and two hashed ones
    for level, buckets in idx.buckets.items():
        assert sum(len(ids) for ids, _ in buckets.values()) == 100


def test_far_points_different_buckets():
    idx = BallOneMeans(P, "t")
    idx.query((1, 1), 2.0)
    level = level_for_radius(2.0, idx.max_level)
    rho = P.gamma * (1 << level)
    h = idx.hashes[level]
    a, b = (1, 1), (64, 64)
    assert dist(a, b) > rho
    assert h.eval(a) != h.eval(b)


def test_query_r_below_one_exact():
    idx = BallOneMeans(P, "t")
    idx.insert("a", (5, 5), 2.0)
    idx.insert("b", (5, 6), 1.0)
    ans = idx.query((5, 5), 0.5, witness=True)
    assert ans.witness == {"a"}
    assert ans.b == 2.0
    assert idx.query((9, 9), 0.0, witness=True).witness == frozenset()


def test_query_sandwich_brute():
    p = Params(epsilon=0.5, d=2, delta=16, seed=22)
    idx = BallOneMeans(p, "t")
    rng = make_rng(5, "rq")
    pts = {}
    for i in range(120):
        pt = (rng.randint(1, 16), rng.randint(1, 16))
        idx.insert(i, pt, 1.0)
        pts[i] = pt
    for _ in range(300):
        x = (rng.randint(1, 16), rng.randint(1, 16))
        r = rng.random() * 12
        got = idx.query(x, r, witness=True).witness
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


@pytest.mark.parametrize("seed", range(4))
def test_neighbor_counts_match_scratch_on_random_streams(seed):
    # 4 seeds x 600 operations; after each one every maintained count equals
    # a from-scratch count and every bit equals _probe_bit
    ci = CenterIndex(P, ("counts", seed), gammas=(1.0, 4.0, 16.0))
    rng = make_rng(seed, "counts")
    S = set()
    for step in range(600):
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
        assert audit_neighbor_counts(ci) == 0, f"step {step}"
    assert len(S) > 10


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
        ws = [(pts[i], bm.registry[i][1]) for i in wit]
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


@pytest.mark.parametrize("d,delta", [(1, 64), (2, 256), (3, 32), (8, 1024)])
def test_ball_one_means_grid_radius_reads_every_point(d, delta):
    # radii of aspect and more read a level whose ball covers the grid: the
    # answer holds every live id, their exact weight and rounded centroid
    p = Params(epsilon=0.5, d=d, delta=delta, seed=24)
    bm = BallOneMeans(p, "grid")
    rng = make_rng(d, "grid")
    pts = {}
    for i in range(60):
        pts[i] = (tuple(rng.randint(1, delta) for _ in range(d)),
                  rng.choice((0.5, 1.0, 2.0)))
        bm.insert(i, *pts[i])
    for i in range(0, 60, 4):
        bm.delete(i)
        del pts[i]
    total = sum(w for _, w in pts.values())
    centroid = tuple(
        min(max(math.floor(sum(w * q[j] for q, w in pts.values()) / total
                           + 0.5), 1), delta)
        for j in range(d))
    probes = [(1,) * d, (delta,) * d, pts[1][0]]
    for r in (p.aspect, float(1 << p.dyadic_levels), 10 * p.aspect):
        for x in probes:
            ans = bm.query(x, r, witness=True)
            assert ans.witness == set(pts)
            assert ans.b == total
            assert ans.c_star == centroid
    assert bm.nocolor_events == 0


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
        lvl = level_for_radius(r1, bm.max_level)
        if lvl == level_for_radius(r2, bm.max_level):
            assert bm.query(x, r1).b <= bm.query(x, r2).b + 1e-9


def _grid_one_means_ok(got, entries):
    """Whether `got` rounds the exact weighted centroid of `entries` per
    axis. At a half, or within float rounding of one, either neighbour is a
    correct grid 1-means center, and float sums taken in different orders
    may pick different ones."""
    wsum = sum(Fraction(w) for _, _, w in entries)
    for axis, g in enumerate(got):
        c = sum(Fraction(e[axis]) * Fraction(e[2]) for e in entries) / wsum
        lo = math.floor(c)
        if abs(c - lo - Fraction(1, 2)) <= c * Fraction(1, 10 ** 12):
            ok = g in (lo, lo + 1)
        else:
            ok = g == math.floor(c + Fraction(1, 2))
        if not ok:
            return False
    return True


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 32), st.integers(1, 32),
                          st.floats(0.5, 4.0)), min_size=2, max_size=20))
# equal weights, exact centroid x = 7.5: merged and bulk sums round it to
# 7 and 8, both correct
@example([(x, 1, 1.7328330777120704) for x in (1, 7, 18, 4)])
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
    assert _grid_one_means_ok(a.centroid_rounded(32), entries)
    assert _grid_one_means_ok(full.centroid_rounded(32), entries)


def test_insert_then_delete_same_id_range_usage():
    bm = BallOneMeans(P, "b1m")
    bm.insert("k", (3, 3), 1.0)
    with pytest.raises(UsageError):
        bm.insert("k", (4, 4), 1.0)
    bm.delete("k")
    with pytest.raises(UsageError):
        bm.delete("k")


# -- staged centers ----------------------------------------------------------


def _index_state(ci):
    """The committed state of a CenterIndex, which staging must reproduce."""
    centers = {s: (rec.tag, dict(rec.cells),
                   {i: set(fp) for i, fp in rec.footprints.items()},
                   list(rec.counts), bytes(n > 0 for n in rec.counts),
                   rec.ell,
                   [ci.indicator_bit(s, gi) for gi in range(len(ci.gammas))])
               for s, rec in ci.centers.items()}
    hashes = {i: (h.attempt, h.top) for i, h in ci.hashes.items()}
    return centers, ci.cells, ci.listen, hashes


def _answers(ci, rng, probes, centers):
    """Every dhat, and ANN answers with and without tag, exclude, max_dist
    and allow_equal, drawn from rng."""
    out = [(s, ci.dhat(s)) for s in sorted(centers)]
    for x in probes:
        exclude = frozenset(s for s in centers if rng.random() < 0.3)
        for tag in (None, 0, 1):
            out.append(ci.ann_query(x, tag=tag))
            out.append(ci.ann_query(x, tag=tag, exclude=exclude,
                                    allow_equal=True))
        out.append(ci.ann_query(x, exclude=exclude, max_dist=4.0))
    return out


@pytest.mark.parametrize("d,delta", [(1, 256), (2, 64), (3, 32), (8, 16)])
def test_staging_matches_eager_insertion(d, delta):
    # a twin index inserts the staged batch for real: every answer during
    # staging, and the committed state after the same deletes, must match
    from test_nocolor import _force_color_1, _stub

    p = Params(epsilon=0.5, d=d, delta=delta, seed=23)
    rng = make_rng(d, "staging")
    box = max(3, delta // 4)            # crowded enough for low-level neighbors

    def point():
        return tuple(rng.randint(1, box) for _ in range(d))

    pts = list(dict.fromkeys(point() for _ in range(40)))
    committed, batch = pts[:12], pts[12:30]
    tags = {s: rng.choice((None, 0, 1)) for s in pts}
    staged = CenterIndex(p, "stg", gammas=(1.0, 4.0, 16.0))
    eager = CenterIndex(p, "stg", gammas=(1.0, 4.0, 16.0))
    for ci in (staged, eager):
        for s in committed:
            ci.insert(s, tag=tags[s])
    widen_level, nocolor_level = 1, 2
    for j, s in enumerate(batch):
        for ci in (staged, eager):
            if j == 3:                  # s is the first to take color 1
                _force_color_1(ci.hashes[widen_level], s)
            if j == 7:                  # s's evaluation resamples the level
                _stub(ci.hashes[nocolor_level], fail_always=False)
        staged.stage(s)
        eager.insert(s)
    assert staged.hashes[widen_level].top == 1
    assert staged.nocolor_events == eager.nocolor_events == 1
    assert staged.centers.keys() == set(committed)
    assert all(s in staged.centers for s, _, _ in staged.events)
    fresh = (delta,) * d                # outside the box, so never staged
    with pytest.raises(UsageError):
        staged.insert(fresh)

    live = set(committed) | set(batch)
    probes = sorted(live)[:10] + [point() for _ in range(10)]
    seed = rng.randrange(1 << 30)
    assert (_answers(staged, make_rng(seed, "a"), probes, live)
            == _answers(eager, make_rng(seed, "a"), probes, live))

    # restricted k-means removes staged and committed centers alike
    gone = [s for s in sorted(live) if rng.random() < 0.6]
    for ci in (staged, eager):
        for s in gone:
            ci.delete(s)
    live -= set(gone)
    assert (_answers(staged, make_rng(seed, "b"), probes, live)
            == _answers(eager, make_rng(seed, "b"), probes, live))
    staged.commit()
    assert not staged.staged
    assert not any(staged.overlay.values())
    assert _index_state(staged) == _index_state(eager)
    assert audit_neighbor_counts(staged) == 0
    assert (_answers(staged, make_rng(seed, "c"), probes, live)
            == _answers(eager, make_rng(seed, "c"), probes, live))
    for ci in (staged, eager):
        ci.insert(fresh)
    assert _index_state(staged) == _index_state(eager)


def _twins(p, committed, batch, tags):
    """An index that stages `batch`, and its twin that inserts it."""
    staged = CenterIndex(p, "stg", gammas=(1.0, 4.0, 16.0))
    eager = CenterIndex(p, "stg", gammas=(1.0, 4.0, 16.0))
    for ci in (staged, eager):
        for s in committed:
            ci.insert(s, tag=tags[s])
    for s in batch:
        staged.stage(s)
        eager.insert(s)
    return staged, eager


@pytest.mark.parametrize("d,delta", [(1, 256), (2, 64), (3, 32), (8, 32)])
def test_staging_matches_eager_insertion_over_the_grid(d, delta):
    # centers spread over the whole grid, farther apart than the 2^i +
    # gamma*2^i reach of a level-i bucket for i <= 2, so every staged and
    # committed center finds its nearest neighbor above level 2
    p = Params(epsilon=0.5, d=d, delta=delta, seed=23)
    rng = make_rng(d, "spread")
    pts = []
    for _ in range(400):
        q = tuple(rng.randint(1, delta) for _ in range(d))
        if len(pts) < 8 and all(dist(q, o) > (1 + p.gamma) * 4 for o in pts):
            pts.append(q)
    assert len(pts) >= 4
    committed, batch = pts[::2], pts[1::2]
    tags = {s: rng.choice((None, 0, 1)) for s in pts}
    staged, eager = _twins(p, committed, batch, tags)
    assert all(staged._walk(s)[0] > 2 for s in pts)
    live = set(pts)
    probes = pts + [tuple(rng.randint(1, delta) for _ in range(d))
                    for _ in range(4)]
    seed = rng.randrange(1 << 30)
    assert (_answers(staged, make_rng(seed, "a"), probes, live)
            == _answers(eager, make_rng(seed, "a"), probes, live))
    gone = [committed[0], batch[0]]
    for ci in (staged, eager):
        for s in gone:
            ci.delete(s)
    live -= set(gone)
    assert (_answers(staged, make_rng(seed, "b"), probes, live)
            == _answers(eager, make_rng(seed, "b"), probes, live))
    staged.commit()
    assert _index_state(staged) == _index_state(eager)


def test_staged_center_alone_has_no_neighbor():
    staged, eager = _twins(P, [], [(9, 9)], {})
    for ci in (staged, eager):
        assert math.isinf(ci.dhat((9, 9)))
        assert ci.ann_query((9, 9)) is None
    staged.stage((60, 50))
    eager.insert((60, 50))
    for s in ((9, 9), (60, 50)):
        assert staged.dhat(s) == eager.dhat(s) < math.inf
    for ci in (staged, eager):
        ci.delete((60, 50))
        assert math.isinf(ci.dhat((9, 9)))
