import itertools
import math

import pytest

from dynkmeans.errors import NoColorError
from dynkmeans.geometry import dist
from dynkmeans.hashing import OVER_CAP, ConsistentHash, WeakHash
from dynkmeans.params import Params
from dynkmeans.rng import make_rng


def wh_1d(shift=0.0, cell=2.0, delta=8):
    return WeakHash(rho=cell, cell=cell, shift=(shift,), delta=delta)


def test_weak_eval_floor():
    wh = wh_1d()
    assert wh.eval((3,)) == (1,)
    assert wh.eval((4,)) == (2,)


def test_weak_eval_shift_boundary():
    eps = 1e-9
    wh = wh_1d(shift=2.0 - eps)
    assert wh.eval((1,)) == (1,)


def test_ball_cells_r0():
    wh = wh_1d()
    assert wh.ball_cells((5,), 0.0, 10) == {wh.eval((5,))}


def test_ball_cells_enumeration():
    # cells [2,4), [4,6), [6,8) hold grid points within distance 2 of x=4;
    # cell [0,2) holds only the grid point 1, at distance 3
    wh = wh_1d()
    assert wh.ball_cells((4,), 2.0, 100) == {(1,), (2,), (3,)}


def test_ball_cells_brute_force_agreement():
    rng = make_rng(3, "cells")
    for _ in range(40):
        shift = rng.random() * 2.0
        wh = wh_1d(shift=shift, cell=2.0, delta=16)
        x = (rng.randint(1, 16),)
        r = rng.random() * 6
        got = wh.ball_cells(x, r, 1000)
        want = {wh.eval((g,)) for g in range(1, 17)
                if abs(g - x[0]) <= r}
        # DFS may also include cells whose nearest grid point is within r
        # but not an exact multiple; recompute via cell_dist2
        lo = wh.eval((1,))[0]
        hi = wh.eval((16,))[0]
        want2 = {(z,) for z in range(lo - 2, hi + 3)
                 if wh.cell_dist2(x, (z,)) <= r * r}
        assert got == want2
        assert want <= got


def test_ball_cells_off_grid_points():
    # the DFS starts in x's own cell: when x lies outside [1, delta] and that
    # cell holds no grid point, no cell is returned even if others are near
    wh = wh_1d(shift=0.0, cell=2.0, delta=16)
    assert wh.eval((-5,)) == (-3,)
    assert wh.cell_dist2((-5,), (-3,)) == math.inf
    assert wh.cell_dist2((-5,), (0,)) == 36
    assert wh.ball_cells((-5,), 10.0, 1000) == set()
    assert wh.ball_cells((0,), 3.0, 1000) == {(0,), (1,)}
    assert wh_1d(shift=1.5, cell=2.0, delta=16).ball_cells((0,), 3.0, 1000) \
        == set()
    rng = make_rng(5, "offgrid")
    hits = {True: 0, False: 0}
    for _ in range(60):
        wh = wh_1d(shift=rng.random() * 2.0, cell=2.0, delta=16)
        for x in ((-5,), (0,)):
            r = rng.random() * 12
            got = wh.ball_cells(x, r, 1000)
            own_empty = wh.cell_dist2(x, wh.eval(x)) == math.inf
            hits[own_empty] += 1
            if own_empty:
                assert got == set()
            else:
                assert got == {(z,) for z in range(-8, 12)
                               if wh.cell_dist2(x, (z,)) <= r * r}
    assert hits[True] and hits[False]


def test_ball_cells_cap():
    wh = wh_1d()
    assert wh.ball_cells((4,), 2.0, 1) is OVER_CAP


def test_hash_eval_first_color_when_cap_huge():
    p = Params(epsilon=0.5, d=1, delta=8, colors=1, lambda_cap=1000, seed=4)
    h = ConsistentHash(p, rho=2.0, seed_tag="t")
    for x in range(1, 9):
        assert h.eval((x,))[0] == 0


def test_hash_eval_same_cell_same_value():
    p = Params(epsilon=0.5, d=2, delta=16, seed=5)
    h = ConsistentHash(p, rho=8.0, seed_tag="t")
    groups = {}
    for x in itertools.product(range(1, 17), repeat=2):
        groups.setdefault(h.eval(x), []).append(x)
    for v, members in groups.items():
        for a in members:
            assert h.eval(a) == v


def test_hash_eval_forced_no_color():
    # per-color cap of 1 cell cannot fit a ball spanning two cells
    p = Params(epsilon=0.5, d=1, delta=64, colors=1, lambda_cap=1, seed=6)
    h = ConsistentHash(p, rho=6.0, seed_tag="t")
    with pytest.raises(NoColorError):
        for x in range(1, 65):
            h.eval((x,))


def test_ball_buckets_contains_own_value():
    p = Params(epsilon=0.5, d=2, delta=16, seed=7)
    h = ConsistentHash(p, rho=4.0, seed_tag="t")
    for x in itertools.product(range(1, 17, 3), repeat=2):
        assert h.eval(x) in h.ball_buckets(x)


def test_ball_buckets_inner_inclusion_pairs():
    p = Params(epsilon=0.5, d=2, delta=16, seed=8)
    rho = 8.0
    h = ConsistentHash(p, rho=rho, seed_tag="t")
    rng = make_rng(8, "pairs")
    for _ in range(200):
        x = (rng.randint(1, 16), rng.randint(1, 16))
        y = (rng.randint(1, 16), rng.randint(1, 16))
        if dist(x, y) <= rho / p.gamma:
            assert h.eval(y) in h.ball_buckets(x)


def test_full_grid_sandwich_small():
    p = Params(epsilon=0.5, d=2, delta=16, seed=9)
    rho = 8.0
    h = ConsistentHash(p, rho=rho, seed_tag="t")
    grid = list(itertools.product(range(1, 17), repeat=2))
    value = {x: h.eval(x) for x in grid}
    realized = {}
    for x, v in value.items():
        realized.setdefault(v, []).append(x)
    for x in grid:
        phi = h.ball_buckets(x)
        assert len(phi) <= p.lambda_cap
        for y in grid:
            if dist(x, y) <= rho / p.gamma:
                assert value[y] in phi
        for v in phi:
            pts = realized.get(v)
            if pts:
                assert min(dist(x, q) for q in pts) <= 2 * rho + 1e-9


def test_diameter_exhaustive():
    for d, rho in ((1, 2.0), (2, 4.0)):
        p = Params(epsilon=0.5, d=d, delta=16, seed=10)
        h = ConsistentHash(p, rho=rho, seed_tag="t")
        groups = {}
        for x in itertools.product(range(1, 17), repeat=d):
            groups.setdefault(h.eval(x), []).append(x)
        for members in groups.values():
            for a in members:
                for b in members:
                    assert dist(a, b) <= rho + 1e-9


def test_determinism_same_seed():
    p = Params(epsilon=0.5, d=2, delta=16, seed=11)
    h1 = ConsistentHash(p, rho=4.0, seed_tag="same")
    h2 = ConsistentHash(p, rho=4.0, seed_tag="same")
    for x in itertools.product(range(1, 17, 2), repeat=2):
        assert h1.eval(x) == h2.eval(x)
        assert h1.ball_buckets(x) == h2.ball_buckets(x)


# every color is handed out on this grid, and no point meets a NoColor event
P_COLORS = Params(epsilon=0.5, d=2, delta=16, colors=4, lambda_cap=8, seed=14)


def test_ball_buckets_upto_is_full_enumeration_cut_at_color():
    h = ConsistentHash(P_COLORS, rho=4.0, seed_tag="t")
    cut_short = 0
    for x in itertools.product(range(1, 17, 3), repeat=2):
        for r in (1.0, 2.0, None):
            full = h.ball_buckets(x, r)
            for c in range(P_COLORS.colors):
                want = {v for v in full if v[0] <= c}
                assert h.ball_buckets(x, r, upto=c) == want
                cut_short += want != full
    assert cut_short > 0


def test_top_is_highest_color_evaluated_and_resets_on_resample():
    h = ConsistentHash(P_COLORS, rho=4.0, seed_tag="t")
    assert h.top == 0
    seen = 0
    for x in itertools.product(range(1, 17), repeat=2):
        seen = max(seen, h.eval(x)[0])
        assert h.top == seen
    assert seen == P_COLORS.colors - 1
    h.resample()
    assert h.top == 0


def test_ball_buckets_memo_keyed_by_upto():
    x = (7, 7)
    fresh = ConsistentHash(P_COLORS, rho=4.0, seed_tag="t")
    full = fresh.ball_buckets(x)
    cut = {v for v in full if v[0] == 0}
    assert cut != full
    h = ConsistentHash(P_COLORS, rho=4.0, seed_tag="t")
    assert h.ball_buckets(x, upto=0) == cut
    assert h.ball_buckets(x) == full
    assert h.ball_buckets(x, upto=0) == cut
    assert h.ball_buckets(x, upto=P_COLORS.colors - 1) == full


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_eval_skips_the_count_only_where_color_0_cannot_overflow(d):
    # color0_fits says the eval ball's cell box is under the per-color cap;
    # then the counted ball must be too, and the value must equal the one
    # the per-color count gives. At d = 8 the default cap is too small, so
    # a second Params raises it until the flag is set.
    rng = make_rng(40, "fits", d)
    delta = 256 if d < 8 else 1024
    plist = [Params(epsilon=0.5, d=d, delta=delta, seed=d)]
    if d == 8:
        assert not ConsistentHash(plist[0], rho=8.0, seed_tag="t").color0_fits
        plist.append(Params(epsilon=0.5, d=d, delta=delta, seed=d,
                            colors=2, lambda_cap=2 * 4 ** 8))
    checked = 0
    for p in plist:
        for level in (0, 2, 5, 8):
            rho = float(1 << level)
            fast = ConsistentHash(p, rho=rho, seed_tag=("t", level))
            slow = ConsistentHash(p, rho=rho, seed_tag=("t", level))
            slow.color0_fits = False
            if not fast.color0_fits:
                continue
            r = 2.0 * rho / p.gamma
            for _ in range(60 if d < 8 else 15):
                x = tuple(rng.randint(1, delta) for _ in range(d))
                if rng.random() < 0.5:
                    x = tuple(c + rng.random() for c in x)
                cells = fast.weak[0].ball_cells(x, r, 10 ** 9)
                assert len(cells) <= p.per_color_cap
                assert fast.eval(x) == slow.eval(x)
                assert fast.top == slow.top == 0
                checked += 1
    assert checked >= 60
