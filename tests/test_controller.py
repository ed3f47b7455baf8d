import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkmeans import controller
from dynkmeans.controller import (DynamicKMeans, _removal_floors,
                                  validate_certificate)
from dynkmeans.errors import UsageError
from dynkmeans.geometry import WeightedSet, dist
from dynkmeans.params import Params
from dynkmeans.rng import make_rng
from dynkmeans.verify import cert_controller, cert_schedule
from dynkmeans.workload import gen_workload

P = Params(epsilon=0.5, d=2, delta=256, seed=51)


def drive(dk, stream):
    reports = []
    for op, key, point, w in stream.ops():
        reports.append(dk.update(op, key, point, w))
    return reports


def test_degenerate_phase_solution_is_all_points():
    dk = DynamicKMeans(P, 5)
    for i in range(5):
        dk.update("insert", i, (10 * i + 1, 10 * i + 1), 1.0)
    assert dk.solution() == {(10 * i + 1, 10 * i + 1) for i in range(5)}
    assert dk.X.cost(dk.solution()) == 0.0
    dk.update("delete", 0)
    assert len(dk.solution()) == 4


def test_activation_at_k_plus_one_distinct():
    dk = DynamicKMeans(P, 3)
    pts = [(10, 10), (50, 50), (100, 100), (200, 200)]
    for i, p in enumerate(pts):
        dk.update("insert", i, p, 1.0)
    assert dk.active
    assert len(dk.solution()) <= 3
    assert set(dk.cent.centers) == set(dk.solution())


def test_unknown_ops_and_ids():
    dk = DynamicKMeans(P, 2)
    with pytest.raises(UsageError):
        dk.update("frob", 1, (1, 1), 1.0)
    with pytest.raises(UsageError):
        dk.update("delete", 42)
    dk.update("insert", 1, (5, 5), 1.0)
    with pytest.raises(UsageError):
        dk.update("insert", 1, (6, 6), 1.0)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
def test_bad_weight_rejected_before_any_state_change(weight):
    dk = DynamicKMeans(P, 3)
    for i, p in enumerate([(10, 10), (50, 50), (100, 100), (200, 200)]):
        dk.update("insert", i, p, 1.0)
    assert dk.active and not dk.epoch_live   # the next update starts an epoch
    rng_state = dk.rng.getstate()
    sol = dk.solution()
    with pytest.raises(UsageError):
        dk.update("insert", 9, (30, 30), weight)
    assert not dk.epoch_live
    assert dk.rng.getstate() == rng_state
    assert dk.solution() == sol
    assert 9 not in dk.X and 9 not in dk.assign.points
    assert len(dk.ball1m) == 4


@pytest.mark.parametrize("point", [(30,), (30, 30, 30), None])
def test_bad_point_rejected_before_any_state_change(point):
    dk = DynamicKMeans(P, 3)
    for i, p in enumerate([(10, 10), (50, 50), (100, 100), (200, 200)]):
        dk.update("insert", i, p, 1.0)
    assert dk.active and not dk.epoch_live   # the next update starts an epoch
    rng_state = dk.rng.getstate()
    sol = dk.solution()
    with pytest.raises(UsageError, match="2 coordinates"):
        dk.update("insert", 9, point, 1.0)
    assert not dk.epoch_live
    assert dk.rng.getstate() == rng_state
    assert dk.solution() == sol
    assert 9 not in dk.X and len(dk.ball1m) == 4
    dk.update("insert", 9, (30, 30), 1.0)     # the id is still free
    assert 9 in dk.X


@pytest.mark.parametrize("point", [(0, 0), (-5, 3), (1.5, 2.25), (257, 30),
                                   (2.0, 3.0), (True, 5)])
def test_off_grid_point_rejected_before_any_state_change(point):
    dk = DynamicKMeans(P, 3)
    for i, p in enumerate([(10, 10), (50, 50), (100, 100), (200, 200)]):
        dk.update("insert", i, p, 1.0)
    rng_state = dk.rng.getstate()
    sol = dk.solution()
    with pytest.raises(UsageError, match="integers in"):
        dk.update("insert", 9, point, 1.0)
    assert not dk.epoch_live
    assert dk.rng.getstate() == rng_state
    assert dk.solution() == sol
    assert 9 not in dk.X and 9 not in dk.assign.points
    assert len(dk.ball1m) == 4
    assert dk.assign.audit_partition() == []


def test_lazy_rules_in_long_epoch():
    # uniform data keeps removals cheap, so epochs stretch past one update
    k = 16
    dk = DynamicKMeans(P, k)
    stream = gen_workload("uniform", 600, 2, 256, k, ins_frac=1.0, seed=3)
    reports = drive(dk, stream)
    saw_lazy_insert = saw_multi = False
    epoch_start = True
    for rep in reports[k + 2:]:
        if rep.epoch_len > 1:
            saw_multi = True
            if not rep.epoch_boundary and not epoch_start:
                # mid-epoch insert adds at most the point itself
                assert rep.recourse <= 1
                saw_lazy_insert = True
        epoch_start = rep.epoch_boundary
    assert saw_multi and saw_lazy_insert


def test_lazy_deletion_recourse_zero():
    k = 16
    dk = DynamicKMeans(P, k)
    stream = gen_workload("uniform", 500, 2, 256, k, ins_frac=1.0, seed=4)
    # drive until an epoch is live with room left for one more update
    for op, key, point, w in stream.ops():
        dk.update(op, key, point, w)
        if dk.epoch_live and dk.epoch_updates < dk.ell:
            break
    else:
        pytest.fail("the stream never reached a mid-epoch state")
    centers = dk.solution() | set(dk.cent.centers)
    target = next(key for key in dk.X.ids() if dk.X.get(key)[0] not in centers)
    rep = dk.update("delete", target)
    assert not rep.epoch_boundary
    assert rep.recourse == 0


def test_zero_length_epoch_runs_pipeline_every_update():
    k = 5
    dk = DynamicKMeans(P, k)
    stream = gen_workload("clustered", 300, 2, 256, k, ins_frac=0.7, seed=5)
    reports = drive(dk, stream)
    tail = [r for r in reports[50:]]
    boundaries = sum(1 for r in tail if r.epoch_boundary)
    zero_len = sum(1 for r in tail if r.epoch_len == 1)
    assert boundaries >= 0.8 * zero_len * 0.9  # ell=0 epochs end immediately


_CELL = st.tuples(st.integers(1, 12), st.integers(1, 12))
_WEIGHT = st.one_of(st.just(0.0), st.just(1.0),
                    st.sampled_from((1 / 3, 2 / 3, 2.5)), st.floats(0.0, 8.0))


@settings(max_examples=150, deadline=None)
@given(st.lists(_CELL, min_size=2, max_size=8, unique=True), st.data())
def test_removal_floor_is_below_every_removal(centers, data):
    # floor(r) = base + the r smallest single-removal increases, read from
    # the matrix _estimate_ell builds, never exceeds cost(X, S - R) for any
    # r-subset R, up to the margin _estimate_ell compares with. Points lie
    # on a small grid, repeat, and sit on centers; weights may be 0.
    pts = data.draw(st.lists(st.tuples(st.one_of(_CELL,
                                                 st.sampled_from(centers)),
                                       _WEIGHT), max_size=24))
    X = WeightedSet(2)
    for key, (p, wv) in enumerate(pts):
        X.insert(key, p, wv)
    d2 = X.dist2_matrix(centers)
    _, w = X.arrays()
    near = d2.min(axis=1)
    floors = _removal_floors(d2.T, w, near, float(np.dot(w, near)))
    assert len(floors) == len(centers) - 1
    margin = 4 * (len(w) + len(centers) + 1) * 2.0 ** -53
    for r in range(1, len(centers)):
        best = min(X.cost(set(centers) - set(R))
                   for R in itertools.combinations(centers, r))
        assert floors[r - 1] <= best * (1 + margin), r


def test_estimate_ell_zero_when_removal_expensive():
    # every center owns a heavy pile; dropping any of them blows the cost
    k = 3
    dk = DynamicKMeans(P, k)
    idx = 0
    for c in ((20, 20), (120, 120), (220, 220)):
        for _ in range(20):
            dk.update("insert", idx, c, 1.0)
            idx += 1
    dk.update("insert", idx, (25, 25), 1.0)  # distinct > k activates epochs
    assert dk.active
    dk.S_init = frozenset(dk.cent.centers)
    ell_hat, ell = dk._estimate_ell()
    assert ell_hat == 0 and ell == 0


def test_estimate_ell_large_when_removal_free():
    # many centers serving one heavy coincident pile: removals are free
    k = 9
    dk = DynamicKMeans(P, k, witness=False)
    idx = 0
    for _ in range(40):
        dk.update("insert", idx, (128, 128), 1.0)
        idx += 1
    # spread singleton points to exceed k distinct and activate
    spread = [(i * 25 + 1, 3) for i in range(k + 1)]
    for p in spread:
        dk.update("insert", idx, p, 0.0)
        idx += 1
    assert dk.active
    dk.S_init = frozenset(dk.cent.centers)
    ell_hat, ell = dk._estimate_ell()
    assert ell_hat >= (len(dk.S_init) - 1) // 4


def test_ell_trials_leave_the_controller_generator_alone(monkeypatch):
    # the trials draw from ell_rng alone, so whether a trial is solved or
    # ruled out, the shrink and the epoch end draw the same from rng
    solved = []
    solve = controller.restricted_kmeans

    def restricted(ctx, r, rng, ordering=None):
        solved.append(r)
        return solve(ctx, r, rng, ordering)

    monkeypatch.setattr(controller, "restricted_kmeans", restricted)
    k = 9
    dk = DynamicKMeans(P, k)
    for idx in range(40):
        dk.update("insert", idx, (128, 128), 1.0)
    for i in range(k + 1):
        dk.update("insert", 40 + i, (i * 25 + 1, 3), 0.0)
    assert dk.active
    dk.S_init = frozenset(dk.cent.centers)
    state = dk.rng.getstate()
    dk._estimate_ell()
    assert solved
    assert dk.rng.getstate() == state


def test_estimate_ell_trace_practical_threshold():
    # hand-checkable loop: base cost vs cost after removing 2^i centers
    k = 6
    dk = DynamicKMeans(P, k)
    idx = 0
    # three tight heavy clusters + three redundant far centers
    heavy = [(30, 30), (128, 128), (220, 220)]
    for c in heavy:
        for _ in range(10):
            dk.update("insert", idx, c, 1.0)
            idx += 1
    light = [(5, 250), (250, 5), (128, 5), (5, 128)]
    for p in light:
        dk.update("insert", idx, p, 1.0)
        idx += 1
    if not dk.active:
        return
    base = dk.X.cost(dk.S_init) if dk.S_init else 0.0
    ell_hat, ell = dk._estimate_ell()
    stop = dk.sched.ell_stop_factor
    # simulate: removing one center must stay within factor stop of base
    # whenever ell_hat >= 1
    if ell_hat >= 1:
        assert ell == int(ell_hat // dk.sched.ell_shrink)


def test_insert_delete_same_point_keeps_cost_bounded():
    # a no-op pair of updates must leave the solution within a modest
    # factor of its pre-epoch cost
    k = 4
    dk = DynamicKMeans(P, k)
    rng = make_rng(15, "noop")
    idx = 0
    for c in ((20, 20), (120, 120), (220, 30), (60, 200), (240, 240)):
        for _ in range(8):
            dk.update("insert", idx,
                      (c[0] + rng.randint(-1, 1), c[1] + rng.randint(-1, 1)), 1.0)
            idx += 1
    cost_before = dk.X.cost(dk.solution())
    dk.update("insert", 7777, (130, 130), 1.0)
    dk.update("delete", 7777)
    cost_after = dk.X.cost(dk.solution())
    assert cost_after <= 25 * max(cost_before, 1.0)


def test_far_insertion_gets_covered():
    k = 3
    dk = DynamicKMeans(P, k)
    rng = make_rng(6, "cover")
    idx = 0
    for c in ((20, 20), (120, 120), (220, 30), (40, 200)):
        for _ in range(10):
            dk.update("insert", idx,
                      (c[0] + rng.randint(-1, 1), c[1] + rng.randint(-1, 1)), 1.0)
            idx += 1
    # now a far tight cluster appears
    for _ in range(12):
        dk.update("insert", idx, (250, 250), 1.0)
        idx += 1
    sol = dk.solution()
    assert min(dist((250, 250), s) for s in sol) <= 40.0


def test_recourse_identity_and_bound():
    k = 6
    dk = DynamicKMeans(P, k)
    stream = gen_workload("clustered", 400, 2, 256, k, ins_frac=0.75, seed=7)
    prev = frozenset()
    for op, key, point, w in stream.ops():
        rep = dk.update(op, key, point, w)
        now = dk.solution()
        assert rep.recourse == len(prev.symmetric_difference(now))
        prev = now
        if dk.active:
            assert len(dk.S_out) <= k + dk.epoch_updates + 1
    assert not dk.violations


def test_solution_size_after_epochs():
    k = 8
    dk = DynamicKMeans(P, k)
    stream = gen_workload("clustered", 500, 2, 256, k, ins_frac=0.7, seed=8)
    for i, (op, key, point, w) in enumerate(stream.ops()):
        rep = dk.update(op, key, point, w)
        if rep.epoch_boundary:
            assert len(dk.solution()) <= k


def cert_params():
    # lam >= 3*gamma and small divisors so robustness levels go above zero
    p = Params(epsilon=0.5, d=2, delta=1024, seed=52)
    return p, cert_schedule(p)


def test_makerobust_certificates_validate():
    p, sched = cert_params()
    dk = DynamicKMeans(p, 5, witness=True, sched=sched)
    failures = []
    seen_t = set()

    def on_mr(ctrl, rec):
        seen_t.add(rec.t)
        failures.extend(validate_certificate(rec, ctrl.X, ctrl.sched,
                                             ctrl.params.delta))
        assert dist(rec.u, rec.v) <= 4 * ctrl.sched.lam ** (3 * rec.t - 1) + 1e-9 \
            or rec.t == 0

    dk.on_makerobust = on_mr
    stream = gen_workload("clustered", 400, 2, 1024, 5, ins_frac=0.75, seed=9)
    drive(dk, stream)
    assert dk.makerobust_cum > 0
    assert not failures, failures[:3]
    assert max(seen_t) >= 1  # nontrivial chains exercised
    assert not dk.violations


def test_makerobust_t0_identity():
    dk = DynamicKMeans(P, 3, witness=True)
    for i, ptn in enumerate([(10, 10), (100, 100), (200, 200), (50, 50)]):
        dk.update("insert", i, ptn, 1.0)
    u = next(iter(dk.cent.centers))
    v = dk._make_robust(u, "fresh")
    assert v == u
    assert dk.cent.centers[u].tag == 0


def test_contamination_triggers_makerobust():
    p, sched = cert_params()
    dk = DynamicKMeans(p, 3, witness=True, sched=sched)
    idx = 0
    for c in ((100, 100), (500, 500), (900, 100), (200, 800)):
        for _ in range(8):
            dk.update("insert", idx, c, 1.0)
            idx += 1
    center = min(dk.solution(), key=lambda s: dist(s, (100, 100)))
    radius = dk.sched.contamination_radius(dk.level(center, 0))
    calls = []
    dk.on_makerobust = lambda ctrl, rec: calls.append(rec)
    # touch inside the contamination ball of that center
    near = (center[0] + 1, center[1])
    dk.update("insert", idx, near, 1.0)
    dk.update("delete", idx)
    assert dk.active
    assert any(rec.call_type == "contaminated" and dist(rec.u, near) <= radius
               for rec in calls)


def wide_params():
    # aspect ratio large enough for genuine robustness levels under the
    # production divisors (lam^7 / lam^10), which make level separation
    # provable: corner distance must exceed lam^7 ~ 6.1e8
    delta = 1 << 30
    p = Params(epsilon=0.5, d=2, delta=delta, seed=53, colors=3)
    return p, delta


def test_contamination_uniqueness_brute_scan():
    p, delta = wide_params()
    dk = DynamicKMeans(p, 4, witness=True)
    rng = make_rng(11, "probe")
    corners = [(1000, 1000), (delta - 1000, delta - 1000),
               (delta - 1000, 1000), (1000, delta - 1000)]
    idx = 0
    levels_seen = set()
    for step in range(150):
        c = corners[rng.randrange(4)]
        pt = (c[0] + rng.randint(-2, 2), c[1] + rng.randint(-2, 2))
        dk.update("insert", idx, pt, 1.0)
        idx += 1
        if not dk.active:
            continue
        lam = dk.sched.lam
        by_level = {}
        for s in dk.cent.centers:
            t = dk.level(s, 0)
            by_level.setdefault(t, []).append(s)
            levels_seen.add(t)
        x = (rng.randint(1, delta), rng.randint(1, delta))
        for i, members in by_level.items():
            if i < 1:
                continue  # level-0 centers carry trivial certificates
            hits = [s for s in members if dist(x, s) <= lam ** (3 * i + 2)]
            assert len(hits) <= 1, (x, i, hits)
    assert max(levels_seen, default=0) >= 1  # nontrivial levels exercised


def test_chain_instrumentation_clean_on_streams():
    p, sched = cert_params()
    dk = DynamicKMeans(p, 6, witness=False, sched=sched)
    stream = gen_workload("adversarial-churn", 600, 2, 1024, 6, seed=12)
    drive(dk, stream)
    stream2 = gen_workload("clustered", 400, 2, 1024, 6, ins_frac=0.6, seed=13)
    dk2 = DynamicKMeans(p, 6, witness=False, sched=sched)
    drive(dk2, stream2)
    assert not dk.violations and not dk2.violations


def test_cert_revalidation_after_quiet_updates():
    # under the production divisors, the contamination scan refreshes every
    # touched certificate, so stored ones keep validating
    p, delta = wide_params()
    dk = DynamicKMeans(p, 4, witness=True)
    rng = make_rng(14, "reval")
    corners = [(1000, 1000), (delta - 1000, delta - 1000),
               (delta - 1000, 1000), (1000, delta - 1000)]
    idx = 0
    for step in range(120):
        c = corners[rng.randrange(4)]
        pt = (c[0] + rng.randint(-2, 2), c[1] + rng.randint(-2, 2))
        dk.update("insert", idx, pt, 1.0)
        idx += 1
        if idx % 10 == 0:
            bad = dk.revalidate_certificates()
            assert not bad, bad[:3]
    assert any(dk.level(s, 0) >= 1 for s in dk.cent.centers)


def test_deactivation_on_shrink():
    dk = DynamicKMeans(P, 3)
    for i, p in enumerate([(10, 10), (80, 80), (150, 150), (220, 220)]):
        dk.update("insert", i, p, 1.0)
    assert dk.active
    for i in range(3):
        dk.update("delete", i)
    assert not dk.active
    assert dk.solution() == {(220, 220)}
    assert not dk.cent.centers


def test_bundle_is_the_one_record_of_centers_and_levels():
    # the stream of `verify --suite controller`, under the certificate
    # schedule. A center's level must be the t of the last make_robust call
    # that produced it since it was last added (None before any), both
    # structures of the bundle must hold the same centers, and no indicator
    # flip may outlive an epoch boundary.
    p = Params(epsilon=0.5, d=2, delta=1024, seed=0)
    dk = cert_controller(p)
    expected = {}
    dk.on_makerobust = lambda ctrl, rec: expected.__setitem__(rec.v, rec.t)
    remove = dk.center_remove

    def center_remove(s):
        expected.pop(tuple(s), None)
        remove(s)

    dk.center_remove = center_remove
    boundaries = 0
    stream = gen_workload("clustered", 300, 2, 1024, 5, ins_frac=0.72, seed=0)
    for op, key, point, w in stream.ops():
        rep = dk.update(op, key, point, w)
        assert set(dk.assign.centers) == set(dk.cent.centers)
        for s in dk.cent.centers:
            assert dk.level(s, None) == expected.get(s)
        if rep.epoch_boundary:
            boundaries += 1
            assert not dk.cent.events and not dk.yellow
    assert boundaries >= 100
    assert max(expected.values()) >= 1   # levels above zero were exercised


def test_deactivation_leaves_no_pending_events():
    # removing every center flips indicators; those flips must not survive
    # into the next activation
    dk = DynamicKMeans(P, 3)
    pts = [(10, 10), (12, 10), (150, 150), (220, 220)]
    for i, p in enumerate(pts):
        dk.update("insert", i, p, 1.0)
    assert dk.active and dk.cent.gammas
    dk.update("delete", 0)
    assert not dk.active and not dk.cent.centers
    assert not dk.cent.events and not dk.yellow
    dk.update("insert", 4, (10, 10), 1.0)
    assert dk.active
    assert set(dk.assign.centers) == set(dk.cent.centers) == set(dk.solution())
    assert not dk.cent.events and not dk.yellow


def test_estimate_ell_on_empty_point_set():
    # every trial costs 0 on an empty X, so the doubling runs to the limit
    dk = DynamicKMeans(Params(epsilon=0.5, d=2, delta=64, seed=3), k=5)
    assert dk._estimate_ell() == (0, 0)          # no centers either
    for s in [(1, 1), (30, 30), (60, 5), (10, 1), (30, 40)]:
        dk.center_add(s)
    dk.S_init = frozenset(dk.cent.centers)
    assert len(dk.X) == 0
    assert dk._estimate_ell() == (4, 1)
