"""NoColor recovery: every structure over consistent hashing resamples a
failed level and rehashes it, up to hashing.NOCOLOR_ATTEMPTS times; after
that it raises and is left as it was before the call.

Color widening: lookups enumerate colors only up to the highest one their
level has handed out; the first item of a higher color rebuilds the level,
after which every answer equals the one from the full enumeration."""

import pytest

from dynkmeans.assignment import AssignmentStructure
from dynkmeans.errors import NoColorError
from dynkmeans.hashing import NOCOLOR_ATTEMPTS, OVER_CAP, ConsistentHash
from dynkmeans.params import Params
from dynkmeans.range_query import CenterIndex, RangeIndex
from dynkmeans.rng import make_rng

P = Params(epsilon=0.5, d=2, delta=64, seed=31)
_rng = make_rng(31, "nocolor")
PTS = list(dict.fromkeys((_rng.randint(1, 64), _rng.randint(1, 64))
                         for _ in range(30)))
NEW = (33, 31)
NEW_KEY = len(PTS)
PROBES = [(1, 1), (20, 40), (33, 30), (64, 64), (50, 10), (32, 40)]
assert NEW not in PTS


def _range(level=None):
    idx = RangeIndex(P, "nc")
    if level is not None:
        idx.hashes[level].resample()
    idx.query((1, 1), 2.0)                       # materializes level 2
    for key, p in enumerate(PTS):
        idx.insert(key, p, 1.0)
    return idx


def _range_state(idx):
    queries = [sorted(idx.query(x, r, with_ids=True)[1])
               for x in PROBES for r in (2.0, 3.5)]
    return queries, sorted(idx.registry)


def _lazy_range(level=None):
    idx = RangeIndex(P, "nc")
    if level is not None:
        idx.hashes[level].resample()
    for key, p in enumerate(PTS):
        idx.insert(key, p, 1.0)
    return idx


def _levels_state(idx):
    return {i: sorted((z, sorted(ids)) for z, (ids, _) in b.items())
            for i, b in idx.buckets.items()}


def _centers(level=None):
    ci = CenterIndex(P, "nc")
    if level is not None:
        ci.hashes[level].resample()
    for s in PTS:
        ci.insert(s)
    return ci


def _centers_state(ci):
    return ([ci.ann_query(x) for x in PROBES],
            sorted((s, ci.dhat(s), bytes(ci.bits[s]),
                    sorted(info["cells"].items()))
                   for s, info in ci.centers.items()))


def _assign(level=None):
    a = AssignmentStructure(P, seed_tag="nc")
    if level is not None:
        a.hashes[level].resample()
    for s in PTS[:4]:
        a.center_insert(s)
    for key, p in enumerate(PTS):
        a.point_insert(key, p, 1.0)
    return a


def _assign_state(a):
    keys = sorted(a.points)
    return (a.audit_partition(), a.audit_equidistant(PTS[:4]), keys,
            [a.home(k) for k in keys], sorted(a.w_S.items()))


# name -> (build, state, the operation under test, its registry, the id it
# adds, the stubbed level)
CASES = {
    "range_index": (_range, _range_state,
                    lambda idx: idx.insert(NEW_KEY, NEW, 1.0),
                    lambda idx: idx.registry, NEW_KEY, 2),
    # the first query at radius 2 materializes level 2 from the registry
    "range_materialize": (_lazy_range, _levels_state,
                          lambda idx: idx.query((1, 1), 2.0),
                          lambda idx: idx.buckets, 2, 2),
    "center_index": (_centers, _centers_state, lambda ci: ci.insert(NEW),
                     lambda ci: ci.centers, NEW, 3),
    "assignment": (_assign, _assign_state,
                   lambda a: a.point_insert(NEW_KEY, NEW, 1.0),
                   lambda a: a.points, NEW_KEY, 2),
}


def _stub(h, fail_always):
    """Make h.eval raise NoColorError on its first call, or on every call."""
    real = h.eval
    calls = [0]

    def eval_(x):
        calls[0] += 1
        if fail_always or calls[0] == 1:
            raise NoColorError("stubbed")
        return real(x)
    h.eval = eval_
    return calls


@pytest.mark.parametrize("name", sorted(CASES))
def test_nocolor_recovers_once(name):
    build, state, op, registry, new_id, level = CASES[name]
    s = build()
    _stub(s.hashes[level], fail_always=False)
    op(s)
    assert s.nocolor_events == 1
    assert new_id in registry(s)
    fresh = build(level)                 # built on the resampled family
    op(fresh)
    assert state(s) == state(fresh)
    if name == "assignment":
        assert not s.audit_partition()
        assert not s.audit_equidistant(PTS[:4])


@pytest.mark.parametrize("name", sorted(CASES))
def test_nocolor_gives_up_after_bound(name):
    build, state, op, registry, new_id, level = CASES[name]
    s = build()
    before = state(s)
    calls = _stub(s.hashes[level], fail_always=True)
    with pytest.raises(NoColorError):
        op(s)
    assert s.nocolor_events == NOCOLOR_ATTEMPTS
    assert calls[0] == 1 + NOCOLOR_ATTEMPTS
    assert new_id not in registry(s)
    assert state(s) == before
    del s.hashes[level].eval             # the original family works again
    op(s)
    fresh = build()
    op(fresh)
    assert state(s) == state(fresh)


def _force_color_1(h, x):
    """Make color 0 of h overflow on x's evaluation ball only, so h.eval(x)
    returns color 1 while every bucket enumeration is left as it was."""
    wh = h.weak[0]
    real = wh.ball_cells
    r_eval = 2.0 * h.rho / h.params.gamma

    def ball_cells(y, r, cap):
        if y == x and r == r_eval:
            return OVER_CAP
        return real(y, r, cap)
    object.__setattr__(wh, "ball_cells", ball_cells)    # WeakHash is frozen


# sqrt(2) from the center (32, 39), whose nearest other center is 13.3 away,
# so NEAR alone sets its level-1 neighbor bit
NEAR = (33, 40)
assert NEAR not in PTS

# name -> (build, state, the insert of NEAR, its registry, the id it adds,
# the level whose top color NEAR raises)
WIDEN = {
    "range_index": (_range, _range_state,
                    lambda idx: idx.insert(NEW_KEY, NEAR, 1.0),
                    lambda idx: idx.registry, NEW_KEY, 2),
    "center_index": (_centers, _centers_state, lambda ci: ci.insert(NEAR),
                     lambda ci: ci.centers, NEAR, 1),
    "assignment": (_assign, _assign_state,
                   lambda a: a.point_insert(NEW_KEY, NEAR, 1.0),
                   lambda a: a.points, NEW_KEY, 2),
}


@pytest.mark.parametrize("name", sorted(WIDEN))
def test_color_widening_matches_full_enumeration(name, monkeypatch):
    build, state, op, registry, new_id, level = WIDEN[name]

    def widened():
        s = build()
        h = s.hashes[level]
        assert h.top == 0
        _force_color_1(h, NEAR)
        op(s)
        assert h.top == 1
        assert new_id in registry(s)
        return s

    s = widened()
    with monkeypatch.context() as m:
        full = ConsistentHash.ball_buckets
        m.setattr(ConsistentHash, "ball_buckets",
                  lambda self, x, radius=None, upto=None: full(self, x, radius))
        want = state(widened())
    assert state(s) == want
    assert s.nocolor_events == 0
    if name == "assignment":
        assert not s.audit_partition()
        assert not s.audit_equidistant(PTS[:4])


def test_given_up_resample_keeps_color_bound():
    ci = _centers()
    h = ci.hashes[1]
    _force_color_1(h, NEAR)
    ci.insert(NEAR)
    _stub(h, fail_always=True)
    with pytest.raises(NoColorError):
        ci.insert(NEW)
    assert h.top == 1                    # NEAR's color-1 cell is still stored
