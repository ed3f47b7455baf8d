import math

import pytest

from dynkmeans import cli
from dynkmeans.errors import UsageError
from dynkmeans.params import Params
from dynkmeans.sparsifier import (MergeReduceSparsifier, SparsifiedRunner,
                                  sensitivity_sample)
from dynkmeans.rng import make_np_rng, make_rng
from dynkmeans.verify import check_sparsified, u_size_bound
from dynkmeans.workload import gen_workload

P = Params(epsilon=0.5, d=2, delta=256, seed=61)


def test_sensitivity_sample_passthrough():
    items = [(i, (i + 1, i + 1), 1.0) for i in range(5)]
    out = sensitivity_sample(items, 2, 10, make_np_rng(0, "ss"))
    assert sorted(out) == sorted((k, p, w) for k, p, w in items)


def test_sensitivity_sample_weight_preserved_roughly():
    rng = make_rng(1, "ss")
    items = [(i, (rng.randint(1, 256), rng.randint(1, 256)), 1.0)
             for i in range(400)]
    out = sensitivity_sample(items, 4, 80, make_np_rng(1, "ss"))
    assert len(out) <= 80
    total = sum(w for _, _, w in out)
    assert 0.3 * 400 <= total <= 3.0 * 400


def _replay_mixed_stream(sp, n):
    """Feed n updates (35% deletes) to sp. After every update the batch is
    net, and U, the sum of all batches so far, holds only live points and
    stays within criterion 16's bound. Returns the number of cascades."""
    rng = make_rng(2, "sp")
    live = {}
    published = {}
    cascades = 0
    for i in range(n):
        if live and rng.random() < 0.35:
            key = rng.choice(sorted(live))
            deltas = sp.delete(key)
            del live[key]
        else:
            pt = (rng.randint(1, 256), rng.randint(1, 256))
            deltas = sp.insert(i, pt, 1.0)
            live[i] = pt
            # the insert froze the buffer and merged level 0 away
            cascades += not sp.buffer and 0 not in sp.sketches
        inserted = {uid for op, uid, _, _ in deltas if op == "insert"}
        assert not any(op == "delete" and uid in inserted
                       for op, uid, _, _ in deltas)
        for op, uid, p, w in deltas:
            if op == "insert":
                published[uid] = p
            else:
                del published[uid]
        live_pts = set(live.values())
        assert set(published.values()) <= live_pts
        assert len(published) <= u_size_bound(sp, n)
    return cascades


def test_sparsifier_u_is_subset_of_live():
    _replay_mixed_stream(MergeReduceSparsifier(P, k=4, n_hint=200), 300)


def test_sparsifier_batches_are_net():
    # a smaller block fills several times, so this stream also cascades
    sp = MergeReduceSparsifier(P, k=4, n_hint=16)
    assert _replay_mixed_stream(sp, 300) >= 2


def _published(sp):
    uids = {uid for uid, _, _ in sp.buffer.values()}
    for sketch in sp.sketches.values():
        uids.update(sketch.published)
    return uids


@pytest.mark.parametrize("depth", [2, 3])
def test_cascade_reduces_once(depth):
    # 2^depth full buffers, insert only: the last one freezes into a cascade
    # through levels 0..depth-1 and lands at level `depth`
    sp = MergeReduceSparsifier(P, k=3, n_hint=16)
    rng = make_rng(3, "cascade")
    n = (1 << depth) * sp.block
    for i in range(n - 1):
        sp.insert(i, (rng.randint(1, 256), rng.randint(1, 256)), 1.0)
        if not sp.buffer:
            # binary-counter placement: occupied levels are freezes' bits
            freezes = (i + 1) // sp.block
            assert sorted(sp.sketches) == [
                b for b in range(freezes.bit_length()) if freezes >> b & 1]
    assert sorted(sp.sketches) == list(range(depth))
    before = _published(sp)
    batch = sp.insert(n - 1, (rng.randint(1, 256), rng.randint(1, 256)), 1.0)
    deleted = [uid for op, uid, _, _ in batch if op == "delete"]
    inserted = [uid for op, uid, _, _ in batch if op == "insert"]
    assert sorted(deleted) == sorted(before)   # each exactly once
    assert len(inserted) <= sp.block
    assert not set(inserted) & before
    assert _published(sp) == set(inserted)
    assert sorted(sp.sketches) == [depth]
    assert sp.buffer == {}
    assert set(sp.owner) == set(range(n))
    assert set(sp.owner.values()) == {depth}
    assert set(sp.sketches[depth].source) == set(range(n))


def test_sparsifier_duplicate_and_unknown_ids():
    sp = MergeReduceSparsifier(P, k=3)
    sp.insert(1, (2, 2), 1.0)
    with pytest.raises(UsageError):
        sp.insert(1, (3, 3), 1.0)
    with pytest.raises(UsageError):
        sp.delete(99)


def _runner_state(runner):
    sp = runner.sparsifier
    return (dict(runner.U.entries), dict(sp.buffer), dict(sp.owner),
            sp.updates, runner.contract_holds(), runner.solution())


@pytest.mark.parametrize("op,key,point,weight", [
    ("insert", 100, (30, 30), float("nan")),
    ("insert", 100, (30, 30), float("inf")),
    ("insert", 100, (30, 30), -1.0),
    ("insert", 100, (30, 30, 30), 1.0),
    ("insert", 100, (30,), 1.0),
    ("insert", 3, (30, 30), 1.0),       # duplicate id
    ("delete", 100, None, 1.0),         # unknown id
    ("insert", 100, (0, 30), 1.0),      # off the grid [1, 256]^2
    ("insert", 100, (30, 257), 1.0),
    ("insert", 100, (30, 2.5), 1.0),
    ("insert", 100, (2.0, 3.0), 1.0),   # integral values, not integers
    ("insert", 100, (True, 5), 1.0),
])
def test_runner_rejects_bad_input_before_any_state_change(op, key, point,
                                                          weight):
    runner = SparsifiedRunner(P, k=3, n_hint=64, verifiers=2)
    stream = gen_workload("clustered", 30, 2, 256, 3, ins_frac=1.0, seed=6)
    for o, kk, pp, ww in stream.ops():
        runner.update(o, kk, pp, ww)
    before = _runner_state(runner)
    with pytest.raises(UsageError, match=f"{key}|coordinates|weight"):
        runner.update(op, key, point, weight)
    assert _runner_state(runner) == before
    runner.update("insert", 100, (30, 30), 1.0)   # the id is still free
    assert runner.contract_holds()
    runner.update("delete", 100)
    assert runner.contract_holds()


@pytest.mark.parametrize("verifiers", [0, -1])
def test_runner_needs_a_verifier(verifiers):
    with pytest.raises(UsageError, match="verifiers"):
        SparsifiedRunner(P, k=3, n_hint=64, verifiers=verifiers)


@pytest.mark.parametrize("alpha", [0, -1, 0.5, math.nan, math.inf])
def test_runner_alpha_must_be_finite_and_at_least_one(alpha):
    with pytest.raises(UsageError, match="alpha"):
        SparsifiedRunner(P, k=3, n_hint=64, verifiers=2, alpha=alpha)


def test_runner_small_x_equals_solution():
    runner = SparsifiedRunner(P, k=5, n_hint=64, verifiers=2)
    pts = [(10, 10), (50, 50), (90, 90)]
    swaps = 0
    for i, p in enumerate(pts):
        swaps += runner.update("insert", i, p, 1.0)
    assert runner.solution() == frozenset(pts)
    assert runner.u_size() == 3
    assert swaps == 0


def test_runner_contract_and_size_over_stream():
    runner = SparsifiedRunner(P, k=5, n_hint=400, verifiers=2, alpha=30.0)
    stream = gen_workload("clustered", 400, 2, 256, 5, ins_frac=0.75, seed=3)
    n_max = 0
    for op, key, point, w in stream.ops():
        runner.update(op, key, point, w)
        n_max = max(n_max, runner.u_size())
        assert runner.contract_holds()
    c_u = runner.sparsifier.c_u
    bound = c_u * 5 * math.log2(max(n_max, 4)) ** 2 + 4 * runner.sparsifier.block
    assert n_max <= bound


def test_runner_equal_cost_verifiers_no_reset():
    runner = SparsifiedRunner(P, k=3, n_hint=64, verifiers=3, alpha=25.0)
    stream = gen_workload("clustered", 150, 2, 256, 3, ins_frac=1.0, seed=4)
    swaps = sum(runner.update(op, key, point, w)
                for op, key, point, w in stream.ops())
    assert swaps == 0


def test_runner_fresh_empty_solution():
    runner = SparsifiedRunner(P, k=3, n_hint=32, verifiers=2)
    assert runner.solution() == frozenset()
    assert runner.u_size() == 0


def test_runner_fault_injection_swaps_with_best_verifier():
    runner = SparsifiedRunner(P, k=4, n_hint=128, verifiers=2, alpha=20.0)
    stream = gen_workload("clustered", 150, 2, 256, 4, ins_frac=1.0, seed=5)
    for op, key, point, w in stream.ops():
        runner.update(op, key, point, w)
    verifiers = list(runner.copies)
    faulted = runner.primary
    faulted.solution = lambda: frozenset({(1, 1)})
    assert runner.update("insert", 10 ** 6, (200, 200), 1.0) == 1
    # the new primary is the verifier that attained the minimum on U
    cost = {id(c): runner._cost_on_U(c.solution()) for c in verifiers}
    assert any(runner.primary is c for c in verifiers)
    assert cost[id(runner.primary)] == min(cost.values())
    # the faulted controller took its place, and none was built
    assert runner.copies[verifiers.index(runner.primary)] is faulted
    assert ({id(runner.primary), *map(id, runner.copies)}
            == {id(faulted), *map(id, verifiers)})
    assert runner.contract_holds()
    assert runner.solution() != frozenset({(1, 1)})


@pytest.mark.parametrize("alpha", ["1", "1.2", "1.5"])
def test_runner_meets_contract_in_one_swap(alpha, tmp_path):
    """At alpha = 1 this stream used to end in a reset loop that hit its
    cap; a swap restores the contract in one step for every alpha >= 1."""
    stream = gen_workload("clustered", 80, 2, 64, 3, seed=6)
    path = tmp_path / "s.txt"
    path.write_text(stream.serialize())
    assert cli.main(["run", str(path), "--mode", "sparsified",
                     "--alpha", alpha, "--fixed-time", "--k", "3",
                     "--delta", "64"]) == 0
    runner = SparsifiedRunner(Params(d=2, delta=64), 3, n_hint=80,
                              alpha=float(alpha))
    contract_bad, size_bad, burst = check_sparsified(runner, stream)
    assert contract_bad == 0 and size_bad == 0
    assert burst <= 1
