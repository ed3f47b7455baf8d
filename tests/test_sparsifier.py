import math

import pytest

from dynkmeans.errors import UsageError
from dynkmeans.params import Params
from dynkmeans.sparsifier import (MergeReduceSparsifier, SparsifiedRunner,
                                  sensitivity_sample)
from dynkmeans.rng import make_np_rng, make_rng
from dynkmeans.verify import u_size_bound
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


def test_sparsifier_u_is_subset_of_live():
    sp = MergeReduceSparsifier(P, k=4, n_hint=200)
    rng = make_rng(2, "sp")
    live = {}
    published = {}
    n = 300
    for i in range(n):
        if live and rng.random() < 0.35:
            key = rng.choice(sorted(live))
            deltas = sp.delete(key)
            del live[key]
        else:
            pt = (rng.randint(1, 256), rng.randint(1, 256))
            deltas = sp.insert(i, pt, 1.0)
            live[i] = pt
        for op, uid, p, w in deltas:
            if op == "insert":
                published[uid] = p
            else:
                del published[uid]
        live_pts = set(live.values())
        assert set(published.values()) <= live_pts
        assert len(published) <= u_size_bound(sp, n)


def test_sparsifier_duplicate_and_unknown_ids():
    sp = MergeReduceSparsifier(P, k=3)
    sp.insert(1, (2, 2), 1.0)
    with pytest.raises(UsageError):
        sp.insert(1, (3, 3), 1.0)
    with pytest.raises(UsageError):
        sp.delete(99)


def test_runner_small_x_equals_solution():
    runner = SparsifiedRunner(P, k=5, n_hint=64, verifiers=2)
    pts = [(10, 10), (50, 50), (90, 90)]
    for i, p in enumerate(pts):
        resets = runner.update("insert", i, p, 1.0)
        assert resets == 0
    assert runner.solution() == frozenset(pts)
    assert runner.u_size() == 3
    assert runner.resets_cum == 0


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
    for op, key, point, w in stream.ops():
        runner.update(op, key, point, w)
    assert runner.resets_cum == 0


def test_runner_fresh_empty_solution():
    runner = SparsifiedRunner(P, k=3, n_hint=32, verifiers=2)
    assert runner.solution() == frozenset()
    assert runner.u_size() == 0


def test_runner_fault_injection_resets():
    runner = SparsifiedRunner(P, k=4, n_hint=128, verifiers=2, alpha=20.0)
    stream = gen_workload("clustered", 150, 2, 256, 4, ins_frac=1.0, seed=5)
    for op, key, point, w in stream.ops():
        runner.update(op, key, point, w)
    runner.primary.force_solution = frozenset({(1, 1)})
    resets = runner.update("insert", 10 ** 6, (200, 200), 1.0)
    assert resets >= 1
    assert runner.contract_holds()
    assert runner.solution() != frozenset({(1, 1)})
