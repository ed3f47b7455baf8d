import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkmeans.errors import UsageError
from dynkmeans.geometry import (WeightedSet, brute_nn, brute_opt_augmented,
                                brute_opt_restricted, cost, dist, dist2,
                                jl_project, make_jl_matrix, one_means_cost,
                                opt_kmeans_exact, pairwise_d2)
from dynkmeans.rng import make_np_rng, make_rng


def test_dist2_identity():
    assert dist2((3, 7), (3, 7)) == 0.0


def test_dist2_3_4_5():
    assert dist2((1, 1), (4, 5)) == 25.0


def test_dist2_hand_sum():
    assert dist2((1, 2, 3), (2, 4, 6)) == 1 + 4 + 9


def test_dist2_dimension_mismatch():
    with pytest.raises(UsageError):
        dist2((1, 2), (1, 2, 3))


def test_cost_zero_when_points_are_centers():
    pw = [((2, 2), 1.0), ((5, 5), 3.0)]
    assert cost(pw, [(2, 2), (5, 5)]) == 0.0


def test_cost_weighted():
    assert cost([((1, 1), 2.0)], [(4, 5)]) == 50.0


def test_cost_1d():
    assert cost([((1,), 1.0), ((3,), 1.0)], [(2,)]) == 2.0


def test_cost_empty_centers():
    with pytest.raises(UsageError):
        cost([((1,), 1.0)], [])


def test_brute_nn_self():
    assert brute_nn((5,), [(5,)]) == ((5,), 0.0)


def test_brute_nn_closest():
    assert brute_nn((5,), [(1,), (7,)]) == ((7,), 2.0)


def test_brute_nn_tie_lexicographic():
    assert brute_nn((5,), [(3,), (7,)]) == ((3,), 2.0)


def test_brute_nn_empty():
    with pytest.raises(UsageError):
        brute_nn((5,), [(5,)], exclude_self=True)


def test_brute_opt_restricted_single_choice():
    pw = [((1,), 1.0)]
    rem, c = brute_opt_restricted(pw, [(1,), (9,)], 1)
    assert rem == {(9,)} and c == 0.0


def test_brute_opt_restricted_spec_example():
    pw = [((1,), 1.0), ((2,), 1.0), ((9,), 1.0), ((10,), 1.0)]
    rem, c = brute_opt_restricted(pw, [(1,), (2,), (10,)], 1)
    assert c == 2.0
    # surviving set {(1),(10)} is lexicographically smallest among ties
    assert rem == {(2,)}


def test_brute_opt_restricted_empty_points():
    rem, c = brute_opt_restricted([], [(1,), (5,)], 1)
    assert c == 0.0 and len(rem) == 1


def test_brute_opt_augmented_zero():
    pw = [((1, 1), 1.0), ((8, 8), 1.0)]
    add, c = brute_opt_augmented(pw, [(1, 1)], 0, [(8, 8)])
    assert add == set() and c == cost(pw, [(1, 1)])


def test_brute_opt_augmented_outlier():
    pw = [((1, 1), 1.0), ((30, 30), 5.0)]
    add, c = brute_opt_augmented(pw, [(1, 1)], 1, [p for p, _ in pw])
    assert add == {(30, 30)} and c == 0.0


def test_brute_opt_augmented_candidates_in_centers():
    pw = [((1, 1), 1.0), ((9, 9), 1.0)]
    base = cost(pw, [(1, 1)])
    _, c = brute_opt_augmented(pw, [(1, 1)], 1, [(1, 1)])
    assert c == base


def test_metric_axioms_random_triples():
    rng = make_rng(0, "triples")
    for _ in range(1000):
        p, q, r = (tuple(rng.randint(1, 50) for _ in range(3)) for _ in range(3))
        assert dist(p, q) == dist(q, p)
        assert (dist(p, q) == 0) == (p == q)
        assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-9


def test_cost_monotone_under_center_insertion():
    rng = make_rng(1, "mono")
    for _ in range(50):
        pw = [((rng.randint(1, 32), rng.randint(1, 32)), rng.random() + 0.1)
              for _ in range(10)]
        S = [(rng.randint(1, 32), rng.randint(1, 32)) for _ in range(3)]
        extra = (rng.randint(1, 32), rng.randint(1, 32))
        assert cost(pw, S + [extra]) <= cost(pw, S) + 1e-9


def test_weighted_set_basics():
    X = WeightedSet(2)
    X.insert("a", (1, 2), 2.0)
    X.insert("b", (4, 5), 1.0)
    assert X.cost([(1, 2)]) == 1.0 * dist2((4, 5), (1, 2))
    X.delete("a")
    assert len(X) == 1 and X.get("b") == ((4, 5), 1.0)
    with pytest.raises(UsageError):
        X.delete("a")
    with pytest.raises(UsageError):
        X.insert("b", (1, 1), 1.0)


@pytest.mark.parametrize("point,weight", [
    ((1, 2), float("nan")), ((1, 2), float("inf")), ((1, 2), -1.0),
    ((1, 2, 3), 1.0), ((1,), 1.0)])
def test_weighted_set_rejects_bad_input(point, weight):
    X = WeightedSet(2)
    X.insert("a", (4, 5), 1.0)
    with pytest.raises(UsageError):
        X.insert("b", point, weight)
    assert "b" not in X and len(X) == 1
    assert X.cost([(4, 5)]) == 0.0


def test_weighted_set_mirror_matches_loop():
    rng = make_rng(2, "mirror")
    X = WeightedSet(2)
    live = {}
    for i in range(200):
        if live and rng.random() < 0.3:
            key = rng.choice(sorted(live))
            X.delete(key)
            del live[key]
        else:
            p = (rng.randint(1, 64), rng.randint(1, 64))
            w = rng.random() + 0.5
            X.insert(i, p, w)
            live[i] = (p, w)
    S = [(10, 10), (50, 50)]
    slow = cost(live.values(), S)
    assert math.isclose(X.cost(S), slow, rel_tol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_masked_matrix_cost_is_bitwise_cost(seed):
    # the epoch controller prices S - R as a column-masked row minimum of
    # one distance matrix; it must equal X.cost(S - R) exactly
    rng = make_rng(seed, "matrix")
    d = 1 + seed % 3
    X = WeightedSet(d)
    for i in range(rng.randint(1, 80)):
        X.insert(i, tuple(rng.randint(1, 500) for _ in range(d)),
                 rng.choice([1.0, 0.5, 3.0, rng.random() * 7]))
        if i and rng.random() < 0.2:
            X.delete(rng.choice(sorted(X.ids())))
    S = list({tuple(rng.randint(1, 500) for _ in range(d))
              for _ in range(rng.randint(2, 25))})
    M = X.dist2_matrix(S)
    _, w = X.arrays()
    assert M.shape == (len(X), len(S))
    assert X.cost(S) == float(np.dot(w, M.min(axis=1)))
    for _ in range(20):
        R = set(rng.sample(S, rng.randint(0, len(S) - 1)))
        keep = [j for j, c in enumerate(S) if c not in R]
        assert X.cost(set(S) - R) == float(np.dot(w, M[:, keep].min(axis=1)))


def test_jl_zero_vector_clamps_to_ones():
    A = make_jl_matrix(6, 3, make_np_rng(0, "jl"))
    assert jl_project([0.0] * 6, A, 16) == (1, 1, 1)


def test_jl_identity_round_clamp():
    A = np.eye(3)
    assert jl_project([2.4, 17.0, 0.2], A, 16) == (2, 16, 1)


def test_jl_deterministic():
    x = [0.5, -1.2, 3.3, 0.0, 2.2, -0.7]
    a1 = make_jl_matrix(6, 2, make_np_rng(9, "jl"))
    a2 = make_jl_matrix(6, 2, make_np_rng(9, "jl"))
    assert jl_project(x, a1, 32) == jl_project(x, a2, 32)


def test_jl_dimension_mismatch():
    A = make_jl_matrix(6, 2, make_np_rng(1, "jl"))
    with pytest.raises(UsageError):
        jl_project([1.0, 2.0], A, 32)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 16), st.integers(1, 16),
                          st.floats(0.0, 10.0)), max_size=30),
       st.lists(st.booleans(), max_size=30))
def test_weighted_set_totals_property(entries, deletes):
    X = WeightedSet(2)
    live = {}
    deletes = list(deletes)
    for i, (a, b, w) in enumerate(entries):
        X.insert(i, (a, b), w)
        live[i] = ((a, b), w)
        if deletes and deletes.pop() and live:
            key = next(iter(live))
            X.delete(key)
            del live[key]
    assert len(X) == len(live)
    assert math.isclose(X.cost([(1, 1)]), cost(live.values(), [(1, 1)]),
                        rel_tol=1e-9, abs_tol=1e-9)


def test_opt_kmeans_exact_known_values():
    pw = [((1,), 1.0), ((3,), 1.0)]
    assert math.isclose(opt_kmeans_exact(pw, 1), one_means_cost([(1,), (3,)], [1, 1]))
    assert opt_kmeans_exact(pw, 2) == 0.0
    pw = [((1, 1), 1.0), ((1, 2), 1.0), ((9, 9), 1.0)]
    # k=2: pair {_,_} costs 0.5, singleton costs 0
    assert math.isclose(opt_kmeans_exact(pw, 2), 0.5)


def _broadcast_d2(a, b):
    # the formula pairwise_d2 replaced: one numpy sum over the trailing axis
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16])
def test_pairwise_d2_bitwise_equals_broadcast_sum(d):
    # below d = 8 numpy adds the trailing axis left to right, as pairwise_d2
    # does, so any floats agree; from d = 8 on it sums pairwise, and only
    # exact partial sums (grid points) agree
    rng = np.random.default_rng(d)
    for n, m in ((1, 1), (7, 3), (60, 25)):
        if d < 8:
            a = rng.normal(0.0, 1e3, (n, d))
            b = rng.uniform(-1.0, 1.0, (m, d)) * 10.0 ** rng.integers(
                -6, 6, (m, d))
        else:
            a = rng.integers(1, 1 << 20, (n, d)).astype(np.float64)
            b = rng.integers(1, 1 << 20, (m, d)).astype(np.float64)
        got, want = pairwise_d2(a, b), _broadcast_d2(a, b)
        assert got.shape == want.shape == (n, m)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_dist2_matrix_row_min_independent_of_layout(seed):
    rng = make_rng(seed, "layout")
    d = 1 + seed % 3
    X = WeightedSet(d)
    for i in range(rng.randint(1, 300)):
        X.insert(i, tuple(rng.randint(1, 500) for _ in range(d)), 1.0)
    S = list({tuple(rng.randint(1, 500) for _ in range(d))
              for _ in range(rng.randint(1, 30))})
    M = X.dist2_matrix(S)
    C = np.ascontiguousarray(M)
    assert M.shape == C.shape == (len(X), len(S))
    assert M.tobytes() == C.tobytes()
    assert M.min(axis=1).tobytes() == C.min(axis=1).tobytes()
    keep = [j for j in range(len(S)) if rng.random() < 0.6] or [0]
    assert (M[:, keep].min(axis=1).tobytes()
            == C[:, keep].min(axis=1).tobytes())
