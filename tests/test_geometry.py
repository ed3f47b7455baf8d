import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkmeans.errors import UsageError
from dynkmeans.geometry import (WeightedSet, brute_nn, brute_opt_augmented,
                                brute_opt_restricted, cost, dist, dist2,
                                jl_project, make_jl_matrix, one_means_cost,
                                opt_kmeans_exact)
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
