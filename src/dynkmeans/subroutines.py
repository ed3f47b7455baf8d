"""Static weighted k-means and the restricted/augmented reductions.

The static solver is seeding by squared-distance sampling plus bounded
single-swap local search; it stands in for the almost-linear static
algorithm the epoch controller treats as a black box. Restricted k-means
shrinks the decision to a sketch built from the importance ordering and
approximate nearest neighbors; augmented k-means repeatedly adds batches of
distance-squared samples.
"""

from __future__ import annotations

import numpy as np

from .assignment import AssignmentStructure
from .errors import NoMassError, UsageError
from .params import Params
from .range_query import CenterIndex

_EXHAUSTIVE_LIMIT = 128   # below this support size, scan all swap candidates


def _pairwise_d2(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def weighted_kmeanspp(pts: np.ndarray, w: np.ndarray, k: int, rng) -> list:
    """Seeding: first center by weight, then by weight times squared distance."""
    n = pts.shape[0]
    probs = w / w.sum() if w.sum() > 0 else np.full(n, 1.0 / n)
    first = _draw(probs, rng)
    chosen = [first]
    d2 = ((pts - pts[first]) ** 2).sum(axis=1)
    while len(chosen) < k:
        mass = w * d2
        tot = mass.sum()
        if tot <= 0:
            # remaining mass is zero: pick distinct leftover points
            for i in range(n):
                if i not in chosen:
                    chosen.append(i)
                    if len(chosen) == k:
                        break
            break
        idx = _draw(mass / tot, rng)
        chosen.append(idx)
        d2 = np.minimum(d2, ((pts - pts[idx]) ** 2).sum(axis=1))
    return chosen[:k]


def _draw(probs: np.ndarray, rng) -> int:
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u <= acc:
            return i
    return len(probs) - 1


def static_weighted_kmeans(points, weights, k: int, rng):
    """k centers chosen from the support of (points, weights).

    Returns a list of k point tuples. Local search runs single swaps until a
    local optimum or the swap budget of 50*k is exhausted.
    """
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
    if not (1 <= k <= n):
        raise UsageError("k out of range")
    if k == n:
        return list(support)
    pts = np.asarray(support, dtype=np.float64)
    w = np.asarray(agg, dtype=np.float64)

    chosen = weighted_kmeanspp(pts, w, k, rng)
    d2 = _pairwise_d2(pts, pts[chosen])

    def refresh():
        assign = d2.argmin(axis=1)
        best1 = d2[np.arange(n), assign]
        if k > 1:
            part = np.partition(d2, 1, axis=1)
            best2 = part[:, 1]
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
            cand_iter = [_draw(mass / tot, rng)]
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


class ClusterContext:
    """The center-side structures the restricted and augmented subroutines
    run against: the assignment structure and the center index `cent`, whose
    cells answer both the ANN queries and the distance bounds behind the
    importance ordering, kept in step by center_add and center_remove. The
    epoch controller extends it with its own bookkeeping; from_instance
    builds a static (X, S) instance."""

    def __init__(self, assign: AssignmentStructure, cent: CenterIndex):
        self.assign = assign
        self.cent = cent

    @classmethod
    def from_instance(cls, params: Params, points_weights, centers,
                      seed_tag="ctx"):
        ctx = cls(AssignmentStructure(params, seed_tag=(seed_tag, "as")),
                  CenterIndex(params, (seed_tag, "nbr")))
        for s in centers:
            ctx.center_add(s)
        for key, (p, w) in enumerate(points_weights):
            ctx.assign.point_insert(key, tuple(p), w)
        return ctx

    def center_add(self, s, tag=None):
        s = tuple(s)
        self.assign.center_insert(s)
        self.cent.insert(s, tag=tag)

    def center_remove(self, s):
        s = tuple(s)
        self.assign.center_delete(s)
        self.cent.delete(s)

    def centers(self):
        return list(self.assign.centers)

    def weight(self, s):
        return self.assign.weight(s)

    def ordering(self):
        return self.assign.ordering(self.cent.dhat)

    def d2_sample(self, rng):
        return self.assign.d2_sample(rng)[1]


def restricted_kmeans(ctx, r: int, rng):
    """Choose r centers to delete; cost(X, S - R) stays within the configured
    factor of the best removal. Reads the context without changing it: each
    sketch partner is an ANN answer with the 6r cheapest centers masked."""
    S = ctx.centers()
    if not (1 <= r <= len(S) - 1):
        raise UsageError("r out of range")
    ordering = ctx.ordering()
    t1 = ordering[:min(6 * r, len(S))]
    t1_set = set(t1)
    t2 = []
    if len(S) > len(t1):
        for c in t1:
            s = ctx.cent.ann_query(c, exclude=t1_set)
            if s is not None:
                t2.append(s)
    sketch = list(t1)
    for s in t2:
        if s not in t1_set and s not in sketch[len(t1):]:
            sketch.append(s)
    weights = [ctx.weight(s) for s in sketch]
    keep = len(sketch) - r
    survivors = static_weighted_kmeans(sketch, weights, keep, rng)
    removed = set(sketch) - set(survivors)
    # static solver picks survivors from the support; exactness of |R| = r
    # is restored by dropping the cheapest extras if support collapsed
    removed = set(sorted(removed)[:r])
    while len(removed) < r:
        for s in sorted(sketch):
            if s not in removed:
                removed.add(s)
                break
    return removed


def augmented_kmeans(ctx, a: int, t: int, rng):
    """(a + 1) rounds of t distance-squared draws, feeding each round's batch
    back into the sampled center set, where the samples stay. Returns the
    list of distinct sampled points (at most (a + 1) * t)."""
    if a < 1:
        raise UsageError("a must be >= 1")
    added = []
    base = set(ctx.centers())
    for _ in range(a + 1):
        batch = []
        for _ in range(t):
            try:
                p = ctx.d2_sample(rng)
            except NoMassError:
                p = None
            if p is None:
                break
            batch.append(p)
        if not batch:
            break
        for p in batch:
            if p not in base:
                base.add(p)
                ctx.center_add(p)
                added.append(p)
    return added
