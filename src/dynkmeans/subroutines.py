"""Static weighted k-means and the restricted/augmented reductions.

The static solver is seeding by squared-distance sampling plus bounded
single-swap local search; it stands in for the almost-linear static
algorithm the epoch controller treats as a black box. On small supports it
computes one pairwise distance matrix per solve and prices a whole swap
pass, every candidate against every slot, in one broadcast; each figure is
bitwise the one a per-candidate loop computes. Restricted k-means
shrinks the decision to a sketch built from the importance ordering and
approximate nearest neighbors; augmented k-means repeatedly adds batches of
distance-squared samples.
"""

from __future__ import annotations

import numpy as np

from .assignment import AssignmentStructure
from .errors import NoMassError, UsageError
from .geometry import pairwise_d2
from .params import Params
from .range_query import CenterIndex

_EXHAUSTIVE_LIMIT = 128   # below this support size, scan all swap candidates


def weighted_kmeanspp(pts: np.ndarray, w: np.ndarray, k: int, rng,
                      D: np.ndarray | None = None) -> list:
    """Seeding: first center by weight, then by weight times squared distance.

    The sampled mass is kept as a running minimum over the rows w * d2(., c)
    of the chosen centers; for w >= 0 that is bitwise w times the running
    minimum distance. D, when given, is pairwise_d2(pts, pts), whose rows
    replace the per-center distance computation."""
    if D is None:
        def wrow(c):
            return w * pairwise_d2(pts[c, None], pts)[0]
    else:
        wrow = (D * w).__getitem__
    return _seed(wrow, w, k, rng)


def _seed(wrow, w: np.ndarray, k: int, rng) -> list:
    """weighted_kmeanspp over the weighted distance rows wrow(c)."""
    n = w.shape[0]
    wsum = np.add.reduce(w)
    if wsum > 0:
        first = _draw(w, float(wsum), rng)
    else:
        first = _draw(np.ones(n), float(n), rng)
    chosen = [first]
    mass = wrow(first)
    while len(chosen) < k:
        tot = np.add.reduce(mass)
        if tot <= 0:
            # remaining mass is zero: pick distinct leftover points
            for i in range(n):
                if i not in chosen:
                    chosen.append(i)
                    if len(chosen) == k:
                        break
            break
        idx = _draw(mass, float(tot), rng)
        chosen.append(idx)
        mass = np.minimum(mass, wrow(idx))
    return chosen[:k]


def _draw(mass: np.ndarray, tot: float, rng) -> int:
    """First index whose running total of mass / tot reaches a uniform draw,
    or the last index when rounding leaves every total below it. The total
    adds the quotients left to right, as numpy's cumsum of mass / tot does,
    so the index is bitwise the one searchsorted finds on that cumsum."""
    u = rng.random()
    acc = 0.0
    for i, m in enumerate(mass.tolist()):
        acc += m / tot
        if acc >= u:
            return i
    return len(mass) - 1


def _swap_costs(w, rows, assign, best1, best2, k: int) -> np.ndarray:
    """Cost of swapping each candidate into each of the k slots, one row per
    candidate; row i of `rows` holds the candidate's squared distance to
    every point. Priced by _priced_swaps from the weighted rows."""
    m = rows.shape[0]
    bins = (np.arange(m) * k)[:, None] + assign
    return _priced_swaps(rows * w, w * best1, _weighted_best2(w, best2, k),
                         bins, k)


def _weighted_best2(w, best2, k: int) -> np.ndarray:
    """w * best2, except for k = 1, where best2 is all inf and stays
    unmultiplied: w = 0 would make 0 * inf = nan, while min(inf, w * d)
    is the w * min(inf, d) it stands for."""
    return best2 if k == 1 else w * best2


def _priced_swaps(WR, wb1, wb2, bins, k: int) -> np.ndarray:
    """Swap costs from the weighted rows WR = rows * w and the weighted best
    distances wb1 = w * best1 and wb2 = _weighted_best2(w, best2, k);
    `bins` holds i * k + assign[x] at (i, x). For w >= 0, min(w * b, w * d)
    is bitwise w * min(b, d), since rounding a product is monotone, so every
    term is the one the unweighted formula computes.

    Each row's total is the same pairwise reduction as a 1-D sum, and the
    flattened bincount adds each (candidate, slot) bin's terms in point
    order, as a per-row bincount would."""
    m = WR.shape[0]
    t1 = np.minimum(wb1, WR)
    t2 = np.minimum(wb2, WR)
    delta = np.bincount(bins.ravel(), weights=(t2 - t1).ravel(),
                        minlength=m * k).reshape(m, k)
    delta += np.add.reduce(t1, axis=1)[:, None]
    return delta


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
    exhaustive = n <= _EXHAUSTIVE_LIMIT
    if exhaustive:
        # (a-b)^2 == (b-a)^2, so D is symmetric and each row is bitwise the
        # per-center distance vector; its weighted rows WD serve both the
        # seeding and every swap pass
        D = pairwise_d2(pts, pts)
        WD = D * w
        cols = (np.arange(n) * k)[:, None]
        chosen = _seed(WD.__getitem__, w, k, rng)
        d2 = D[:, chosen]
    else:
        chosen = weighted_kmeanspp(pts, w, k, rng)
        d2 = pairwise_d2(pts, pts[chosen])

    def refresh():
        # best1 is copied out contiguous: BLAS sums a strided vector in
        # another order, and d2 changes under a view
        assign = d2.argmin(axis=1)
        if k > 1:
            part = np.partition(d2, 1, axis=1)
            best1, best2 = part[:, 0].copy(), part[:, 1]
        else:
            best1, best2 = d2[:, 0].copy(), np.full(n, np.inf)
        return assign, best1, best2

    assign, best1, best2 = refresh()
    cur = float(np.dot(w, best1))
    swaps = 0
    misses = 0
    while swaps < 50 * k and cur > 0:
        if exhaustive:
            # the first unchosen candidate in index order whose best swap
            # improves on cur; chosen rows are priced too and discarded
            costs = _priced_swaps(WD, w * best1, _weighted_best2(w, best2, k),
                                  cols + assign, k)
            better = costs.min(axis=1) < cur * (1 - 1e-12)
            better[chosen] = False
            cand = int(better.argmax())
            if not better[cand]:
                break
            j = int(costs[cand].argmin())
            dnew = D[cand]
        else:
            mass = w * best1
            tot = np.add.reduce(mass)
            if tot <= 0:
                break
            cand = _draw(mass, float(tot), rng)
            if cand in chosen:
                continue
            dnew = pairwise_d2(pts[cand, None], pts)[0]
            costs = _swap_costs(w, dnew[None, :], assign, best1, best2, k)[0]
            j = int(costs.argmin())
            if float(costs[j]) >= cur * (1 - 1e-12):
                misses += 1
                if misses >= 3 * k:
                    break
                continue
        chosen[j] = cand
        d2[:, j] = dnew
        assign, best1, best2 = refresh()
        cur = float(np.dot(w, best1))
        swaps += 1
        misses = 0
    return [support[i] for i in chosen]


class ClusterContext:
    """The center-side structures the restricted and augmented subroutines
    run against: the assignment structure and the center index `cent`, whose
    cells answer both the ANN queries and the distance bounds behind the
    importance ordering, kept in step by center_add and center_remove. The
    bundle is the one record of which centers exist; the tag `cent` keeps
    for each is the epoch controller's robustness level. The controller
    extends it with its own bookkeeping; from_instance builds a static
    (X, S) instance."""

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

    def center_stage(self, s):
        """A scratch center: in the assignment structure at once, where
        distance-squared sampling reads it, and staged, untagged, in `cent`
        until its caller runs `cent.commit()`. center_remove drops it either
        way."""
        s = tuple(s)
        self.assign.center_insert(s)
        self.cent.stage(s)

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


def restricted_kmeans(ctx, r: int, rng, ordering=None):
    """Choose r centers to delete; cost(X, S - R) stays within the configured
    factor of the best removal. Reads the context without changing it: each
    sketch partner is an ANN answer with the 6r cheapest centers masked.
    `ordering`, when given, is ctx.ordering(), computed once by a caller
    that runs several calls against the same context."""
    S = ctx.centers()
    if not (1 <= r <= len(S) - 1):
        raise UsageError("r out of range")
    if ordering is None:
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
    # at most `keep` distinct survivors, so at least r centers are removed;
    # more only when seeding's clamp or a u = 0 draw repeats an index, and
    # then the r lexicographically smallest are kept
    removed = set(sketch) - set(survivors)
    return set(sorted(removed)[:r])


def replay_restricted_draws(ctx, r: int, rng) -> bool:
    """Advance rng by exactly the rng.random() calls restricted_kmeans(ctx,
    r, rng) makes, without solving, when that count is known; returns
    whether it did. A caller that does not need the call's result (the
    epoch controller's ruled-out ell trials) keeps the draws of every later
    call unchanged this way.

    The count is known, |S| - r, when
    - 6r >= |S|: the sketch is all of S, distinct points, with no ANN query;
    - |S| <= _EXHAUSTIVE_LIMIT: the local search scans every candidate and
      draws nothing;
    - at least |S| - r centers have positive weight: until |S| - r are
      chosen some unchosen center has positive weight, so positive mass,
      and seeding draws once per survivor."""
    S = ctx.centers()
    n = len(S)
    keep = n - r
    if not (1 <= r < n) or 6 * r < n or n > _EXHAUSTIVE_LIMIT:
        return False
    if sum(1 for s in S if ctx.weight(s) > 0) < keep:
        return False
    for _ in range(keep):
        rng.random()
    return True


def augmented_kmeans(ctx, a: int, t: int, rng):
    """(a + 1) rounds of t distance-squared draws, feeding each round's batch
    back into the sampled center set, where the samples stay as staged
    centers (ClusterContext.center_stage). Returns the list of distinct
    sampled points (at most (a + 1) * t)."""
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
                ctx.center_stage(p)
                added.append(p)
    return added
