"""Grid geometry, the dynamic weighted point set, and brute-force oracles.

Points are tuples of ints in [1, delta]^d. The oracles here are the
independent side of every dual-route check: tests compare the fast
structures against them, so they stay deliberately naive.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from .errors import UsageError

GridPoint = tuple  # tuple[int, ...]

_COMBO_GUARD = 10 ** 6


def dist2(p: GridPoint, q: GridPoint) -> float:
    if len(p) != len(q):
        raise UsageError("dimension mismatch")
    s = 0.0
    for a, b in zip(p, q):
        t = a - b
        s += t * t
    return s


def dist(p: GridPoint, q: GridPoint) -> float:
    return math.sqrt(dist2(p, q))


def point_set_dist2(p: GridPoint, centers: Iterable[GridPoint]) -> float:
    best = math.inf
    for c in centers:
        v = dist2(p, c)
        if v < best:
            best = v
    return best


class WeightedSet:
    """Dynamic weighted multiset of grid points with stable external ids.

    Keeps a dense numpy mirror (rows swap-deleted) so exact cost
    evaluations stay cheap at any size.
    """

    def __init__(self, d: int):
        self.d = d
        self.entries: dict = {}          # id -> (point, weight)
        self._by_point: dict = {}        # point -> count
        self._rows = np.zeros((16, d), dtype=np.float64)
        self._row_w = np.zeros(16, dtype=np.float64)
        self._id2row: dict = {}
        self._row2id: list = []

    def __len__(self):
        return len(self.entries)

    def __contains__(self, key):
        return key in self.entries

    def ids(self):
        return self.entries.keys()

    def insert(self, key, point: GridPoint, weight: float):
        if key in self.entries:
            raise UsageError(f"duplicate id {key!r}")
        if weight < 0:
            raise UsageError("negative weight")
        if len(point) != self.d:
            raise UsageError("dimension mismatch")
        self.entries[key] = (point, weight)
        self._by_point[point] = self._by_point.get(point, 0) + 1
        row = len(self._row2id)
        if row >= self._rows.shape[0]:
            self._rows = np.resize(self._rows, (2 * row, self.d))
            self._row_w = np.resize(self._row_w, 2 * row)
        self._rows[row] = point
        self._row_w[row] = weight
        self._id2row[key] = row
        self._row2id.append(key)

    def delete(self, key):
        if key not in self.entries:
            raise UsageError(f"unknown id {key!r}")
        point, weight = self.entries.pop(key)
        c = self._by_point[point]
        if c == 1:
            del self._by_point[point]
        else:
            self._by_point[point] = c - 1
        row = self._id2row.pop(key)
        last = len(self._row2id) - 1
        last_id = self._row2id[last]
        if row != last:
            self._rows[row] = self._rows[last]
            self._row_w[row] = self._row_w[last]
            self._id2row[last_id] = row
            self._row2id[row] = last_id
        self._row2id.pop()
        return point, weight

    def get(self, key):
        return self.entries[key]

    def points(self):
        for point, weight in self.entries.values():
            yield point, weight

    def distinct_points(self):
        return self._by_point.keys()

    def arrays(self):
        n = len(self._row2id)
        return self._rows[:n], self._row_w[:n]

    def cost(self, centers) -> float:
        """Exact cost(X, S) = sum_x w(x) * dist(x, S)^2."""
        centers = list(centers)
        if not centers:
            raise UsageError("empty center set")
        if not self.entries:
            return 0.0
        pts, w = self.arrays()
        c = np.asarray(centers, dtype=np.float64)
        d2 = ((pts[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        return float(np.dot(w, d2))


def cost(points_weights, centers) -> float:
    """cost for an iterable of (point, weight) pairs; oracle-side helper."""
    centers = list(centers)
    if not centers:
        raise UsageError("empty center set")
    return sum(w * point_set_dist2(p, centers) for p, w in points_weights)


def brute_nn(x: GridPoint, centers, exclude_self: bool = False):
    """Exact nearest center and its distance; lexicographic tie-break."""
    best = None
    best_d2 = math.inf
    for c in centers:
        if exclude_self and tuple(c) == tuple(x):
            continue
        v = dist2(x, c)
        if v < best_d2 or (v == best_d2 and best is not None and tuple(c) < best):
            best, best_d2 = tuple(c), v
    if best is None:
        raise UsageError("empty candidate set")
    return best, math.sqrt(best_d2)


def brute_opt_restricted(points_weights, centers, r: int):
    """Exhaustive best size-r removal; ties favor the lexicographically
    smallest surviving set."""
    centers = sorted(tuple(c) for c in centers)
    k = len(centers)
    if not (1 <= r <= k - 1):
        raise UsageError("r out of range")
    if math.comb(k, r) > _COMBO_GUARD:
        raise UsageError("combinatorial guard exceeded")
    pts = list(points_weights)
    best_rem, best_cost, best_survivors = None, math.inf, None
    for keep in itertools.combinations(centers, k - r):
        c = cost(pts, keep) if pts else 0.0
        if c < best_cost or (c == best_cost and keep < best_survivors):
            best_cost = c
            best_survivors = keep
            best_rem = set(centers) - set(keep)
    return best_rem, best_cost


def brute_opt_augmented(points_weights, centers, a: int, candidates):
    """Exhaustive best size-a addition drawn from `candidates`."""
    candidates = sorted(set(tuple(c) for c in candidates))
    pts = list(points_weights)
    base = list(centers)
    if a == 0:
        return set(), cost(pts, base)
    if math.comb(len(candidates), a) > _COMBO_GUARD:
        raise UsageError("combinatorial guard exceeded")
    best_add, best_cost = None, math.inf
    for add in itertools.combinations(candidates, min(a, len(candidates))):
        c = cost(pts, base + list(add)) if pts else 0.0
        if c < best_cost or (c == best_cost and add < tuple(sorted(best_add))):
            best_cost = c
            best_add = set(add)
    return best_add, best_cost


def _subset_moments(pts, ws):
    """Per-subset (weight, sum, sumsq) table over all masks of <= ~16 points."""
    n = len(pts)
    d = len(pts[0]) if n else 0
    W = [0.0] * (1 << n)
    S = [None] * (1 << n)
    Q = [0.0] * (1 << n)
    S[0] = [0.0] * d
    for m in range(1, 1 << n):
        i = (m & -m).bit_length() - 1
        prev = m & (m - 1)
        W[m] = W[prev] + ws[i]
        S[m] = [a + ws[i] * b for a, b in zip(S[prev], pts[i])]
        Q[m] = Q[prev] + ws[i] * sum(c * c for c in pts[i])
    return W, S, Q


def one_means_cost(pts, ws):
    """Optimal continuous 1-means cost (center at the weighted centroid)."""
    W = sum(ws)
    if W == 0:
        return 0.0
    d = len(pts[0])
    mu = [sum(w * p[j] for p, w in zip(pts, ws)) / W for j in range(d)]
    return sum(w * sum((a - b) ** 2 for a, b in zip(p, mu)) for p, w in zip(pts, ws))


def opt_kmeans_exact(points_weights, k: int) -> float:
    """Exact OPT_k with free (continuous) centers, via subset DP.

    Only for tiny instances (n <= 16); backs the invariant-check suites.
    """
    pts = [tuple(p) for p, _ in points_weights]
    ws = [w for _, w in points_weights]
    n = len(pts)
    if n == 0:
        return 0.0
    if n > 16:
        raise UsageError("instance too large for the exact oracle")
    k = min(k, n)
    W, S, Q = _subset_moments(pts, ws)
    full = (1 << n) - 1
    one = [0.0] * (1 << n)
    for m in range(1, 1 << n):
        if W[m] > 0:
            one[m] = Q[m] - sum(s * s for s in S[m]) / W[m]
    f = one[:]
    for _ in range(1, k):
        g = [0.0] * (1 << n)
        for m in range(1, 1 << n):
            best = f[m]
            sub = (m - 1) & m
            while sub:
                v = f[m ^ sub] + one[sub]
                if v < best:
                    best = v
                sub = (sub - 1) & m
            g[m] = best
        f = g
    return max(0.0, f[full])


def opt_kmeans_restricted_exact(points_weights, candidates, k: int) -> float:
    """Exact OPT_k with centers restricted to `candidates`."""
    cands = sorted(set(tuple(c) for c in candidates))
    pts = list(points_weights)
    if math.comb(len(cands), min(k, len(cands))) > _COMBO_GUARD:
        raise UsageError("combinatorial guard exceeded")
    best = math.inf
    for sub in itertools.combinations(cands, min(k, len(cands))):
        best = min(best, cost(pts, sub))
    return best


def make_jl_matrix(m: int, d: int, np_rng) -> np.ndarray:
    """Gaussian projection matrix of shape (m, d), entries N(0, 1/sqrt(d))."""
    return np_rng.normal(0.0, 1.0 / math.sqrt(d), size=(m, d))


def jl_project(x, matrix: np.ndarray, delta: int) -> GridPoint:
    """Project a raw real vector, round coordinatewise, clamp into [1, delta]."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != matrix.shape[0]:
        raise UsageError("dimension mismatch")
    y = np.rint(x @ matrix)
    y = np.clip(y, 1, delta)
    return tuple(int(v) for v in y)
