"""From n to k: a merge-and-reduce sparsifier feeding one primary controller
plus verification copies. When the primary's cost on U exceeds alpha times
the best verifier's, that verifier and the primary swap places.

The sparsifier keeps an insertion log in doubling blocks, placed like a
binary counter: a full buffer is published raw at level 0 when that level is
free. Otherwise a merge cascade merges the raw sources of the buffer and of
every occupied level below the first free level and reduces them once, by
sensitivity sampling, at that level. A block is re-reduced when deletions
dirty it (checked every k updates). The union of block samples is the
weighted subspace U consumed by the controllers. Deleted points leave U
immediately so U stays a subspace of the live input, and every batch of U
deltas is net: no uid is both inserted and deleted in one batch.
"""

from __future__ import annotations

import math

import numpy as np

from .controller import DynamicKMeans
from .errors import UsageError
from .geometry import WeightedSet, check_weighted_point, pairwise_d2
from .params import Params
from .rng import make_np_rng
from .subroutines import weighted_kmeanspp


def sensitivity_sample(items, k: int, target: int, np_rng):
    """Weighted coreset of size <= target by kmeans++ sensitivity sampling.

    items: list of (key, point, weight); returns list of the same shape.
    """
    n = len(items)
    if n <= target:
        return [(key, tuple(p), float(w)) for key, p, w in items]
    pts = np.asarray([p for _, p, _ in items], dtype=np.float64)
    w = np.asarray([wv for _, _, wv in items], dtype=np.float64)
    seeds = weighted_kmeanspp(pts, w, min(k, n), np_rng)
    centers = pts[seeds]
    d2 = pairwise_d2(pts, centers)
    assign = d2.argmin(axis=1)
    best = d2[np.arange(n), assign]
    total = float(np.dot(w, best))
    cluster_w = np.bincount(assign, weights=w, minlength=len(seeds))
    sens = w / np.maximum(cluster_w[assign], 1e-30)
    if total > 0:
        sens = sens + w * best / total
    probs = sens / sens.sum()
    idx = np_rng.choice(n, size=target, replace=True, p=probs)
    out = {}
    for i in idx:
        i = int(i)
        add_w = float(w[i] / (target * probs[i]))
        out[i] = out.get(i, 0.0) + add_w
    return [(items[i][0], tuple(items[i][1]), wv) for i, wv in out.items()]


def _net(deltas):
    """Drop every uid that one batch both inserts and deletes: U never
    holds it, so no controller needs to see it."""
    inserted = {uid for op, uid, _, _ in deltas if op == "insert"}
    gone = {uid for op, uid, _, _ in deltas
            if op == "delete" and uid in inserted}
    return [d for d in deltas if d[1] not in gone]


class _Sketch:
    __slots__ = ("serial", "source", "published", "dirty", "base_n")

    def __init__(self, serial):
        self.serial = serial
        self.source = {}      # orig id -> (point, weight)
        self.published = {}   # uid -> (point, weight, orig id)
        self.dirty = False
        self.base_n = 0       # source size at the last reduce


class MergeReduceSparsifier:
    """Maintains U as the union of per-sketch samples; emits U deltas."""

    c_u = 2   # block size: c_u * k * log2(n_hint) points

    def __init__(self, params: Params, k: int, n_hint: int = 1024):
        self.params = params
        self.k = k
        self.block = max(2 * k,
                         math.ceil(self.c_u * k * math.log2(max(n_hint, 4))))
        self.buffer = {}           # orig id -> (uid, point, weight)
        self.sketches = {}         # level -> _Sketch
        self.owner = {}            # orig id -> level
        self._serial = 0
        self._uid = 0
        self.updates = 0

    def _next_uid(self):
        self._uid += 1
        return self._uid

    def _reduce(self, sketch: _Sketch):
        """Unpublish and resample a sketch from its live sources."""
        deltas = [("delete", uid, None, None) for uid in sketch.published]
        sketch.published = {}
        if sketch.source:
            items = [(key, p, w) for key, (p, w) in sketch.source.items()]
            self._serial += 1
            rng = make_np_rng(self.params.seed, "sparsify", sketch.serial,
                              self._serial)
            for key, p, w in sensitivity_sample(items, self.k, self.block, rng):
                uid = self._next_uid()
                sketch.published[uid] = (p, w, key)
                deltas.append(("insert", uid, p, w))
        sketch.dirty = False
        sketch.base_n = len(sketch.source)
        return deltas

    def insert(self, key, point, weight):
        if key in self.owner or key in self.buffer:
            raise UsageError(f"duplicate id {key!r}")
        point = tuple(point)
        uid = self._next_uid()
        self.buffer[key] = (uid, point, weight)
        deltas = [("insert", uid, point, weight)]
        if len(self.buffer) >= self.block:
            deltas.extend(self._freeze_buffer())
        deltas.extend(self._tick())
        return _net(deltas)

    def delete(self, key):
        deltas = []
        if key in self.buffer:
            uid, _, _ = self.buffer.pop(key)
            deltas.append(("delete", uid, None, None))
        else:
            level = self.owner.pop(key, None)
            if level is None:
                raise UsageError(f"unknown id {key!r}")
            sketch = self.sketches[level]
            del sketch.source[key]
            sketch.dirty = True
            stale = [uid for uid, (_, _, src) in sketch.published.items()
                     if src == key]
            for uid in stale:
                del sketch.published[uid]
                deltas.append(("delete", uid, None, None))
        deltas.extend(self._tick())
        return _net(deltas)

    def _tick(self):
        self.updates += 1
        if self.updates % max(1, self.k) != 0:
            return []
        deltas = []
        for level in sorted(self.sketches):
            sketch = self.sketches[level]
            if not sketch.dirty:
                continue
            if not sketch.source:
                deltas.extend(("delete", uid, None, None)
                              for uid in sketch.published)
                del self.sketches[level]
            elif 2 * len(sketch.source) <= sketch.base_n:
                # only resample once half the block died; removals already
                # left U, so the surviving sample stays a valid subspace
                deltas.extend(self._reduce(sketch))
        return deltas

    def _freeze_buffer(self):
        """Turn the full buffer into a sketch placed like a binary counter:
        stored raw at level 0 when that is free, else merged with every
        occupied level below the first free level and reduced once there.
        `_reduce` samples from the raw sources, so the merged levels' own
        samples feed nothing and are only unpublished."""
        self._serial += 1
        sketch = _Sketch(self._serial)
        merged = []
        while len(merged) in self.sketches:
            merged.append(self.sketches.pop(len(merged)))
        level = len(merged)
        for other in reversed(merged):   # higher levels first, the buffer last
            sketch.source.update(other.source)
        # buffered points were already published raw; adopt them
        for key, (uid, p, w) in self.buffer.items():
            sketch.source[key] = (p, w)
            sketch.published[uid] = (p, w, key)
        sketch.base_n = len(sketch.source)
        self.buffer = {}
        deltas = []
        if merged:
            for other in merged:
                sketch.published.update(other.published)
            deltas = self._reduce(sketch)
        for key in sketch.source:
            self.owner[key] = level
        self.sketches[level] = sketch
        return deltas


class SparsifiedRunner:
    """One primary controller and L verifiers over the sparsified stream."""

    def __init__(self, params: Params, k: int, n_hint: int = 1024,
                 verifiers: int | None = None, alpha: float = 25.0):
        # the primary swaps with the best verifier when its cost exceeds
        # alpha times that verifier's: one swap restores the contract only
        # for alpha >= 1, and nan never swaps
        if not (math.isfinite(alpha) and alpha >= 1):
            raise UsageError(f"alpha must be finite and >= 1, got {alpha!r}")
        self.params = params
        self.alpha = alpha
        if verifiers is None:
            verifiers = max(2, min(8, math.ceil(math.log2(max(n_hint, 4)))))
        if verifiers < 1:
            raise UsageError(f"verifiers must be >= 1, got {verifiers!r}")
        self.sparsifier = MergeReduceSparsifier(params, k, n_hint)
        self.U = WeightedSet(params.d)
        self.primary = DynamicKMeans(params, k, seed_tag=("primary", 0))
        self.copies = [DynamicKMeans(params, k, seed_tag=("verify", i))
                       for i in range(verifiers)]

    def _feed(self, deltas):
        for op, uid, p, w in deltas:
            if op == "insert":
                self.U.insert(uid, p, w)
                self.primary.update("insert", uid, p, w)
                for c in self.copies:
                    c.update("insert", uid, p, w)
            else:
                self.U.delete(uid)
                self.primary.update("delete", uid)
                for c in self.copies:
                    c.update("delete", uid)

    def _cost_on_U(self, solution) -> float:
        if not len(self.U):
            return 0.0
        if not solution:
            return math.inf
        return self.U.cost(solution)

    def estimate(self) -> float:
        return min(self._cost_on_U(c.solution()) for c in self.copies)

    def update(self, op: str, key, point=None, weight=1.0) -> int:
        """Apply one input update; returns 1 when the primary swapped places
        with the best verifier, else 0. Bad input changes nothing: the point
        (d coordinates on the grid) and weight are checked here and the key
        by the sparsifier, before either changes state."""
        if op == "insert":
            check_weighted_point(point, weight, self.params.d,
                                 self.params.delta)
            deltas = self.sparsifier.insert(key, point, weight)
        elif op == "delete":
            deltas = self.sparsifier.delete(key)
        else:
            raise UsageError(f"unknown op {op!r}")
        self._feed(deltas)
        est = self.estimate()
        if self._cost_on_U(self.primary.solution()) <= self.alpha * est:
            return 0
        # the new primary costs est; the new minimum over the verifiers is
        # at least est, since the old primary cost more than alpha*est
        i = min(range(len(self.copies)),
                key=lambda j: self._cost_on_U(self.copies[j].solution()))
        self.primary, self.copies[i] = self.copies[i], self.primary
        return 1

    def solution(self) -> frozenset:
        return self.primary.solution()

    def contract_holds(self) -> bool:
        return self._cost_on_U(self.primary.solution()) \
            <= self.alpha * self.estimate() + 1e-9

    def u_size(self) -> int:
        return len(self.U)
