"""From n to k: a merge-and-reduce sparsifier feeding one primary controller
plus verification copies, with cost-based expiry of the primary solution.

The sparsifier keeps an insertion log in doubling blocks; each block is
reduced once by sensitivity sampling and re-reduced when deletions dirty it
(checked every k updates). The union of block samples is the weighted
subspace U consumed by the controllers. Deleted points leave U immediately
so U stays a subspace of the live input.
"""

from __future__ import annotations

import math

import numpy as np

from .controller import DynamicKMeans
from .errors import UsageError
from .geometry import WeightedSet
from .params import Params
from .rng import make_np_rng
from .subroutines import weighted_kmeanspp

RESET_CAP = 1000  # hard cap on same-update resets; guards a spin loop


def sensitivity_sample(items, k: int, target: int, np_rng):
    """Weighted coreset of size <= target by kmeans++ sensitivity sampling.

    items: list of (key, point, weight); returns list of the same shape.
    """
    n = len(items)
    if n <= target:
        return [(key, tuple(p), float(w)) for key, p, w in items]
    pts = np.asarray([p for _, p, _ in items], dtype=np.float64)
    w = np.asarray([wv for _, _, wv in items], dtype=np.float64)

    class _R:
        def random(self):
            return float(np_rng.random())

    seeds = weighted_kmeanspp(pts, w, min(k, n), _R())
    centers = pts[seeds]
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
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
        self.buffer = {}           # orig id -> (point, weight)
        self.buffer_uids = {}      # orig id -> uid
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
        deltas = []
        self.buffer[key] = (point, weight)
        uid = self._next_uid()
        self.buffer_uids[key] = uid
        deltas.append(("insert", uid, point, weight))
        if len(self.buffer) >= self.block:
            deltas.extend(self._freeze_buffer())
        deltas.extend(self._tick())
        return deltas

    def delete(self, key):
        deltas = []
        if key in self.buffer:
            del self.buffer[key]
            deltas.append(("delete", self.buffer_uids.pop(key), None, None))
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
        return deltas

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
        deltas = []
        self._serial += 1
        sketch = _Sketch(self._serial)
        sketch.source = dict(self.buffer)
        sketch.base_n = len(sketch.source)
        # buffered points were already published raw; adopt them
        for key, uid in self.buffer_uids.items():
            p, w = self.buffer[key]
            sketch.published[uid] = (p, w, key)
        self.buffer = {}
        self.buffer_uids = {}
        level = 0
        while level in self.sketches:
            other = self.sketches.pop(level)
            merged = _Sketch(self._serial)
            merged.source = {**other.source, **sketch.source}
            deltas.extend(("delete", uid, None, None)
                          for uid in other.published)
            deltas.extend(("delete", uid, None, None)
                          for uid in sketch.published)
            sketch = merged
            level += 1
            deltas.extend(self._reduce(sketch))
        for key in sketch.source:
            self.owner[key] = level
        self.sketches[level] = sketch
        return deltas


class SparsifiedRunner:
    """One primary controller and L verifiers over the sparsified stream."""

    def __init__(self, params: Params, k: int, n_hint: int = 1024,
                 verifiers: int | None = None, alpha: float = 25.0):
        self.params = params
        self.k = k
        self.alpha = alpha
        if verifiers is None:
            verifiers = max(2, min(8, math.ceil(math.log2(max(n_hint, 4)))))
        self.sparsifier = MergeReduceSparsifier(params, k, n_hint)
        self.U = WeightedSet(params.d)
        self.primary = DynamicKMeans(params, k, seed_tag=("primary", 0))
        self.copies = [DynamicKMeans(params, k, seed_tag=("verify", i))
                       for i in range(verifiers)]
        self.reset_serial = 0
        self.resets_cum = 0

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

    def _reset_primary(self):
        self.reset_serial += 1
        self.primary = DynamicKMeans(self.params, self.k,
                                     seed_tag=("primary", self.reset_serial))
        for uid, (p, w) in list(self.U.entries.items()):
            self.primary.update("insert", uid, p, w)
        self.resets_cum += 1

    def update(self, op: str, key, point=None, weight=1.0) -> int:
        """Apply one input update; returns the number of primary resets."""
        if op == "insert":
            deltas = self.sparsifier.insert(key, point, weight)
        elif op == "delete":
            deltas = self.sparsifier.delete(key)
        else:
            raise UsageError(f"unknown op {op!r}")
        self._feed(deltas)
        est = self.estimate()
        resets = 0
        while self._cost_on_U(self.primary.solution()) > self.alpha * est:
            if resets >= RESET_CAP:
                raise RuntimeError(
                    "primary reset loop exceeded the hard cap; "
                    f"cost={self._cost_on_U(self.primary.solution()):.4g} "
                    f"alpha*est={self.alpha * est:.4g}")
            self._reset_primary()
            resets += 1
            est = self.estimate()
        return resets

    def solution(self) -> frozenset:
        return self.primary.solution()

    def contract_holds(self) -> bool:
        return self._cost_on_U(self.primary.solution()) \
            <= self.alpha * self.estimate() + 1e-9

    def u_size(self) -> int:
        return len(self.U)
