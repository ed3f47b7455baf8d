"""Range-query reduction over consistent hashing, and its instantiations.

One hashed level per dyadic radius bracket: a query with radius r in
[2^(i-1), 2^i) runs the capped bucket enumeration at radius r on the level
whose hash has rho = gamma * 2^i. The returned buckets are disjoint, cover
ball(x, r), and stay inside ball(x, 3*gamma*r). Queries with r < 1 use an
exact coordinate level (grid points at distance < 1 coincide).

Instantiations: per-bucket moment summaries give exact 1-means estimates
over approximate balls; a center-side index gives the ANN oracle, the
per-scale neighbor bits, the maintained distance upper bounds, and the
threshold indicators with flip reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import UsageError
from .hashing import ConsistentHash, hash_level
from .params import Params

INF = math.inf


def level_for_radius(r: float, max_level: int) -> int:
    """Dyadic bracket: smallest i >= 1 with r < 2^i, clamped to max_level."""
    i = 1
    while (1 << i) <= r and i < max_level:
        i += 1
    return i


class MomentSummary:
    """Exact weighted moments (count, total weight, sum, sum of squares).

    A lossless 1-means coreset: merges exactly and answers any cost(., c)
    exactly.
    """

    __slots__ = ("n", "w", "s", "q")

    def __init__(self, d: int):
        self.n = 0
        self.w = 0.0
        self.s = [0.0] * d
        self.q = 0.0

    def add(self, p, w):
        self.n += 1
        self.w += w
        s = self.s
        for j, v in enumerate(p):
            s[j] += w * v
        self.q += w * sum(v * v for v in p)

    def remove(self, p, w):
        self.n -= 1
        self.w -= w
        s = self.s
        for j, v in enumerate(p):
            s[j] -= w * v
        self.q -= w * sum(v * v for v in p)
        if self.n == 0:
            self.w = 0.0
            self.q = 0.0
            for j in range(len(s)):
                s[j] = 0.0

    def merge(self, other: "MomentSummary"):
        self.n += other.n
        self.w += other.w
        for j, v in enumerate(other.s):
            self.s[j] += v
        self.q += other.q

    def cost_at(self, c) -> float:
        if self.n == 0:
            return 0.0
        v = self.q - 2.0 * sum(ci * si for ci, si in zip(c, self.s)) \
            + self.w * sum(ci * ci for ci in c)
        return max(0.0, v)

    def centroid_rounded(self, delta: int):
        """Per-axis nearest grid integer to the weighted centroid.

        For squared costs this is the exact grid 1-means center of the
        summarized set.
        """
        if self.w <= 0:
            return None
        out = []
        for sj in self.s:
            g = int(math.floor(sj / self.w + 0.5))
            out.append(min(max(g, 1), delta))
        return tuple(out)


class RangeIndex:
    """Points routed to one bucket per level, each bucket carrying exact
    weighted moments (MomentSummary); disjoint buckets make merges exact.

    The hash family is sampled at construction (so results do not depend on
    query order), but a level's buckets materialize on first query.
    """

    def __init__(self, params: Params, seed_tag):
        self.params = params
        self.max_level = params.dyadic_levels + 1
        self.hashes = {
            i: ConsistentHash(params, rho=params.gamma * (1 << i),
                              seed_tag=(seed_tag, "lvl", i))
            for i in range(1, self.max_level + 1)
        }
        self.buckets = {}               # level -> cell -> (ids, summary)
        self.exact = {}                 # point -> (ids dict, summary)
        self.registry = {}              # id -> (point, weight, cells per level)
        self.global_summary = MomentSummary(params.d)
        self.nocolor_events = 0

    def __len__(self):
        return len(self.registry)

    def _level_items(self, i: int):
        return [(key, p) for key, (p, _, _) in self.registry.items()]

    def _install_level(self, i: int, cells):
        self.buckets[i] = {}
        for key, z in cells.items():
            p, w, where = self.registry[key]
            where[i] = z
            self._bucket_add(i, z, key, p, w)

    def _materialize(self, i: int):
        if i in self.buckets:
            return
        cells = {}
        for key, (p, _, _) in self.registry.items():
            z = hash_level(self, i, p)
            if i in self.buckets:       # a NoColor recovery built the level
                return
            cells[key] = z
        self._install_level(i, cells)

    def _bucket_add(self, i, z, key, p, w):
        b = self.buckets[i].get(z)
        if b is None:
            b = ({}, MomentSummary(self.params.d))
            self.buckets[i][z] = b
        b[0][key] = (p, w)
        b[1].add(p, w)

    def _bucket_remove(self, i, z, key, p, w):
        ids, summ = self.buckets[i][z]
        del ids[key]
        summ.remove(p, w)
        if not ids:
            del self.buckets[i][z]

    def insert(self, key, p, w: float):
        if key in self.registry:
            raise UsageError(f"duplicate id {key!r}")
        cells = {i: hash_level(self, i, p) for i in self.buckets}
        self.registry[key] = (p, w, cells)
        for i, z in cells.items():
            self._bucket_add(i, z, key, p, w)
        b = self.exact.get(p)
        if b is None:
            b = ({}, MomentSummary(self.params.d))
            self.exact[p] = b
        b[0][key] = w
        b[1].add(p, w)
        self.global_summary.add(p, w)

    def delete(self, key):
        if key not in self.registry:
            raise UsageError(f"unknown id {key!r}")
        p, w, cells = self.registry.pop(key)
        for i, z in cells.items():
            self._bucket_remove(i, z, key, p, w)
        ids, summ = self.exact[p]
        del ids[key]
        summ.remove(p, w)
        if not ids:
            del self.exact[p]
        self.global_summary.remove(p, w)

    def query(self, x, r: float, with_ids: bool = False):
        """Summaries of the nonempty buckets covering ball(x, r).

        Returns (summaries, ids_or_None). ids collects the union of bucket
        members (witness mode).
        """
        if r < 0:
            raise UsageError("negative radius")
        ids = [] if with_ids else None
        if r < 1.0:
            b = self.exact.get(tuple(x))
            if b is None:
                return [], ids
            if with_ids:
                ids.extend(b[0].keys())
            return [b[1]], ids
        if r >= self.params.aspect:
            if with_ids:
                ids.extend(self.registry.keys())
            return ([self.global_summary] if self.registry else []), ids
        i = level_for_radius(r, self.max_level)
        self._materialize(i)
        h = self.hashes[i]
        values = h.ball_buckets(x, radius=min(r, float(1 << i)), upto=h.top)
        out = []
        for z in values:
            b = self.buckets[i].get(z)
            if b is not None:
                out.append(b[1])
                if with_ids:
                    ids.extend(b[0].keys())
        return out, ids


@dataclass
class BallAnswer:
    b: float                 # weight of the realized approximate ball
    c_star: tuple            # 1-means center candidate
    cost_c_star: float
    cost_x: float
    witness: Optional[frozenset] = None   # ids of the realized ball (test mode)


class BallOneMeans:
    """1-means estimation over approximate balls, via exact bucket moments."""

    def __init__(self, params: Params, seed_tag):
        self.params = params
        self.index = RangeIndex(params, seed_tag)

    def __len__(self):
        return len(self.index)

    @property
    def nocolor_events(self):
        return self.index.nocolor_events

    def insert(self, key, p, w):
        self.index.insert(key, p, w)

    def delete(self, key):
        self.index.delete(key)

    def query(self, x, r: float, witness: bool = False) -> BallAnswer:
        summaries, ids = self.index.query(x, r, with_ids=witness)
        merged = MomentSummary(self.params.d)
        for s in summaries:
            merged.merge(s)
        wit = frozenset(ids) if witness else None
        if merged.n == 0:
            return BallAnswer(0.0, tuple(x), 0.0, 0.0, wit)
        c_star = merged.centroid_rounded(self.params.delta)
        return BallAnswer(
            b=merged.w,
            c_star=c_star,
            cost_c_star=merged.cost_at(c_star),
            cost_x=merged.cost_at(tuple(x)),
            witness=wit,
        )


class CenterIndex:
    """Dynamic center set under the dyadic hash levels.

    One set of cells answers the ANN oracle (optionally restricted to a tag
    class) and keeps the per-scale neighbor bits, the maintained distance
    upper bound dhat(s, S - s), and threshold indicator bits with exact flip
    reporting.
    """

    track_dist = True   # read by perfbench's tracer to name the update span

    def __init__(self, params: Params, seed_tag, gammas=()):
        self.params = params
        self.L = params.dyadic_levels
        self.hashes = {
            i: ConsistentHash(params, rho=params.gamma * (1 << i),
                              seed_tag=(seed_tag, "ann", i))
            for i in range(0, self.L + 1)
        }
        self.cells = {i: {} for i in self.hashes}     # level -> cell -> set
        self.gammas = tuple(gammas)
        self.centers = {}     # center -> dict(tag, cell per level)
        self.listen = {i: {} for i in self.hashes}
        self.footprints = {}   # center -> {level: tuple of cells}
        self.bits = {}         # center -> bytearray over levels
        self.ell = {}          # center -> min level with bit 1, or None
        self.ind_bits = {}     # center -> bytearray over gammas
        self.events = []       # (center, gamma, new_bit)
        self.nocolor_events = 0

    def _footprint(self, i, p):
        # bucket enumeration skips overflowing colors instead of failing
        h = self.hashes[i]
        return tuple(h.ball_buckets(p, radius=float(1 << i), upto=h.top))

    def _level_items(self, i):
        return [(s, s) for s in self.centers]

    def _install_level(self, i, cells):
        self.cells[i] = {}
        for s, z in cells.items():
            self.centers[s]["cells"][i] = z
            self.cells[i].setdefault(z, set()).add(s)
        self.listen[i] = {}
        for s in self.centers:
            fp = self._footprint(i, s)
            self.footprints[s][i] = fp
            for c in fp:
                self.listen[i].setdefault(c, set()).add(s)
        for s in self.centers:
            self._set_bit(s, i, self._probe_bit(s, i))

    # -- scale bits and indicator thresholds ------------------------------

    def _probe_bit(self, s, i) -> bool:
        for c in self.footprints[s][i]:
            members = self.cells[i].get(c)
            if members and (len(members) > 1 or s not in members):
                return True
        return False

    def _set_bit(self, s, i, val: bool):
        cur = bool(self.bits[s][i])
        if cur == val:
            return
        self.bits[s][i] = 1 if val else 0
        old_ell = self.ell[s]
        if val:
            if old_ell is None or i < old_ell:
                self.ell[s] = i
        elif old_ell == i:
            nxt = None
            b = self.bits[s]
            for j in range(i + 1, self.L + 1):
                if b[j]:
                    nxt = j
                    break
            self.ell[s] = nxt
        if self.ell[s] != old_ell:
            self._refresh_indicators(s)

    def dhat(self, s) -> float:
        """Maintained bound with dist <= dhat <= 6*gamma*dist; inf if |S|<2."""
        if s not in self.centers:
            raise UsageError(f"unknown center {s!r}")
        e = self.ell[s]
        if e is None:
            return INF
        return 3.0 * self.params.gamma * (1 << e)

    def _refresh_indicators(self, s):
        if not self.gammas:
            return
        d = self.dhat(s)
        thresh = 6.0 * self.params.gamma
        row = self.ind_bits[s]
        for gi, g in enumerate(self.gammas):
            val = 1 if d <= thresh * g else 0
            if row[gi] != val:
                row[gi] = val
                self.events.append((s, g, val))

    def drain_events(self):
        out = self.events
        self.events = []
        return out

    def indicator_bit(self, s, gamma_index: int) -> int:
        return self.ind_bits[s][gamma_index]

    # -- updates -----------------------------------------------------------

    def insert(self, s, tag=None):
        s = tuple(s)
        if s in self.centers:
            raise UsageError(f"duplicate center {s!r}")
        info = {"tag": tag,
                "cells": {i: hash_level(self, i, s) for i in self.hashes}}
        self.centers[s] = info
        for i, z in info["cells"].items():
            self.cells[i].setdefault(z, set()).add(s)
        self.bits[s] = bytearray(self.L + 1)
        self.ell[s] = None
        self.ind_bits[s] = bytearray(len(self.gammas))
        self.footprints[s] = {}
        for i in self.hashes:
            fp = self._footprint(i, s)
            self.footprints[s][i] = fp
            for c in fp:
                self.listen[i].setdefault(c, set()).add(s)
        for i in self.hashes:
            self._set_bit(s, i, self._probe_bit(s, i))
        self._refresh_indicators(s)
        # other centers listening to s's cells now see a neighbor
        for i in self.hashes:
            z = info["cells"][i]
            for t in self.listen[i].get(z, ()):
                if t != s and not self.bits[t][i]:
                    self._set_bit(t, i, True)

    def delete(self, s):
        s = tuple(s)
        if s not in self.centers:
            raise UsageError(f"unknown center {s!r}")
        info = self.centers.pop(s)
        for i, z in info["cells"].items():
            members = self.cells[i][z]
            members.discard(s)
            if not members:
                del self.cells[i][z]
        for i, fp in self.footprints.pop(s).items():
            for c in fp:
                lst = self.listen[i].get(c)
                if lst is not None:
                    lst.discard(s)
                    if not lst:
                        del self.listen[i][c]
        del self.bits[s]
        del self.ell[s]
        del self.ind_bits[s]
        for i in self.hashes:
            z = info["cells"][i]
            for t in tuple(self.listen[i].get(z, ())):
                if t != s and self.bits[t][i]:
                    self._set_bit(t, i, self._probe_bit(t, i))

    def retag(self, s, tag):
        self.centers[s]["tag"] = tag

    # -- queries -----------------------------------------------------------

    def ann_query(self, x, tag=None, exclude=frozenset(), max_dist=None,
                  allow_equal=False):
        """A center s != x with dist(x, s) <= 6*gamma*dist(x, S - x).

        tag restricts candidates to one tag class; exclude hides centers
        without structural changes. Returns None when no candidate exists.
        max_dist stops the level scan once every candidate provably lies
        farther than max_dist (callers that only care about near hits).
        allow_equal admits a center sitting exactly at x (contamination
        scans probe from data points, where the coincident center counts).
        """
        x = tuple(x)
        best = None
        for i in range(0, self.L + 1):
            if max_dist is not None and i > 0 and float(1 << (i - 1)) > max_dist:
                return None
            h = self.hashes[i]
            values = h.ball_buckets(x, radius=float(1 << i), upto=h.top)
            for z in values:
                members = self.cells[i].get(z)
                if not members:
                    continue
                for s in members:
                    if (s == x and not allow_equal) or s in exclude:
                        continue
                    if tag is not None and self.centers[s]["tag"] != tag:
                        continue
                    if best is None or s < best:
                        best = s
            if best is not None:
                return best
        return best
