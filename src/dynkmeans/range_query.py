"""Range-query reduction over consistent hashing, and its two instantiations.

One hashed level per dyadic radius bracket: a query with radius r in
[2^(i-1), 2^i) runs the capped bucket enumeration at radius r on the level
whose hash has rho = gamma * 2^i. The returned buckets are disjoint, cover
ball(x, r), and stay inside ball(x, 3*gamma*r). Queries with r < 1 read
level 0, the exact coordinate level (grid points at distance < 1 coincide);
radii of 2^L and more read the top level, whose ball covers the grid.

BallOneMeans keeps exact moment summaries per bucket, each level built on its
first query, and answers 1-means estimates over approximate balls.
CenterIndex keeps the centers under its own dyadic levels and answers the ANN
oracle, the per-scale neighbor bits, the maintained distance upper bounds,
and the threshold indicators with flip reporting. A neighbor bit is a
maintained neighbor count > 0: the count of other centers in the cells of the
center's footprint, adjusted by one at each listener when a center is
inserted or deleted. Scratch centers can be staged: hashed and answered for
(dhat and the ANN walk read them), but kept out of the counts until
committed.
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


@dataclass
class BallAnswer:
    b: float                 # weight of the realized approximate ball
    c_star: tuple            # 1-means center candidate
    cost_c_star: float
    cost_x: float
    witness: Optional[frozenset] = None   # ids of the realized ball (test mode)


class BallOneMeans:
    """1-means estimation over approximate balls, via exact bucket moments.

    Every point is routed to one bucket per built level, each bucket carrying
    the exact weighted moments of its members; disjoint buckets make merges
    exact. Level 0 is the exact coordinate level, one bucket per distinct
    point; levels 1..max_level are hashed, and level max_level = L+1 answers
    every radius of 2^L or more with a ball that covers the grid. The hash
    families are sampled at construction (so results do not depend on query
    order), but every level, level 0 included, is built from the registry on
    its first query. Until then a point update only writes the registry.
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
        self.registry = {}              # id -> (point, weight, cells per level)
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
            z = hash_level(self, i, p) if i else p
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
        # level 0 is keyed by the point itself
        cells = {i: hash_level(self, i, p) if i else p for i in self.buckets}
        self.registry[key] = (p, w, cells)
        for i, z in cells.items():
            self._bucket_add(i, z, key, p, w)

    def delete(self, key):
        if key not in self.registry:
            raise UsageError(f"unknown id {key!r}")
        p, w, cells = self.registry.pop(key)
        for i, z in cells.items():
            self._bucket_remove(i, z, key, p, w)

    def query(self, x, r: float, witness: bool = False) -> BallAnswer:
        """Merged moments of the nonempty buckets covering ball(x, r).

        witness collects the union of bucket members (test mode).
        """
        if r < 0:
            raise UsageError("negative radius")
        i = 0 if r < 1.0 else level_for_radius(r, self.max_level)
        self._materialize(i)            # may raise the level's color bound
        if i:
            h = self.hashes[i]
            values = h.ball_buckets(x, radius=min(r, float(1 << i)),
                                    upto=h.top)
        else:
            values = (tuple(x),)
        merged = MomentSummary(self.params.d)
        ids = []
        level = self.buckets[i]
        for z in values:
            b = level.get(z)
            if b is not None:
                merged.merge(b[1])
                if witness:
                    ids.extend(b[0])
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


@dataclass(slots=True)
class CenterRecord:
    """What a CenterIndex keeps for one committed center. Its neighbor bit
    at level i is counts[i] > 0; its dhat and indicator bits are read from
    ell."""
    tag: object
    cells: dict                 # level -> cell holding the center
    footprints: dict            # level -> tuple of cells probed for neighbors
    counts: list                # level -> other centers in the footprint
    ell: Optional[int] = None   # lowest level with a nonzero count


class CenterIndex:
    """Dynamic center set under the dyadic hash levels.

    One set of cells answers the ANN oracle (optionally restricted to a tag
    class) and keeps the per-scale neighbor bits, the maintained distance
    upper bound dhat(s, S - s), and threshold indicator bits with exact flip
    reporting. Each committed center has one CenterRecord in `centers`, which
    stores each fact once: a neighbor bit is a nonzero count, `ell` is the
    lowest level with one, and dhat and the indicator bits are functions of
    `ell`. A flip is reported whenever a change of `ell` changes a bit.

    Staging. `stage` admits a scratch center that will most likely be deleted
    again soon: it is hashed at every level like an insert, so top raises and
    NoColor resamples see it, but it is recorded only in a per-level overlay
    of cells (`overlay`) and as its level -> cell map in `staged`. It has no
    tag and enters no listener set and no neighbor count. Every answer is the
    one an untagged insert would give: while anything is staged, a center's
    dhat is read from the level where the ANN walk from it first finds
    another center, committed or staged; and ann_query reads the overlay
    too. For a committed center that level comes from its record: `ell`,
    lowered to the first level below it where a cell of its stored footprint
    is in `overlay`. The walk enumerates the same buckets as the stored
    footprints, and below `ell` they hold no other committed center, so the
    record read equals the walk's level. A staged center has no record, so
    its dhat runs the walk. `delete` of a staged
    center only drops it from the overlay; `commit` inserts every staged
    center for real, in staging order, and `insert` refuses while any center
    is staged. The committed state (cells, counts, `ell`) is a function of
    the committed membership, so it equals the state eager inserts and
    deletes would leave. The event log covers committed centers only: it
    holds no flip made and undone by a center that never left staging.
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
        self.centers = {}      # center -> CenterRecord
        self.staged = {}       # center -> level -> cell, in staging order
        self.overlay = {i: {} for i in self.hashes}   # level -> cell -> set
        self.listen = {i: {} for i in self.hashes}
        self.events = []       # (center, gamma, new_bit)
        self.nocolor_events = 0

    def _footprint(self, i, p):
        # bucket enumeration skips overflowing colors instead of failing
        h = self.hashes[i]
        return tuple(h.ball_buckets(p, radius=float(1 << i), upto=h.top))

    def _level_items(self, i):
        return [(s, s) for s in self.centers] + [(s, s) for s in self.staged]

    def _install_level(self, i, cells):
        self.cells[i] = {}
        self.overlay[i] = {}
        for s, z in cells.items():
            rec = self.centers.get(s)
            if rec is None:
                self.staged[s][i] = z
                self.overlay[i].setdefault(z, set()).add(s)
            else:
                rec.cells[i] = z
                self.cells[i].setdefault(z, set()).add(s)
        self.listen[i] = {}
        for s, rec in self.centers.items():
            fp = self._footprint(i, s)
            rec.footprints[i] = fp
            for c in fp:
                self.listen[i].setdefault(c, set()).add(s)
        for s, rec in self.centers.items():
            had = rec.counts[i] > 0
            rec.counts[i] = self._count(s, i)
            if had != (rec.counts[i] > 0):
                self._crossed(s, i)

    # -- scale bits and indicator thresholds ------------------------------

    def _count(self, s, i) -> int:
        """Centers other than s in the cells of s's level-i footprint."""
        cells = self.cells[i]
        n = 0
        for c in self.centers[s].footprints[i]:
            members = cells.get(c)
            if members:
                n += len(members) - (s in members)
        return n

    def _probe_bit(self, s, i) -> bool:
        """Audit oracle for the neighbor bit, independent of the counts."""
        for c in self.centers[s].footprints[i]:
            members = self.cells[i].get(c)
            if members and (len(members) > 1 or s not in members):
                return True
        return False

    def _crossed(self, s, i):
        """Hook for s's level-i count crossing zero: keeps `ell` the lowest
        level with a nonzero count and reports the flips a move makes."""
        rec = self.centers[s]
        old = rec.ell
        counts = rec.counts
        if counts[i] and (old is None or i < old):
            rec.ell = i
        elif not counts[i] and old == i:
            rec.ell = next((j for j in range(i + 1, self.L + 1) if counts[j]),
                           None)
        else:
            return
        self._report_flips(s, old, rec.ell)

    def _bound(self, e) -> float:
        return INF if e is None else 3.0 * self.params.gamma * (1 << e)

    def _indicators(self, e):
        """Indicator bit per gamma at ell = e: the bound is <= 6*gamma*g."""
        d = self._bound(e)
        thresh = 6.0 * self.params.gamma
        return [d <= thresh * g for g in self.gammas]

    def _report_flips(self, s, old, new):
        for g, was, now in zip(self.gammas, self._indicators(old),
                               self._indicators(new)):
            if was != now:
                self.events.append((s, g, int(now)))

    def dhat(self, s) -> float:
        """Maintained bound with dist <= dhat <= 6*gamma*dist; inf if |S|<2.
        Staged centers count as members of S. A committed center's bound is
        read from its record: `ell`, or while anything is staged the first
        level below `ell` where a cell of its stored footprint holds a
        staged center. A staged center's bound is read from the ANN walk."""
        rec = self.centers.get(s)
        if rec is None:
            if s not in self.staged:
                raise UsageError(f"unknown center {s!r}")
            return self._bound(self._walk(s)[0])
        e = rec.ell
        if self.staged:
            overlay = self.overlay
            for i in range(self.L + 1 if e is None else e):
                if not overlay[i].keys().isdisjoint(rec.footprints[i]):
                    e = i
                    break
        return self._bound(e)

    def drain_events(self):
        out = self.events
        self.events = []
        return out

    def indicator_bit(self, s, gamma_index: int) -> int:
        return int(self._indicators(self.centers[s].ell)[gamma_index])

    # -- updates -----------------------------------------------------------

    def insert(self, s, tag=None):
        s = tuple(s)
        if self.staged:
            raise UsageError("insert while centers are staged; commit first")
        if s in self.centers:
            raise UsageError(f"duplicate center {s!r}")
        rec = CenterRecord(tag, {i: hash_level(self, i, s) for i in self.hashes},
                           {}, [0] * (self.L + 1))
        self.centers[s] = rec
        for i, z in rec.cells.items():
            self.cells[i].setdefault(z, set()).add(s)
        for i in self.hashes:
            fp = self._footprint(i, s)
            rec.footprints[i] = fp
            for c in fp:
                self.listen[i].setdefault(c, set()).add(s)
        for i in self.hashes:
            rec.counts[i] = self._count(s, i)
        rec.ell = next((i for i, n in enumerate(rec.counts) if n), None)
        self._report_flips(s, None, rec.ell)
        # other centers listening to s's cells now see one more neighbor
        centers = self.centers
        for i, z in rec.cells.items():
            for t in self.listen[i].get(z, ()):
                if t != s:
                    counts = centers[t].counts
                    counts[i] += 1
                    if counts[i] == 1:
                        self._crossed(t, i)

    def stage(self, s):
        """Admit s as a staged center (see the class docstring)."""
        s = tuple(s)
        if s in self.centers or s in self.staged:
            raise UsageError(f"duplicate center {s!r}")
        cells = {i: hash_level(self, i, s) for i in self.hashes}
        self.staged[s] = cells
        for i, z in cells.items():
            self.overlay[i].setdefault(z, set()).add(s)

    def commit(self):
        """Insert every staged center for real, in staging order. Each was
        hashed when staged, so its inserts rebuild no level."""
        staged = self.staged
        self.staged = {}
        self.overlay = {i: {} for i in self.hashes}
        for s in staged:
            self.insert(s)

    def delete(self, s):
        s = tuple(s)
        staged = self.staged.pop(s, None)
        if staged is not None:
            for i, z in staged.items():
                members = self.overlay[i][z]
                members.discard(s)
                if not members:
                    del self.overlay[i][z]
            return
        if s not in self.centers:
            raise UsageError(f"unknown center {s!r}")
        rec = self.centers.pop(s)
        for i, z in rec.cells.items():
            members = self.cells[i][z]
            members.discard(s)
            if not members:
                del self.cells[i][z]
        for i, fp in rec.footprints.items():
            for c in fp:
                lst = self.listen[i].get(c)
                if lst is not None:
                    lst.discard(s)
                    if not lst:
                        del self.listen[i][c]
        centers = self.centers
        for i, z in rec.cells.items():
            for t in self.listen[i].get(z, ()):
                counts = centers[t].counts
                counts[i] -= 1
                if not counts[i]:
                    self._crossed(t, i)

    def retag(self, s, tag):
        self.centers[s].tag = tag

    # -- queries -----------------------------------------------------------

    def ann_query(self, x, tag=None, exclude=frozenset(), max_dist=None,
                  allow_equal=False):
        """A center s != x with dist(x, s) <= 6*gamma*dist(x, S - x).

        Staged centers are candidates too, in the untagged class. tag
        restricts candidates to one tag class; exclude hides centers without
        structural changes. Returns None when no candidate exists. max_dist
        stops the level scan once every candidate provably lies farther than
        max_dist (callers that only care about near hits). allow_equal admits
        a center sitting exactly at x (contamination scans probe from data
        points, where the coincident center counts).
        """
        return self._walk(tuple(x), tag, exclude, max_dist, allow_equal)[1]

    def _walk(self, x, tag=None, exclude=frozenset(), max_dist=None,
              allow_equal=False):
        """The ANN level walk: (lowest level with a candidate, the smallest
        candidate there), or (None, None)."""
        centers = self.centers
        for i in range(0, self.L + 1):
            if max_dist is not None and i > 0 and float(1 << (i - 1)) > max_dist:
                return None, None
            h = self.hashes[i]
            values = h.ball_buckets(x, radius=float(1 << i), upto=h.top)
            cells, overlay = self.cells[i], self.overlay[i]
            best = None
            for z in values:
                members = cells.get(z)
                if overlay:
                    extra = overlay.get(z)
                    if extra:
                        members = extra.union(members) if members else extra
                if not members:
                    continue
                for s in members:
                    if (s == x and not allow_equal) or s in exclude:
                        continue
                    if tag is not None:
                        rec = centers.get(s)
                        if rec is None or rec.tag != tag:
                            continue
                    if best is None or s < best:
                        best = s
            if best is not None:
                return i, best
        return None, None
