"""Two-level bucket structure implicitly assigning points to centers.

Level i hashes the space at scale rho_i = (3*gamma)^i / 2; level 0 is the
identity map. A point is covered by the lowest level whose bucket has a
close center, which pins its distance to the center set within a factor
(3*gamma)^2 and makes per-bucket aggregates usable for cluster weights and
distance-squared sampling.

All maps are stored on their support only; empty buckets vanish.
"""

from __future__ import annotations

import math

from .errors import NoMassError, UsageError
from .geometry import dist as _dist
from .hashing import ConsistentHash, hash_level
from .params import Params


class AssignmentStructure:
    def __init__(self, params: Params, seed_tag="assign"):
        self.params = params
        g3 = 3.0 * params.gamma
        # top level must see every center from every occupied cell
        m = max(1, math.ceil(math.log(params.gamma * params.aspect, g3)))
        while g3 ** m < 2.0 * params.gamma * params.aspect:
            m += 1
        self.m = m
        self.hashes = {
            i: ConsistentHash(params, rho=0.5 * g3 ** i, seed_tag=(seed_tag, i))
            for i in range(1, m + 1)
        }
        self.scale2 = {i: g3 ** (2 * i) for i in range(m + 1)}

        self.points = {}        # id -> (point, weight, cells list)
        self.point_w = {}       # point -> total weight of ids there
        self.X_pre = {}         # (i, z) -> set of ids, for i < m (_repair_f)
        self.low = {}           # (i, z, z1) -> [ids dict, w_L]
        self.S_close = {}       # (i, z) -> set of centers
        self.f = {}             # (i, z) -> set of z1 (level i-1 cells)
        self.w_H = {}           # (i, z) -> float
        self.sigma = {}         # (i, z) in H' -> assigned center
        self.w_S = {}           # center -> assigned weight
        self.centers = {}       # center -> {level: footprint tuple}
        self.d2w = {}           # (i, z) in H' -> scale2[i] * w_H
        self.d2_total = 0.0
        self.nocolor_events = 0

    # -- hashing helpers ----------------------------------------------------

    def _footprint(self, i, s):
        if i == 0:
            return (s,)
        h = self.hashes[i]
        return tuple(h.ball_buckets(s, upto=h.top))

    def _level_items(self, i):
        return [(k, p) for k, (p, _, _) in self.points.items()]

    def _install_level(self, i, cells):
        """Replay every center and point with level i's new values (rare)."""
        pts = [(k, p, w, where) for k, (p, w, where) in self.points.items()]
        centers = list(self.centers)
        self.points.clear(); self.point_w.clear(); self.X_pre.clear()
        self.low.clear(); self.S_close.clear(); self.f.clear()
        self.w_H.clear(); self.sigma.clear(); self.w_S.clear()
        self.centers.clear(); self.d2w.clear()
        self.d2_total = 0.0
        for s in centers:
            self.center_insert(s)
        for k, p, w, where in pts:
            where[i] = cells[k]
            self._point_add(k, p, w, where)

    # -- aggregate maintenance ------------------------------------------------

    def in_Hprime(self, key) -> bool:
        return bool(self.S_close.get(key))

    def _d2_set(self, key, value):
        old = self.d2w.get(key, 0.0)
        if value <= 0.0:
            if key in self.d2w:
                del self.d2w[key]
            self.d2_total -= old
        else:
            self.d2w[key] = value
            self.d2_total += value - old

    def _wh_add(self, key, delta):
        if delta == 0.0:
            return
        cur = self.w_H.get(key, 0.0) + delta
        self.w_H[key] = cur
        if self.in_Hprime(key):
            self.w_S[self.sigma[key]] += delta
            self._d2_set(key, self.scale2[key[0]] * cur)
        self._prune_wh(key)

    def _prune_wh(self, key):
        if not self.f.get(key) and abs(self.w_H.get(key, 0.0)) <= 1e-12:
            self.w_H.pop(key, None)
            if key in self.d2w:
                self._d2_set(key, 0.0)

    # -- f-list repair on close-center emptiness flips -----------------------

    def _repair_f(self, i, z1, now_has_centers: bool):
        """S(i, z1) flipped empty/nonempty; fix f at level i+1."""
        if i >= self.m:
            return
        ids = self.X_pre.get((i, z1))
        if not ids:
            return
        witness = self.points[next(iter(ids))][0]
        up = i + 1
        for z in self._footprint(up, witness):
            bucket = self.low.get((up, z, z1))
            if not bucket or not bucket[0]:
                continue
            key = (up, z)
            members = self.f.get(key)
            if now_has_centers:
                if members and z1 in members:
                    members.discard(z1)
                    if not members:
                        del self.f[key]
                    self._wh_add(key, -bucket[1])
            else:
                if members is None:
                    members = set()
                    self.f[key] = members
                if z1 not in members:
                    members.add(z1)
                    self._wh_add(key, bucket[1])

    # -- point updates --------------------------------------------------------

    def point_insert(self, key, p, w: float):
        if key in self.points:
            raise UsageError(f"duplicate id {key!r}")
        if w < 0:
            raise UsageError("negative weight")
        p = tuple(p)
        cells = [p] + [hash_level(self, i, p) for i in range(1, self.m + 1)]
        self._point_add(key, p, w, cells)

    def _point_add(self, key, p, w, cells):
        self.points[key] = (p, w, cells)
        self.point_w[p] = self.point_w.get(p, 0.0) + w
        if p in self.centers:
            self.w_S[p] += w
        for i in range(self.m):
            self.X_pre.setdefault((i, cells[i]), set()).add(key)
        for i in range(1, self.m + 1):
            lk = (i, cells[i], cells[i - 1])
            bucket = self.low.get(lk)
            fresh = bucket is None
            if fresh:
                bucket = [{}, 0.0]
                self.low[lk] = bucket
            bucket[0][key] = w
            bucket[1] += w
            if fresh:
                if not self.S_close.get((i - 1, cells[i - 1])):
                    self.f.setdefault((i, cells[i]), set()).add(cells[i - 1])
                    self._wh_add((i, cells[i]), w)
            else:
                members = self.f.get((i, cells[i]))
                if members and cells[i - 1] in members:
                    self._wh_add((i, cells[i]), w)

    def point_delete(self, key):
        if key not in self.points:
            raise UsageError(f"unknown id {key!r}")
        p, w, cells = self.points.pop(key)
        self.point_w[p] -= w
        if self.point_w[p] <= 0:
            del self.point_w[p]
        if p in self.centers:
            self.w_S[p] -= w
        for i in range(self.m):
            pre = self.X_pre[(i, cells[i])]
            pre.discard(key)
            if not pre:
                del self.X_pre[(i, cells[i])]
        for i in range(1, self.m + 1):
            lk = (i, cells[i], cells[i - 1])
            bucket = self.low[lk]
            del bucket[0][key]
            bucket[1] -= w
            key_h = (i, cells[i])
            members = self.f.get(key_h)
            in_f = bool(members) and cells[i - 1] in members
            if in_f:
                self._wh_add(key_h, -w)
            if not bucket[0]:
                del self.low[lk]
                if in_f:
                    members.discard(cells[i - 1])
                    if not members:
                        del self.f[key_h]
                    self._prune_wh(key_h)

    # -- center updates -------------------------------------------------------

    def center_insert(self, s):
        s = tuple(s)
        if s in self.centers:
            raise UsageError(f"duplicate center {s!r}")
        fps = {}
        self.centers[s] = fps
        self.w_S[s] = self.point_w.get(s, 0.0)
        for i in range(self.m + 1):
            fp = self._footprint(i, s)
            fps[i] = fp
            for z in fp:
                key = (i, z)
                close = self.S_close.get(key)
                if close is None:
                    close = set()
                    self.S_close[key] = close
                was_empty = not close
                close.add(s)
                if was_empty:
                    self.sigma[key] = s
                    wh = self.w_H.get(key, 0.0)
                    self.w_S[s] += wh
                    self._d2_set(key, self.scale2[i] * wh)
                    self._repair_f(i, z, True)

    def center_delete(self, s):
        s = tuple(s)
        if s not in self.centers:
            raise UsageError(f"unknown center {s!r}")
        fps = self.centers.pop(s)
        for i in range(self.m + 1):
            for z in fps[i]:
                key = (i, z)
                close = self.S_close.get(key)
                if close is None or s not in close:
                    continue
                close.discard(s)
                wh = self.w_H.get(key, 0.0)
                if close:
                    if self.sigma.get(key) == s:
                        new = min(close)
                        self.sigma[key] = new
                        self.w_S[s] -= wh
                        self.w_S[new] += wh
                else:
                    del self.S_close[key]
                    self.sigma.pop(key, None)
                    self.w_S[s] -= wh
                    self._d2_set(key, 0.0)
                    self._repair_f(i, z, False)
        self.w_S.pop(s)

    # -- queries ---------------------------------------------------------------

    def weight(self, s) -> float:
        s = tuple(s)
        if s not in self.centers:
            raise UsageError(f"unknown center {s!r}")
        return self.w_S[s]

    def weights_total(self) -> float:
        return sum(self.w_S.values())

    def ordering(self, dhat):
        """Centers sorted by w_S(c) * dhat(c)^2 nondecreasing, ties by coords."""
        def key(c):
            w = self.w_S[c]
            if w == 0.0:
                return (0.0, c)
            d = dhat(c)
            return (math.inf if math.isinf(d) else w * d * d, c)
        return sorted(self.centers, key=key)

    def home(self, key):
        """Partition slot (i, z) covering a live point id; None for points
        that coincide with a center."""
        p, _, cells = self.points[key]
        if p in self.centers:
            return None
        for i in range(self.m + 1):
            if self.S_close.get((i, cells[i])):
                return (i, cells[i])
        return None

    def d2_sample(self, rng):
        """One draw whose law dominates (3*gamma)^-4 times the exact
        distance-squared distribution; returns (id, point)."""
        if not self.centers:
            raise UsageError("no centers")
        total = self.d2_total
        if total <= 0.0 or not self.d2w:
            if self._has_uncovered_mass():
                return self._fallback_sample(rng)
            raise NoMassError("every live point coincides with a center")
        u = rng.random() * total
        acc = 0.0
        key = None
        for k, wv in self.d2w.items():
            acc += wv
            key = k
            if u <= acc:
                break
        i, z = key
        members = self.f.get(key, ())
        wl = [(z1, self.low[(i, z, z1)][1]) for z1 in members]
        tot2 = sum(v for _, v in wl)
        if tot2 <= 0.0 or not wl:
            return self._fallback_sample(rng)
        u2 = rng.random() * tot2
        acc = 0.0
        z1 = wl[-1][0]
        for cand, v in wl:
            acc += v
            if u2 <= acc:
                z1 = cand
                break
        ids = self.low[(i, z, z1)][0]
        tot3 = sum(ids.values())
        u3 = rng.random() * tot3
        acc = 0.0
        chosen = None
        for kk, v in ids.items():
            acc += v
            chosen = kk
            if u3 <= acc:
                break
        return chosen, self.points[chosen][0]

    def _has_uncovered_mass(self) -> bool:
        for key, members in self.f.items():
            if members and self.S_close.get(key):
                return True
        return False

    def _fallback_sample(self, rng):
        # zero-weight corner: choose uniformly among covered points
        pool = []
        for key, members in self.f.items():
            if not self.S_close.get(key):
                continue
            i, z = key
            for z1 in members:
                pool.extend(self.low[(i, z, z1)][0].keys())
        if not pool:
            raise NoMassError("every live point coincides with a center")
        chosen = pool[rng.randrange(len(pool))]
        return chosen, self.points[chosen][0]

    # -- audits (test support) ---------------------------------------------------

    def audit_partition(self):
        """Check the implicit partition covers X - S exactly once; returns a
        list of violation strings."""
        bad = []
        covered = {}
        for key, members in self.f.items():
            if not self.S_close.get(key):
                continue
            i, z = key
            for z1 in members:
                bucket = self.low.get((i, z, z1))
                if not bucket:
                    bad.append(f"f lists dead bucket {(i, z, z1)}")
                    continue
                for kk in bucket[0]:
                    if kk in covered:
                        bad.append(f"id {kk} covered twice")
                    covered[kk] = key
        for kk, (p, w, cells) in self.points.items():
            if p in self.centers:
                if kk in covered:
                    bad.append(f"center-coincident id {kk} covered")
            elif kk not in covered:
                bad.append(f"id {kk} uncovered")
        for key, members in self.f.items():
            for z1 in members:
                if (key[0], key[1], z1) not in self.low:
                    bad.append(f"orphan f reference {key + (z1,)}")
        return bad

    def audit_equidistant(self, centers):
        """Check the per-bucket distance sandwich against brute force."""
        bad = []
        g3 = 3.0 * self.params.gamma
        centers = list(centers)
        for key, members in self.f.items():
            if not self.S_close.get(key):
                continue
            i, z = key
            sig = self.sigma[key]
            lo = g3 ** (i - 1) / (2.0 * self.params.gamma)
            hi = 1.5 * g3 ** i
            for z1 in members:
                for kk in self.low[(i, z, z1)][0]:
                    p = self.points[kk][0]
                    d_true = min(_dist(p, c) for c in centers)
                    d_sig = _dist(p, sig)
                    if not (lo <= d_true + 1e-9 and d_true <= d_sig + 1e-9
                            and d_sig <= hi + 1e-9):
                        bad.append(
                            f"id {kk} level {i}: {lo:.3g} <= {d_true:.3g} "
                            f"<= {d_sig:.3g} <= {hi:.3g} fails")
        return bad
