"""Consistent hashing from randomly shifted grids with color boosting.

A weak hash drops a shifted grid of cell side rho/sqrt(d) over the space;
cells have diameter <= rho. The full hash runs C independent weak hashes
("colors") and tags each point with the first color whose local cell count
stays under a cap, which upgrades the expected consistency of one shifted
grid into a worst-case cap.

Cell distances are measured to the grid points of a cell (clamped to
[1, delta]); cells holding no grid point are unreachable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoColorError
from .params import Params
from .rng import make_rng

# Sentinel returned by the capped DFS when the cell count exceeds the cap.
OVER_CAP = object()

_CACHE_LIMIT = 400_000

# Hash families a structure tries, after the one that failed, before it gives
# up on a NoColor event.
NOCOLOR_ATTEMPTS = 5


@dataclass(frozen=True)
class WeakHash:
    rho: float
    cell: float            # rho / sqrt(d)
    shift: tuple           # random offset, each coordinate in [0, cell)
    delta: int

    @staticmethod
    def sample(rho: float, d: int, delta: int, rng) -> "WeakHash":
        cell = rho / math.sqrt(d)
        shift = tuple(rng.random() * cell for _ in range(d))
        return WeakHash(rho=rho, cell=cell, shift=shift, delta=delta)

    def eval(self, x) -> tuple:
        cell = self.cell
        shift = self.shift
        return tuple(math.floor((x[j] + shift[j]) / cell)
                     for j in range(len(x)))

    def cell_dist2(self, x, z) -> float:
        """Squared distance from x to the grid points of cell z (inf if empty)."""
        cell = self.cell
        shift = self.shift
        delta = self.delta
        ceil = math.ceil
        s = 0.0
        for j in range(len(x)):
            zc = z[j] * cell - shift[j]
            lo = ceil(zc)
            hi = ceil(zc + cell) - 1
            if lo < 1:
                lo = 1
            if hi > delta:
                hi = delta
            if lo > hi:
                return math.inf
            xi = x[j]
            if xi < lo:
                t = lo - xi
            elif xi > hi:
                t = xi - hi
            else:
                continue
            s += t * t
        return s

    def _axis_table(self, x, r: float):
        """Per-axis maps cell-index -> squared per-coordinate distance to the
        clamped grid range (inf for axis-empty cells), covering every index
        within r of x along that axis."""
        cell = self.cell
        delta = self.delta
        ceil = math.ceil
        span = int(r / cell) + 2
        tables = []
        for j in range(len(x)):
            xj = x[j]
            vj = self.shift[j]
            zx = math.floor((xj + vj) / cell)
            row = {}
            for zj in range(zx - span, zx + span + 1):
                zc = zj * cell - vj
                lo = ceil(zc)
                hi = ceil(zc + cell) - 1
                if lo < 1:
                    lo = 1
                if hi > delta:
                    hi = delta
                if lo > hi:
                    row[zj] = math.inf
                elif xj < lo:
                    row[zj] = (lo - xj) ** 2
                elif xj > hi:
                    row[zj] = (xj - hi) ** 2
                else:
                    row[zj] = 0.0
            tables.append(row)
        return tables

    def ball_cells(self, x, r: float, cap: int):
        """Cells whose grid preimage meets ball(x, r), by DFS over +-1
        neighbors; OVER_CAP once more than `cap` cells are collected.

        The DFS starts at x's own cell, so it returns no cell when that cell
        holds no grid point within r (an off-grid x may have none at all).
        Neighbors are explored per coordinate ascending, -1 before +1.
        """
        if cap < 1:
            return OVER_CAP
        r2 = r * r
        start = self.eval(x)
        tables = self._axis_table(x, r)
        d = len(x)
        start_axes = [tables[j][start[j]] for j in range(d)]
        start_s = sum(start_axes)
        if start_s > r2:
            return set()
        found = {start}
        stack = [(start, start_s, start_axes)]
        inf = math.inf
        while stack:
            z, s, axes = stack.pop()
            for j in range(d):
                zj = z[j]
                vj = axes[j]
                row = tables[j]
                for step in (-1, 1):
                    nv = row.get(zj + step, inf)
                    ns = s - vj + nv
                    if ns > r2:
                        continue
                    nz = z[:j] + (zj + step,) + z[j + 1:]
                    if nz in found:
                        continue
                    found.add(nz)
                    if len(found) > cap:
                        return OVER_CAP
                    naxes = list(axes)
                    naxes[j] = nv
                    stack.append((nz, ns, naxes))
        return found


class ConsistentHash:
    """Efficient (gamma, lambda_cap, rho)-hash built from `colors` weak hashes.

    Hash values are (color, cell_id) pairs. Evaluation picks the smallest
    color whose 2*rho/gamma ball spans at most lambda_cap/colors cells.
    `top` is the highest color any evaluation has returned since the last
    resample: no value of a higher color has been handed out, so lookups
    matched against evaluated points may stop enumerating there.
    Evaluations and bucket enumerations are memoized until a resample.
    """

    def __init__(self, params: Params, rho: float, seed_tag):
        self.params = params
        self.rho = rho
        self.seed_tag = seed_tag
        self._sample(0)

    def _sample(self, attempt: int):
        p = self.params
        self.attempt = attempt
        self.weak = [
            WeakHash.sample(self.rho, p.d, p.delta,
                            make_rng(p.seed, "weak", self.seed_tag, attempt, c))
            for c in range(p.colors)
        ]
        self.top = 0
        self._eval_cache = {}
        self._bucket_cache = {}
        # The eval ball (radius r = 2*rho/gamma) meets at most 2r/cell + 2
        # cells per axis, one more allowing for rounding, and 2r/cell =
        # 4*sqrt(d)/gamma at every rho. When that box fits under the cap,
        # color 0 never overflows and eval needs no cell count.
        per_axis = int(4.0 * math.sqrt(p.d) / p.gamma) + 3
        self.color0_fits = per_axis ** p.d <= p.per_color_cap

    def resample(self):
        """Fresh hash family after a NoColor event; owner must rebuild."""
        self._sample(self.attempt + 1)

    def eval(self, x) -> tuple:
        """Hash value (color, cell_id); NoColorError if every color overflows."""
        hit = self._eval_cache.get(x)
        if hit is not None:
            return hit
        c = 0 if self.color0_fits else self._first_color(x)
        if c > self.top:
            self.top = c
        out = (c, self.weak[c].eval(x))
        if len(self._eval_cache) >= _CACHE_LIMIT:
            self._eval_cache.clear()
        self._eval_cache[x] = out
        return out

    def _first_color(self, x) -> int:
        r = 2.0 * self.rho / self.params.gamma
        cap = self.params.per_color_cap
        for c, wh in enumerate(self.weak):
            if wh.ball_cells(x, r, cap) is not OVER_CAP:
                return c
        raise NoColorError(f"no color admits point {x} under cap {cap}")

    def ball_buckets(self, x, radius: float | None = None,
                     upto: int | None = None) -> set:
        """Size-(<= lambda_cap) value set sandwiched between the hash image
        of ball(x, radius) and of ball(x, radius + rho).

        radius defaults to rho/gamma and must not exceed it. upto keeps only
        the values of colors 0..upto: a lookup matched against stored values
        passes `top`, since no stored value has a higher color. The default
        is the full enumeration the contract is stated for.
        """
        if radius is None:
            radius = self.rho / self.params.gamma
        key = (x, radius, upto)
        hit = self._bucket_cache.get(key)
        if hit is not None:
            return hit
        cap = self.params.per_color_cap
        out = set()
        weak = self.weak if upto is None else self.weak[:upto + 1]
        for c, wh in enumerate(weak):
            cells = wh.ball_cells(x, radius, cap)
            if cells is OVER_CAP:
                continue
            for z in cells:
                out.add((c, z))
        if len(self._bucket_cache) >= _CACHE_LIMIT:
            self._bucket_cache.clear()
        self._bucket_cache[key] = out
        return out


def hash_level(owner, i, x):
    """Hash value of x at level i of `owner`, the one NoColor recovery policy.

    `owner` is a structure over a `hashes` dict of ConsistentHash levels; it
    keeps a `nocolor_events` counter and provides `_level_items(i)`, the
    (key, point) pairs currently hashed at level i, and
    `_install_level(i, cells)`, which rebuilds level i from a key -> value map.

    The owner's lookups enumerate colors only up to the level's `top`. When
    x is the first item of the level to take a higher color, the level is
    rebuilt through `_install_level` before x's value is returned, so every
    footprint the owner stores is recomputed at the new bound.

    When the level's family fails on x, it is resampled and every item of the
    level is rehashed together with x; the level is rebuilt only once all of
    them hash. A further failure while rehashing resamples again. After
    NOCOLOR_ATTEMPTS resamples the original family is restored, the level is
    left as it was, and NoColorError propagates.
    """
    h = owner.hashes[i]
    top = h.top
    try:
        z = h.eval(x)
    except NoColorError:
        pass
    else:
        if h.top > top:
            owner._install_level(
                i, {key: h.eval(p) for key, p in owner._level_items(i)})
        return z
    start = h.attempt
    items = owner._level_items(i)
    for _ in range(NOCOLOR_ATTEMPTS):
        owner.nocolor_events += 1
        h.resample()
        try:
            cells = {key: h.eval(p) for key, p in items}
            z = h.eval(x)
        except NoColorError:
            continue
        owner._install_level(i, cells)
        return z
    h._sample(start)
    h.top = top
    raise NoColorError(f"level {i}: no hash family in {NOCOLOR_ATTEMPTS} "
                       f"resamples admits {x}")
