"""Epoch-based dynamic k-means controller.

Per epoch: estimate how many centers are removable at small cost, shrink
the output by that many, absorb the next ell + 1 updates lazily, then
augment with distance-squared samples, re-select k centers, and re-certify
robustness. Center-side structures are batch-updated at epoch boundaries;
the output solution is tracked separately in between.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assignment import AssignmentStructure
from .errors import UsageError
from .geometry import WeightedSet, check_weighted_point, dist
from .params import Params, schedule_for
from .range_query import BallOneMeans, CenterIndex, MomentSummary
from .rng import make_rng
from .subroutines import (ClusterContext, augmented_kmeans,
                          replay_restricted_draws, restricted_kmeans,
                          static_weighted_kmeans)


@dataclass
class UpdateReport:
    recourse: int = 0
    makerobust_calls: int = 0
    epoch_boundary: bool = False
    epoch_len: int = 1


@dataclass
class MakeRobustRecord:
    u: tuple
    v: tuple
    t: int
    call_type: str          # "bootstrap" | "fresh" | "contaminated" | "yellow"
    steps: list = field(default_factory=list)


class DynamicKMeans(ClusterContext):
    """The epoch controller over its own center structures. The bundle is
    the one record of which centers exist and at which robustness level (a
    center's `cent` tag, None until it is made robust); center_remove also
    drops a removed center's certificate. The yellow queue is filled from
    the index's indicator flips when robustify runs."""

    def __init__(self, params: Params, k: int, seed_tag="dk", witness: bool = False,
                 sched=None):
        if k < 1:
            raise UsageError("k must be >= 1")
        self.params = params
        self.k = k
        self.sched = sched if sched is not None else schedule_for(params)
        self.witness = witness
        self.rng = make_rng(params.seed, "controller", seed_tag)

        super().__init__(
            AssignmentStructure(params, seed_tag=(seed_tag, "assign")),
            CenterIndex(params, (seed_tag, "nbr"),
                        gammas=self.sched.indicator_gammas))
        self.X = WeightedSet(params.d)
        self.ball1m = BallOneMeans(params, seed_tag=(seed_tag, "b1m"))

        self.S_out: set = set()
        self.certs: dict = {}
        self.type3_chain: dict = {}
        self.yellow: dict = {}         # centers to re-check, in flip order

        self.active = False            # epochs running
        self.epoch_live = False        # inside an epoch
        self.ell = 0
        self.epoch_updates = 0
        self.S_init: frozenset = frozenset()
        self.start_counts: dict = {}   # touched coord -> count at epoch start
        self.plus_order: list = []     # touched coords in first-touch order

        self.makerobust_cum = 0
        self.time_points_ns = 0        # dataset-side structure maintenance
        self.time_epoch_ns = 0         # epoch start/end pipelines
        self.violations: list = []     # instrumented assertion failures
        self.on_makerobust = None      # callback(MakeRobustRecord)

    # ------------------------------------------------------------------ util

    @property
    def nocolor_events(self):
        return (self.assign.nocolor_events + self.ball1m.nocolor_events
                + self.cent.nocolor_events)

    def solution(self) -> frozenset:
        return frozenset(self.S_out)

    def level(self, s, default):
        """Robustness level of center s: its `cent` tag, or `default` while
        s has not been made robust."""
        t = self.cent.centers[s].tag
        return default if t is None else t

    def center_remove(self, s):
        s = tuple(s)
        super().center_remove(s)
        self.certs.pop(s, None)
        self.type3_chain.pop(s, None)

    def _smallest_t(self, dhat: float, div: float):
        """Smallest t with lam^(3t) >= dhat / div, or t_cap when no t in
        [0, t_cap] qualifies."""
        cap = self.sched.t_cap
        if math.isinf(dhat):
            return cap
        target = dhat / div
        lam3 = self.sched.lam ** 3
        t, v = 0, 1.0
        while v < target and t < cap:
            t += 1
            v *= lam3
        return t

    # --------------------------------------------------------------- updates

    def update(self, op: str, key, point=None, weight=1.0) -> UpdateReport:
        if op == "insert":
            if key in self.X:
                raise UsageError(f"duplicate id {key!r}")
            check_weighted_point(point, weight, self.params.d,
                                 self.params.delta)
        elif op == "delete":
            if key not in self.X:
                raise UsageError(f"unknown id {key!r}")
        else:
            raise UsageError(f"unknown op {op!r}")
        report = UpdateReport()
        s_before = frozenset(self.S_out)
        clock = time.perf_counter_ns
        if self.active and not self.epoch_live:
            t0 = clock()
            self._start_epoch()
            self.time_epoch_ns += clock() - t0
        t0 = clock()
        if op == "insert":
            point = tuple(point)
            self._touch(point)
            self.X.insert(key, point, weight)
            self.assign.point_insert(key, point, weight)
            self.ball1m.insert(key, point, weight)
        else:
            point, _w = self.X.get(key)
            self._touch(point)
            self.X.delete(key)
            self.assign.point_delete(key)
            self.ball1m.delete(key)
        self.time_points_ns += clock() - t0

        mr_before = self.makerobust_cum
        distinct = len(self.X._by_point)
        if not self.active:
            if distinct > self.k:
                self._activate()
            else:
                self.S_out = set(self.X.distinct_points())
        else:
            if distinct <= self.k:
                self._deactivate()
            else:
                self.epoch_updates += 1
                if op == "insert":
                    self.S_out.add(point)
                if self.epoch_updates >= self.ell + 1:
                    t0 = clock()
                    self._end_epoch()
                    self.time_epoch_ns += clock() - t0
                    report.epoch_boundary = True
        report.epoch_len = self.ell + 1
        report.makerobust_calls = self.makerobust_cum - mr_before
        report.recourse = len(s_before.symmetric_difference(self.S_out))
        return report

    def _touch(self, point):
        if self.epoch_live and point not in self.start_counts:
            self.start_counts[point] = self.X._by_point.get(point, 0)
            self.plus_order.append(point)

    # ---------------------------------------------------- activation switch

    def _activate(self):
        pts, ws = [], []
        for p, w in self.X.points():
            pts.append(p)
            ws.append(w)
        seed = static_weighted_kmeans(pts, ws, self.k, self.rng)
        for s in seed:
            if s not in self.cent.centers:
                self.center_add(s)
        self._robustify(fresh=set(self.cent.centers), contaminated=set())
        self.S_out = set(self.cent.centers)
        self.active = True
        self.epoch_live = False

    def _deactivate(self):
        for s in sorted(self.cent.centers):
            self.center_remove(s)
        self.cent.drain_events()
        self.yellow.clear()
        self.S_out = set(self.X.distinct_points())
        self.active = False
        self.epoch_live = False

    # ------------------------------------------------------------- the epoch

    def _start_epoch(self):
        self.S_init = frozenset(self.cent.centers)
        # nothing changes the context between the estimate and the shrink,
        # so one ordering, built when first needed, serves both
        ordering = functools.cache(self.ordering)
        _, self.ell = self._estimate_ell(ordering)
        if self.ell >= 1:
            removed = restricted_kmeans(self, self.ell, self.rng, ordering())
            self.S_out -= removed
        self.epoch_updates = 0
        self.start_counts = {}
        self.plus_order = []
        self.epoch_live = True

    def _estimate_ell(self, ordering=None):
        """(ell_hat, ell) for S_init. `ordering`, when given, is a callable
        that returns self.ordering() of the current context.

        A trial that a lower bound proves will fail is not solved; its
        random draws are replayed (replay_restricted_draws) where their
        count is known without solving, so every output is the same. The
        bound: cost(X, S - R) >= floor(|R|) = base + the sum of the |R|
        smallest inc_c, where inc_c sums w(x) * (second-nearest minus
        nearest squared distance) over the points x whose nearest center
        is c. Each point outside the clusters of R keeps its nearest
        distance, and each point inside moves at least to its second
        nearest.

        The bound is compared in floats. Every term of the trial's cost,
        of base and of the inc_c is a non-negative product of a weight and
        an exact integer distance (or difference of two), and each float
        sum passes a term through at most |X| + |S| + 1 roundings, so the
        computed floor exceeds the true one, and the computed trial cost
        falls short of the true cost, by a relative 2^-53 times that count
        at most, to first order. A floor above the trial's threshold by a
        relative margin 4 * (|X| + |S| + 1) * 2^-53 covers both, and the
        rounding of the margin product itself; the trial's own float
        comparison would then fail it as well."""
        limit = min(self.k, len(self.S_init)) - 1
        if limit < 1:
            return 0, 0
        # one distance matrix prices every trial S_init - removed as a
        # column-masked row minimum (bitwise equal to X.cost of the set)
        cols = list(self.S_init)
        d2 = self.X.dist2_matrix(cols)
        _, w = self.X.arrays()
        near = d2.min(axis=1)
        base = float(np.dot(w, near))
        thr = self.sched.ell_stop_factor * base
        floors = _removal_floors(d2.T, w, near, base)
        ruled_out = thr * (1 + 4 * (len(w) + len(cols) + 1) * 2.0 ** -53)
        if ordering is None:
            ordering = functools.cache(self.ordering)
        prev = 0
        i = 0
        while True:
            s_i = 1 << i
            if s_i > limit:
                break
            if (floors[s_i - 1] > ruled_out
                    and replay_restricted_draws(self, s_i, self.rng)):
                break
            removed = restricted_kmeans(self, s_i, self.rng, ordering())
            keep = [j for j, c in enumerate(cols) if c not in removed]
            cost_i = float(np.dot(w, d2[:, keep].min(axis=1)))
            if cost_i > thr:
                break
            prev = s_i
            i += 1
        ell_hat = prev
        ell = int(ell_hat // self.sched.ell_shrink)
        return ell_hat, min(ell, max(0, limit))

    def _end_epoch(self):
        sched = self.sched
        touched = [p for p in self.plus_order
                   if self.X._by_point.get(p, 0) != self.start_counts[p]]
        x_plus = [p for p in touched
                  if self.start_counts[p] == 0
                  and self.X._by_point.get(p, 0) > 0]

        # contaminated survivors of the previous solution, one candidate per
        # robustness level per touched point; only levels some center holds
        # can answer, and no center changes inside this loop
        held = {rec.tag for rec in self.cent.centers.values()}
        contaminated = set()
        for x in touched:
            for i in range(0, sched.t_cap + 1):
                if i not in held:
                    continue
                radius = sched.contamination_radius(i)
                u = self.cent.ann_query(x, tag=i, max_dist=radius,
                                        allow_equal=True)
                if u is not None and dist(x, u) <= radius:
                    contaminated.add(u)

        # augmented samples and x+ are scratch centers: restricted k-means
        # removes almost all of them again, so they stay staged in `cent`
        # (answered for, but outside its neighbor counts and event log) and
        # only the survivors are inserted for real, in staging order, before
        # robustify drains the flips of the committed centers
        a = max(1, math.ceil(sched.augment_per_update * (self.ell + 1)))
        augmented_kmeans(self, a, sched.d2_samples, self.rng)
        for p in x_plus:
            if p not in self.assign.centers:
                self.center_stage(p)

        r = len(self.assign.centers) - self.k
        if r >= 1:
            removed = restricted_kmeans(self, r, self.rng)
            for s in sorted(removed):
                self.center_remove(s)
        self.cent.commit()
        w_prime = set(self.cent.centers)
        assert len(w_prime) <= self.k

        fresh = w_prime - self.S_init
        self._robustify(fresh=fresh, contaminated=contaminated & w_prime)
        self.S_out = set(self.cent.centers)
        self.epoch_live = False

    # ------------------------------------------------------------- robustify

    def _robustify(self, fresh: set, contaminated: set):
        """make_robust every fresh or contaminated center, then drain the
        yellow queue that the center index's flip events fill.

        The queue's _make_robust path is unreachable under the default
        schedule: the largest finite dhat, 3*gamma*2^L, has check level 0
        against robust_div = lam^10, so no held level is below it (no golden
        stream makes a yellow call, the certificate schedule's included).
        The indicator events, type3_chain and the chain checks guard that
        path for schedule overrides that reach it.
        tests/test_params.py::test_no_reachable_dhat_reaches_a_yellow_makerobust
        pins the premise, on which CenterIndex staging leaves staged flips
        out of the event log.
        """
        produced = set()
        for u in sorted(fresh | contaminated):
            if u not in self.cent.centers:
                continue
            kind = "fresh" if u in fresh else "contaminated"
            if not self.active and not self.epoch_live:
                kind = "bootstrap"
            v = self._make_robust(u, kind)
            produced.add(v)
            self.type3_chain[v] = 0
        while True:
            for s, _gamma, _bit in self.cent.drain_events():
                self.yellow.setdefault(s)
            if not self.yellow:
                break
            u = next(iter(self.yellow))
            del self.yellow[u]
            if u not in self.cent.centers:
                continue
            t_check = self._smallest_t(self.cent.dhat(u), self.sched.robust_div)
            old_t = self.level(u, -1)
            if old_t >= t_check:
                continue
            if u in produced:
                self.violations.append(
                    f"robustify touched center {u} twice in one call")
                continue
            chain = self.type3_chain.get(u, 0) + 1
            v = self._make_robust(u, "yellow")
            produced.add(v)
            self.type3_chain[v] = chain
            if self.level(v, -1) <= old_t:
                self.violations.append(
                    f"type-III call did not raise t level at {u}")
            if chain > max(1.0, math.log2(self.params.aspect)):
                self.violations.append(f"type-III chain too long at {v}")

    def _make_robust(self, u, call_type: str) -> tuple:
        sched = self.sched
        t = self._smallest_t(self.cent.dhat(u), sched.makerobust_div)
        x = u
        steps = []
        for j in range(t, 0, -1):
            ans = self.ball1m.query(x, sched.radius(j), witness=self.witness)
            if ans.b <= 0.0:
                keep = True
            else:
                keep = (ans.cost_x / ans.b >= sched.keep_threshold(j)
                        or ans.cost_x / sched.theta <= ans.cost_c_star)
            nxt = x if keep else ans.c_star
            steps.append({
                "j": j, "x": x, "r": sched.radius(j), "b": ans.b,
                "cost_x": ans.cost_x, "cost_c": ans.cost_c_star,
                "c_star": ans.c_star, "witness": ans.witness, "kept": keep,
            })
            x = nxt
        v = x
        if v != u:
            self.center_remove(u)
            if v in self.cent.centers:
                t = max(t, self.level(v, 0))
                self.cent.retag(v, t)
            else:
                self.center_add(v, tag=t)
        else:
            self.cent.retag(u, t)
        rec = MakeRobustRecord(u=u, v=v, t=t, call_type=call_type, steps=steps)
        if self.witness:
            self.certs[v] = rec
        self.makerobust_cum += 1
        if self.on_makerobust is not None:
            self.on_makerobust(self, rec)
        return v

    # --------------------------------------------------------- certificates

    def revalidate_certificates(self):
        """Witness mode: re-check stored robustness certificates against the
        current dataset; returns violation strings."""
        bad = []
        for v, rec in self.certs.items():
            bad.extend(validate_certificate(rec, self.X, self.sched,
                                            self.params.delta,
                                            label=f"center {v}"))
        return bad


def _removal_floors(dc: np.ndarray, w: np.ndarray, near: np.ndarray,
                    base: float) -> np.ndarray:
    """floor(r) at index r - 1, for r = 1 .. |S| - 1: base plus the r
    smallest single-removal increases. `dc` is the centers-major |S| x |X|
    distance matrix (C-contiguous), `near` its column minima; the second
    minimum is read with each point's nearest entry masked."""
    m, n = dc.shape
    nearest = dc.argmin(axis=0)
    second = dc.copy()
    second[nearest, np.arange(n)] = np.inf
    inc = np.bincount(nearest, weights=w * (second.min(axis=0) - near),
                      minlength=m)
    inc.sort()
    return base + np.cumsum(inc[:-1])


def validate_certificate(rec: MakeRobustRecord, X: WeightedSet, sched,
                         delta: int, label="") -> list:
    """Check a recorded robust sequence against the dataset: ball sandwich,
    the keep/move cost conditions, and the drift bound."""
    bad = []
    lam = sched.lam
    theta = sched.theta
    tol = 1e-6
    for step in rec.steps:
        if step["witness"] is None:
            return bad
        j, x = step["j"], step["x"]
        wit = step["witness"]
        inner2 = (lam ** (3 * j)) ** 2
        outer2 = (lam ** (3 * j + 1)) ** 2
        summ = MomentSummary(len(x))
        for key in wit:
            if key not in X.entries:
                bad.append(f"{label} step {j}: witness id {key} not live")
                continue
            p, w = X.entries[key]
            d2v = sum((a - b) ** 2 for a, b in zip(p, x))
            if d2v > outer2 * (1 + tol):
                bad.append(f"{label} step {j}: witness point outside outer ball")
            summ.add(p, w)
        for key, (p, w) in X.entries.items():
            d2v = sum((a - b) ** 2 for a, b in zip(p, x))
            if d2v <= inner2 and key not in wit:
                bad.append(f"{label} step {j}: inner-ball id {key} missing")
        if summ.n == 0:
            continue
        if abs(summ.w - step["b"]) > tol * max(1.0, summ.w):
            bad.append(f"{label} step {j}: weight drifted")
        cost_x = summ.cost_at(x)
        avg = cost_x / summ.w if summ.w > 0 else math.inf
        prev = step["x"] if step["kept"] else step["c_star"]
        cond1 = step["kept"] and avg >= lam ** (6 * j - 4) * (1 - tol)
        cost_prev = summ.cost_at(prev)
        opt1 = summ.cost_at(summ.centroid_rounded(delta))
        cond2 = (avg <= lam ** (6 * j - 2) * (1 + tol)
                 and cost_prev <= min(theta ** 3 * opt1, cost_x) * (1 + tol))
        if not (cond1 or cond2):
            bad.append(f"{label} step {j}: neither robustness case holds")
    if rec.steps:
        drift = dist(rec.u, rec.v)
        if drift > 4 * lam ** (3 * rec.t - 1) * (1 + tol):
            bad.append(f"{label}: drift bound violated")
    return bad
