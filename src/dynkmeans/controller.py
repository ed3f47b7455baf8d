"""Epoch-based dynamic k-means controller.

Per epoch: estimate how many centers are removable at small cost, shrink
the output by that many, absorb the next ell + 1 updates lazily, then
augment with distance-squared samples, re-select k centers, and re-certify
robustness. Center-side structures are batch-updated at epoch boundaries;
the output solution is tracked separately in between.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

from .assignment import AssignmentStructure
from .errors import UsageError
from .geometry import WeightedSet, dist
from .params import Params, schedule_for
from .range_query import BallOneMeans, CenterIndex, MomentSummary
from .rng import make_rng
from .subroutines import (ClusterContext, augmented_kmeans, restricted_kmeans,
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
    chain_len: int
    steps: list = field(default_factory=list)


class DynamicKMeans(ClusterContext):
    """The epoch controller over its own center structures; center_add and
    center_remove also keep the center set, the robustness levels and
    certificates, and the yellow queue in step."""

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

        self.struct_centers: set = set()
        self.S_out: set = set()
        self.t_of: dict = {}
        self.certs: dict = {}
        self.type3_chain: dict = {}
        self.yellow: deque = deque()
        self.yellow_set: set = set()

        self.active = False            # epochs running
        self.epoch_live = False        # inside an epoch
        self.ell = 0
        self.ell_hat = 0
        self.epoch_updates = 0
        self.S_init: frozenset = frozenset()
        self.start_counts: dict = {}   # touched coord -> count at epoch start
        self.plus_order: list = []     # touched coords in first-touch order

        self.recourse_cum = 0
        self.makerobust_cum = 0
        self.time_points_ns = 0        # dataset-side structure maintenance
        self.time_epoch_ns = 0         # epoch start/end pipelines
        self.violations: list = []     # instrumented assertion failures
        self.on_makerobust = None      # callback(MakeRobustRecord)
        self.force_solution = None     # test hook: overrides solution()

    # ------------------------------------------------------------------ util

    @property
    def nocolor_events(self):
        return (self.assign.nocolor_events + self.ball1m.nocolor_events
                + self.cent.nocolor_events)

    def solution(self) -> frozenset:
        if self.force_solution is not None:
            return frozenset(self.force_solution)
        return frozenset(self.S_out)

    def solution_cost(self) -> float:
        if not self.X.entries:
            return 0.0
        if not self.S_out:
            return math.inf
        return self.X.cost(self.S_out)

    def _pump_yellow(self):
        for s, _gamma, _bit in self.cent.drain_events():
            if s not in self.yellow_set:
                self.yellow_set.add(s)
                self.yellow.append(s)

    def center_add(self, s, tag=None):
        s = tuple(s)
        super().center_add(s, tag)
        self.struct_centers.add(s)
        self._pump_yellow()

    def center_remove(self, s):
        s = tuple(s)
        super().center_remove(s)
        self.struct_centers.discard(s)
        self.t_of.pop(s, None)
        self.certs.pop(s, None)
        self.type3_chain.pop(s, None)
        self._pump_yellow()

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
            if not (math.isfinite(weight) and weight >= 0):
                raise UsageError(f"weight must be finite and >= 0, got {weight!r}")
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
        self.recourse_cum += report.recourse
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
            if s not in self.struct_centers:
                self.center_add(s)
        self._robustify(fresh=set(self.struct_centers), contaminated=set())
        self.S_out = set(self.struct_centers)
        self.active = True
        self.epoch_live = False

    def _deactivate(self):
        for s in sorted(self.struct_centers):
            self.center_remove(s)
        self.yellow.clear()
        self.yellow_set.clear()
        self.S_out = set(self.X.distinct_points())
        self.active = False
        self.epoch_live = False

    # ------------------------------------------------------------- the epoch

    def _start_epoch(self):
        self.S_init = frozenset(self.struct_centers)
        self.ell_hat, self.ell = self._estimate_ell()
        if self.ell >= 1:
            removed = restricted_kmeans(self, self.ell, self.rng)
            self.S_out -= removed
        self.epoch_updates = 0
        self.start_counts = {}
        self.plus_order = []
        self.epoch_live = True

    def _estimate_ell(self):
        s_init = self.S_init
        base = self.X.cost(s_init) if s_init else 0.0
        stop = self.sched.ell_stop_factor
        limit = min(self.k, len(s_init)) - 1
        prev = 0
        i = 0
        while True:
            s_i = 1 << i
            if s_i > limit:
                break
            removed = restricted_kmeans(self, s_i, self.rng)
            cost_i = self.X.cost(s_init - removed)
            if cost_i > stop * base:
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
        # robustness level per touched point
        contaminated = set()
        for x in touched:
            for i in range(0, sched.t_cap + 1):
                radius = sched.contamination_radius(i)
                u = self.cent.ann_query(x, tag=i, max_dist=radius,
                                        allow_equal=True)
                if u is not None and dist(x, u) <= radius:
                    contaminated.add(u)

        a = max(1, math.ceil(sched.augment_per_update * (self.ell + 1)))
        augmented_kmeans(self, a, sched.d2_samples, self.rng)
        for p in x_plus:
            if p not in self.struct_centers:
                self.center_add(p, tag=None)

        t_prime = set(self.struct_centers)
        r = len(t_prime) - self.k
        if r >= 1:
            removed = restricted_kmeans(self, r, self.rng)
            for s in sorted(removed):
                self.center_remove(s)
        w_prime = set(self.struct_centers)
        assert len(w_prime) <= self.k

        fresh = w_prime - self.S_init
        self._robustify(fresh=fresh, contaminated=contaminated & w_prime)
        self.S_out = set(self.struct_centers)
        self.epoch_live = False

    # ------------------------------------------------------------- robustify

    def _robustify(self, fresh: set, contaminated: set):
        produced = set()
        for u in sorted(fresh | contaminated):
            if u not in self.struct_centers:
                continue
            kind = "fresh" if u in fresh else "contaminated"
            if not self.active and not self.epoch_live:
                kind = "bootstrap"
            v = self._make_robust(u, kind)
            produced.add(v)
            self.type3_chain[v] = 0
        while self.yellow:
            u = self.yellow.popleft()
            self.yellow_set.discard(u)
            if u not in self.struct_centers:
                continue
            t_check = self._smallest_t(self.cent.dhat(u), self.sched.robust_div)
            if self.t_of.get(u, -1) >= t_check:
                continue
            if u in produced:
                self.violations.append(
                    f"robustify touched center {u} twice in one call")
                continue
            old_t = self.t_of.get(u, -1)
            chain = self.type3_chain.get(u, 0) + 1
            v = self._make_robust(u, "yellow")
            produced.add(v)
            self.type3_chain[v] = chain
            if self.t_of[v] <= old_t:
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
            if v in self.struct_centers:
                t = max(t, self.t_of.get(v, 0))
                self.cent.retag(v, t)
            else:
                self.center_add(v, tag=t)
        else:
            self.cent.retag(u, t)
        self.t_of[v] = t
        rec = MakeRobustRecord(u=u, v=v, t=t, call_type=call_type,
                               chain_len=self.type3_chain.get(u, 0),
                               steps=steps)
        if self.witness:
            self.certs[v] = rec
        self.makerobust_cum += 1
        if self.on_makerobust is not None:
            self.on_makerobust(self, rec)
        self._pump_yellow()
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
