"""Span tracer for the traced run.

It wraps the public entry points of each layer from outside the package, at
the name each caller looks them up by, so no file of the program changes.
Open spans sit on an in-memory stack; when a span closes, its duration is
added to its parent's child time, and its self time is its duration minus
the time of its child spans. Totals stay in memory until the run ends.
Spans are recorded only while `armed`, which the benchmark sets around each
timed update, so its own checks never show up.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from statistics import median

_now = time.perf_counter_ns

# span name -> public entry points it covers, as (module, owner, attribute)
SPANS = {
    "hashing.eval": [("hashing", "ConsistentHash", "eval")],
    "hashing.ball_buckets": [("hashing", "ConsistentHash", "ball_buckets")],
    "hashing.ball_cells": [("hashing", "WeakHash", "ball_cells")],
    "range_query.points": [("range_query", "BallOneMeans", "insert"),
                           ("range_query", "BallOneMeans", "delete")],
    "range_query.ball_query": [("range_query", "BallOneMeans", "query")],
    # CenterIndex updates split by instance: nbr tracks distances, cent not
    "range_query.center_update": [("range_query", "CenterIndex", "insert"),
                                  ("range_query", "CenterIndex", "delete")],
    "range_query.ann_query": [("range_query", "CenterIndex", "ann_query")],
    "assignment.point_update": [("assignment", "AssignmentStructure", "point_insert"),
                                ("assignment", "AssignmentStructure", "point_delete")],
    "assignment.center_update": [("assignment", "AssignmentStructure", "center_insert"),
                                 ("assignment", "AssignmentStructure", "center_delete")],
    "assignment.d2_sample": [("assignment", "AssignmentStructure", "d2_sample")],
    "assignment.ordering": [("assignment", "AssignmentStructure", "ordering")],
    # the controller binds the subroutines at import; restricted_kmeans looks
    # static_weighted_kmeans up in its own module
    "subroutines.static": [("controller", None, "static_weighted_kmeans"),
                           ("subroutines", None, "static_weighted_kmeans")],
    "subroutines.restricted": [("controller", None, "restricted_kmeans")],
    "subroutines.augmented": [("controller", None, "augmented_kmeans")],
    "geometry.cost": [("geometry", "WeightedSet", "cost")],
    "controller.update": [("controller", "DynamicKMeans", "update")],
    "sparsifier.update": [("sparsifier", "SparsifiedRunner", "update")],
    "sparsifier.sketch": [("sparsifier", "MergeReduceSparsifier", "insert"),
                          ("sparsifier", "MergeReduceSparsifier", "delete")],
    "sparsifier.estimate": [("sparsifier", "SparsifiedRunner", "estimate")],
}

class Tracer:
    def __init__(self):
        self.armed = False
        self.stack = []                       # open spans: [child_ns, memo_miss]
        self.stats = defaultdict(lambda: [0, 0, 0])   # name -> calls, ns, self_ns
        self.count = defaultdict(int)
        self.ctrl = []                        # (ns, boundary, epoch_len, makerobust)
        self.root_ns = 0
        self._undo = []

    def call(self, name, fn, args, kwargs):
        """Run fn as span `name`; returns (result, span duration in ns)."""
        frame = [0, False]
        stack = self.stack
        stack.append(frame)
        t0 = _now()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = _now() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            else:
                self.root_ns += dt
            st = self.stats[name]
            st[0] += 1
            st[1] += dt
            st[2] += dt - frame[0]
            if frame[1]:
                self.count[name + ".miss"] += 1
        return out, dt

    # -- installing the wrappers ---------------------------------------------

    def install(self, dk):
        """Wrap every entry point in SPANS; `dk` is the dynkmeans package."""
        over_cap = dk.OVER_CAP
        for name, sites in SPANS.items():
            for mod_name, owner_name, attr in sites:
                mod = importlib.import_module(f"{dk.__name__}.{mod_name}")
                owner = mod if owner_name is None else getattr(mod, owner_name)
                fn = owner.__dict__[attr]
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, self._wrapper(name, fn, over_cap))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo = []

    def _wrapper(self, name, fn, over_cap):
        tr = self
        if name == "hashing.ball_cells":
            def wrapped(*a, **kw):
                if not tr.armed:
                    return fn(*a, **kw)
                if tr.stack:
                    tr.stack[-1][1] = True    # the memo of the caller missed
                out, _ = tr.call(name, fn, a, kw)
                if out is over_cap:
                    tr.count["ball_cells.over_cap"] += 1
                else:
                    tr.count["ball_cells.cells"] += len(out)
                return out
        elif name == "range_query.center_update":
            def wrapped(index, *a, **kw):
                if not tr.armed:
                    return fn(index, *a, **kw)
                which = "nbr" if index.track_dist else "cent"
                return tr.call(f"range_query.{which}_update", fn,
                               (index,) + a, kw)[0]
        elif name == "subroutines.augmented":
            def wrapped(*a, **kw):
                if not tr.armed:
                    return fn(*a, **kw)
                out, _ = tr.call(name, fn, a, kw)
                tr.count["augmented.centers_added"] += len(out)
                return out
        elif name == "sparsifier.sketch":
            def wrapped(*a, **kw):
                if not tr.armed:
                    return fn(*a, **kw)
                out, _ = tr.call(name, fn, a, kw)
                tr.count["sparsifier.deltas"] += len(out)
                return out
        elif name == "sparsifier.update":
            def wrapped(*a, **kw):
                if not tr.armed:
                    return fn(*a, **kw)
                out, _ = tr.call(name, fn, a, kw)
                tr.count["sparsifier.resets"] += out
                return out
        elif name == "controller.update":
            def wrapped(*a, **kw):
                if not tr.armed:
                    return fn(*a, **kw)
                rep, dt = tr.call(name, fn, a, kw)
                tr.ctrl.append((dt, rep.epoch_boundary, rep.epoch_len,
                                rep.makerobust_calls))
                return rep
        else:
            def wrapped(*a, **kw):
                if not tr.armed:
                    return fn(*a, **kw)
                return tr.call(name, fn, a, kw)[0]
        wrapped.__wrapped__ = fn
        return wrapped

    # -- per-layer metrics -----------------------------------------------------

    def metrics(self, recourse_per_update: float, u_size_max: int,
                untraced_ns: int, traced_ns: int) -> dict:
        """Per-layer metrics as name -> (value, unit). untraced_ns and
        traced_ns are the summed update times of the same updates run
        without and with the wrappers."""
        st, cnt = self.stats, self.count
        out = {}

        def calls_s(metric, *spans):
            out[metric + ".calls"] = (sum(st[s][0] for s in spans), "count")
            out[metric + ".s"] = (sum(st[s][1] for s in spans) / 1e9, "s")

        def hit_ratio(span):
            calls = st[span][0]
            return (1.0 - cnt[span + ".miss"] / calls) if calls else 0.0

        def self_s(layer):
            return sum(v[2] for k, v in st.items()
                       if k.split(".", 1)[0] == layer) / 1e9

        for s in ("eval", "ball_buckets"):
            calls_s(f"hashing.{s}", f"hashing.{s}")
            out[f"hashing.{s}.hit_ratio"] = (hit_ratio(f"hashing.{s}"), "ratio")
        calls_s("hashing.ball_cells", "hashing.ball_cells")
        bc = st["hashing.ball_cells"][0]
        over = cnt["ball_cells.over_cap"]
        out["hashing.ball_cells.cells_mean"] = (
            cnt["ball_cells.cells"] / (bc - over) if bc > over else 0.0, "cells")
        out["hashing.ball_cells.over_cap_ratio"] = (over / bc if bc else 0.0,
                                                    "ratio")
        out["hashing.self_s"] = (self_s("hashing"), "s")

        for s in ("points", "ball_query", "nbr_update", "cent_update",
                  "ann_query"):
            calls_s(f"range_query.{s}", f"range_query.{s}")
        out["range_query.self_s"] = (self_s("range_query"), "s")

        for s in ("point_update", "center_update", "d2_sample", "ordering"):
            calls_s(f"assignment.{s}", f"assignment.{s}")
        out["assignment.self_s"] = (self_s("assignment"), "s")

        for s in ("static", "restricted", "augmented"):
            calls_s(f"subroutines.{s}", f"subroutines.{s}")
        out["subroutines.augmented.centers_added"] = (
            cnt["augmented.centers_added"], "count")
        out["subroutines.self_s"] = (self_s("subroutines"), "s")

        calls_s("geometry.cost", "geometry.cost")

        ctrl = self.ctrl
        n_ctrl = len(ctrl)
        bounds = [c for c in ctrl if c[1]]
        lazy = [c[0] for c in ctrl if not c[1]]
        out["controller.self_s"] = (st["controller.update"][2] / 1e9, "s")
        out["controller.recourse_per_update"] = (recourse_per_update, "centers")
        out["controller.epochs"] = (len(bounds), "count")
        out["controller.epoch_len_mean"] = (
            sum(c[2] for c in bounds) / len(bounds) if bounds else 0.0, "updates")
        out["controller.makerobust_per_update"] = (
            sum(c[3] for c in ctrl) / n_ctrl if n_ctrl else 0.0, "calls/update")
        out["controller.boundary_update_p50_us"] = (
            median([c[0] for c in bounds]) / 1e3 if bounds else 0.0, "us")
        out["controller.lazy_update_p50_us"] = (
            median(lazy) / 1e3 if lazy else 0.0, "us")

        runner_calls = st["sparsifier.update"][0]
        out["sparsifier.self_s"] = (st["sparsifier.update"][2] / 1e9, "s")
        out["sparsifier.sketch.s"] = (st["sparsifier.sketch"][1] / 1e9, "s")
        out["sparsifier.deltas"] = (cnt["sparsifier.deltas"], "count")
        out["sparsifier.fanout"] = (
            n_ctrl / runner_calls if runner_calls else 1.0, "ratio")
        out["sparsifier.estimate.s"] = (st["sparsifier.estimate"][1] / 1e9, "s")
        out["sparsifier.resets"] = (cnt["sparsifier.resets"], "count")
        out["sparsifier.u_size_max"] = (u_size_max, "points")

        total = self.root_ns
        out["trace.coverage"] = (
            1.0 - st["controller.update"][2] / total if total else 0.0, "ratio")
        out["trace.overhead_ratio"] = (untraced_ns / traced_ns, "ratio")
        return out
