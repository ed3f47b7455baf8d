"""Workload specs and the benchmark's own seeded input generator.

The inputs never come from `dynkmeans.workload`: a change to the program
cannot move them. A workload is a stream of unit-weight grid points drawn
from Gaussian clusters. After a fill of `live` inserts, every step inserts
`step_inserts` fresh draws and then deletes the oldest live point: with one
insert the live set is a sliding window of fixed size, with two it grows by
one point per step. Deleting the oldest point makes the order of updates,
and so the merge-and-reduce schedule of the sparsifier, the same for every
seed; only the points differ.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str              # "direct": DynamicKMeans; "sparse": SparsifiedRunner
    d: int
    delta: int
    k: int
    clusters: int
    sigma: float
    separation: float      # least distance between cluster means, in sigmas
    live: int              # live points after the fill
    step_inserts: int      # inserts per step, before its one delete
    round_steps: int       # steps per round; a run measures whole rounds
    checkpoint_steps: int  # steps between quality checkpoints
    tail_pct: int          # percentile reported as update_tail_us
    verifiers: int = 0     # sparse mode only
    why: str = ""


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "window-k20", "direct", d=2, delta=256, k=20, clusters=20,
            sigma=6.0, separation=3.0, live=500, step_inserts=1,
            round_steps=25, checkpoint_steps=100, tail_pct=99,
            why="sliding window, k=20: the only workload with lazy epochs; "
                "subroutines and center-index churn dominate"),
        Workload(
            # 40 steps insert one merge-and-reduce block of 80 points
            # (n_hint = live), so every round freezes the buffer exactly once
            "sparse-k5", "sparse", d=2, delta=256, k=5, clusters=5,
            sigma=4.0, separation=8.0, live=256, step_inserts=2,
            round_steps=40, checkpoint_steps=10, tail_pct=90, verifiers=3,
            why="sparsified runner, k=5, 3 verifiers: fractional weights "
                "in merge-and-reduce bursts; the only sparsifier workload"),
        Workload(
            "highdim-d8", "direct", d=8, delta=1024, k=5, clusters=5,
            sigma=16.0, separation=8.0, live=16, step_inserts=2,
            round_steps=1, checkpoint_steps=1, tail_pct=75,
            why="d=8, delta=1024: fresh points miss the hash memo, so "
                "bucket enumeration (ball_cells) dominates"),
    )
}


def smoke(w: Workload) -> Workload:
    """A size of `w` that runs every check within seconds."""
    live = {"direct": max(w.k + 3, min(w.live, 40)), "sparse": 60}[w.mode]
    return replace(w, live=live, round_steps=min(w.round_steps, 5),
                   checkpoint_steps=min(w.checkpoint_steps, 5))


def _clamp(v: float, delta: int) -> int:
    return min(max(int(round(v)), 1), delta)


class Stream:
    """Seeded update stream; the same seed gives the same updates."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        # the layout is part of the workload; the seed draws the points
        self.centers = self._layout(random.Random(f"perfbench/{w.name}"))
        self.rng = random.Random(f"perfbench/{w.name}/{seed}")
        self.next_key = 0
        self.order = deque()      # live keys, oldest first

    def _layout(self, rng):
        # Cluster means sit in the middle 80% of the grid, apart by at least
        # `separation` sigmas.
        w = self.w
        lo, hi = 0.1 * w.delta, 0.9 * w.delta
        sep2 = (w.separation * w.sigma) ** 2
        centers = []
        for _ in range(100_000):
            if len(centers) == w.clusters:
                return centers
            c = tuple(rng.uniform(lo, hi) for _ in range(w.d))
            if all(sum((a - b) ** 2 for a, b in zip(c, o)) >= sep2
                   for o in centers):
                centers.append(c)
        raise ValueError(f"{w.name}: clusters do not fit the grid")

    def _draw(self):
        rng, w = self.rng, self.w
        c = self.centers[rng.randrange(len(self.centers))]
        return tuple(_clamp(rng.gauss(cj, w.sigma), w.delta) for cj in c)

    def _insert(self):
        key = self.next_key
        self.next_key += 1
        self.order.append(key)
        return ("insert", key, self._draw(), 1.0)

    def _delete(self):
        return ("delete", self.order.popleft(), None, 1.0)

    def fill(self):
        return [self._insert() for _ in range(self.w.live)]

    def step(self):
        return [self._insert() for _ in range(self.w.step_inserts)] + [
            self._delete()]


def make_target(dk, w: Workload, seed: int):
    """The controller or runner a workload drives; `dk` is the imported
    dynkmeans package."""
    params = dk.Params(epsilon=0.5, d=w.d, delta=w.delta, seed=seed)
    if w.mode == "sparse":
        return dk.SparsifiedRunner(params, w.k, n_hint=w.live,
                                   verifiers=w.verifiers, alpha=25.0)
    return dk.DynamicKMeans(params, w.k)


def u_size_bound(w: Workload, c_u: int, block: int) -> float:
    """Criterion 16's bound on |U| for a runner built with n_hint = live."""
    return c_u * w.k * math.log2(max(w.live, 4)) ** 2 + 2 * block
