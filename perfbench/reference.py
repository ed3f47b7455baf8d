"""The benchmark's own quality reference: weighted k-means++ seeding plus
Lloyd iterations, best of several restarts. It shares no code with the
program, so a change to the program's subroutines cannot move it."""

from __future__ import annotations

import numpy as np

RESTARTS = 5
LLOYD_ITERS = 50


def aggregate(points):
    """Distinct points and their total weights from (point, weight) pairs."""
    acc = {}
    for p, w in points:
        acc[p] = acc.get(p, 0.0) + w
    pts = np.array(list(acc), dtype=np.float64)
    return pts, np.fromiter(acc.values(), dtype=np.float64, count=len(acc))


def cost(pts, w, centers) -> float:
    c = np.asarray(list(centers), dtype=np.float64)
    d2 = ((pts[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    return float(np.dot(w, d2))


def _kmeanspp(pts, w, k, rng):
    n = len(pts)
    idx = [rng.choice(n, p=w / w.sum())]
    d2 = ((pts - pts[idx[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        mass = w * d2
        total = mass.sum()
        if total <= 0.0:
            break
        i = rng.choice(n, p=mass / total)
        idx.append(i)
        d2 = np.minimum(d2, ((pts - pts[i]) ** 2).sum(axis=1))
    return pts[idx].copy()


def _lloyd(pts, w, centers):
    for _ in range(LLOYD_ITERS):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        label = d2.argmin(axis=1)
        mass = np.bincount(label, weights=w, minlength=len(centers))
        moved = centers.copy()
        for j in range(pts.shape[1]):
            s = np.bincount(label, weights=w * pts[:, j], minlength=len(centers))
            np.divide(s, mass, out=moved[:, j], where=mass > 0)
        if np.array_equal(moved, centers):
            break
        centers = moved
    return centers


def reference_cost(pts, w, k: int, rng) -> float:
    """Best cost over RESTARTS seedings refined by Lloyd; centers are free
    (not restricted to the grid or the input)."""
    best = np.inf
    for _ in range(RESTARTS):
        centers = _lloyd(pts, w, _kmeanspp(pts, w, k, rng))
        best = min(best, cost(pts, w, centers))
    return best
