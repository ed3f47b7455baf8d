"""Workload generation and the line-oriented stream format.

Format: header `H d=<d> delta=<delta> n=<n> k=<k>`, then one record per
line: `I <id> <w> <c1> ... <cd>` or `D <id>`. Lines starting with `#` are
comments. Serialization round-trips byte-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import UsageError
from .rng import make_rng

MODES = ("uniform", "clustered", "sliding-window", "adversarial-churn")


@dataclass
class UpdateStream:
    d: int
    delta: int
    n: int
    k_hint: int
    records: list = field(default_factory=list)  # ("I", id, w, point) / ("D", id)

    def serialize(self) -> str:
        lines = [f"H d={self.d} delta={self.delta} n={self.n} k={self.k_hint}"]
        for rec in self.records:
            if rec[0] == "I":
                _, key, w, point = rec
                lines.append(f"I {key} {w!r} " + " ".join(str(c) for c in point))
            else:
                lines.append(f"D {rec[1]}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "UpdateStream":
        """Parse the stream format; any malformed line is a UsageError."""
        header = None
        records = []
        live = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kind = parts[0]
            if kind not in ("H", "I", "D"):
                raise UsageError(f"line {lineno}: unknown record {kind!r}")
            if kind != "H" and header is None:
                raise UsageError(f"line {lineno}: record before header")
            if kind == "H" and header is not None:
                raise UsageError(f"line {lineno}: second header")
            if kind == "D" and len(parts) != 2:
                raise UsageError(f"line {lineno}: malformed 'D' record: "
                                 f"{line!r}")
            try:
                if kind == "H":
                    kv = dict(p.split("=", 1) for p in parts[1:])
                    header = UpdateStream(d=int(kv["d"]), delta=int(kv["delta"]),
                                          n=int(kv["n"]), k_hint=int(kv["k"]))
                    continue
                key = int(parts[1])
                if kind == "I":
                    w = float(parts[2])
                    point = tuple(int(c) for c in parts[3:])
            except (KeyError, IndexError, ValueError):
                raise UsageError(f"line {lineno}: malformed {kind!r} record: "
                                 f"{line!r}") from None
            if kind == "I":
                if not (math.isfinite(w) and w >= 0):
                    raise UsageError(f"line {lineno}: weight must be finite "
                                     f"and >= 0")
                if len(point) != header.d:
                    raise UsageError(f"line {lineno}: bad dimension")
                if any(c < 1 or c > header.delta for c in point):
                    raise UsageError(f"line {lineno}: coordinate out of range")
                if key in live:
                    raise UsageError(f"line {lineno}: duplicate live id {key}")
                live.add(key)
                records.append(("I", key, w, point))
            else:
                if key not in live:
                    raise UsageError(f"line {lineno}: delete of dead id {key}")
                live.discard(key)
                records.append(("D", key))
        if header is None:
            raise UsageError("missing header")
        header.records = records
        return header

    def ops(self):
        """Yield (op, key, point, weight) tuples for the harness."""
        for rec in self.records:
            if rec[0] == "I":
                yield ("insert", rec[1], rec[3], rec[2])
            else:
                yield ("delete", rec[1], None, None)


def _clamp(v: float, delta: int) -> int:
    return min(max(int(round(v)), 1), delta)


def gen_workload(mode: str, n: int, d: int, delta: int, k: int,
                 ins_frac: float = 0.7, seed: int = 0,
                 window: int | None = None) -> UpdateStream:
    """Deterministic stream given the seed; see MODES."""
    if mode not in MODES:
        raise UsageError(f"unknown mode {mode!r}")
    if n < 0 or d < 1 or delta < 2 or k < 1 or not (0.0 <= ins_frac <= 1.0):
        raise UsageError("infeasible workload spec")
    if window is not None and mode != "sliding-window":
        raise UsageError(f"window applies to sliding-window, not {mode!r}")
    if window is not None and window < 1:
        raise UsageError(f"window must be >= 1, got {window}")
    rng = make_rng(seed, "workload", mode, n, d, delta, k)
    stream = UpdateStream(d=d, delta=delta, n=n, k_hint=k)
    records = stream.records
    live = []
    next_id = 0
    sigma = max(1.0, delta / 64.0)
    centers = [tuple(rng.randint(1, delta) for _ in range(d)) for _ in range(k)]

    def uniform_point():
        return tuple(rng.randint(1, delta) for _ in range(d))

    def cluster_point():
        c = centers[rng.randrange(k)]
        return tuple(_clamp(rng.gauss(cj, sigma), delta) for cj in c)

    def insert(point):
        nonlocal next_id
        records.append(("I", next_id, 1.0, point))
        live.append(next_id)
        next_id += 1

    def delete_at(idx):
        key = live.pop(idx)
        records.append(("D", key))

    if mode == "sliding-window":
        w = window if window is not None else max(2 * k, n // 4)
        while len(records) < n:
            insert(cluster_point())
            if len(live) > w and len(records) < n:
                delete_at(0)
        return stream

    if mode == "adversarial-churn":
        # persistent clustered base, then waves of a tight cluster inserted
        # and deleted right next to existing centers (contamination stress)
        base = min(n // 3, max(4 * k, 40))
        for _ in range(base):
            insert(cluster_point())
        while len(records) < n:
            wave = min(max(4, k), n - len(records))
            c = centers[rng.randrange(k)]
            batch = []
            for _ in range(wave):
                if len(records) >= n:
                    break
                p = tuple(_clamp(cj + rng.gauss(0, 1.0), delta) for cj in c)
                batch.append(next_id)
                insert(p)
            for key in batch:
                if len(records) >= n:
                    break
                live.remove(key)
                records.append(("D", key))
        return stream

    point_of = uniform_point if mode == "uniform" else cluster_point
    while len(records) < n:
        if not live or rng.random() < ins_frac:
            insert(point_of())
        else:
            delete_at(rng.randrange(len(live)))
    return stream
