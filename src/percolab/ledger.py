"""Exact component statistics for a graph under edge insertions.

A union-find forest tracks components while a ledger maintains the
power sums S_k = sum over components of size^k for k = 1..4, the
largest component size and the isolated-vertex count, updated in
O(alpha(n)) per insertion. All accumulators are Python integers, so
S_4 <= n^4 can never overflow or wrap silently.
"""
from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .errors import InvalidConfigError

__all__ = [
    "DisjointSetForest",
    "MomentLedger",
    "SizeDistribution",
    "ledger_init",
    "delta_k",
    "add_edge",
    "snapshot_distribution",
]


def delta_k(a: int, b: int, k: int) -> int:
    """Increment of S_k when components of sizes a and b merge.

    Expanded forms of (a+b)^k - a^k - b^k, avoiding the large
    intermediate power of a+b.
    """
    if a < 1 or b < 1:
        raise ValueError("component sizes must be >= 1")
    if k == 2:
        return 2 * a * b
    if k == 3:
        return 3 * a * b * (a + b)
    if k == 4:
        return 2 * a * b * (2 * a * a + 3 * a * b + 2 * b * b)
    raise ValueError("moment order must be 2, 3 or 4")


class DisjointSetForest:
    """Union-find with full path compression and union by size."""

    __slots__ = ("parent", "comp_size", "n")

    def __init__(self, n: int):
        if n < 1:
            raise InvalidConfigError("vertex count must be >= 1")
        self.n = n
        self.parent = list(range(n))
        self.comp_size = [1] * n  # valid at roots only

    def find(self, v: int) -> int:
        parent = self.parent
        r = v
        while parent[r] != r:
            r = parent[r]
        while parent[v] != r:
            parent[v], v = r, parent[v]
        return r

    def roots(self) -> Iterable[int]:
        return (v for v in range(self.n) if self.parent[v] == v)


@dataclass
class MomentLedger:
    """Running S_1..S_4, largest component and isolated-vertex count."""

    s_sums: list[int]
    c1_size: int
    n1_isolated: int


def ledger_init(n: int) -> tuple[DisjointSetForest, MomentLedger]:
    """Fresh forest of n singletons with matching ledger."""
    forest = DisjointSetForest(n)
    return forest, MomentLedger(s_sums=[n, n, n, n], c1_size=1, n1_isolated=n)


def add_edge(forest: DisjointSetForest, ledger: MomentLedger, u: int, v: int) -> None:
    """Insert edge {u, v}; loops and duplicate edges are legal no-ops."""
    if not (0 <= u < forest.n and 0 <= v < forest.n):
        raise InvalidConfigError(f"vertex index out of range: ({u}, {v})")
    ru = forest.find(u)
    rv = forest.find(v)
    if ru == rv:
        return
    a = forest.comp_size[ru]
    b = forest.comp_size[rv]
    if a >= b:
        forest.parent[rv] = ru
        forest.comp_size[ru] = a + b
    else:
        forest.parent[ru] = rv
        forest.comp_size[rv] = a + b
    for k in (2, 3, 4):
        ledger.s_sums[k - 1] += delta_k(a, b, k)
    if a + b > ledger.c1_size:
        ledger.c1_size = a + b
    ledger.n1_isolated -= (a == 1) + (b == 1)


@dataclass
class SizeDistribution:
    """Histogram of component sizes, size -> number of components."""

    counts: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "SizeDistribution":
        return cls(dict(sorted(Counter(sizes).items())))

    @property
    def n_vertices(self) -> int:
        return sum(s * c for s, c in self.counts.items())

    @property
    def n_components(self) -> int:
        return sum(self.counts.values())

    def power_sum(self, k: int) -> int:
        """Exact S_k of the histogram."""
        return sum(s**k * c for s, c in self.counts.items())

    def s(self, k: int) -> float:
        return self.power_sum(k) / self.n_vertices

    @property
    def c1(self) -> int:
        return max(self.counts) if self.counts else 0

    @property
    def c2(self) -> int:
        """Second largest component size, 0 when fewer than two components."""
        if not self.counts:
            return 0
        top = max(self.counts)
        if self.counts[top] > 1:
            return top
        rest = [s for s in self.counts if s != top]
        return max(rest) if rest else 0

    @property
    def n1(self) -> int:
        return self.counts.get(1, 0)

    @classmethod
    def from_csv(cls, path: str) -> "SizeDistribution":
        """Load a two-column CSV ``size,count`` with header."""
        try:
            with open(path, newline="") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidConfigError(f"cannot read distribution {path}: {exc}") from exc
        reader = csv.reader(text.splitlines())
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["size", "count"]:
            raise InvalidConfigError(f"{path}: expected header 'size,count'")
        counts: dict[int, int] = {}
        for row in reader:
            if not row or not row[0].strip():
                continue
            try:
                s, c = int(row[0]), int(row[1])
            except (ValueError, IndexError) as exc:
                raise InvalidConfigError(f"{path}: bad row {row!r}") from exc
            # each row is checked before equal sizes are summed, so a negative
            # count cannot cancel part of another row's
            if s < 1 or c < 1:
                raise InvalidConfigError(f"{path}: bad row {row!r}: sizes and counts must be >= 1")
            counts[s] = counts.get(s, 0) + c
        dist = cls(dict(sorted(counts.items())))
        if not dist.counts:
            raise InvalidConfigError(f"{path}: empty distribution")
        try:
            dist.s(4)  # s2 and s3 are no larger
        except OverflowError as exc:
            raise InvalidConfigError(f"{path}: s4 = S4/S1 is not a finite float") from exc
        return dist


def snapshot_distribution(forest: DisjointSetForest) -> SizeDistribution:
    """O(n) scan producing the exact component-size histogram."""
    return SizeDistribution.from_sizes(forest.comp_size[r] for r in forest.roots())
