"""Hop and message accounting.

The paper's entire evaluation is expressed in two currencies: *hops*
(sequential overlay forwards on a query's critical path) and *messages*
(total transmissions, including off-path fetches and replies where the
paper counts them).  :class:`MetricSink` is the single place both are
tallied; every layer that moves a message charges it here.

``QueryTrace`` records one query's journey for the per-query metrics
(Figures 7, 9, 10a) and :class:`HopHistogram` aggregates them into the
distributions the figures plot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = ["MetricSink", "QueryTrace", "HopHistogram", "percentile_summary"]


class MetricSink:
    """Accumulates message counts by category.

    Categories are free-form strings (``"route"``, ``"publish"``,
    ``"displace"``, ``"reply"``, ``"flood"`` ...).  ``total`` sums them
    all.  The sink can be snapshotted and diffed, which is how per-query
    message costs are extracted from a shared network.
    """

    def __init__(self) -> None:
        self._by_kind: Counter[str] = Counter()

    def charge(self, kind: str, n: int = 1) -> None:
        """Record ``n`` messages of the given category."""
        if n < 0:
            raise ValueError(f"cannot charge negative messages: {n}")
        self._by_kind[kind] += n

    def count(self, kind: str) -> int:
        """Messages recorded under one category."""
        return self._by_kind[kind]

    @property
    def total(self) -> int:
        """Total messages across all categories."""
        return sum(self._by_kind.values())

    def snapshot(self) -> dict[str, int]:
        """A copy of the per-category counts."""
        return dict(self._by_kind)

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Per-category delta against an earlier :meth:`snapshot`."""
        out: dict[str, int] = {}
        for kind, val in self._by_kind.items():
            d = val - before.get(kind, 0)
            if d:
                out[kind] = d
        return out

    def reset(self) -> None:
        self._by_kind.clear()

    def merge(self, other: "MetricSink") -> None:
        """Fold another sink's counts into this one."""
        self._by_kind.update(other._by_kind)


@dataclass
class QueryTrace:
    """Record of one query's execution.

    ``path`` holds node IDs in visit order (the routing path plus any
    neighbor walk).  ``messages`` is the total message charge attributed
    to the query; ``found`` the number of matching items returned.
    """

    origin: int
    target_key: int
    path: list[int] = field(default_factory=list)
    messages: int = 0
    found: int = 0
    succeeded: bool = True

    @property
    def hops(self) -> int:
        """Number of forwards — path length minus the origin."""
        return max(0, len(self.path) - 1)

    def visit(self, node_id: int) -> None:
        self.path.append(node_id)


class HopHistogram:
    """Histogram of per-query hop counts with the summary stats the paper quotes."""

    def __init__(self) -> None:
        self._counts: Counter[int] = Counter()
        self._n = 0

    def add(self, hops: int) -> None:
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        self._counts[hops] += 1
        self._n += 1

    def extend(self, hop_values: Iterable[int]) -> None:
        for h in hop_values:
            self.add(h)

    def __len__(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ValueError("empty histogram")
        return sum(h * c for h, c in self._counts.items()) / self._n

    @property
    def max(self) -> int:
        if self._n == 0:
            raise ValueError("empty histogram")
        return max(self._counts)

    def quantile(self, q: float) -> int:
        """Smallest hop count h such that P(hops <= h) >= q."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0,1], got {q}")
        if self._n == 0:
            raise ValueError("empty histogram")
        need = q * self._n
        acc = 0
        for h in sorted(self._counts):
            acc += self._counts[h]
            if acc >= need:
                return h
        return max(self._counts)

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """(hops, cumulative fraction) arrays — the Fig. 7/9 y-axis."""
        if self._n == 0:
            return np.array([], dtype=np.int64), np.array([], dtype=float)
        hs = np.array(sorted(self._counts), dtype=np.int64)
        cs = np.cumsum([self._counts[int(h)] for h in hs]) / self._n
        return hs, cs

    def as_dict(self) -> dict[int, int]:
        return dict(self._counts)


def percentile_summary(values: Iterable[float]) -> dict[str, float]:
    """Mean / p50 / p95 / p99 / max of a sample, as a plain dict of floats."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample")
    return {
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }
