"""The per-keyword sub-overlay baseline (§1).

The strawman the paper dismantles in its introduction: build one
structured sub-overlay per keyword; a multi-keyword search queries each
keyword's sub-overlay, pulls *all* items matching that keyword to the
inquirer, and intersects locally.  Its costs, which this module
measures so the comparison is empirical:

* **transfer waste** — items matching one keyword but not the full
  conjunction still cross the network;
* **duplication** — an item with k keywords is stored k times;
* **maintenance** — a node participating in k sub-overlays pays k× the
  overlay upkeep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..overlay.idspace import KeySpace, SortedKeyRing
from ..sim.metrics import MetricSink

__all__ = ["SubOverlayDirectory", "SubOverlayQueryResult"]


@dataclass
class SubOverlayQueryResult:
    keyword_ids: tuple[int, ...]
    #: Items matching the full conjunction.
    matches: list[int]
    #: Total items shipped to the inquirer across all sub-overlays.
    items_transferred: int
    #: Routing messages (O(log N_k) per consulted sub-overlay).
    route_messages: int

    @property
    def messages(self) -> int:
        return self.route_messages + self.items_transferred

    @property
    def transfer_waste(self) -> int:
        """Shipped items that did not match the conjunction."""
        return self.items_transferred - len(self.matches)


class SubOverlayDirectory:
    """A family of per-keyword rings sharing one physical node set.

    Each keyword's sub-overlay is modelled as the subset of nodes that
    host at least one item with that keyword, arranged on a ring; a
    query routes into it in ``ceil(log2 |ring|)`` hops (the structured
    O(log N) cost) and then ships every matching item home.
    """

    def __init__(
        self,
        n_nodes: int,
        space: KeySpace,
        *,
        rng: np.random.Generator,
        sink: Optional[MetricSink] = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"need >= 1 node, got {n_nodes}")
        self.n_nodes = n_nodes
        self.space = space
        self.sink = sink if sink is not None else MetricSink()
        self.node_ids = np.sort(space.random_keys(rng, n_nodes))
        # keyword -> node ring (lazy) and keyword -> item ids
        self._rings: dict[int, SortedKeyRing] = {}
        self._members: dict[int, set[int]] = {}
        self._by_keyword: dict[int, set[int]] = {}
        self._item_keywords: dict[int, np.ndarray] = {}

    # -- publishing ------------------------------------------------------------

    def publish(self, item_id: int, keyword_ids: Sequence[int], rng: np.random.Generator) -> int:
        """Publish an item into every keyword's sub-overlay.

        Returns the number of stored copies (= keyword count): the §1
        duplication cost.  Each copy is hosted by the sub-overlay node
        closest to the item's hash within that ring.
        """
        kws = np.asarray(sorted(set(int(k) for k in keyword_ids)), dtype=np.int64)
        if kws.size == 0:
            raise ValueError("item needs at least one keyword")
        self._item_keywords[item_id] = kws
        for k in kws:
            k = int(k)
            self._by_keyword.setdefault(k, set()).add(item_id)
            member = int(self.node_ids[int(rng.integers(0, self.n_nodes))])
            ring = self._rings.get(k)
            if ring is None:
                ring = SortedKeyRing(self.space)
                self._rings[k] = ring
                self._members[k] = set()
            if member not in self._members[k]:
                ring.add(member)
                self._members[k].add(member)
        return int(kws.size)

    # -- costs -------------------------------------------------------------------

    def copies_stored(self) -> int:
        """Total stored copies across all sub-overlays (duplication)."""
        return sum(len(s) for s in self._by_keyword.values())

    def maintenance_load(self) -> dict[int, int]:
        """node id → number of sub-overlays it must maintain state for."""
        load: dict[int, int] = {}
        for members in self._members.values():
            for m in members:
                load[m] = load.get(m, 0) + 1
        return load

    def sub_overlay_count(self) -> int:
        return len(self._rings)

    # -- search ----------------------------------------------------------------------

    def query(self, keyword_ids: Sequence[int]) -> SubOverlayQueryResult:
        """Multi-keyword conjunction via per-keyword retrieval + local filter."""
        kws = tuple(sorted(set(int(k) for k in keyword_ids)))
        if not kws:
            raise ValueError("query needs at least one keyword")
        route_msgs = 0
        transferred = 0
        partials: list[set[int]] = []
        for k in kws:
            items = self._by_keyword.get(k, set())
            ring = self._rings.get(k)
            ring_size = len(ring) if ring is not None else 0
            hops = max(1, int(np.ceil(np.log2(ring_size)))) if ring_size > 1 else (1 if ring_size else 0)
            route_msgs += hops
            self.sink.charge("suboverlay-route", hops)
            transferred += len(items)
            self.sink.charge("suboverlay-transfer", len(items))
            partials.append(set(items))
        matches = sorted(set.intersection(*partials)) if partials else []
        return SubOverlayQueryResult(
            keyword_ids=kws,
            matches=matches,
            items_transferred=transferred,
            route_messages=route_msgs,
        )
