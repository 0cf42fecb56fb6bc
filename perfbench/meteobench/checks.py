"""Output checks: oracle replay, placement invariants and the run digest.

The sequential ``repro.core.search.retrieve`` loop is the reference
semantics every fast path must equal (DESIGN.md, "Read path").  Every
mismatch found here counts as one failed operation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


def result_key(res) -> tuple:
    """Everything a retrieve returns that the oracle pins, bit for bit."""
    return (
        tuple((d.item_id, d.node_id, float(d.score).hex(), d.hops)
              for d in res.discoveries),
        res.route_hops, res.walk_hops, res.fetch_hops, res.reply_messages,
        res.complete, tuple(res.visited),
    )


def charged(res) -> int:
    """Messages a retrieve put on the fabric (replies are not sent)."""
    return res.route_hops + res.walk_hops + res.fetch_hops


@dataclass
class Report:
    """Failures found after the timed phase, with what they were."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def oracle_replay(report: Report, system, origins, queries, got, **kwargs) -> None:
    """Replay retrieves through the sequential oracle; ``got[i]`` must equal
    ``retrieve(system, origins[i], queries[i], ...)``."""
    from repro.core.search import retrieve

    for i, (o, q, res) in enumerate(zip(origins, queries, got)):
        ref = retrieve(system, o, q, **kwargs)
        report.expect(result_key(res) == result_key(ref),
                      f"retrieve #{i} from {o} differs from the sequential oracle")


def placement_invariants(report: Report, system, expected_ids: np.ndarray) -> str:
    """Every expected item is held by exactly one node, no node is over
    capacity; returns the placement digest (node id + sorted item ids,
    in ring order)."""
    h = hashlib.sha256()
    held = []
    over = 0
    for node in system.overlay.nodes():
        ids = np.sort(np.fromiter(node.item_ids(), np.int64))
        held.append(ids)
        h.update(node.node_id.to_bytes(8, "little"))
        h.update(ids.tobytes())
        if node.capacity is not None and ids.size > node.capacity:
            over += 1
    held_all = np.sort(np.concatenate(held))
    expected = np.sort(np.asarray(expected_ids, dtype=np.int64))
    report.expect(
        np.array_equal(held_all, expected),
        f"{held_all.size} items held (unique {np.unique(held_all).size}), "
        f"{expected.size} published: not every item is on exactly one node",
    )
    report.expect(over == 0, f"{over} nodes hold more than their capacity")
    return h.hexdigest()
