"""Publishing with least-similar displacement — the ``_publish`` /
``_forward`` algorithm of Fig. 2.

A publish routes the item to the home node of its publish key.  If the
home is full, the *least similar* stored item is displaced to the next
closest node in key order, which may displace again, and so on — a
displacement chain bounded by the caller's hop budget.  The policy
guarantees the most similar items stay clustered at and around the home
(§3.3), which is what the retrieve-side neighbor walk exploits.

Two replacement policies are provided:

* ``COSINE`` — the literal Fig. 2 rule: scan the node's stored items
  and displace the one with the lowest cosine similarity to the
  incoming item.  O(stored items) per displacement.
* ``ANGLE`` — the O(log c) proxy this repo uses at corpus scale: the
  victim is whichever of {incoming, stored item with min angle key,
  stored item with max angle key} lies farthest in angle space from the
  incoming key.  Because the absolute angle *is* the similarity scalar
  the whole system clusters by, the farthest-extreme item is the
  least-similar one in the sense that matters for clustering; DESIGN.md
  records this as a measured-equivalent substitution (the ablation
  bench compares both).

Entry points:

* :func:`publish_item` — one item through route + displacement chain
  (the literal Fig. 2 loop).
* :func:`run_displacement_chain` — the chain alone, reused by repair
  and replication placement; the in-flight item moves between stores
  as a :class:`~repro.vsm.index.Row`, not an item object.
* :func:`batch_publish` — a whole corpus, as one columnar
  :class:`~repro.vsm.index.ItemBlock`, in one key-sorted ring sweep;
  finite-capacity batches run through the cascade engine
  (:mod:`repro.core.cascade`).  Placements and message accounting are
  identical to the sequential loop (``tests/core/test_batch_publish.py``);
  unsupported configurations fall back per item.  The engines report
  :class:`PublishColumns`; the outcome is a :class:`PublishBatch` of
  per-row results.  The read path has a twin of this engine in
  :mod:`repro.core.search_batch`.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

import numpy as np

from ..overlay.idspace import KeySpace
from ..overload.admission import BackpressureError
from ..overload.degrade import divert_publish
from ..sim.linkfaults import MessageLossError
from ..sim.node import StoredItem
from ..vsm.index import ItemBlock, Row
from ..vsm.sparse import SparseVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .meteorograph import Meteorograph

__all__ = [
    "ReplacementPolicy",
    "PublishResult",
    "PublishBatch",
    "PublishColumns",
    "publish_item",
    "run_displacement_chain",
    "batch_publish",
    "batch_live_homes",
]


class ReplacementPolicy(enum.Enum):
    COSINE = "cosine"
    ANGLE = "angle"


@dataclass(slots=True)
class PublishResult:
    """Outcome of one publish request.

    ``success`` is False only when the displacement chain exhausted its
    hop budget and an item (``dropped_item_id``) had to be dropped — the
    "inform the application of the failure of publishing" branch.  Note
    the *incoming* item is stored even then; what drops is the chain's
    final displaced victim, exactly as in Fig. 2.
    """

    item_id: int
    home: int
    route_hops: int
    displacement_hops: int = 0
    dropped_item_id: Optional[int] = None
    success: bool = True
    #: node ids touched by the displacement chain, in order (excludes home).
    chain: list[int] = field(default_factory=list)

    @property
    def messages(self) -> int:
        return self.route_hops + self.displacement_hops


class PublishColumns(NamedTuple):
    """A batch publish's outcome as arrays, one row per placed copy.

    ``dropped`` is the dropped item id, meaningful where ``success`` is
    False (a publish fails exactly when it drops an item).  Chains are
    CSR: row ``i``'s chain is ``chain_nodes[chain_ptr[i]:chain_ptr[i+1]]``,
    one chain node per displacement hop.
    """

    item_ids: np.ndarray
    homes: np.ndarray
    route_hops: np.ndarray
    displacement_hops: np.ndarray
    success: np.ndarray
    dropped: np.ndarray
    chain_nodes: np.ndarray

    @classmethod
    def placed(
        cls, item_ids: np.ndarray, homes: np.ndarray, route_hops: np.ndarray
    ) -> "PublishColumns":
        """Rows that all stored at their homes without displacing."""
        n = item_ids.shape[0]
        return cls(
            item_ids, homes, route_hops, np.zeros(n, dtype=np.int64),
            np.ones(n, dtype=np.bool_), np.zeros(n, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

    @property
    def chain_ptr(self) -> np.ndarray:
        ptr = np.zeros(self.item_ids.shape[0] + 1, dtype=np.int64)
        np.cumsum(self.displacement_hops, out=ptr[1:])
        return ptr

    def results(self) -> list[PublishResult]:
        """One :class:`PublishResult` per row."""
        ptr = self.chain_ptr.tolist()
        if ptr[-1] != self.chain_nodes.shape[0]:
            raise ValueError("one chain node per displacement hop")
        ok = self.success.tolist()
        chains = self.chain_nodes.tolist()
        return list(
            map(
                PublishResult,
                self.item_ids.tolist(),
                self.homes.tolist(),
                self.route_hops.tolist(),
                self.displacement_hops.tolist(),
                [None if o else d for o, d in zip(ok, self.dropped.tolist())],
                ok,
                [chains[a:b] for a, b in zip(ptr, ptr[1:])],
            )
        )


class PublishBatch(_SequenceABC):
    """The outcome of ``publish_corpus``: a ``Sequence`` of
    :class:`PublishResult`, one per row, with the same values as
    :class:`PublishColumns` in :attr:`columns`.

    The results are built with the batch, inside the publish call that
    produced it, so their cost is charged to that call.  A batch from
    the per-item loop wraps that loop's list as is and packs its columns
    on first read.
    """

    __slots__ = ("_results", "_columns")

    def __init__(
        self,
        results: list[PublishResult],
        columns: Optional[PublishColumns] = None,
    ) -> None:
        self._results = results
        self._columns = columns

    @classmethod
    def from_columns(cls, columns: PublishColumns) -> "PublishBatch":
        return cls(columns.results(), columns)

    @property
    def columns(self) -> PublishColumns:
        cols = self._columns
        if cols is None:
            results = self._results
            n = len(results)

            def col(attr, dtype=np.int64):
                return np.fromiter(
                    (getattr(r, attr) for r in results), dtype, count=n
                )

            cols = self._columns = PublishColumns(
                col("item_id"),
                col("home"),
                col("route_hops"),
                col("displacement_hops"),
                col("success", np.bool_),
                np.fromiter(
                    (r.dropped_item_id or 0 for r in results), np.int64, count=n
                ),
                np.asarray(
                    [nid for r in results for nid in r.chain], dtype=np.int64
                ),
            )
        return cols

    def __len__(self) -> int:
        return len(self._results)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PublishBatch(self._results[i])
        return self._results[i]

    def __iter__(self) -> Iterator[PublishResult]:
        return iter(self._results)

    @property
    def failed(self) -> int:
        """Publishes that dropped an item."""
        cols = self._columns
        if cols is not None:
            return len(self) - int(np.count_nonzero(cols.success))
        return sum(not r.success for r in self._results)


def _pick_victim(
    system: "Meteorograph",
    node_id: int,
    incoming: Row,
    policy: ReplacementPolicy,
) -> Optional[int]:
    """Choose what a full node displaces to admit ``incoming``: the id of
    a stored item, or ``None`` for ``incoming`` itself.

    Under ``ANGLE`` the incoming item may be its own victim (when it is
    farther from the node's cluster than everything stored — storing it
    just to displace it again would churn two items instead of one).
    """
    index = system.network.node(node_id).index
    assert index is not None, "full node with no item store"
    if policy is ReplacementPolicy.COSINE:
        query = SparseVector(incoming.keyword_ids, incoming.weights, system.dim)
        victim = index.least_similar(query)
        assert victim is not None, "full node with empty index"
        return victim.item_id
    ladder = index.angle_ladder()
    assert ladder, "full node with empty ladder"
    ak = incoming.angle_key
    # max() over [min extreme, max extreme, incoming] ranked by
    # (|angle - incoming angle|, item id); first wins on ties.
    candidates = [
        (abs(ladder[0][0] - ak), ladder[0][1]),
        (abs(ladder[-1][0] - ak), ladder[-1][1]),
        (0, incoming.item_id),
    ]
    pick = max(range(3), key=candidates.__getitem__)
    return None if pick == 2 else candidates[pick][1]


def run_displacement_chain(
    system: "Meteorograph",
    home_id: int,
    item: StoredItem,
    *,
    hop_budget: Optional[int] = None,
    policy: ReplacementPolicy = ReplacementPolicy.ANGLE,
) -> PublishResult:
    """Place ``item`` at ``home_id``, displacing as needed (Fig. 2 loop).

    The chain visits nodes in increasing linear key distance from the
    home ("closest neighbor" frontier); each full node swaps the
    incoming item for its least-similar one and pushes the victim on.
    Charges one ``displace`` message per chain hop.
    """
    return _chain(system, home_id, item.row(), hop_budget, policy)


def _chain(
    system: "Meteorograph",
    home_id: int,
    row: Row,
    hop_budget: Optional[int],
    policy: ReplacementPolicy,
) -> PublishResult:
    """:func:`run_displacement_chain` over rows: the in-flight item —
    the incoming one, then each displaced victim — moves from store to
    store as a :class:`~repro.vsm.index.Row`, so a hop builds no item
    object."""
    result = PublishResult(item_id=row.item_id, home=home_id, route_hops=0)
    current = home_id
    incoming = row
    budget = hop_budget
    # Built on first demand: the overwhelmingly common publish lands on
    # a non-full home and must do zero neighbor-ordering work.
    frontier = None
    tracer = system.network.obs.tracer
    while True:
        node = system.network.node(current)
        if not node.is_full:
            system.store_row_at(current, incoming)
            return result
        victim_id = _pick_victim(system, current, incoming, policy)
        if victim_id is None:
            # incoming itself continues down the chain unstored.
            victim = incoming
        elif victim_id != incoming.item_id:
            victim = node.evict_row(victim_id)
            system.store_row_at(current, incoming)
        else:
            # A held copy of the incoming id is the victim: it stays,
            # and a copy of it travels on.
            victim = node.get_item(victim_id).row()
        if budget is not None and budget <= 0:
            # Fig. 2: "if (c = 0) reply a publishing failure" — but the
            # swap above has already happened at this terminal node, so
            # what drops is the chain's final displaced *victim*, never
            # the in-flight incoming item (unless the policy picked the
            # incoming itself as least similar).
            result.success = False
            result.dropped_item_id = victim.item_id
            return result
        if frontier is None:
            frontier = system.overlay.closest_neighbors(home_id, alive_only=True)
        next_id = next(frontier, None)
        if next_id is None:
            # No node left in the overlay can take the victim.
            result.success = False
            result.dropped_item_id = victim.item_id
            return result
        try:
            system.network.send(current, next_id, kind="displace")
        except MessageLossError:
            # The displacement push was charged but lost in flight: the
            # victim drops here, exactly the budget-exhaustion outcome —
            # the in-flight incoming item was already swapped in above.
            result.success = False
            result.dropped_item_id = victim.item_id
            return result
        if tracer.enabled:
            tracer.event("displace", src=current, dst=next_id, item=victim.item_id)
        result.displacement_hops += 1
        result.chain.append(next_id)
        if budget is not None:
            budget -= 1
        current = next_id
        incoming = victim


def publish_item(
    system: "Meteorograph",
    origin: int,
    item_id: int,
    keyword_ids: np.ndarray,
    weights: np.ndarray,
    *,
    payload: object = None,
    hop_budget: Optional[int] = None,
    policy: ReplacementPolicy = ReplacementPolicy.ANGLE,
    precomputed_keys: Optional[tuple[int, int]] = None,
) -> PublishResult:
    """Full publish: resolve keys (Eq. 5 / Eq. 6), route, place, replicate.

    ``precomputed_keys`` is the (angle_key, publish_key) pair when the
    caller batch-computed keys for a whole corpus (the vectorised path);
    otherwise they are derived here.
    """
    if precomputed_keys is None:
        angle_key, publish_key = system.item_keys(keyword_ids, weights)
    else:
        angle_key, publish_key = precomputed_keys
    item = StoredItem(
        item_id=item_id,
        publish_key=publish_key,
        angle_key=angle_key,
        keyword_ids=np.asarray(keyword_ids, dtype=np.int64),
        weights=np.asarray(weights, dtype=np.float64),
        payload=payload,
    )
    obs = system.network.obs
    with obs.tracer.span("publish", item=item_id, key=publish_key) as sp:
        level = 0
        try:
            route = system.deliver_home(origin, publish_key, kind="publish")
            assert route.home is not None
            home, route_hops = route.home, route.hops
        except BackpressureError:
            # The home shed the publish: back off through the retry
            # discipline, then place on the nearest admitting
            # key-neighbor; only a fully-shed publish is reported as a
            # failure (the "inform the application" branch of Fig. 2).
            home, route_hops, level = divert_publish(system, origin, publish_key)
            if home is None:
                sp.set(ok=False, shed=True)
                return PublishResult(
                    item_id=item_id,
                    home=system.overlay.home(publish_key),
                    route_hops=route_hops,
                    dropped_item_id=item_id,
                    success=False,
                )
        with obs.metrics.timer("publish.displace_chain"):
            result = run_displacement_chain(
                system,
                home,
                item,
                hop_budget=hop_budget,
                policy=policy,
            )
        result.route_hops = route_hops
        if system.config.directory_pointers:
            system.publish_pointer(home, item)
        if system.replication is not None and result.success:
            system.replication.replicate(home, item)
        sp.set(
            home=result.home,
            route_hops=route_hops,
            displacement_hops=result.displacement_hops,
            ok=result.success,
        )
        if level:
            sp.set(degraded=level)
    return result


def batch_live_homes(
    space: KeySpace, live_sorted: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Vectorised ``SortedKeyRing.closest`` over a sorted live-node array.

    Mirrors the scalar tie-break exactly (equidistant → smaller id), so
    batch and per-item publishes agree on every home.
    """
    if live_sorted.size == 0:
        raise ValueError("no live nodes")
    n = live_sorted.size
    keys = np.asarray(keys, dtype=np.int64)
    i = np.searchsorted(live_sorted, keys)
    succ = live_sorted[i % n]
    pred = live_sorted[(i - 1) % n]
    m = space.modulus
    ds = np.abs(succ - keys) % m
    ds = np.minimum(ds, m - ds)
    dp = np.abs(pred - keys) % m
    dp = np.minimum(dp, m - dp)
    return np.where(ds < dp, succ, np.where(dp < ds, pred, np.minimum(succ, pred)))


def batch_publish(
    system: "Meteorograph",
    block: ItemBlock,
    *,
    origin: int,
    hop_budget: Optional[int] = None,
    policy: ReplacementPolicy = ReplacementPolicy.ANGLE,
    cascade: Optional[bool] = None,
) -> PublishBatch:
    """Single-sweep batch placement (Mercury-style locality batching).

    Instead of one O(log N) route per item, the batch computes every
    item's live home vectorised, routes **once** to the home of the
    smallest publish key, then walks the ring in key order delivering
    each node's run of items — N routes collapse to 1 route plus a ring
    sweep of at most ~N_nodes ``publish`` messages.

    Placement semantics are identical to publishing the items one at a
    time in list order:

    * infinite capacity — items simply store at their homes (placement
      is order-free); this branch runs no displacement machinery at all;
    * finite capacity — each item runs the standard Fig. 2 displacement
      chain at its home, in list order, so placements, ``success``,
      ``dropped_item_id`` and ``displacement_hops`` match the
      sequential loop exactly (the equivalence property test in
      ``tests/core/test_batch_publish.py`` pins this).

    Only *route* accounting differs, by design: each item's
    ``route_hops`` is the marginal number of sweep messages spent to
    first reach its home (the first item also carries the real route's
    hops), so ``sum(r.route_hops)`` equals the messages actually
    charged on the network.

    ``block`` is the batch as one :class:`~repro.vsm.index.ItemBlock`
    (publish keys, angle keys and norms included).  The
    displacement-free branch and the cascade engine move rows of it and
    build no item object; the per-item fallback moves rows too.  The
    :class:`PublishBatch` of results is built here, inside the call.

    ``cascade`` selects the finite-capacity engine: ``None`` (auto, the
    default) runs the :mod:`repro.core.cascade` packed-int engine
    whenever it is exact for the configuration (``ANGLE`` policy, no
    notification/admission hooks, no link faults) and falls back to the
    per-item chain loop otherwise; ``False`` forces the sequential loop
    (the reference semantics the equivalence tests compare against);
    ``True`` asserts the engine and raises if the configuration cannot
    take it.
    """
    n = len(block)
    if n == 0:
        return PublishBatch([])
    keys = block.publish_keys
    network = system.network
    live = [nid for nid in system.overlay.ring if network.is_alive(nid)]
    if not live:
        raise RuntimeError("no live nodes to publish to")
    live_sorted = np.asarray(live, dtype=np.int64)  # ring iterates in key order
    homes = batch_live_homes(system.space, live_sorted, keys)
    order = np.argsort(keys, kind="stable")
    obs = network.obs
    tracer = obs.tracer
    with tracer.span("publish_batch", items=n) as sp:
        first_key = int(keys[order[0]])
        try:
            route = system.deliver_home(origin, first_key, kind="publish")
            assert route.home is not None
            start_home, start_hops = route.home, route.hops
        except BackpressureError:
            # The sweep's entry home shed the route.  The sweep itself
            # delivers node-locally, so just start it at the live home
            # directly (the route messages already spent are billed).
            start_home = system.overlay.live_home(first_key)
            start_hops = 0
            if start_home is None:
                raise RuntimeError("no live nodes to publish to") from None
        # Ring sweep: advance clockwise over live nodes, charging one
        # publish message per step; record each item's marginal cost.
        # Because items are visited in key order the per-item step counts
        # are just modular position differences along the live ring —
        # computed vectorised, with one short loop (~N_nodes iterations,
        # not ~N_items) left to charge the per-step messages.
        homes_l = homes.tolist()
        send = network.send
        m = len(live)
        pos_sorted = np.searchsorted(live_sorted, homes[order])
        cur = int(np.searchsorted(live_sorted, start_home))
        prev = np.empty_like(pos_sorted)
        prev[0] = cur
        prev[1:] = pos_sorted[:-1]
        steps_sorted = (pos_sorted - prev) % m
        sweep = int(steps_sorted.sum())
        route_hops_arr = np.zeros(n, dtype=np.int64)
        route_hops_arr[order] = steps_sorted
        route_hops_arr[order[0]] += start_hops
        route_hops = route_hops_arr.tolist()
        for _ in range(sweep):
            nxt = (cur + 1) % m
            try:
                send(live[cur], live[nxt], kind="publish")
            except (BackpressureError, MessageLossError):
                # A saturated node shed the step message, or the link
                # dropped it; the sweep continues past it (placement is
                # node-local, the per-step message was already billed).
                pass
            cur = nxt
        # No-overflow prepass: a node can only start a displacement chain
        # if its run of arrivals pushes it past capacity, so when every
        # receiving node can absorb its whole run the batch is
        # displacement-free even under finite capacity and the bulk-store
        # branch is exact.  (Re-published ids overcount arrivals, which
        # only errs toward the general branch.)
        caps = np.fromiter(
            (
                -1 if (c := network.node(nid).capacity) is None else c
                for nid in live
            ),
            dtype=np.int64,
            count=m,
        )
        displacement_free = bool(np.all(caps < 0))
        if not displacement_free:
            loads = np.fromiter(
                (len(network.node(nid)) for nid in live), dtype=np.int64, count=m
            )
            arrivals = np.bincount(
                np.searchsorted(live_sorted, homes), minlength=m
            )
            displacement_free = bool(
                np.all((caps < 0) | (loads + arrivals <= caps))
            )
        metrics = obs.metrics
        if displacement_free:
            # Key order == sweep order: each node's whole run is dropped
            # off in one bulk store as the sweep passes its home.
            metrics.counter("engine.publish.bulk", n)
            run_homes = homes[order]
            cut = np.flatnonzero(run_homes[1:] != run_homes[:-1]) + 1
            store_run = system.store_run
            firsts = run_homes[[0, *cut.tolist()]].tolist()
            for h, run in zip(firsts, block.take(order).runs(cut.tolist())):
                store_run(h, run)
            results = PublishBatch.from_columns(
                PublishColumns.placed(block.ids, homes, route_hops_arr)
            )
        else:
            from . import cascade as engines

            reason = engines.fallback_reason(system, policy)
            if cascade is True and reason is not None:
                raise ValueError(
                    "cascade placement requires the ANGLE policy and no "
                    "notification/admission hooks or link faults"
                )
            if reason is None if cascade is None else cascade:
                metrics.counter("engine.publish.cascade", n)
                with metrics.timer("publish.cascade"):
                    # Resolved on the module at call time, so a wrapper
                    # installed there sees every call.
                    columns = engines.cascade_placement(
                        system, block, homes_l, route_hops, hop_budget=hop_budget
                    )
                results = PublishBatch.from_columns(columns)
            else:
                metrics.counter("engine.publish.sequential", n)
                if cascade is None:
                    metrics.counter(f"engine.publish.fallback.{reason}", n)
                timer = metrics.timer
                seq: list[PublishResult] = []
                for k in range(n):  # original publish order: chain outcomes match the loop
                    with timer("publish.displace_chain"):
                        res = _chain(
                            system, homes_l[k], block.row(k), hop_budget, policy
                        )
                    res.route_hops = route_hops[k]
                    seq.append(res)
                results = PublishBatch(seq)
        sp.set(route_hops=start_hops, sweep_hops=sweep, failed=results.failed)
    return results
