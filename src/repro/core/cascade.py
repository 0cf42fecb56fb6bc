"""Cascade batch placement — the finite-capacity fast path of batch publish.

``batch_publish`` under finite capacity historically ran one
:func:`repro.core.publish.run_displacement_chain` per item: every chain
hop paid a full node-store add/remove (``LocalVsmIndex`` row append,
ladder update, tombstone) — even though almost every intermediate
placement is transient (the item is displaced again a few events
later).

The cascade engine keeps the *exact* sequential semantics but runs the
whole batch against **lightweight shadow state** first and writes the
net result to the node stores once at the end:

* Every displacement event is simulated in strict list order against
  per-node shadows (an item dict plus the sorted angle ladder, seeded
  from the node's index), so victim selection, hop budgets, drops and
  chain traces are equal to the sequential loop *by construction* —
  including order-dependent outcomes and cross-home chain interactions
  that a per-home bulk pass would get wrong.  The equivalence property
  tests in ``tests/core/test_batch_publish.py`` pin this.
* Items that only pass through a node never touch its store: after the
  simulation, each touched node applies one net diff (bulk evict + bulk
  store), which is where the order-of-magnitude win comes from.
* Per-home ``closest_neighbors`` frontiers are materialised once and
  shared by every chain anchored at that home (ring membership and
  liveness are frozen for the duration of a batch).
* Network accounting is unchanged: one ``displace`` message per chain
  hop is charged (bulk via ``MetricSink.charge``), and with
  observability enabled the same ``net.sent.displace`` counters,
  ``net.node_inbox`` buckets and ``displace`` trace events are emitted.

The engine falls back to the sequential loop only by configuration
(:func:`cascade_supported`): it handles the ``ANGLE`` policy (victims
are ladder extremes), while ``COSINE`` scans whole indexes and
configurations with notification or admission hooks or a link-fault
plane observe per-event side effects.  A node's index is its only item
store, so shadows seed from the one copy there is and cannot disagree
with it.

The same batching discipline — share the expensive sweep, replay exact
per-item accounting, fall back sequentially when a configuration
observes per-event side effects — serves the read path in
:mod:`repro.core.search_batch`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from typing import TYPE_CHECKING, Optional, Sequence

from ..sim.node import StoredItem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .meteorograph import Meteorograph
    from .publish import PublishResult

__all__ = ["cascade_supported", "cascade_placement"]


class _Shadow:
    """Per-node shadow: capacity, items by id, sorted angle ladder, and
    the initial item map the reconcile pass diffs against."""

    __slots__ = ("cap", "items", "ladder", "initial")

    def __init__(
        self,
        cap: Optional[int],
        items: dict[int, StoredItem],
        ladder: list[tuple[int, int]],
    ) -> None:
        self.cap = cap
        self.items = items
        self.ladder = ladder
        self.initial = dict(items)


def cascade_supported(system: "Meteorograph", policy) -> bool:
    """Whether the cascade engine may replace the per-item chain loop.

    The engine is exact only for ``ANGLE`` victim selection, and it
    defers all real side effects to one reconcile pass — so anything
    that observes per-event effects (notification service, admission
    metering of displace traffic, a link-fault plane dropping or
    duplicating individual displace messages) forces the sequential
    branch.
    """
    from .publish import ReplacementPolicy

    return (
        policy is ReplacementPolicy.ANGLE
        and system.notifications is None
        and system.network.admission is None
        and system.network.link_faults is None
    )


def _seed_shadow(system: "Meteorograph", nid: int) -> _Shadow:
    node = system.network.node(nid)
    if node.index is None:
        return _Shadow(node.capacity, {}, [])
    ladder, items = node.index.snapshot()
    return _Shadow(node.capacity, items, ladder)


def cascade_placement(
    system: "Meteorograph",
    items: Sequence[StoredItem],
    homes: Sequence[int],
    route_hops: Sequence[int],
    results: list,
    *,
    hop_budget: Optional[int] = None,
    norms=None,
) -> list:
    """Place ``items`` (list order) at ``homes``, displacing as needed.

    Fills ``results[k]`` with the :class:`PublishResult` each item would
    get from the sequential chain loop, and returns ``results``.
    """
    from .publish import PublishResult

    network = system.network
    obs = network.obs
    tracer = obs.tracer
    obs_on = network._obs_on  # noqa: SLF001 - same cached flag send() uses
    shadows: dict[int, _Shadow] = {}
    frontiers: dict[int, tuple[list[int], object]] = {}
    events: Optional[list[tuple[int, int, int]]] = [] if tracer.enabled else None
    inbox: Optional[Counter] = Counter() if obs_on else None
    overlay = system.overlay
    total_hops = 0
    failures = 0

    for k, item in enumerate(items):
        home = homes[k]
        res = PublishResult(
            item_id=item.item_id, home=home, route_hops=route_hops[k]
        )
        results[k] = res
        current = home
        incoming = item
        budget = hop_budget
        frontier_i = 0
        sh = shadows.get(current)
        if sh is None:
            sh = shadows[current] = _seed_shadow(system, current)
        while True:
            smap = sh.items
            cap = sh.cap
            if cap is None or len(smap) < cap:
                # Mirror of store_at: store replaces a held id.
                iid = incoming.item_id
                old = smap.get(iid)
                ladder = sh.ladder
                if old is not None:
                    j = bisect_left(ladder, (old.angle_key, iid))
                    del ladder[j]
                smap[iid] = incoming
                insort(ladder, (incoming.angle_key, iid))
                break
            # Full node under ANGLE: the victim is max() over
            # [min-extreme, max-extreme, incoming] ranked by
            # (|angle - incoming.angle|, item_id) — first-wins on
            # ties, exactly as _pick_victim computes it.
            ladder = sh.ladder
            ak = incoming.angle_key
            v_key, v_id = ladder[0]
            v_d = v_key - ak if v_key >= ak else ak - v_key
            h_key, h_id = ladder[-1]
            h_d = h_key - ak if h_key >= ak else ak - h_key
            if h_d > v_d or (h_d == v_d and h_id > v_id):
                v_d, v_id = h_d, h_id
            i_id = incoming.item_id
            if 0 > v_d or (v_d == 0 and i_id > v_id):
                victim = incoming
            else:
                victim = smap[v_id]
            if victim.item_id != i_id:
                # Swap: evict the victim, admit the incoming item (which
                # replaces a held copy of its id, as store_at does —
                # multi-key schemes route an item's L copies apart, but
                # displacement can bring two of them together).
                del smap[v_id]
                j = bisect_left(ladder, (victim.angle_key, v_id))
                del ladder[j]
                old = smap.get(i_id)
                if old is not None:
                    del ladder[bisect_left(ladder, (old.angle_key, i_id))]
                smap[i_id] = incoming
                insort(ladder, (ak, i_id))
            if budget is not None and budget <= 0:
                res.success = False
                res.dropped_item_id = victim.item_id
                failures += 1
                break
            fr = frontiers.get(home)
            if fr is None:
                fr = frontiers[home] = (
                    [],
                    overlay.closest_neighbors(home, alive_only=True),
                )
            flist, fgen = fr
            while frontier_i >= len(flist):
                nxt = next(fgen, None)
                if nxt is None:
                    break
                flist.append(nxt)
            if frontier_i >= len(flist):
                res.success = False
                res.dropped_item_id = victim.item_id
                failures += 1
                break
            next_id = flist[frontier_i]
            frontier_i += 1
            total_hops += 1
            res.displacement_hops += 1
            res.chain.append(next_id)
            if inbox is not None:
                inbox[next_id] += 1
            if events is not None:
                events.append((current, next_id, victim.item_id))
            if budget is not None:
                budget -= 1
            current = next_id
            incoming = victim
            sh = shadows.get(current)
            if sh is None:
                sh = shadows[current] = _seed_shadow(system, current)

    _reconcile(system, shadows, items, norms)
    # Accounting: one displace message per chain hop, charged in bulk —
    # the same total Network.send would have billed hop by hop (nothing
    # at all when no chain hopped, so no zero-valued bill key appears).
    if total_hops:
        network.sink.charge("displace", total_hops)
    metrics = obs.metrics
    if obs_on:
        if total_hops:
            metrics.counter("net.sent.displace", total_hops)
        for dst, cnt in inbox.items():
            metrics.bucket("net.node_inbox", dst, cnt)
        metrics.counter("publish.cascade_items", len(items))
        metrics.counter("publish.cascade_spills", total_hops)
        if failures:
            metrics.counter("publish.cascade_drops", failures)
    if events is not None:
        for src, dst, iid in events:
            tracer.event("displace", src=src, dst=dst, item=iid)
    return results


def _reconcile(
    system: "Meteorograph",
    shadows: dict[int, _Shadow],
    items: Sequence[StoredItem],
    norms=None,
) -> None:
    """Apply each touched node's net diff to its store.

    Removals run everywhere first (collecting moved items' indexed
    norms), then each node bulk-stores its additions — equivalent to
    the sequential interleaving because per-node end states, not
    histories, determine node stores and their ladders.
    """
    network = system.network
    moved_norms: dict[int, float] = {}
    plan: list[tuple[int, list[StoredItem]]] = []
    for nid, sh in shadows.items():
        initial = sh.initial
        final = sh.items
        removed = [
            iid
            for iid, it in initial.items()
            if final.get(iid) is not it
        ]
        added = [
            it
            for iid, it in final.items()
            if initial.get(iid) is not it
        ]
        if removed:
            node = network.node(nid)
            moved_norms.update(zip(removed, node.index.norms_of_many(removed)))
            node.evict_many(removed)
        if added:
            plan.append((nid, added))
    if not plan:
        return
    batch_norms: dict[int, float] = {}
    if norms is not None:
        batch_norms = dict(
            zip((it.item_id for it in items), norms.tolist())
        )
    for nid, added in plan:
        add_norms: Optional[list[float]] = []
        for it in added:
            n = moved_norms.get(it.item_id)
            if n is None:
                n = batch_norms.get(it.item_id)
            if n is None:
                add_norms = None
                break
            add_norms.append(n)
        network.node(nid).store_many(added, add_norms)
