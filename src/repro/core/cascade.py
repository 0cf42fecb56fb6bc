"""Cascade batch placement — the finite-capacity fast path of batch publish.

``batch_publish`` under finite capacity would otherwise run one
:func:`repro.core.publish.run_displacement_chain` per item, paying a
full node-store add/remove per chain hop although almost every
intermediate placement is transient (the item is displaced again a few
events later).

The cascade engine keeps the *exact* sequential semantics but runs the
whole batch against **packed-int shadows** first and writes the net
result to the node stores once at the end:

* A shadow is a node's capacity plus its angle ladder as one sorted
  list of ints.  Each int packs ``(angle key, item id, row)``:
  ``angle_key << (I + R) | (item_id - id_lo) << R | row``, where ``I``
  bits hold the id range of the batch and the id bounds of every
  non-empty store (read in O(1) per store, so fixing the widths costs
  O(nodes + batch), not O(items held)) and ``R`` bits number the batch
  rows followed by the held rows of seeded nodes.
  Integer order is therefore the ``(angle_key, item_id)`` ladder order
  the sequential policy ranks by, with the same id tie-breaks, for
  negative ids and ids of any width (Python ints are unbounded).  The
  row makes entries of one id distinct (LSH band copies share id and
  angle key) and names the item's data for the reconcile; no item
  object exists during the simulation.
* Every displacement event runs in strict list order, so victim
  selection, hop budgets, drops and chain traces equal the sequential
  loop *by construction* — including order-dependent outcomes and
  cross-home chain interactions.  The equivalence tests in
  ``tests/core/test_batch_publish.py`` and ``tests/core/test_cascade.py``
  pin this.  When an id may meet a copy of itself on a node (repeated
  ids in the batch, LSH band copies, or a store whose id bounds overlap
  the batch's ids), each shadow also keeps an id → entry map so the
  admitted copy replaces the held one, as ``store_at`` does.
* **Reconcile by sort.**  After the simulation the final ``(node,
  row)`` pairs are argsorted; each touched node then applies one net
  diff — one bulk evict of the held rows that left it, one bulk store of
  the rows that arrived, in row order.  Items that only pass through a
  node never touch its store.
* Per-home ``closest_neighbors`` frontiers are extended lazily and
  shared by every chain anchored at that home (ring membership and
  liveness are frozen for the duration of a batch).
* Network accounting is unchanged: one ``displace`` message per chain
  hop is charged (bulk via ``MetricSink.charge``), and with
  observability enabled the same ``net.sent.displace`` counters,
  ``net.node_inbox`` buckets and ``displace`` trace events are emitted.

The engine falls back to the sequential loop only by configuration
(:func:`fallback_reason`): it handles the ``ANGLE`` policy (victims are
ladder extremes), while ``COSINE`` scans whole indexes and
configurations with notification or admission hooks or a link-fault
plane observe per-event side effects.

The same batching discipline — share the expensive sweep, replay exact
per-item accounting, fall back sequentially when a configuration
observes per-event side effects — serves the read path in
:mod:`repro.core.search_batch`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..vsm.index import ItemBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .meteorograph import Meteorograph
    from .publish import PublishColumns

__all__ = ["fallback_reason", "cascade_placement"]


def fallback_reason(system: "Meteorograph", policy) -> Optional[str]:
    """Why the cascade engine may not replace the per-item chain loop,
    or ``None`` when it may.

    The engine is exact only for ``ANGLE`` victim selection (reason
    ``cosine`` otherwise), and it defers all real side effects to one
    reconcile pass — so anything that observes per-event effects forces
    the sequential branch: a notification service (``notify``),
    admission metering of displace traffic (``admission``), or a
    link-fault plane dropping or duplicating individual displace
    messages (``link_faults``).
    """
    from .publish import ReplacementPolicy

    if policy is not ReplacementPolicy.ANGLE:
        return "cosine"
    if system.notifications is not None:
        return "notify"
    if system.network.admission is not None:
        return "admission"
    if system.network.link_faults is not None:
        return "link_faults"
    return None


def cascade_placement(
    system: "Meteorograph",
    block: ItemBlock,
    homes: Sequence[int],
    route_hops: Sequence[int],
    *,
    hop_budget: Optional[int] = None,
) -> "PublishColumns":
    """Place the rows of ``block`` (in order) at ``homes``, displacing as
    needed; returns, as :class:`~repro.core.publish.PublishColumns`, the
    results the sequential chain loop would produce, ``route_hops``
    included."""
    from .publish import PublishColumns

    network = system.network
    obs = network.obs
    tracer = obs.tracer
    obs_on = network._obs_on  # noqa: SLF001 - same cached flag send() uses
    overlay = system.overlay
    n = len(block)
    ids = block.ids

    # -- packing widths, fixed before the first event --------------------
    # O(nodes + batch): each store reports bounds on its ids in O(1).
    batch_lo, batch_hi = int(ids.min()), int(ids.max())
    id_lo, id_hi = batch_lo, batch_hi
    n_rows = n
    # Can one id meet a copy of itself on a node?  Only then do shadows
    # need the id → entry map that store_at's replace semantics read.  A
    # store whose id bounds overlap the batch's might hold a batch id, so
    # it switches the map on (exact either way, only slower).
    collide = np.unique(ids).size != n
    held = {}
    for nid in overlay.ring:
        idx = network.node(nid).index
        if idx is not None and len(idx):
            held[nid] = idx
            lo, hi = idx.id_range()
            id_lo = min(id_lo, lo)
            id_hi = max(id_hi, hi)
            n_rows += len(idx)
            collide = collide or (lo <= batch_hi and batch_lo <= hi)
    id_bits = max(1, (id_hi - id_lo).bit_length())
    row_bits = max(1, (n_rows - 1).bit_length())
    shift = id_bits + row_bits
    id_mask = (1 << id_bits) - 1
    row_mask = (1 << row_bits) - 1
    no_cap = n_rows + 1

    shadows: dict[int, tuple[int, list[int], Optional[dict[int, int]]]] = {}
    seed_nodes: list[int] = []
    seed_blocks: list[ItemBlock] = []
    next_row = n

    def seed(nid: int):
        nonlocal next_row
        node = network.node(nid)
        cap = no_cap if node.capacity is None else node.capacity
        idx = held.get(nid)
        ladder: list[int] = []
        if idx is not None:
            blk = idx.block()
            base = next_row
            next_row += len(blk)
            seed_nodes.append(nid)
            seed_blocks.append(blk)
            ladder = [
                (ak << shift) | ((iid - id_lo) << row_bits) | row
                for row, ak, iid in zip(
                    range(base, next_row),
                    blk.angle_keys.tolist(),
                    blk.ids.tolist(),
                )
            ]
            ladder.sort()
        hmap = (
            {(e >> row_bits) & id_mask: e for e in ladder} if collide else None
        )
        sh = shadows[nid] = (cap, ladder, hmap)
        return sh

    # -- the event loop ---------------------------------------------------
    aks = block.angle_keys.tolist()
    ids_off = [iid - id_lo for iid in ids.tolist()]  # Python ints: no int64 wrap
    disp = [0] * n
    chain_nodes: list[int] = []
    hop_to = chain_nodes.append
    drops: list[tuple[int, int]] = []
    frontiers: dict[int, tuple[list[int], object]] = {}
    events: Optional[list[tuple[int, int, int]]] = [] if tracer.enabled else None

    for k in range(n):
        e = (aks[k] << shift) | (ids_off[k] << row_bits) | k
        home = cur = homes[k]
        cap, ladder, hmap = shadows.get(cur) or seed(cur)
        budget = hop_budget
        hops = 0
        flist = None
        while True:
            if len(ladder) < cap:
                if hmap is not None:
                    iid = (e >> row_bits) & id_mask
                    old = hmap.get(iid)
                    if old is not None:
                        del ladder[bisect_left(ladder, old)]
                    hmap[iid] = e
                insort(ladder, e)
                break
            # Full node under ANGLE: the victim is max() over
            # [min extreme, max extreme, incoming] ranked by
            # (|angle - incoming angle|, item id), first wins on ties —
            # exactly _pick_victim.  With la <= ha the extremes' distance
            # difference has the sign of la + ha - 2·ak; on one angle key
            # they tie and the larger id (the max extreme) wins, and only
            # there can the incoming item, at distance 0, win.
            lo = ladder[0]
            hi = ladder[-1]
            la = lo >> shift
            ha = hi >> shift
            if la == ha:
                v = hi
                if ha == e >> shift and (
                    (e >> row_bits) & id_mask > (hi >> row_bits) & id_mask
                ):
                    v = e  # the incoming item travels on unstored
            else:
                d = la + ha - 2 * (e >> shift)
                if d > 0 or (
                    d == 0 and (hi >> row_bits) & id_mask > (lo >> row_bits) & id_mask
                ):
                    v = hi
                else:
                    v = lo
            if v is e:
                pass
            elif hmap is None:
                # Swap: evict the victim extreme, admit the incoming item.
                if v is hi:
                    ladder.pop()
                else:
                    del ladder[0]
                insort(ladder, e)
            else:
                i_id = (e >> row_bits) & id_mask
                v_id = (v >> row_bits) & id_mask
                if v_id != i_id:
                    # Swap, replacing a held copy of the incoming id as
                    # store_at does.
                    if v is hi:
                        ladder.pop()
                    else:
                        del ladder[0]
                    del hmap[v_id]
                    old = hmap.get(i_id)
                    if old is not None:
                        del ladder[bisect_left(ladder, old)]
                    hmap[i_id] = e
                    insort(ladder, e)
                # else: the victim is a held copy of the incoming id — it
                # stays, and a copy of it travels on (the sequential loop
                # neither evicts nor stores in this case).
            if budget is not None and budget <= 0:
                drops.append((k, v))
                break
            if flist is None:
                fr = frontiers.get(home)
                if fr is None:
                    fr = frontiers[home] = (
                        [],
                        overlay.closest_neighbors(home, alive_only=True),
                    )
                flist, fgen = fr
            if hops == len(flist):
                nxt = next(fgen, None)
                if nxt is None:
                    drops.append((k, v))
                    break
                flist.append(nxt)
            next_id = flist[hops]
            hops += 1
            hop_to(next_id)
            if events is not None:
                events.append((cur, next_id, ((v >> row_bits) & id_mask) + id_lo))
            if budget is not None:
                budget -= 1
            cur = next_id
            e = v
            cap, ladder, hmap = shadows.get(cur) or seed(cur)
        if hops:
            disp[k] = hops

    _reconcile(network, block, shadows, seed_nodes, seed_blocks, row_mask)

    total_hops = len(chain_nodes)
    # Accounting: one displace message per chain hop, charged in bulk —
    # the same total Network.send would have billed hop by hop (nothing
    # at all when no chain hopped, so no zero-valued bill key appears).
    if total_hops:
        network.sink.charge("displace", total_hops)
    if obs_on:
        metrics = obs.metrics
        if total_hops:
            metrics.counter("net.sent.displace", total_hops)
        for dst, cnt in Counter(chain_nodes).items():
            metrics.bucket("net.node_inbox", dst, cnt)
        metrics.counter("publish.cascade_items", n)
        metrics.counter("publish.cascade_spills", total_hops)
        if drops:
            metrics.counter("publish.cascade_drops", len(drops))
    if events is not None:
        for src, dst, iid in events:
            tracer.event("displace", src=src, dst=dst, item=iid)

    success = np.ones(n, dtype=np.bool_)
    dropped = np.zeros(n, dtype=np.int64)
    if drops:
        rows = np.fromiter((k for k, _ in drops), np.int64, count=len(drops))
        success[rows] = False
        dropped[rows] = [((v >> row_bits) & id_mask) + id_lo for _, v in drops]
    return PublishColumns(
        ids,
        np.asarray(homes, dtype=np.int64),
        np.asarray(route_hops, dtype=np.int64),
        np.asarray(disp, dtype=np.int64),
        success,
        dropped,
        np.asarray(chain_nodes, dtype=np.int64),
    )


def _reconcile(
    network,
    block: ItemBlock,
    shadows: dict,
    seed_nodes: list[int],
    seed_blocks: list[ItemBlock],
    row_mask: int,
) -> None:
    """Apply each touched node's net diff to its store.

    Rows ``< n`` are batch rows; a seeded row ``r >= n`` is a held item
    of the seed node whose block covers it.  A final ``(node, row)``
    pair is *kept* when the row was seeded from that node (its store
    already holds it); every other pair is an arrival.  Removals run
    everywhere first, then each node bulk-stores its arrivals in row
    order — equivalent to the sequential interleaving because per-node
    end states, not histories, determine node contents and ladders (a
    store's slot order is not pinned; no outcome reads it).
    """
    n = len(block)
    nids = list(shadows)
    lens = np.fromiter((len(shadows[nid][1]) for nid in nids), np.int64, count=len(nids))
    rows = np.fromiter(
        map(row_mask.__and__, chain.from_iterable(shadows[nid][1] for nid in nids)),
        np.int64,
        count=int(lens.sum()),
    )
    nodes = np.repeat(np.asarray(nids, dtype=np.int64), lens)
    seed_lens = [len(b) for b in seed_blocks]
    n_seeded = sum(seed_lens)
    kept = np.zeros(rows.size, dtype=np.bool_)
    if n_seeded:
        origin = np.repeat(np.asarray(seed_nodes, dtype=np.int64), seed_lens)
        is_seed = rows >= n
        kept[is_seed] = origin[rows[is_seed] - n] == nodes[is_seed]
        kept_seed = np.zeros(n_seeded, dtype=np.bool_)
        kept_seed[rows[kept] - n] = True
        base = 0
        for nid, blk, m in zip(seed_nodes, seed_blocks, seed_lens):
            gone = ~kept_seed[base : base + m]
            base += m
            if gone.any():
                network.node(nid).evict_many(blk.ids[gone].tolist())
    add = np.nonzero(~kept)[0]
    if add.size == 0:
        return
    add_rows = rows[add]
    add_nodes = nodes[add]
    order = np.lexsort((add_rows, add_nodes))
    add_rows = add_rows[order]
    add_nodes = add_nodes[order]
    moved = None
    moved_rows = np.unique(add_rows[add_rows >= n])
    if moved_rows.size:
        # One block of every held row that moved, in row order.
        bases = np.cumsum([n] + seed_lens[:-1])
        which = np.searchsorted(bases, moved_rows, side="right") - 1
        js, firsts = np.unique(which, return_index=True)
        lasts = [*firsts[1:].tolist(), moved_rows.size]
        moved = ItemBlock.concat([
            seed_blocks[j].take(moved_rows[a:b] - bases[j])
            for j, a, b in zip(js.tolist(), firsts.tolist(), lasts)
        ])
    cut = (np.flatnonzero(add_nodes[1:] != add_nodes[:-1]) + 1).tolist()
    node_l = add_nodes[[0, *cut]].tolist()
    if moved is None:
        for nid, blk in zip(node_l, block.take(add_rows).runs(cut)):
            network.node(nid).store_many(blk)
        return
    for nid, lo, hi in zip(node_l, [0, *cut], [*cut, add_rows.size]):
        r = add_rows[lo:hi]  # ascending: batch rows, then moved held rows
        k = int(np.searchsorted(r, n))
        network.node(nid).store_many(ItemBlock.concat([
            block.take(r[:k]),
            moved.take(np.searchsorted(moved_rows, r[k:])),
        ]))
