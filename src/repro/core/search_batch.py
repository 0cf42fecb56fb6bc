"""Batch retrieval: many similarity queries in one shared sweep.

The write path does one route + one sorted ring sweep for a whole
corpus (``batch_publish``, the cascade engine); this module is the read
counterpart.  A Zipf query storm concentrates thousands of queries on a
handful of hot keys, and the sequential loop pays a full route, walk,
and per-node index query for every one of them.  :func:`retrieve_many`
shares the work three ways:

1. **route resolution** — queries are grouped by content and sorted by
   key; each distinct (origin, key) pair is routed once through the
   epoch-cached route kernel and its path is *replayed* (same message
   charges, no recomputation) for every duplicate;
2. **walk frontiers** — queries landing on the same home consult
   neighbors through one lazy
   :meth:`~repro.overlay.base.Overlay.walk_order`, advanced wave by
   wave so every co-located query harvests a node the moment the
   shared sweep reaches it, and drawn only as far as the longest walk;
3. **index scoring** — each consulted node ranks all active queries in
   one vectorised :meth:`~repro.vsm.index.LocalVsmIndex.query_many`
   pass instead of one ``local_index_query`` per query.

**Equivalence contract** (DESIGN.md, "Read path"): every returned
:class:`~repro.core.search.RetrieveResult` — discoveries, scores,
per-item hops, route/walk hops, reply messages, visited lists,
completeness — and every message charged on the network sink is
identical to what N sequential :func:`~repro.core.search.retrieve`
calls would produce.  This holds because, absent back-pressure and
retries, routing is deterministic and walks/harvests are read-only:
duplicate queries are *replays*, not approximations.

**Fallback**: under directory pointers, admission control, link faults
or a retry policy the per-query protocols have side effects or
non-replayable message charges, so the engine degrades to the exact
sequential loop — mirroring ``batch_publish``'s guard.  Replication
needs no fallback: replicas are ordinary stored items on the read
path, so harvests stay read-only and replayable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from ..vsm.sparse import SparseVector
from .search import Direction, Discovery, RetrieveResult, retrieve, retrieve_with_pointers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .meteorograph import Meteorograph

__all__ = ["retrieve_many"]


class _Group:
    """One unique (origin, query content) unit of work and its state."""

    __slots__ = (
        "origin", "query", "key", "members", "home", "result",
        "seen", "dry", "walked", "current", "ledger", "active",
    )

    def __init__(self, origin: int, query: SparseVector, key: int) -> None:
        self.origin = origin
        self.query = query
        self.key = key
        self.members: list[int] = []
        self.home: Optional[int] = None
        self.result: Optional[RetrieveResult] = None
        self.seen: set[int] = set()
        self.dry = 0
        self.walked = 0
        self.current = origin
        #: Every (src, dst) send this group charged, in order — replayed
        #: verbatim for each duplicate member so sink totals match the
        #: sequential loop exactly.
        self.ledger: list[tuple[int, int]] = []
        self.active = True


def _sequential(
    system: "Meteorograph",
    origins: list[int],
    queries: Sequence[SparseVector],
    amount: Optional[int],
    kwargs: dict,
    start_keys: Optional[Sequence[int]] = None,
) -> list[RetrieveResult]:
    fn = retrieve_with_pointers if system.config.directory_pointers else retrieve
    if start_keys is None:
        return [fn(system, o, q, amount, **kwargs) for o, q in zip(origins, queries)]
    return [
        fn(system, o, q, amount, **{**kwargs, "start_key": int(k)})
        for o, q, k in zip(origins, queries, start_keys)
    ]


def _rank_at(node, groups: list, require_all, min_score: float) -> list[list]:
    """Every group's full ranking at one node, scored in one pass on the
    node's item store (a node that never stored anything ranks nothing)."""
    if node.index is None:
        return [[] for _ in groups]
    return node.index.query_many(
        [g.query for g in groups], require_all=require_all, min_score=min_score
    )


def _harvest(
    g: _Group,
    ranked: list,
    node_id: int,
    hops_here: int,
    amount: Optional[int],
) -> int:
    """Fold one node's full ranking into a group — ``retrieve``'s inner
    harvest verbatim: the ``amount`` budget is applied as a prefix of
    the ranking *before* deduplication, so already-seen items consume
    budget exactly as they do sequentially."""
    result = g.result
    if amount is not None:
        ranked = ranked[: amount - len(result.discoveries)]
    fresh = 0
    seen = g.seen
    for h in ranked:
        iid = h.item_id
        if iid in seen:
            continue
        seen.add(iid)
        result.discoveries.append(Discovery(iid, node_id, h.score, hops_here))
        fresh += 1
    if fresh:
        result.reply_messages += 1
    return fresh


def retrieve_many(
    system: "Meteorograph",
    origin: Union[int, Sequence[int]],
    queries: Sequence[SparseVector],
    amount: Optional[int],
    *,
    require_all: Optional[Sequence[int]] = None,
    min_score: float = 0.0,
    patience: int = 8,
    max_walk: Optional[int] = None,
    start_key: Optional[int] = None,
    start_keys: Optional[Sequence[int]] = None,
    direction: Direction = "both",
) -> list[RetrieveResult]:
    """Run many retrieves as one shared sweep; results element-wise equal
    to ``[retrieve(system, o_i, q_i, amount, ...) for i]``.

    ``origin`` is a single node id applied to every query, or one id per
    query.  ``start_keys`` gives one start key per query (the multi-probe
    engine sends each query to its own band bucket); ``start_key`` is the
    shared-scalar form, mutually exclusive with it.  All other knobs are
    shared across the batch (bucket by knob and call once per bucket to
    vary them — that is what the facade's ``Meteorograph.retrieve_many``
    does for first-hop start keys).
    """
    if amount is not None and amount < 1:
        raise ValueError(f"amount must be >= 1 or None, got {amount}")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    if start_key is not None and start_keys is not None:
        raise ValueError("pass start_key or start_keys, not both")
    if start_keys is not None and len(start_keys) != len(queries):
        raise ValueError(
            f"{len(start_keys)} start_keys for {len(queries)} queries"
        )
    if isinstance(origin, (int, np.integer)):
        origins = [int(origin)] * len(queries)
    else:
        origins = [int(o) for o in origin]
        if len(origins) != len(queries):
            raise ValueError(
                f"{len(origins)} origins for {len(queries)} queries"
            )
    if not queries:
        return []
    kwargs = dict(
        require_all=require_all, min_score=min_score, patience=patience,
        max_walk=max_walk, start_key=start_key, direction=direction,
    )
    # Sequential fallback: these features make per-query execution
    # non-replayable (shedding and retries charge data-dependent extra
    # messages; pointer mode is a different protocol; link faults drop
    # or duplicate data-dependently per message) — same guard shape as
    # batch_publish.
    if (
        system.config.directory_pointers
        or system.network.admission is not None
        or system.network.link_faults is not None
        or system.config.retry_policy is not None
    ):
        return _sequential(system, origins, queries, amount, kwargs, start_keys)

    network = system.network
    obs = network.obs
    metrics = obs.metrics
    results: list[Optional[RetrieveResult]] = [None] * len(queries)
    with obs.tracer.span(
        "retrieve_batch", queries=len(queries), amount=amount
    ) as sp:
        with metrics.timer("kernel.retrieve_batch"):
            # -- 1. dedup: one group per unique (origin, key, content) --
            # The key joins the group identity because per-query
            # ``start_keys`` can send identical content to different
            # band buckets; content-only query_key resolution is still
            # memoised so duplicates cost one key computation.
            groups: dict[tuple, _Group] = {}
            qkey_memo: dict[tuple, int] = {}
            for i, (o, q) in enumerate(zip(origins, queries)):
                content = (q.indices.tobytes(), q.values.tobytes())
                if start_keys is not None:
                    key = int(start_keys[i])
                elif start_key is not None:
                    key = start_key
                else:
                    key = qkey_memo.get(content)
                    if key is None:
                        key = qkey_memo[content] = system.query_key(q)
                gkey = (o, key, content)
                g = groups.get(gkey)
                if g is None:
                    g = groups[gkey] = _Group(o, q, key)
                g.members.append(i)

            # -- 2. route resolution, key-sorted, one live route per
            #       unique (origin, key); duplicates replay the path ----
            route_cache: dict[tuple[int, int], object] = {}
            by_home: dict[int, list[_Group]] = {}
            for g in sorted(groups.values(), key=lambda g: (g.key, g.origin)):
                rkey = (g.origin, g.key)
                route = route_cache.get(rkey)
                if route is None:
                    route = system.deliver_home(g.origin, g.key, kind="retrieve")
                    route_cache[rkey] = route
                else:
                    for s, d in zip(route.path, route.path[1:]):
                        network.send(s, d, kind="retrieve")
                assert route.home is not None
                g.home = route.home
                g.ledger.extend(zip(route.path, route.path[1:]))
                g.result = RetrieveResult(route_hops=route.hops)
                g.result.visited.append(route.home)
                g.current = route.home
                by_home.setdefault(route.home, []).append(g)

            # -- 3. per home: harvest, then advance all co-located
            #       queries through the shared walk order in waves ------
            with metrics.timer("kernel.walk"):
                for home, hgroups in by_home.items():
                    rankings = _rank_at(
                        network.node(home), hgroups, require_all, min_score
                    )
                    for g, ranked in zip(hgroups, rankings):
                        _harvest(g, ranked, home, g.result.route_hops, amount)
                    walkers = hgroups
                    for neighbor in system.overlay.walk_order(home, direction):
                        if not network.is_alive(neighbor):
                            continue
                        active: list[_Group] = []
                        for g in walkers:
                            if (
                                amount is not None
                                and len(g.result.discoveries) >= amount
                            ):
                                continue
                            if max_walk is not None and g.walked >= max_walk:
                                g.result.complete = amount is None
                                continue
                            if amount is None and g.dry >= patience:
                                continue
                            active.append(g)
                        walkers = active
                        if not walkers:
                            break
                        for g in walkers:
                            network.send(g.current, neighbor, kind="retrieve")
                            g.ledger.append((g.current, neighbor))
                            g.current = neighbor
                            g.walked += 1
                            g.result.walk_hops += 1
                            g.result.visited.append(neighbor)
                        rankings = _rank_at(
                            network.node(neighbor), walkers, require_all, min_score
                        )
                        for g, ranked in zip(walkers, rankings):
                            fresh = _harvest(
                                g, ranked, neighbor,
                                g.result.route_hops + g.walked, amount,
                            )
                            g.dry = 0 if fresh else g.dry + 1
                    for g in hgroups:
                        if (
                            amount is not None
                            and len(g.result.discoveries) < amount
                        ):
                            g.result.complete = False

            # -- 4. scatter: representative result to the first member,
            #       ledger replay + copy to every duplicate --------------
            replayed = 0
            for g in groups.values():
                results[g.members[0]] = g.result
                for i in g.members[1:]:
                    for s, d in g.ledger:
                        network.send(s, d, kind="retrieve")
                    replayed += 1
                    dup = RetrieveResult(
                        discoveries=list(g.result.discoveries),
                        route_hops=g.result.route_hops,
                        walk_hops=g.result.walk_hops,
                        reply_messages=g.result.reply_messages,
                        visited=list(g.result.visited),
                        complete=g.result.complete,
                    )
                    results[i] = dup
        metrics.counter("retrieve.batch.queries", len(queries))
        metrics.counter("retrieve.batch.groups", len(groups))
        metrics.counter("retrieve.batch.homes", len(by_home))
        metrics.counter("retrieve.batch.replayed", replayed)
        sp.set(
            groups=len(groups),
            homes=len(by_home),
            found=sum(r.found for r in results),
        )
    return results
