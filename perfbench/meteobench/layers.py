"""Which public entry point belongs to which layer, and the per-layer metrics.

Layers are named after the program's modules:

=========  ==========================================================
naming     ``Meteorograph.corpus_keys_multi`` / ``query_key`` and
           ``AbsoluteAngleScheme.keys_for`` (core/angles, core/naming,
           lsh/scheme)
routing    ``Meteorograph.deliver_home`` (overlay/tornado)
frontier   ``Overlay.walk_order`` / ``closest_neighbors`` and the ring
           steps of ``SortedKeyRing.neighbors_outward`` (overlay/base,
           overlay/idspace)
scoring    ``LocalVsmIndex.query`` / ``query_many`` (vsm/index)
engine     ``search.retrieve`` and ``search_batch.retrieve_many`` as
           the facade calls them
placement  ``batch_publish`` / ``publish_item`` as the facade calls
           them, and ``cascade.cascade_placement``
store      ``LocalVsmIndex.add`` / ``add_many`` / ``remove`` /
           ``remove_many`` (vsm/index)
facade     the ``Meteorograph`` methods the client calls, and ``build``
net        ``Network.send`` and ``MetricSink.charge`` (sim/network,
           sim/metrics)
gc         collector pauses, from ``gc.callbacks``
=========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from .spans import Guards, Tracer

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("naming.s", "s"),
    ("naming.calls", "count"),
    ("routing.s", "s"),
    ("routing.routes", "count"),
    ("routing.hops_per_route", "hops/route"),
    ("frontier.s", "s"),
    ("frontier.calls", "count"),
    ("frontier.ring_steps", "count"),
    ("frontier.useful_ratio", "ratio"),
    ("scoring.s", "s"),
    ("scoring.calls", "count"),
    ("scoring.queries_scored", "count"),
    ("scoring.useful_ratio", "ratio"),
    ("engine.self_s", "s"),
    ("engine.groups_per_query", "ratio"),
    ("engine.sequential_calls", "count"),
    ("placement.self_s", "s"),
    ("placement.cascade_s", "s"),
    ("placement.displace_msgs", "count"),
    ("store.s", "s"),
    ("store.calls", "count"),
    ("store.rows_per_call", "rows/call"),
    ("facade.publish_self_s", "s"),
    ("net.sends", "count"),
    ("net.send_s", "s"),
    ("net.msgs.publish", "count"),
    ("net.msgs.displace", "count"),
    ("net.msgs.retrieve", "count"),
    ("gc.pause_s", "s"),
    ("gc.collections", "count"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; undone by ``tracer.restore()``."""
    from repro.core import meteorograph
    from repro.core import cascade
    from repro.lsh.scheme import AbsoluteAngleScheme
    from repro.overlay.base import Overlay
    from repro.overlay.idspace import SortedKeyRing
    from repro.sim.metrics import MetricSink
    from repro.sim.network import Network
    from repro.vsm.index import LocalVsmIndex

    counts = tracer.counts
    M = meteorograph.Meteorograph

    def add(key, n):
        counts[key] += n

    # facade: the client's calls, plus the system build of set-up.
    for attr in ("publish_corpus", "publish", "retrieve", "retrieve_many", "build"):
        tracer.span(M, attr, f"facade:{attr}")

    # naming
    for attr in ("corpus_keys_multi", "query_key"):
        tracer.span(M, attr, f"naming:{attr}")
    tracer.span(AbsoluteAngleScheme, "keys_for", "naming:keys_for")

    # routing
    tracer.span(
        M, "deliver_home", "routing:deliver_home",
        after=lambda route, a, k: add("routing.hops", route.hops),
    )

    # frontier
    tracer.span(
        Overlay, "walk_order", "frontier:walk_order", after=tracer.materialised
    )
    tracer.stepped(Overlay, "closest_neighbors", "frontier:closest_neighbors")
    tracer.counted_ring_walk(
        SortedKeyRing, "neighbors_outward", materialiser="frontier:walk_order"
    )

    # scoring
    def scored_one(hits, args, kwargs):
        counts["scoring.queries"] += 1
        counts["scoring.hits"] += len(hits)

    def scored_many(rankings, args, kwargs):
        counts["scoring.queries"] += len(rankings)
        counts["scoring.hits"] += sum(map(len, rankings))

    tracer.span(LocalVsmIndex, "query", "scoring:query", after=scored_one)
    tracer.span(LocalVsmIndex, "query_many", "scoring:query_many", after=scored_many)

    # engine: the globals the facade resolves at call time.
    def groups(args, kwargs):
        # retrieve_many(system, origins, queries, amount, ...): one group
        # per distinct (origin, content) when no start keys are pinned.
        origins, queries = args[1], args[2]
        counts["engine.batch_queries"] += len(queries)
        counts["engine.groups"] += len({
            (o, q.indices.tobytes(), q.values.tobytes())
            for o, q in zip(origins, queries)
        })

    tracer.span(meteorograph, "retrieve", "engine:retrieve")
    tracer.span(meteorograph, "retrieve_many", "engine:retrieve_many", before=groups)

    # placement
    tracer.span(meteorograph, "batch_publish", "placement:batch_publish")
    tracer.span(meteorograph, "publish_item", "placement:publish_item")
    tracer.span(cascade, "cascade_placement", "placement:cascade_placement")

    # store
    def rows_of(out, args, kwargs):
        counts["store.rows"] += len(args[1])

    tracer.span(LocalVsmIndex, "add", "store:add",
                after=lambda out, a, k: add("store.rows", 1))
    tracer.span(LocalVsmIndex, "remove", "store:remove",
                after=lambda out, a, k: add("store.rows", 1))
    tracer.span(LocalVsmIndex, "add_many", "store:add_many", after=rows_of)
    tracer.span(LocalVsmIndex, "remove_many", "store:remove_many", after=rows_of)

    # network
    tracer.span(Network, "send", "net:send")
    tracer.span(MetricSink, "charge", "net:charge")


@dataclass
class Work:
    """Outcome counts the workload reads off the public results."""

    #: Frontier entries actually consumed: walk hops + displacement hops.
    nodes_walked: int = 0
    #: Discoveries returned to the client.
    discoveries: int = 0
    #: Message bill of the traced phase, by kind.
    bill: dict | None = None


def per_layer(
    tracer: Tracer, guards: Guards, work: Work, wall_s: float, overhead: float
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced phase."""
    c = tracer.counts
    calls = tracer.calls
    s = tracer.layer_self
    bill = work.bill or {}
    routes = calls["routing:deliver_home"]
    ring_steps = tracer.ring_steps()
    store_calls = tracer.layer_calls(
        "store:add", "store:remove", "store:add_many", "store:remove_many"
    )
    hits = c["scoring.hits"]
    values = {
        "naming.s": s("naming"),
        "naming.calls": tracer.layer_calls(
            "naming:corpus_keys_multi", "naming:query_key", "naming:keys_for"
        ),
        "routing.s": s("routing"),
        "routing.routes": routes,
        "routing.hops_per_route": c["routing.hops"] / routes if routes else 0.0,
        "frontier.s": s("frontier"),
        "frontier.calls": tracer.layer_calls(
            "frontier:walk_order", "frontier:closest_neighbors"
        ),
        "frontier.ring_steps": ring_steps,
        "frontier.useful_ratio": work.nodes_walked / ring_steps if ring_steps else 0.0,
        "scoring.s": s("scoring"),
        "scoring.calls": tracer.layer_calls("scoring:query", "scoring:query_many"),
        "scoring.queries_scored": c["scoring.queries"],
        "scoring.useful_ratio": work.discoveries / hits if hits else 0.0,
        "engine.self_s": s("engine"),
        "engine.groups_per_query": (
            c["engine.groups"] / c["engine.batch_queries"]
            if c["engine.batch_queries"] else 0.0
        ),
        "engine.sequential_calls": guards.sequential_calls,
        "placement.self_s": (
            tracer.self_s["placement:batch_publish"]
            + tracer.self_s["placement:publish_item"]
        ),
        "placement.cascade_s": tracer.self_s["placement:cascade_placement"],
        "placement.displace_msgs": bill.get("displace", 0),
        "store.s": s("store"),
        "store.calls": store_calls,
        "store.rows_per_call": c["store.rows"] / store_calls if store_calls else 0.0,
        "facade.publish_self_s": (
            tracer.self_s["facade:publish_corpus"] + tracer.self_s["facade:publish"]
        ),
        "net.sends": calls["net:send"],
        "net.send_s": s("net"),
        "net.msgs.publish": bill.get("publish", 0),
        "net.msgs.displace": bill.get("displace", 0),
        "net.msgs.retrieve": bill.get("retrieve", 0),
        "gc.pause_s": s("gc"),
        "gc.collections": calls["gc:collect"],
        "trace.attributed_frac": tracer.attributed_s() / wall_s if wall_s else 0.0,
        "trace.overhead_frac": overhead,
    }
    return values
