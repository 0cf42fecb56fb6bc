"""Cascade placement engine internals (repro.core.cascade).

The placement/accounting equivalence property lives in
``test_batch_publish.py`` (TestCascadeEquivalence); this file pins the
engine's contracts that the property cannot see: lazy frontier work,
seeding from items stored straight into a node, observability parity,
and shadow seeding from pre-populated nodes.
"""

import numpy as np
import pytest

from repro.core.cascade import cascade_placement, fallback_reason
from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.publish import ReplacementPolicy, run_displacement_chain
from repro.sim.linkfaults import LinkFaultPlane
from repro.sim.node import StoredItem
from repro.vsm.index import ItemBlock
from repro.workload import WorldCupParams, generate_trace

N_ITEMS = 400
N_NODES = 80


def make_trace(seed=19980724):
    return generate_trace(
        WorldCupParams(n_items=N_ITEMS, n_keywords=300), seed=seed
    )


def build_system(trace, *, capacity=None, seed=9, **cfg_kwargs):
    rng = np.random.default_rng(5)
    sample_ids = np.sort(rng.choice(trace.corpus.n_items, 50, replace=False))
    cfg_kwargs.setdefault("scheme", PlacementScheme.UNUSED_HASH)
    cfg = MeteorographConfig(node_capacity=capacity, **cfg_kwargs)
    return Meteorograph.build(
        N_NODES,
        trace.corpus.dim,
        rng=np.random.default_rng(seed),
        sample=trace.corpus.subsample(sample_ids),
        config=cfg,
    )


def placements(system):
    return {
        node.node_id: frozenset(node.item_ids())
        for node in system.network.nodes()
        if len(node)
    }


def make_item(item_id, key, dim=300):
    return StoredItem(
        item_id=item_id,
        publish_key=key,
        angle_key=key,
        keyword_ids=np.array([1, 2], dtype=np.int64),
        weights=np.array([1.0, 2.0]),
    )


class TestLazyFrontier:
    def test_no_displacement_publish_does_zero_neighbor_ordering(self):
        """Satellite: a publish landing on a non-full home must never
        even *construct* the closest-neighbors frontier."""
        trace = make_trace()
        system = build_system(trace)  # infinite capacity: nothing displaces
        calls = []
        original = system.overlay.closest_neighbors

        def spying(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        system.overlay.closest_neighbors = spying
        home = next(iter(system.overlay.ring))
        run_displacement_chain(system, home, make_item(1, 100))
        assert calls == []

    def test_full_home_still_walks_frontier(self):
        trace = make_trace()
        system = build_system(trace, capacity=1)
        calls = []
        original = system.overlay.closest_neighbors

        def spying(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        home = next(iter(system.overlay.ring))
        system.store_at(home, make_item(1, 100))  # fill the home
        system.overlay.closest_neighbors = spying
        res = run_displacement_chain(system, home, make_item(2, 101))
        assert res.success
        assert len(calls) == 1


class TestCascadeSupport:
    def test_cosine_unsupported(self):
        trace = make_trace()
        system = build_system(trace)
        assert fallback_reason(system, ReplacementPolicy.ANGLE) is None
        assert fallback_reason(system, ReplacementPolicy.COSINE) == "cosine"

    def test_notifications_force_fallback(self):
        trace = make_trace()
        system = build_system(trace)
        system.notifications = object()  # any attached service
        assert fallback_reason(system, ReplacementPolicy.ANGLE) == "notify"

    def _faulty_run(self, trace, cascade):
        system = build_system(trace, capacity=5)
        plane = system.network.attach_link_faults(
            LinkFaultPlane(seed=11, drop_prob=0.1)
        )
        system.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True, cascade=cascade
        )
        return (
            placements(system),
            system.network.sink.snapshot(),
            (plane.charged, plane.delivered, plane.dropped, plane.duplicated),
        )

    def test_link_faults_force_fallback(self):
        """Every displace message must cross an attached fault plane,
        which the engine's bulk charge would bypass: auto mode runs the
        chain loop, so placements, bill and plane counters all match."""
        trace = make_trace()
        auto = self._faulty_run(trace, None)
        assert auto == self._faulty_run(trace, False)
        assert auto[1].get("displace", 0) > 0  # the batch displaces
        assert auto[2][2] > 0  # and the plane drops some of it

    def test_forced_cascade_rejected_with_link_faults(self):
        trace = make_trace()
        with pytest.raises(ValueError, match="link faults"):
            self._faulty_run(trace, True)


class TestBillParity:
    def _run(self, trace, cascade, **cfg_kwargs):
        system = build_system(trace, capacity=5, observability=True, **cfg_kwargs)
        system.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True, cascade=cascade
        )
        sent = {
            k: v
            for k, v in system.obs.metrics.counters.items()
            if k.startswith("net.sent.")
        }
        return placements(system), system.network.sink.snapshot(), sent

    def test_zero_hop_budget_adds_no_bill_key(self):
        """With ``hop_budget=0`` no chain hops, so the engine must not
        create the zero-valued ``displace`` entries the chain loop never
        makes (a snapshot-equality check like ``build --check``'s)."""
        trace = make_trace()
        cas = self._run(trace, True, hop_budget=0)
        assert cas == self._run(trace, False, hop_budget=0)
        assert "displace" not in cas[1]

    def test_multi_key_copies_meeting_on_a_node(self):
        """Under cosine-LSH an item's L copies share an id and an angle
        key; displacement can push one onto a node holding another, and
        the admitted copy must replace the held one exactly as
        ``store_at`` does."""
        trace = make_trace()
        cfg = dict(scheme=PlacementScheme.NONE, naming_scheme="cosine-lsh")
        runs = {}
        for cascade in (True, False):
            system = build_system(trace, capacity=12, **cfg)
            results = system.publish_corpus(
                trace.corpus, np.random.default_rng(3), batch=True, cascade=cascade
            )
            runs[cascade] = (
                {
                    n.node_id: sorted((it.item_id, it.publish_key) for it in n.items())
                    for n in system.network.nodes()
                },
                system.network.sink.snapshot(),
                [(r.home, r.success, r.dropped_item_id) for r in results],
            )
        assert runs[True] == runs[False]


class TestDirectNodeStore:
    def test_item_stored_on_node_seeds_cascade_like_sequential(self):
        """An item stored straight into a node (not through a publish)
        is in the node's only item store, so the engine seeds from it and
        places the batch exactly as the sequential loop does."""
        trace = make_trace()
        # Store into a node the batch fills: a dry run finds one.
        dry = build_system(trace, capacity=5)
        dry.publish_corpus(trace.corpus, np.random.default_rng(3), batch=True)
        home = max(dry.network.nodes(), key=len).node_id
        assert dry.network.node(home).is_full
        runs = {}
        for cascade in (False, True):
            system = build_system(trace, capacity=5)
            system.network.node(home).store(make_item(10_000, 100))
            results = system.publish_corpus(
                trace.corpus, np.random.default_rng(3), batch=True, cascade=cascade
            )
            runs[cascade] = (
                placements(system),
                system.network.sink.snapshot(),
                [(r.home, r.displacement_hops, r.dropped_item_id) for r in results],
            )
        assert runs[True] == runs[False]
        assert runs[True][1].get("displace", 0) > 0  # the batch displaces

    def test_engine_returns_filled_results(self):
        trace = make_trace()
        system = build_system(trace, capacity=4)
        home = next(iter(system.overlay.ring))
        system.network.node(home).store(make_item(1, 100))
        placed = cascade_placement(
            system,
            ItemBlock.from_items([make_item(2, 101), make_item(3, 102)]),
            [home, home],
            [0, 0],
        )
        assert placed.item_ids.tolist() == [2, 3]
        assert placed.success.all()
        assert sorted(system.network.node(home).item_ids()) == [1, 2, 3]


class TestObservabilityParity:
    def _run(self, cascade):
        trace = make_trace()
        system = build_system(trace, capacity=5, observability=True)
        system.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True, cascade=cascade
        )
        return system

    def test_counters_and_events_match_sequential(self):
        seq = self._run(False)
        cas = self._run(True)
        sm, cm = seq.obs.metrics, cas.obs.metrics
        assert sm.counters.get("net.sent.displace") == cm.counters.get(
            "net.sent.displace"
        )
        assert sm.buckets.get("net.node_inbox") == cm.buckets.get("net.node_inbox")
        seq_ev = [
            (s.attrs["src"], s.attrs["dst"], s.attrs["item"])
            for s in seq.obs.tracer.find("displace")
        ]
        cas_ev = [
            (s.attrs["src"], s.attrs["dst"], s.attrs["item"])
            for s in cas.obs.tracer.find("displace")
        ]
        assert seq_ev == cas_ev
        assert seq_ev  # the scenario actually displaces

    def test_cascade_metrics_emitted(self):
        cas = self._run(True)
        c = cas.obs.metrics.counters
        assert c["publish.cascade_items"] == N_ITEMS
        assert c["publish.cascade_spills"] == c["net.sent.displace"]
        assert "publish.cascade" in cas.obs.metrics.timers

    def test_fallback_counter_on_cosine(self):
        trace = make_trace()
        system = build_system(
            trace,
            capacity=5,
            observability=True,
            replacement_policy=ReplacementPolicy.COSINE,
        )
        system.publish_corpus(trace.corpus, np.random.default_rng(3), batch=True)
        # COSINE falls back by configuration: the engine never runs.
        assert "publish.cascade_items" not in system.obs.metrics.counters
        assert "publish.cascade" not in system.obs.metrics.timers
        assert "publish.displace_chain" in system.obs.metrics.timers


class TestPrePopulatedSeeding:
    def test_second_batch_over_loaded_ring_matches_sequential(self):
        """Shadows seeded from non-empty nodes: publish one corpus, then
        cascade a second one over the already-loaded ring and compare
        with the sequential loop (exercises moved-norm reconcile for
        pre-existing items displaced by the new batch)."""
        first = make_trace(seed=11)
        second = make_trace(seed=22)
        seq_sys = build_system(first, capacity=7)
        cas_sys = build_system(first, capacity=7)
        ids2 = np.arange(N_ITEMS, 2 * N_ITEMS, dtype=np.int64)
        for sys_, cascade in ((seq_sys, False), (cas_sys, True)):
            sys_.publish_corpus(
                first.corpus, np.random.default_rng(3), batch=True, cascade=False
            )
            sys_.publish_corpus(
                second.corpus,
                np.random.default_rng(4),
                item_ids=ids2,
                batch=True,
                cascade=cascade,
            )
        assert placements(seq_sys) == placements(cas_sys)
        # Index norms stay queryable for every stored item (the moved-
        # norm bookkeeping didn't lose or fabricate entries).
        for sys_ in (seq_sys, cas_sys):
            for node in sys_.network.nodes():
                for iid in node.item_ids():
                    node.index.norm_of(iid)  # must not raise

    def test_retrieve_after_cascade_matches_sequential(self):
        """The reconciled inverted indexes answer queries identically."""
        trace = make_trace()
        seq_sys = build_system(trace, capacity=6)
        cas_sys = build_system(trace, capacity=6)
        seq_sys.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True, cascade=False
        )
        cas_sys.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True, cascade=True
        )
        rng = np.random.default_rng(8)
        for row in rng.choice(N_ITEMS, size=20, replace=False).tolist():
            q = trace.corpus.vector(row)
            origin_seq = seq_sys.random_origin(np.random.default_rng(1))
            origin_cas = cas_sys.random_origin(np.random.default_rng(1))
            a = seq_sys.retrieve(origin_seq, q, 5)
            b = cas_sys.retrieve(origin_cas, q, 5)
            assert [d.item_id for d in a.discoveries] == [
                d.item_id for d in b.discoveries
            ]
