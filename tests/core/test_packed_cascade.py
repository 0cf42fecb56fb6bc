"""Exactness of the packed-int cascade encoding (repro.core.cascade).

A shadow entry packs (angle key, item id, batch row) into one int, so
ladder order, victim ties and the replace-a-held-id rule all ride on
the encoding.  Each case runs one batch ``publish_corpus`` through the
cascade engine and through the per-item chain loop (``cascade=False``)
from the same starting ring and compares placements, per-node ladders,
stored item contents, the message bill and every per-row result field.
The last class pins that the batch paths build no ``StoredItem``.
"""

import numpy as np
import pytest

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.sim.node import StoredItem
from repro.workload import WorldCupParams, generate_trace

N_ITEMS = 400
N_NODES = 80


def make_trace(seed=19980724, n_items=N_ITEMS):
    return generate_trace(WorldCupParams(n_items=n_items, n_keywords=300), seed=seed)


def build_system(trace, *, capacity, **cfg_kwargs):
    rng = np.random.default_rng(5)
    sample_ids = np.sort(rng.choice(trace.corpus.n_items, 50, replace=False))
    cfg_kwargs.setdefault("scheme", PlacementScheme.UNUSED_HASH)
    cfg = MeteorographConfig(node_capacity=capacity, **cfg_kwargs)
    return Meteorograph.build(
        N_NODES,
        trace.corpus.dim,
        rng=np.random.default_rng(9),
        sample=trace.corpus.subsample(sample_ids),
        config=cfg,
    )


def node_state(system):
    """node id → (ladder, sorted item contents) for every node with a store."""
    out = {}
    for node in system.network.nodes():
        if node.index is None:
            continue
        contents = sorted(
            (
                it.item_id,
                it.publish_key,
                it.angle_key,
                tuple(it.keyword_ids.tolist()),
                tuple(it.weights.tolist()),
            )
            for it in node.items()
        )
        out[node.node_id] = (list(node.index.angle_ladder()), contents)
    return out


def row_fields(results):
    return [
        (
            r.item_id,
            r.home,
            r.route_hops,
            r.displacement_hops,
            r.success,
            r.dropped_item_id,
            tuple(r.chain),
        )
        for r in results
    ]


def run(trace, corpus, *, cascade, capacity, item_ids=None, preload=None, **cfg):
    """Publish ``corpus`` in one batch after an optional preload batch;
    returns everything the two engines must agree on."""
    system = build_system(trace, capacity=capacity, **cfg)
    if preload is not None:
        pre_corpus, pre_ids = preload
        system.publish_corpus(
            pre_corpus, np.random.default_rng(2), item_ids=pre_ids,
            batch=True, cascade=False,
        )
    results = system.publish_corpus(
        corpus, np.random.default_rng(3), item_ids=item_ids,
        batch=True, cascade=cascade,
    )
    return node_state(system), system.network.sink.snapshot(), row_fields(results)


def assert_engines_agree(trace, corpus, **kwargs):
    cas = run(trace, corpus, cascade=True, **kwargs)
    seq = run(trace, corpus, cascade=False, **kwargs)
    assert cas[0] == seq[0]  # placements, ladders and stored contents
    assert cas[1] == seq[1]  # the message bill
    assert cas[2] == seq[2]  # every per-row result field
    return cas


class TestPackedEncoding:
    def test_id_repeated_within_one_batch(self):
        trace = make_trace()
        ids = np.arange(N_ITEMS, dtype=np.int64)
        ids[1::7] = ids[0::7][: ids[1::7].size]  # every 7th id appears twice
        _, bill, _ = assert_engines_agree(
            trace, trace.corpus, capacity=5, item_ids=ids
        )
        assert bill.get("displace", 0) > 0

    def test_republish_held_ids_with_changed_content(self):
        """A loaded ring takes a batch whose ids are partly held already,
        with other vectors: the admitted copy replaces the held one."""
        first = make_trace(seed=11)
        second = make_trace(seed=22)
        ids2 = np.arange(N_ITEMS // 2, N_ITEMS // 2 + N_ITEMS, dtype=np.int64)
        state, bill, _ = assert_engines_agree(
            first, second.corpus, capacity=9, item_ids=ids2,
            preload=(first.corpus, np.arange(N_ITEMS, dtype=np.int64)),
        )
        assert bill.get("displace", 0) > 0
        # A republished id whose new keys lead elsewhere leaves its old
        # copy in place (store replaces only on the node it lands on).
        held = [c[0] for _, contents in state.values() for c in contents]
        assert len(set(held)) < len(held)

    @pytest.mark.parametrize("offset", [-(N_ITEMS // 2), 1 << 32, -(1 << 40), 1 << 62])
    def test_negative_and_wide_ids(self, offset):
        trace = make_trace()
        ids = np.arange(N_ITEMS, dtype=np.int64) + offset
        ids[::2] *= -1 if offset > 0 else 1  # mix signs for the wide case
        _, bill, rows = assert_engines_agree(
            trace, trace.corpus, capacity=5, hop_budget=2, item_ids=ids
        )
        assert any(not r[4] for r in rows)
        assert bill.get("displace", 0) > 0

    def test_many_items_on_one_angle_key(self):
        """Identical vectors share angle and publish keys, so every victim
        choice among them is the item-id tie-break."""
        trace = make_trace()
        rows = np.concatenate([np.zeros(120, dtype=np.int64), np.arange(1, 200)])
        corpus = trace.corpus.subsample(rows)
        ids = np.random.default_rng(4).permutation(rows.size) * 3 - 100
        _, bill, _ = assert_engines_agree(trace, corpus, capacity=4, item_ids=ids)
        assert bill.get("displace", 0) > 0

    @pytest.mark.parametrize("budget", [None, 0, 2])
    @pytest.mark.parametrize("capacity", [3, 12, 40])
    def test_cosine_lsh_band_copies(self, capacity, budget):
        trace = make_trace()
        assert_engines_agree(
            trace, trace.corpus, capacity=capacity, hop_budget=budget,
            scheme=PlacementScheme.NONE, naming_scheme="cosine-lsh", lsh_bands=4,
        )


class TestNoItemObjects:
    """A batch publish moves columns: neither the bulk branch nor the
    cascade constructs a StoredItem, and the per-item chain loop moves
    rows."""

    @pytest.fixture
    def constructed(self, monkeypatch):
        count = [0]
        original = StoredItem.__post_init__

        def counting(self):
            count[0] += 1
            original(self)

        monkeypatch.setattr(StoredItem, "__post_init__", counting)
        return count

    @pytest.mark.parametrize("capacity", [None, 5])
    def test_batch_publish_builds_no_stored_item(self, constructed, capacity):
        trace = make_trace()
        system = build_system(trace, capacity=capacity)
        results = system.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True
        )
        assert constructed[0] == 0
        assert len(results) == N_ITEMS
        if capacity is not None:
            assert system.network.sink.count("displace") > 0

    def test_chain_loop_builds_no_stored_item(self, constructed):
        trace = make_trace()
        system = build_system(trace, capacity=5)
        system.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True, cascade=False
        )
        assert system.network.sink.count("displace") > 0
        assert constructed[0] == 0

    def test_cascade_over_loaded_ring_builds_no_stored_item(self, constructed):
        trace = make_trace()
        system = build_system(trace, capacity=7)
        system.publish_corpus(trace.corpus, np.random.default_rng(3), batch=True)
        system.publish_corpus(
            make_trace(seed=5).corpus, np.random.default_rng(4),
            item_ids=np.arange(N_ITEMS, 2 * N_ITEMS), batch=True,
        )
        assert constructed[0] == 0
        # Reads build views on demand.
        node = max(system.network.nodes(), key=len)
        assert len(list(node.items())) == len(node)
        assert constructed[0] == len(node)

    def test_views_are_values(self):
        trace = make_trace()
        system = build_system(trace, capacity=None)
        system.publish_corpus(
            trace.corpus.subsample(np.arange(4)), np.random.default_rng(3), batch=True
        )
        node = next(n for n in system.network.nodes() if len(n))
        iid = next(node.item_ids())
        assert node.get_item(iid) == node.get_item(iid)
        assert node.get_item(iid) is not node.get_item(iid)
