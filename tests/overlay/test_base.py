"""Direct tests for the abstract overlay layer (RouteResult, shared helpers)."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.base import RouteResult
from repro.overlay.chord import ChordOverlay
from repro.overlay.idspace import KeySpace, SortedKeyRing
from repro.overlay.tornado import TornadoOverlay
from repro.sim.network import Network

SPACE = KeySpace(1000)


def make_overlay(ids=(100, 300, 500, 700, 900)):
    overlay = TornadoOverlay(SPACE, Network())
    for nid in ids:
        overlay.add_node(nid)
    return overlay


class TestRouteResult:
    def test_hops_and_messages(self):
        r = RouteResult(origin=1, key=5, home=3, path=[1, 2, 3])
        assert r.hops == 2
        assert r.messages == 2

    def test_empty_path(self):
        r = RouteResult(origin=1, key=5, home=None, path=[])
        assert r.hops == 0


class TestMembershipHelpers:
    def test_size_and_alive_size(self):
        ov = make_overlay()
        assert ov.size == 5
        ov.node(100).fail()
        assert ov.size == 5  # registration unchanged
        assert ov.alive_size() == 4

    def test_nodes_in_key_order(self):
        ov = make_overlay((500, 100, 900))
        assert [n.node_id for n in ov.nodes()] == [100, 500, 900]

    def test_add_node_rollback_on_network_conflict(self):
        ov = make_overlay((100,))
        # Register a node directly on the network to force the conflict.
        from repro.sim.node import PeerNode

        ov.network.add_node(PeerNode(555))
        with pytest.raises(ValueError):
            ov.add_node(555)
        assert 555 not in ov.ring  # ring stayed consistent


class TestBulkAddNodes:
    """``add_nodes`` is N scalar ``add_node`` calls in one ring merge."""

    SPECS = [(700, 3), (100, None), (950, 1), (300, 8), (20, None), (510, 2)]

    @pytest.mark.parametrize("overlay_cls", [TornadoOverlay, ChordOverlay])
    def test_matches_scalar_adds(self, overlay_cls):
        scalar = overlay_cls(SPACE, Network())
        for nid, cap in self.SPECS:
            scalar.add_node(nid, capacity=cap)
        bulk = overlay_cls(SPACE, Network())
        nodes = bulk.add_nodes(self.SPECS)
        assert [n.node_id for n in nodes] == [nid for nid, _ in self.SPECS]
        assert list(bulk.ring) == list(scalar.ring)
        assert [(n.node_id, n.capacity) for n in bulk.nodes()] == [
            (n.node_id, n.capacity) for n in scalar.nodes()
        ]
        for nid, _ in self.SPECS:
            for direction in ("both", "up", "down"):
                assert list(bulk.walk_order(nid, direction)) == list(
                    scalar.walk_order(nid, direction)
                )
            for key in (0, 333, 999):
                assert bulk.route(nid, key).path == scalar.route(nid, key).path

    def test_extends_a_populated_ring(self):
        scalar = make_overlay()
        for nid in (200, 400):
            scalar.add_node(nid, capacity=5)
        bulk = make_overlay()
        bulk.add_nodes([(400, 5), (200, 5)])
        assert list(bulk.ring) == list(scalar.ring)
        assert list(bulk.walk_order(100)) == list(scalar.walk_order(100))

    def test_duplicate_id_leaves_overlay_unchanged(self):
        ov = make_overlay((100, 500))
        with pytest.raises(ValueError):
            ov.add_nodes([(300, None), (500, None)])
        assert list(ov.ring) == [100, 500]
        assert sorted(ov.network.node_ids()) == [100, 500]

    def test_network_conflict_rolls_back_ring_and_network(self):
        from repro.sim.node import PeerNode

        ov = make_overlay((100,))
        # Register a node directly on the network to force the conflict
        # midway through the batch, after two nodes were already added.
        ov.network.add_node(PeerNode(555))
        with pytest.raises(ValueError):
            ov.add_nodes([(200, None), (300, None), (555, None), (800, None)])
        assert list(ov.ring) == [100]
        assert sorted(ov.network.node_ids()) == [100, 555]
        assert list(ov.walk_order(100)) == []


class TestLiveHome:
    def test_prefers_true_home(self):
        ov = make_overlay()
        assert ov.live_home(310) == 300

    def test_falls_to_nearest_live(self):
        ov = make_overlay()
        ov.node(300).fail()
        assert ov.live_home(310) in (100, 500)
        ov.node(500).fail()
        assert ov.live_home(310) == 100

    def test_none_when_all_dead(self):
        ov = make_overlay()
        for nid in list(ov.ring):
            ov.node(nid).fail()
        assert ov.live_home(310) is None


class TestNeighborHelpers:
    def test_closest_neighbor_skips_dead(self):
        ov = make_overlay()
        ov.node(300).fail()
        assert ov.closest_neighbor(100) == 500 or ov.closest_neighbor(100) == 300
        # 300 is dead → next nearest live is 500 (or wrap candidates).
        assert ov.closest_neighbor(100) != 300

    def test_closest_neighbor_none_when_alone(self):
        ov = make_overlay((100,))
        assert ov.closest_neighbor(100) is None

    def test_replica_homes_count_and_exclusion(self):
        ov = make_overlay()
        homes = ov.replica_homes(500, 3)
        assert len(homes) == 3
        assert 500 not in homes

    def test_replica_homes_exhausts_small_ring(self):
        ov = make_overlay((100, 300))
        assert ov.replica_homes(100, 5) == [300]

    def test_closest_neighbors_wrap_mode(self):
        ov = make_overlay()
        out = list(ov.closest_neighbors(900, wrap=True))
        # Wrap ties emit the smaller key first: 100 and 700 are both 200
        # away, then 300 and 500 both 400.
        assert out == [100, 700, 300, 500]


def _stepping_reference(overlay, node_id, direction):
    """The successor/predecessor stepping loop ``walk_order("up"/"down")``
    used before it became a rank slice, kept as the differential oracle."""
    ring, space = overlay.ring, overlay.space
    order = []
    cur = node_id
    seen = {node_id}
    for _ in range(len(ring)):
        nxt = (
            ring.successor(space.wrap(cur + 1))
            if direction == "up"
            else ring.predecessor(cur)
        )
        if nxt in seen:
            break
        if direction == "up" and nxt < cur:
            break
        if direction == "down" and nxt > cur:
            break
        cur = nxt
        seen.add(cur)
        order.append(cur)
    return order


class TestWalkFrontier:
    """``walk_order`` is a lazy, liveness-unfiltered generator over the
    ring membership it started from; callers skip dead nodes and stop
    early, so a walk pays only for the entries it takes."""

    def test_both_matches_closest_neighbors(self):
        ov = make_overlay()
        for nid in (100, 500, 900):
            assert list(ov.walk_order(nid)) == list(
                ov.closest_neighbors(nid, alive_only=False)
            )

    def test_both_exact_orders(self):
        ov = make_overlay()
        # Equal linear distance: the larger key comes first.
        assert list(ov.walk_order(500)) == [700, 300, 900, 100]
        # Ids absent from the ring walk outward from where they would sit.
        assert list(ov.walk_order(400)) == [500, 300, 700, 100, 900]
        assert list(ov.walk_order(350)) == [300, 500, 100, 700, 900]
        # No wrap-around: the far end of the space is the farthest node.
        assert list(ov.walk_order(0)) == [100, 300, 500, 700, 900]
        assert list(ov.walk_order(999)) == [900, 700, 500, 300, 100]

    def test_directional_orders(self):
        ov = make_overlay()
        assert list(ov.walk_order(500, "up")) == [700, 900]    # stops at space end
        assert list(ov.walk_order(500, "down")) == [300, 100]  # no wrap-around
        assert list(ov.walk_order(900, "up")) == []
        assert list(ov.walk_order(100, "down")) == []
        assert list(ov.walk_order(400, "up")) == [500, 700, 900]
        assert list(ov.walk_order(400, "down")) == [300, 100]
        assert list(ov.walk_order(999, "up")) == []
        assert list(ov.walk_order(0, "down")) == []

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            list(make_overlay().walk_order(100, "sideways"))

    def test_membership_change_visible_to_new_frontier(self):
        ov = make_overlay()
        ov.add_node(200)
        assert list(ov.walk_order(100)) == [200, 300, 500, 700, 900]
        assert list(ov.walk_order(100, "up"))[0] == 200
        ov.remove_node(200)
        assert list(ov.walk_order(100)) == [300, 500, 700, 900]

    def test_dead_nodes_listed(self):
        ov = make_overlay()
        ov.node(300).fail()
        for direction in ("both", "up"):
            assert list(ov.walk_order(100, direction)) == [300, 500, 700, 900]
        assert list(ov.walk_order(500, "down")) == [300, 100]

    @pytest.mark.parametrize("direction", ["both", "up", "down"])
    def test_paused_frontier_keeps_its_membership(self, direction):
        # A join and a leave while a walk is paused must neither skip
        # nor repeat a key of the order the walk started on.
        ov = make_overlay()
        expected = list(ov.walk_order(500, direction))
        walk = ov.walk_order(500, direction)
        taken = [next(walk)]
        ov.add_node(200)
        ov.remove_node(900)
        assert taken + list(walk) == expected

    @given(
        st.sets(st.integers(0, 999), max_size=30),
        st.integers(0, 999),
        st.sampled_from(["up", "down"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_directional_matches_stepping_reference(self, members, probe, direction):
        ov = make_overlay(sorted(members))
        assert list(ov.walk_order(probe, direction)) == _stepping_reference(
            ov, probe, direction
        )

    @pytest.mark.parametrize("n_nodes", [1_000, 10_000])
    def test_taking_k_entries_draws_k_ring_steps(self, monkeypatch, n_nodes):
        steps = 0
        real = SortedKeyRing.neighbors_outward

        def counted(ring, key, wrap=False):
            nonlocal steps
            for nid in real(ring, key, wrap):
                steps += 1
                yield nid

        monkeypatch.setattr(SortedKeyRing, "neighbors_outward", counted)
        rng = np.random.default_rng(n_nodes)
        space = KeySpace()
        ids = np.unique(rng.integers(0, space.modulus, 2 * n_nodes))
        ov = TornadoOverlay(space, Network())
        ov.add_nodes((int(nid), None) for nid in rng.permutation(ids)[:n_nodes])
        for origin in (ov.ring.at(0), ov.ring.at(n_nodes // 2), ov.ring.at(-1)):
            for k in (1, 6, 256):
                before = steps
                assert len(list(islice(ov.walk_order(origin), k))) == k
                assert steps - before == k
