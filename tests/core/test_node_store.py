"""One item store per node: a node's local index is where its items live.

Regression tests for two ways a second per-node copy of the items used
to diverge from the index that retrieves score: ``graceful_leave``
handed items to the neighbour's storage but not to its index, and a
node that left and rejoined under the same id kept serving its old
index.
"""

import numpy as np
import pytest

from repro.overlay.membership import graceful_leave


@pytest.fixture(autouse=True)
def _bind_builder(build_system_fn):
    globals()["build_small_system"] = build_system_fn


def loaded_ring(trace):
    system = build_small_system(trace, n_nodes=100)
    system.publish_corpus(trace.corpus, np.random.default_rng(1))
    return system


def found_at(system, node_id, item_ids, corpus):
    """Items a retrieve harvested at ``node_id`` (no walk), each queried
    with its own vector."""
    found = set()
    for iid in item_ids:
        res = system.retrieve(
            node_id, corpus.vector(iid), None, start_key=node_id, max_walk=0
        )
        found.update(d.item_id for d in res.discoveries if d.node_id == node_id)
    return found & set(item_ids)


class TestOneStorePerNode:
    def test_graceful_leave_items_retrievable_at_neighbour(self, small_trace):
        system = loaded_ring(small_trace)
        leaver = max(system.network.nodes(), key=len).node_id
        handed = sorted(system.network.node(leaver).item_ids())
        neighbour = system.overlay.closest_neighbor(leaver, alive_only=True)
        moved = graceful_leave(system.overlay, leaver)
        assert moved == len(handed) > 0
        node = system.network.node(neighbour)
        assert all(node.has_item(iid) for iid in handed)
        assert found_at(system, neighbour, handed, small_trace.corpus) == set(handed)

    def test_rejoined_node_serves_no_ghost_items(self, small_trace):
        system = loaded_ring(small_trace)
        nid = max(system.network.nodes(), key=len).node_id
        departed = sorted(system.network.node(nid).item_ids())
        assert departed
        system.overlay.remove_node(nid)
        system.overlay.add_node(nid)
        assert len(system.network.node(nid)) == 0
        assert found_at(system, nid, departed, small_trace.corpus) == set()
