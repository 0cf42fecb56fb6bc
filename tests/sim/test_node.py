"""Unit tests for the peer node storage model."""

import numpy as np
import pytest

from repro.sim.node import CapacityError, DirectoryPointer, PeerNode, StoredItem
from repro.vsm.index import ItemBlock


def make_item(item_id: int, key: int = 100, kws=(1, 2)) -> StoredItem:
    kw = np.asarray(kws, dtype=np.int64)
    return StoredItem(
        item_id=item_id,
        publish_key=key,
        angle_key=key,
        keyword_ids=kw,
        weights=np.ones(len(kw)),
    )


class TestStoredItem:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            StoredItem(1, 0, 0, np.array([1, 2]), np.array([1.0]))

    def test_replica_flag(self):
        assert not make_item(1).is_replica
        replica = StoredItem(
            1, 0, 0, np.array([1]), np.array([1.0]), replica_of=42
        )
        assert replica.is_replica


class TestCapacity:
    def test_unbounded_by_default(self):
        node = PeerNode(5)
        for i in range(100):
            node.store(make_item(i))
        assert len(node) == 100
        assert not node.is_full
        assert node.free_slots is None

    def test_capacity_enforced(self):
        node = PeerNode(5, capacity=2)
        node.store(make_item(1))
        node.store(make_item(2))
        assert node.is_full
        assert node.free_slots == 0
        with pytest.raises(CapacityError):
            node.store(make_item(3))

    def test_restore_same_item_allowed_when_full(self):
        node = PeerNode(5, capacity=1)
        node.store(make_item(1, key=10))
        node.store(make_item(1, key=20))  # republish replaces in place
        assert node.get_item(1).publish_key == 20
        assert len(node) == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PeerNode(1, capacity=0)

    def test_evict_frees_slot(self):
        node = PeerNode(5, capacity=1)
        node.store(make_item(1))
        evicted = node.evict(1)
        assert evicted.item_id == 1
        assert not node.is_full
        node.store(make_item(2))

    def test_evict_missing_raises(self):
        with pytest.raises(KeyError):
            PeerNode(5).evict(99)

    def test_utilization(self):
        node = PeerNode(5)
        for i in range(10):
            node.store(make_item(i))
        assert node.utilization(5.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            node.utilization(0.0)


    def test_store_many_refuses_run_that_does_not_fit(self):
        node = PeerNode(5, capacity=3)
        node.store(make_item(1))
        with pytest.raises(CapacityError):
            node.store_many(
                ItemBlock.from_items([make_item(2), make_item(3), make_item(4)])
            )
        assert list(node.item_ids()) == [1]  # refused whole, not partly
        node.store_many(
            ItemBlock.from_items([make_item(1, key=9), make_item(2), make_item(3)])
        )
        assert list(node.item_ids()) == [1, 2, 3]
        assert node.get_item(1).publish_key == 9

    def test_evict_many_checks_every_id_first(self):
        node = PeerNode(5)
        node.store_many(ItemBlock.from_items([make_item(1), make_item(2)]))
        with pytest.raises(KeyError):
            node.evict_many([1, 99])
        assert len(node) == 2
        assert [it.item_id for it in node.evict_many([2, 1, 2])] == [2, 1]
        assert len(node) == 0
        with pytest.raises(KeyError):
            PeerNode(6).evict_many([1])


class TestAccessors:
    def test_has_get_items(self):
        node = PeerNode(5)
        node.store(make_item(7))
        assert node.has_item(7)
        assert not node.has_item(8)
        assert node.get_item(7).item_id == 7
        assert [i.item_id for i in node.items()] == [7]
        assert list(node.item_ids()) == [7]

    def test_index_is_the_item_store(self):
        node = PeerNode(5)
        assert node.index is None and len(node) == 0
        assert list(node.items()) == [] and not node.has_item(7)
        with pytest.raises(KeyError):
            node.get_item(7)
        node.store(make_item(7))
        assert 7 in node.index and node.index.item(7) == node.get_item(7)
        node.evict(7)
        assert 7 not in node.index


class TestPointers:
    def make_pointer(self, item_id=1):
        return DirectoryPointer(
            item_id=item_id, angle_key=5, body_key=9, keyword_ids=np.array([1])
        )

    def test_pointers_do_not_consume_capacity(self):
        node = PeerNode(5, capacity=1)
        node.store(make_item(1))
        for i in range(10):
            node.add_pointer(self.make_pointer(i))
        assert node.pointer_count() == 10
        assert node.is_full  # still only one *item*

    def test_drop_pointer(self):
        node = PeerNode(5)
        node.add_pointer(self.make_pointer(3))
        assert node.drop_pointer(3)
        assert not node.drop_pointer(3)
        assert node.pointer_count() == 0

    def test_pointer_overwrite_by_item_id(self):
        node = PeerNode(5)
        node.add_pointer(self.make_pointer(3))
        node.add_pointer(self.make_pointer(3))
        assert node.pointer_count() == 1


class TestLifecycle:
    def test_fail_and_recover_preserves_items(self):
        node = PeerNode(5)
        node.store(make_item(1))
        node.fail()
        assert not node.alive
        assert node.has_item(1)
        node.recover()
        assert node.alive
