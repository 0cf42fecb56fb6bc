"""Simulated peer node: identity, liveness, and bounded item storage.

A :class:`PeerNode` is deliberately policy-free — it stores items and
directory pointers and enforces its capacity ``c``, while *which* item
to displace on overflow (the paper's least-similar replacement, Fig. 2)
is decided by :mod:`repro.core.publish`, which owns the Meteorograph
semantics.  This keeps the node reusable under every scheme the
evaluation compares (None / UnusedHash / +HotRegions / directory
pointers / replication).

The node's items live in exactly one place: the columns of its
:class:`~repro.vsm.index.LocalVsmIndex` (Fig. 2: "adopt VSM or LSI for
local indexing"), created on the first store.  Every storage accessor
below reads or writes that index, and the search, publish and cascade
engines score and pick victims on ``node.index`` directly — there is no
second copy to keep in step.  A :class:`StoredItem` is a value: the
index holds none and builds one per read, so two reads of one stored
item are equal but not identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ..vsm.index import ItemBlock, LocalVsmIndex, Row, StoredItem

__all__ = ["StoredItem", "DirectoryPointer", "PeerNode", "CapacityError"]


class CapacityError(RuntimeError):
    """Raised when adding to a full node without displacing anything."""


@dataclass(frozen=True)
class DirectoryPointer:
    """§3.5.2 directory pointer: keywords + where the item body lives.

    Published at the item's Eq. 5 angle key, pointing at its Eq. 6
    balanced key, so pointers aggregate by similarity while bodies
    spread uniformly.
    """

    item_id: int
    angle_key: int
    body_key: int
    keyword_ids: np.ndarray


class PeerNode:
    """A peer with bounded item storage.

    Parameters
    ----------
    node_id:
        The node's key in the overlay ID space.
    capacity:
        Maximum number of item bodies stored; ``None`` means unbounded
        (the paper's Figure 7/8 "infinite storage" configuration).
        Directory pointers do not count against capacity — the paper
        argues they are "quite small in size".
    service_rate:
        Optional per-node inbox service rate (fraction of global fabric
        traffic this node can absorb sustained) — the *processing*
        analogue of storage ``capacity`` heterogeneity.  Consumed by
        :meth:`repro.sim.network.Network.attach_admission`, which seeds
        the admission controller's per-node overrides from it; ``None``
        means the controller's policy-wide default applies.
    """

    def __init__(
        self,
        node_id: int,
        capacity: Optional[int] = None,
        service_rate: Optional[float] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        if service_rate is not None and service_rate <= 0:
            raise ValueError(f"service_rate must be > 0 or None, got {service_rate}")
        self.node_id = node_id
        self.capacity = capacity
        self.service_rate = service_rate
        self.alive = True
        #: The node's item store, created on the first store.
        self.index: Optional[LocalVsmIndex] = None
        self._pointers: dict[int, DirectoryPointer] = {}

    # -- storage ---------------------------------------------------------

    def _index(self) -> LocalVsmIndex:
        index = self.index
        if index is None:
            index = self.index = LocalVsmIndex()
        return index

    def __len__(self) -> int:
        index = self.index
        return 0 if index is None else len(index)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self) >= self.capacity

    @property
    def free_slots(self) -> Optional[int]:
        if self.capacity is None:
            return None
        return self.capacity - len(self)

    def utilization(self, c_ideal: float) -> float:
        """Load as a multiple of the ideal per-node load ``c`` (Fig. 8 x-axis)."""
        if c_ideal <= 0:
            raise ValueError(f"c_ideal must be > 0, got {c_ideal}")
        return len(self) / c_ideal

    def has_item(self, item_id: int) -> bool:
        index = self.index
        return index is not None and item_id in index

    def get_item(self, item_id: int) -> StoredItem:
        if self.index is None:
            raise KeyError(item_id)
        return self.index.item(item_id)

    def items(self) -> Iterator[StoredItem]:
        return iter(()) if self.index is None else self.index.items()

    def item_ids(self) -> Iterator[int]:
        return iter(()) if self.index is None else self.index.item_ids()

    def _check_room(self, item_id: int) -> None:
        if self.is_full and not self.has_item(item_id):
            raise CapacityError(
                f"node {self.node_id} full ({self.capacity}); displace before storing"
            )

    def store(self, item: StoredItem) -> None:
        """Store an item; refuses when full (caller must displace first).

        Re-storing an item id the node already holds (a republish) is
        always allowed and replaces the old copy in place.
        """
        self._check_room(item.item_id)
        self._index().add(item)

    def store_row(self, row: Row) -> None:
        """:meth:`store` of one :class:`~repro.vsm.index.Row` — the item
        a displacement chain carries, as plain values."""
        self._check_room(row.item_id)
        self._index().add_row(row)

    def store_many(self, items: ItemBlock) -> None:
        """Bulk :meth:`store`: one columnar block append.

        End state equals storing the rows one at a time in order.
        A bounded node checks its capacity for the whole run up front
        and refuses it unchanged if it does not fit.
        """
        if self.capacity is not None and len(self) + len(items) > self.capacity:
            index = self.index
            fresh = {
                iid for iid in items.ids.tolist() if index is None or iid not in index
            }
            if len(self) + len(fresh) > self.capacity:
                raise CapacityError(
                    f"node {self.node_id} full ({self.capacity}); "
                    f"{len(fresh)} new items do not fit"
                )
        self._index().add_many(items)

    def evict(self, item_id: int) -> StoredItem:
        """Remove and return an item."""
        if not self.has_item(item_id):
            raise KeyError(f"node {self.node_id} does not hold item {item_id}")
        return self.index.remove(item_id)

    def evict_row(self, item_id: int) -> Row:
        """:meth:`evict`, returning the item as a row of plain values."""
        if not self.has_item(item_id):
            raise KeyError(f"node {self.node_id} does not hold item {item_id}")
        return self.index.remove_row(item_id)

    def evict_many(self, item_ids: Sequence[int]) -> ItemBlock:
        """Bulk :meth:`evict`, returning the removed rows as a block.  An
        id the node does not hold raises ``KeyError`` before anything is
        removed; duplicates are removed once."""
        if self.index is None:
            if len(item_ids):
                raise KeyError(f"node {self.node_id} does not hold item {item_ids[0]}")
            return ItemBlock.empty()
        return self.index.remove_many(item_ids)

    # -- directory pointers (§3.5.2) --------------------------------------

    def add_pointer(self, pointer: DirectoryPointer) -> None:
        self._pointers[pointer.item_id] = pointer

    def pointers(self) -> Iterator[DirectoryPointer]:
        return iter(self._pointers.values())

    def pointer_count(self) -> int:
        return len(self._pointers)

    def drop_pointer(self, item_id: int) -> bool:
        return self._pointers.pop(item_id, None) is not None

    # -- lifecycle ---------------------------------------------------------

    def fail(self) -> None:
        """Mark the node dead.  Its stored state becomes unreachable but is
        kept so that a later :meth:`recover` models a rejoin with data."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return (
            f"PeerNode(id={self.node_id}, items={len(self)}, "
            f"cap={cap}, alive={self.alive})"
        )
