"""Per-node local indexes (Fig. 2: "adopt VSM or LSI for local indexing").

When a retrieve reaches a node, the node must answer "which of my
stored items are most relevant to this query?"  :class:`LocalVsmIndex`
implements the plain vector-space answer: cosine ranking, optional
exact keyword filtering, and the *least-similar* selection that drives
the publish-side replacement policy.  It is also the node's only item
store: each :class:`~repro.sim.node.PeerNode` creates one on its first
store and reads and writes its items through it.

The store is **columns only** (structure-of-arrays): item ids, publish
keys, angle keys, norms and ``replica_of`` live in parallel numpy
arrays, payloads in a sparse slot → object map, and every item's
keyword/weight pairs are appended to shared flat arrays in CSR fashion
— the scoring layout *is* the store, not a cache rebuilt after each
mutation.  No per-item object is held: :meth:`LocalVsmIndex.item`,
:meth:`~LocalVsmIndex.items` and friends build
:class:`StoredItem` views on demand, and the bulk
operations move :class:`ItemBlock` s — a columnar run of items whose
``len`` is its row count.  :meth:`LocalVsmIndex.add_many` /
:meth:`~LocalVsmIndex.remove_many` / :meth:`~LocalVsmIndex.score_many`
are the primitives; the scalar :meth:`~LocalVsmIndex.add` /
:meth:`~LocalVsmIndex.remove` / :meth:`~LocalVsmIndex.query` are thin
per-item specialisations with identical end states.  The per-item
displacement chain moves one :class:`Row` (a row's plain values) from
store to store with :meth:`~LocalVsmIndex.remove_row` /
:meth:`~LocalVsmIndex.add_row`, again without an item object.  Removal
tombstones a row (O(1)); the arrays compact once dead rows outnumber
live ones, so every operation is amortised O(changed data), never
O(index).

Scoring scatters the query into a dense scratch sized by the query's
``dim`` (grown on demand, so an index needs no dimension up front),
gathers it along the flat keyword array and segment-sums per row with
``np.add.reduceat`` — items sharing no keyword with the query score an
exact 0 and are filtered out, which is exactly what the old
per-candidate inverted-map walk produced.  The same kernel serves
single queries, :meth:`LocalVsmIndex.query_many` (the bulk entry point
of the batch read path) **and** :meth:`LocalVsmIndex.least_similar`
(the replacement-victim rule): scalar and batch rankings — and scalar
and batch victim picks — are identical by construction because they are
the same computation.  The scoring-tolerance contract (last-ulp
agreement with the reference per-candidate dot product) is documented
once, in DESIGN.md under "Columnar node state".

Derived views — the keyword→row postings (exact multi-keyword
filtering) and the (angle key, item id) ladder (replacement extremes) —
are built lazily from the columns and invalidated by mutation; the
ladder is additionally maintained incrementally across scalar
add/remove so displacement chains never pay a re-sort per hop.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .sparse import SparseVector

__all__ = ["ItemBlock", "LocalVsmIndex", "Row", "ScoredItem", "StoredItem"]

#: Initial row / flat-entry capacities (grown by doubling).
_MIN_ROWS = 16
_MIN_NNZ = 256
#: Flat entries gathered per chunk when a block is split into runs.
_CHUNK_NNZ = 1 << 20
#: ``replica_of`` column value of a primary copy (node ids are >= 0).
NO_REPLICA = -1
#: Shared zero-length columns of an empty store (never written: a store
#: grows a column into a new array before its first write).
_NO_INTS = np.empty(0, dtype=np.int64)
_NO_FLOATS = np.empty(0, dtype=np.float64)
_NO_BOOLS = np.empty(0, dtype=np.bool_)


@dataclass(frozen=True)
class StoredItem:
    """One published item as held by a node.

    ``item_id`` is the corpus row.  ``publish_key`` is the key the item
    was routed with (Eq. 5 angle key, or Eq. 6 balanced key when the
    unused-hash-space scheme is on).  ``angle_key`` is always the raw
    Eq. 5 key — replacement ranking and the similarity walk reason in
    angle space regardless of where the body physically lives.  The
    keyword vector travels with the item so nodes can run a local VSM
    index (Fig. 2: "adopt VSM or LSI for local indexing").

    A value, not a stored record: a :class:`LocalVsmIndex` holds columns
    and builds one of these per read (:meth:`view`), so two reads of one
    row are equal but not identical.
    """

    item_id: int
    publish_key: int
    angle_key: int
    keyword_ids: np.ndarray
    weights: np.ndarray
    payload: object = None
    replica_of: Optional[int] = None  # primary node id when this is a replica

    def __post_init__(self) -> None:
        if len(self.keyword_ids) != len(self.weights):
            raise ValueError("keyword_ids and weights must have equal length")

    def __eq__(self, other: object) -> bool:
        """Value equality (keyword/weight arrays compared elementwise)."""
        if not isinstance(other, StoredItem):
            return NotImplemented
        return (
            self.item_id == other.item_id
            and self.publish_key == other.publish_key
            and self.angle_key == other.angle_key
            and self.replica_of == other.replica_of
            and self.payload == other.payload
            and np.array_equal(self.keyword_ids, other.keyword_ids)
            and np.array_equal(self.weights, other.weights)
        )

    @property
    def is_replica(self) -> bool:
        return self.replica_of is not None

    @classmethod
    def view(cls, iid, pkey, akey, kws, wts, payload, replica) -> "StoredItem":
        """The item of one store row (``replica`` is a ``replica_of``
        column value)."""
        return cls(iid, pkey, akey, kws, wts, payload,
                   None if replica == NO_REPLICA else replica)

    def row(self, norm: Optional[float] = None) -> "Row":
        """This item as a store :class:`Row`."""
        replica = self.replica_of
        return Row(
            self.item_id, self.publish_key, self.angle_key, self.keyword_ids,
            self.weights, self.payload,
            NO_REPLICA if replica is None else replica, norm,
        )


class Row(NamedTuple):
    """One store row as plain values: what a displacement chain carries
    from node to node instead of an item object.  ``replica_of`` is the
    column value (:data:`NO_REPLICA` for a primary copy); ``norm`` is the
    indexed Euclidean norm, or ``None`` to compute it on store."""

    item_id: int
    publish_key: int
    angle_key: int
    keyword_ids: np.ndarray
    weights: np.ndarray
    payload: object
    replica_of: int
    norm: Optional[float]

    def item(self) -> StoredItem:
        """A :class:`StoredItem` view of the row."""
        return StoredItem.view(*self[:7])


class ScoredItem:
    """An (item id, cosine score) pair returned by index queries."""

    __slots__ = ("item_id", "score")

    def __init__(self, item_id: int, score: float) -> None:
        self.item_id = item_id
        self.score = score

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScoredItem(id={self.item_id}, score={self.score:.4f})"


def _range_gather(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start+length)`` per row, vectorised."""
    nz = lengths > 0
    ss = starts[nz]
    ls = lengths[nz]
    total = int(ls.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    gi = np.ones(total, dtype=np.int64)
    gi[0] = ss[0]
    if ss.size > 1:
        cs = np.cumsum(ls[:-1])
        gi[cs] = ss[1:] - ss[:-1] - ls[:-1] + 1
    return np.cumsum(gi)


class ItemBlock(_SequenceABC):
    """A columnar run of items — the unit every bulk store moves.

    Row ``i`` is item ``ids[i]`` with keys ``publish_keys[i]`` /
    ``angle_keys[i]``, Euclidean norm ``norms[i]``, ``replica_of[i]``
    (:data:`NO_REPLICA` for a primary copy) and keyword/weight run
    ``kw[starts[i]:starts[i]+lengths[i]]`` / ``wt[...]``.  The flat
    arrays are shared, read-only: rows may repeat or skip ranges, so a
    block over a corpus CSR (LSH band copies repeat a row) or over a
    node's own flats costs no keyword copy.  Payloads are sparse
    (row → object, non-``None`` only).

    A block is a ``Sequence`` of :class:`StoredItem` views, built on
    demand, so code that reads items one at a time
    works unchanged; the bulk paths read the columns.  Blocks are never
    written in place.
    """

    __slots__ = (
        "ids", "publish_keys", "angle_keys", "norms", "replica_of",
        "starts", "lengths", "kw", "wt", "payloads", "private",
    )

    def __init__(
        self,
        ids: np.ndarray,
        publish_keys: np.ndarray,
        angle_keys: np.ndarray,
        norms: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        kw: np.ndarray,
        wt: np.ndarray,
        *,
        replica_of: Optional[np.ndarray] = None,
        payloads: Optional[dict[int, object]] = None,
    ) -> None:
        n = ids.shape[0]
        for col in (publish_keys, angle_keys, norms, starts, lengths):
            if col.shape[0] != n:
                raise ValueError("ItemBlock columns must have equal length")
        self.ids = ids
        self.publish_keys = publish_keys
        self.angle_keys = angle_keys
        self.norms = norms
        self.starts = starts
        self.lengths = lengths
        self.kw = kw
        self.wt = wt
        self.replica_of = (
            np.full(n, NO_REPLICA, dtype=np.int64) if replica_of is None else replica_of
        )
        self.payloads = {} if payloads is None else payloads
        #: True when nothing else references this block's arrays and its
        #: rows pack its flats in order (the blocks :meth:`runs` yields):
        #: an empty store may then adopt the arrays instead of copying
        #: them (see :meth:`LocalVsmIndex.add_many`).
        self.private = False

    @classmethod
    def from_items(
        cls,
        items: Sequence[StoredItem],
        norms: Optional[Sequence[float]] = None,
    ) -> "ItemBlock":
        """Pack item objects into a block (norms computed per item as
        ``sqrt(w·w)`` unless supplied)."""
        n = len(items)
        lens = np.fromiter((it.keyword_ids.size for it in items), np.int64, count=n)
        if norms is None:
            norms_arr = np.fromiter(
                (math.sqrt(it.weights.dot(it.weights)) for it in items),
                np.float64,
                count=n,
            )
        else:
            norms_arr = np.asarray(norms, dtype=np.float64)
            if norms_arr.shape[0] != n:
                raise ValueError("norms must parallel items")
        ends = np.cumsum(lens)
        return cls(
            np.fromiter((it.item_id for it in items), np.int64, count=n),
            np.fromiter((it.publish_key for it in items), np.int64, count=n),
            np.fromiter((it.angle_key for it in items), np.int64, count=n),
            norms_arr,
            ends - lens,
            lens,
            np.concatenate([it.keyword_ids for it in items]).astype(np.int64)
            if n else np.empty(0, dtype=np.int64),
            np.concatenate([it.weights for it in items]).astype(np.float64)
            if n else np.empty(0, dtype=np.float64),
            replica_of=np.fromiter(
                (
                    NO_REPLICA if it.replica_of is None else it.replica_of
                    for it in items
                ),
                np.int64,
                count=n,
            ),
            payloads={
                j: it.payload for j, it in enumerate(items) if it.payload is not None
            },
        )

    @classmethod
    def empty(cls) -> "ItemBlock":
        """A block of no rows."""
        i, f = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        return cls(i, i, i, f, i, i, i, f)

    @classmethod
    def concat(cls, blocks: Sequence["ItemBlock"]) -> "ItemBlock":
        """One block holding every row of ``blocks`` in order (own flats)."""
        kws, wts, payloads = [], [], {}
        base = 0
        for b in blocks:
            gi = _range_gather(b.starts, b.lengths)
            kws.append(b.kw[gi].astype(np.int64, copy=False))
            wts.append(b.wt[gi])
            payloads.update((base + j, p) for j, p in b.payloads.items())
            base += len(b)
        lens = np.concatenate([b.lengths for b in blocks])
        ends = np.cumsum(lens)
        return cls(
            np.concatenate([b.ids for b in blocks]),
            np.concatenate([b.publish_keys for b in blocks]),
            np.concatenate([b.angle_keys for b in blocks]),
            np.concatenate([b.norms for b in blocks]),
            ends - lens,
            lens,
            np.concatenate(kws),
            np.concatenate(wts),
            replica_of=np.concatenate([b.replica_of for b in blocks]),
            payloads=payloads,
        )

    def take(self, rows: np.ndarray) -> "ItemBlock":
        """The rows ``rows`` (in that order) as a block over the same flats."""
        rows = np.asarray(rows, dtype=np.int64)
        payloads = self.payloads
        if payloads:
            payloads = {
                j: payloads[r] for j, r in enumerate(rows.tolist()) if r in payloads
            }
        return ItemBlock(
            self.ids[rows],
            self.publish_keys[rows],
            self.angle_keys[rows],
            self.norms[rows],
            self.starts[rows],
            self.lengths[rows],
            self.kw,
            self.wt,
            replica_of=self.replica_of[rows],
            payloads=payloads,
        )

    def runs(self, cuts: Sequence[int]) -> Iterator["ItemBlock"]:
        """Split the block at ``cuts`` (ascending row offsets) and yield
        each run as a :attr:`private` block with packed flats of its own.

        The keyword/weight runs are gathered a chunk of about
        :data:`_CHUNK_NNZ` entries at a time, so splitting a whole batch into
        per-node runs costs a few large gathers, not one per node, and
        no more temporary memory than one chunk."""
        bounds = [0, *cuts, len(self)]
        ends = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=ends[1:])
        at = ends[bounds].tolist()
        i, last = 0, len(bounds) - 1
        while i < last:
            j = i + 1
            while j < last and at[j + 1] - at[i] <= _CHUNK_NNZ:
                j += 1
            lo, hi = bounds[i], bounds[j]
            sub = self[lo:hi]
            gi = _range_gather(sub.starts, sub.lengths)
            chunk = ItemBlock(
                sub.ids.copy(), sub.publish_keys.copy(), sub.angle_keys.copy(),
                sub.norms.copy(), ends[lo:hi] - at[i], sub.lengths.copy(),
                self.kw[gi].astype(np.int64, copy=False), self.wt[gi],
                replica_of=sub.replica_of.copy(), payloads=sub.payloads,
            )
            for r in range(i, j):
                run = chunk[bounds[r] - lo : bounds[r + 1] - lo]
                run.private = True
                yield run
            i = j

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            lo, hi, step = i.indices(len(self))
            if step != 1:
                return self.take(np.arange(lo, hi, step))
            payloads = {
                j - lo: v for j, v in self.payloads.items() if lo <= j < hi
            }
            return ItemBlock(
                self.ids[lo:hi],
                self.publish_keys[lo:hi],
                self.angle_keys[lo:hi],
                self.norms[lo:hi],
                self.starts[lo:hi],
                self.lengths[lo:hi],
                self.kw,
                self.wt,
                replica_of=self.replica_of[lo:hi],
                payloads=payloads,
            )
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("ItemBlock index out of range")
        return self.row(i).item()

    def row(self, i: int) -> Row:
        """Row ``i`` (``0 <= i < len``) as a :class:`Row`, norm included."""
        s = int(self.starts[i])
        e = s + int(self.lengths[i])
        return Row(
            int(self.ids[i]),
            int(self.publish_keys[i]),
            int(self.angle_keys[i]),
            self.kw[s:e].astype(np.int64, copy=False),
            self.wt[s:e],
            self.payloads.get(i),
            int(self.replica_of[i]),
            float(self.norms[i]),
        )

    def __iter__(self) -> Iterator[StoredItem]:
        return (self[i] for i in range(len(self)))


class LocalVsmIndex:
    """Columnar VSM index over one node's stored items."""

    def __init__(self) -> None:
        #: live item id → row slot, in first-insertion order (a re-add
        #: keeps its position, exactly like a dict store).
        self._slots: dict[int, int] = {}
        # -- row columns (parallel, capacity-grown, slots never reused;
        # zero-capacity until the first store) --
        self._ids = self._publish_keys = self._angle_keys = _NO_INTS
        self._replica_of = self._starts = self._lengths = _NO_INTS
        self._norms = _NO_FLOATS
        self._alive = _NO_BOOLS
        #: row slot → payload, for the rows that carry one.
        self._payloads: dict[int, object] = {}
        # -- CSR flats: each row's keyword/weight run, append-ordered.
        # Written only past ``_nnz`` (compaction allocates new arrays),
        # so a block handed out over them stays valid. --
        self._kw_flat = _NO_INTS
        self._wt_flat = _NO_FLOATS
        self._rows = 0  # used slots, dead included
        self._nnz = 0  # used flat entries, garbage included
        self._dead_rows = 0
        self._dead_nnz = 0
        #: Bounds on the stored ids: every stored id lies within them
        #: (removals do not narrow them; compaction does).
        self._id_lo: "int | float" = math.inf
        self._id_hi: "int | float" = -math.inf
        #: Reusable dense scratch for query scatter/gather, sized by the
        #: largest query ``dim`` seen.
        self._scratch: Optional[np.ndarray] = None
        # -- lazy derived views (None = rebuild on next use) --
        #: (scorable slots, interleaved reduceat offsets).
        self._view: Optional[tuple] = None
        #: (keyword-sorted flat keywords, parallel row slots).
        self._postings: Optional[tuple] = None
        #: sorted [(angle_key, item_id)] — the replacement ladder.
        self._ladder: Optional[list[tuple[int, int]]] = None

    _ROW_COLUMNS = (
        "_ids", "_publish_keys", "_angle_keys", "_replica_of", "_norms",
        "_starts", "_lengths",
    )

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._slots

    # -- maintenance --------------------------------------------------------

    def _grow_rows(self, need: int) -> None:
        cap = self._ids.size
        new = max(need, cap * 2, _MIN_ROWS)
        used = self._rows
        for name in self._ROW_COLUMNS:
            arr = getattr(self, name)
            grown = np.empty(new, dtype=arr.dtype)
            grown[:used] = arr[:used]
            setattr(self, name, grown)
        alive = np.zeros(new, dtype=np.bool_)
        alive[:used] = self._alive[:used]
        self._alive = alive

    def _grow_nnz(self, need: int) -> None:
        new = max(need, self._kw_flat.size * 2, _MIN_NNZ)
        used = self._nnz
        for name in ("_kw_flat", "_wt_flat"):
            arr = getattr(self, name)
            grown = np.empty(new, dtype=arr.dtype)
            grown[:used] = arr[:used]
            setattr(self, name, grown)

    def _kill(self, slot: int) -> None:
        """Tombstone one row; the caller owns ``_slots`` and the caches."""
        self._alive[slot] = False
        self._dead_rows += 1
        self._dead_nnz += int(self._lengths[slot])
        self._payloads.pop(slot, None)
        ladder = self._ladder
        if ladder is not None:
            entry = (int(self._angle_keys[slot]), int(self._ids[slot]))
            j = bisect_left(ladder, entry)
            if j < len(ladder) and ladder[j] == entry:
                del ladder[j]

    def _item_at(self, slot: int) -> StoredItem:
        """A :class:`StoredItem` view of one row; its keyword/weight
        arrays are read-only slices of the flats, which the store never
        rewrites in place."""
        s = int(self._starts[slot])
        e = s + int(self._lengths[slot])
        return StoredItem.view(
            int(self._ids[slot]),
            int(self._publish_keys[slot]),
            int(self._angle_keys[slot]),
            self._kw_flat[s:e],
            self._wt_flat[s:e],
            self._payloads.get(slot),
            int(self._replica_of[slot]),
        )

    def _block_at(self, slots: np.ndarray) -> ItemBlock:
        """The rows at ``slots`` as a block over this index's flats."""
        payloads = self._payloads
        if payloads:
            payloads = {
                j: payloads[s] for j, s in enumerate(slots.tolist()) if s in payloads
            }
        return ItemBlock(
            self._ids[slots],
            self._publish_keys[slots],
            self._angle_keys[slots],
            self._norms[slots],
            self._starts[slots],
            self._lengths[slots],
            self._kw_flat,
            self._wt_flat,
            replica_of=self._replica_of[slots],
            payloads=payloads,
        )

    def add(self, item: StoredItem, norm: Optional[float] = None) -> None:
        """Index an item (idempotent per item id; re-add replaces).

        The scalar specialisation of :meth:`add_many` — one row append
        on the columnar store, no per-keyword Python work.  ``norm``
        optionally supplies the precomputed Euclidean norm (see
        :meth:`add_many`).
        """
        self.add_row(item.row(norm))

    def add_row(self, row: Row) -> None:
        """:meth:`add` of one :class:`Row` (a row another store gave up
        with :meth:`remove_row`, norm included)."""
        iid, pkey, akey, kws, weights, payload, replica, norm = row
        slots = self._slots
        old = slots.get(iid)
        if old is not None:
            self._kill(old)
        length = kws.size
        s = self._rows
        if s == self._ids.size:
            self._grow_rows(s + 1)
        p = self._nnz
        if p + length > self._kw_flat.size:
            self._grow_nnz(p + length)
        if norm is None:
            norm = math.sqrt(weights.dot(weights))
        self._ids[s] = iid
        self._publish_keys[s] = pkey
        self._angle_keys[s] = akey
        self._replica_of[s] = replica
        self._norms[s] = norm
        self._alive[s] = True
        self._starts[s] = p
        self._lengths[s] = length
        self._kw_flat[p : p + length] = kws
        self._wt_flat[p : p + length] = weights
        if payload is not None:
            self._payloads[s] = payload
        self._rows = s + 1
        self._nnz = p + length
        slots[iid] = s
        if iid < self._id_lo:
            self._id_lo = iid
        if iid > self._id_hi:
            self._id_hi = iid
        self._view = None
        self._postings = None
        ladder = self._ladder
        if ladder is not None:
            insort(ladder, (akey, iid))
        if old is not None:
            # Replacement tombstoned a row; only kill paths can push the
            # store over the compaction threshold.
            self._maybe_compact()

    def add_many(
        self,
        block: "ItemBlock | Sequence[StoredItem]",
        norms: Optional[Sequence[float]] = None,
    ) -> None:
        """Bulk add — the primitive mutation of the columnar store.

        End state is identical to scalar-adding the rows in order
        (later duplicates replace earlier ones and any stored copy), but
        the work is one row-block append: every column is filled with a
        single vectorised write and the keyword/weight runs with one
        gather, so a node receiving its whole run of items in one call
        pays no per-item Python work beyond the id map.

        ``block`` is an :class:`ItemBlock` (which carries its norms); a
        sequence of item objects is packed first, with ``norms``
        optionally paralleling it (``Corpus.norms``; same quantity, see
        DESIGN.md "Columnar node state" for the last-ulp tolerance
        contract).
        """
        if not isinstance(block, ItemBlock):
            block = ItemBlock.from_items(block, norms)
        elif norms is not None:
            raise ValueError("an ItemBlock carries its own norms")
        n = len(block)
        if n == 0:
            return
        self._view = None
        self._postings = None
        self._ladder = None
        if block.private and not self._rows and self._adopt(block):
            return
        base = self._rows
        if base + n > self._ids.size:
            self._grow_rows(base + n)
        lens = block.lengths
        starts = block.starts
        first = int(starts[0])
        if np.array_equal(starts[1:], starts[:-1] + lens[:-1]):
            gi = None  # one packed run of the flats: copy it as a slice
            total = int(starts[-1] + lens[-1]) - first
        else:
            gi = _range_gather(starts, lens)
            total = gi.size
        p = self._nnz
        if p + total > self._kw_flat.size:
            self._grow_nnz(p + total)
        end = base + n
        self._ids[base:end] = block.ids
        self._publish_keys[base:end] = block.publish_keys
        self._angle_keys[base:end] = block.angle_keys
        self._replica_of[base:end] = block.replica_of
        self._norms[base:end] = block.norms
        self._alive[base:end] = True
        ends = p + np.cumsum(lens)
        self._starts[base:end] = ends - lens
        self._lengths[base:end] = lens
        if gi is None:
            self._kw_flat[p : p + total] = block.kw[first : first + total]
            self._wt_flat[p : p + total] = block.wt[first : first + total]
        elif total:
            self._kw_flat[p : p + total] = block.kw[gi]
            self._wt_flat[p : p + total] = block.wt[gi]
        if block.payloads:
            self._payloads.update((base + j, v) for j, v in block.payloads.items())
        self._rows = end
        self._nnz = p + total
        ids = block.ids.tolist()
        self._id_lo = min(self._id_lo, min(ids))
        self._id_hi = max(self._id_hi, max(ids))
        # Replacement pass after the block is live: an id already stored
        # (or repeated within the block) keeps only its last occurrence.
        slots = self._slots
        for j, iid in enumerate(ids, base):
            old = slots.get(iid)
            if old is not None:
                self._kill(old)
            slots[iid] = j
        self._maybe_compact()

    def _adopt(self, block: ItemBlock) -> bool:
        """Take a private block's arrays as this empty store's columns
        instead of copying them.

        The adopted columns are views into a chunk that sibling runs'
        stores share, which is safe because of a rule every mutation
        keeps: a store writes its row columns and flats only at or past
        ``_rows`` / ``_nnz``, after growing a full column into a new
        array, and compaction allocates new arrays.  Only ``_alive``
        (tombstones) is written below ``_rows``, so it is allocated
        here.  Refuses (False, store unchanged) when an id repeats within
        the block, which needs the replacement pass."""
        n = len(block)
        ids = block.ids.tolist()
        slots = dict(zip(ids, range(n)))
        if len(slots) != n:
            return False
        starts = block.starts
        first = starts[0].item()
        total = starts[-1].item() + block.lengths[-1].item() - first
        self._slots = slots
        self._ids = block.ids
        self._publish_keys = block.publish_keys
        self._angle_keys = block.angle_keys
        self._replica_of = block.replica_of
        self._norms = block.norms
        self._starts = starts - first if first else starts
        self._lengths = block.lengths
        self._alive = alive = np.empty(n, dtype=np.bool_)
        alive.fill(True)
        self._kw_flat = block.kw[first : first + total]
        self._wt_flat = block.wt[first : first + total]
        self._payloads = dict(block.payloads)
        self._rows = n
        self._nnz = total
        self._id_lo, self._id_hi = min(ids), max(ids)
        return True

    def remove(self, item_id: int) -> StoredItem:
        """Scalar :meth:`remove_many`: tombstone one row, O(1)."""
        return self.remove_row(item_id).item()

    def remove_row(self, item_id: int) -> Row:
        """:meth:`remove`, returning the row's values (norm included)."""
        try:
            slot = self._slots.pop(item_id)
        except KeyError:
            raise KeyError(f"item {item_id} not indexed") from None
        s = int(self._starts[slot])
        e = s + int(self._lengths[slot])
        row = Row(
            item_id,
            int(self._publish_keys[slot]),
            int(self._angle_keys[slot]),
            self._kw_flat[s:e],
            self._wt_flat[s:e],
            self._payloads.get(slot),
            int(self._replica_of[slot]),
            float(self._norms[slot]),
        )
        self._kill(slot)
        self._view = None
        self._postings = None
        self._maybe_compact()
        return row

    def remove_many(self, item_ids: Sequence[int]) -> ItemBlock:
        """Bulk remove; returns the removed rows as an :class:`ItemBlock`
        in (deduplicated) request order.

        Duplicate ids are removed once, and *every* id is resolved
        before any row is touched — an unknown id raises ``KeyError``
        with the store unchanged, never mid-sweep.
        """
        slots_map = self._slots
        seen: set[int] = set()
        order: list[int] = []
        slots: list[int] = []
        for iid in item_ids:
            if iid in seen:
                continue
            seen.add(iid)
            slot = slots_map.get(iid)
            if slot is None:
                raise KeyError(f"item {iid} not indexed")
            order.append(iid)
            slots.append(slot)
        out = self._block_at(np.asarray(slots, dtype=np.int64))
        if not order:
            return out
        self._view = None
        self._postings = None
        for iid, slot in zip(order, slots):
            del slots_map[iid]
            self._kill(slot)
        self._maybe_compact()
        return out

    def rebuild(self, items: Iterable[StoredItem]) -> None:
        """Reset the index to exactly the given items."""
        self.__init__()
        self.add_many(list(items))

    def _maybe_compact(self) -> None:
        """Compact once dead rows (or garbage flat entries) outnumber live
        ones — keeps every scan O(live data) with amortised O(1) upkeep."""
        live = len(self._slots)
        if self._dead_rows > 32 and self._dead_rows > live:
            self._compact()
            return
        if self._dead_nnz > 1024 and self._dead_nnz > self._nnz - self._dead_nnz:
            self._compact()

    def _compact(self) -> None:
        rows = self._rows
        sel = np.nonzero(self._alive[:rows])[0]
        n = sel.size
        ls = self._lengths[sel]
        gi = _range_gather(self._starts[sel], ls)
        total = gi.size
        row_cap = max(_MIN_ROWS, 2 * n)
        nnz_cap = max(_MIN_NNZ, 2 * total)
        for name in self._ROW_COLUMNS:
            grown = np.empty(row_cap, dtype=getattr(self, name).dtype)
            grown[:n] = getattr(self, name)[sel]
            setattr(self, name, grown)
        ends = np.cumsum(ls)
        self._starts[:n] = ends - ls
        alive = np.zeros(row_cap, dtype=np.bool_)
        alive[:n] = True
        kw = np.empty(nnz_cap, dtype=np.int64)
        kw[:total] = self._kw_flat[gi]
        wt = np.empty(nnz_cap, dtype=np.float64)
        wt[:total] = self._wt_flat[gi]
        new_slot = dict(zip(sel.tolist(), range(n)))
        self._slots = {iid: new_slot[s] for iid, s in self._slots.items()}
        self._payloads = {new_slot[s]: v for s, v in self._payloads.items()}
        self._alive = alive
        self._kw_flat, self._wt_flat = kw, wt
        self._rows, self._nnz = n, total
        self._dead_rows = self._dead_nnz = 0
        if n:
            ids = self._ids[:n]
            self._id_lo, self._id_hi = int(ids.min()), int(ids.max())
        else:
            self._id_lo, self._id_hi = math.inf, -math.inf
        self._view = None
        self._postings = None
        # The ladder holds (angle key, item id) pairs — slot renumbering
        # does not invalidate it.

    # -- accessors ----------------------------------------------------------

    def item(self, item_id: int) -> StoredItem:
        """A view of the stored item ``item_id`` (KeyError if absent)."""
        return self._item_at(self._slots[item_id])

    def item_ids(self) -> Iterator[int]:
        """Stored item ids, in first-insertion order."""
        return iter(self._slots)

    def items(self) -> Iterator[StoredItem]:
        """Views of the stored items, in first-insertion order (taken
        from a block, so the store may change while they are read)."""
        slots = np.fromiter(self._slots.values(), np.int64, count=len(self._slots))
        return iter(self._block_at(slots))

    def block(self) -> ItemBlock:
        """Every live row as a block over this index's flats (the
        cascade engine's shadow seed)."""
        return self._block_at(np.nonzero(self._alive[: self._rows])[0])

    def id_range(self) -> tuple[int, int]:
        """Bounds ``(lo, hi)`` on the stored ids of a non-empty index, read
        in O(1): every stored id lies within them, and removals since the
        last compaction may leave them wider than the live ids."""
        if not self._slots:
            raise ValueError("empty index has no id range")
        return self._id_lo, self._id_hi

    def norm_of(self, item_id: int) -> float:
        """The indexed Euclidean norm of a stored item (KeyError if absent)."""
        return float(self._norms[self._slots[item_id]])

    def angle_ladder(self) -> list[tuple[int, int]]:
        """The sorted (angle key, item id) ladder — a cached view over the
        angle-key column, maintained incrementally across scalar
        add/remove and rebuilt lazily after bulk mutations."""
        ladder = self._ladder
        if ladder is None:
            sel = np.nonzero(self._alive[: self._rows])[0]
            aks = self._angle_keys[sel]
            ids = self._ids[sel]
            order = np.lexsort((ids, aks))
            ladder = self._ladder = list(
                zip(aks[order].tolist(), ids[order].tolist())
            )
        return ladder

    def min_angle_item(self) -> Optional[StoredItem]:
        """The stored item with the smallest (angle key, id), or None."""
        ladder = self.angle_ladder()
        return self.item(ladder[0][1]) if ladder else None

    def max_angle_item(self) -> Optional[StoredItem]:
        """The stored item with the largest (angle key, id), or None."""
        ladder = self.angle_ladder()
        return self.item(ladder[-1][1]) if ladder else None

    # -- scoring ------------------------------------------------------------

    def _scoring_view(self) -> tuple:
        """(slots, ids, norms, offsets, contiguous end), cached.

        Scorable slots = alive with a positive norm and at least one
        keyword (anything else can never score > 0, and zero-length
        segments would corrupt the reduceat); their id and norm columns
        are gathered once per view, not per query.  In the common state
        — no tombstone garbage between live runs — the segments are
        contiguous and ``offsets`` is just the start column (one
        reduceat segment per row, ending at the contiguous end).  With
        garbage gaps, ``offsets`` interleaves each row's [start, end) so
        the gaps fall into discarded odd segments (``end`` is None to
        mark the mode).
        """
        view = self._view
        if view is None:
            rows = self._rows
            m = (
                self._alive[:rows]
                & (self._norms[:rows] > 0.0)
                & (self._lengths[:rows] > 0)
            )
            sel = np.nonzero(m)[0]
            if sel.size == 0:
                view = (None, None, None, None, None)
            else:
                starts = self._starts[sel]
                ends = starts + self._lengths[sel]
                ids_sel = self._ids[sel]
                norms_sel = self._norms[sel]
                if bool((starts[1:] == ends[:-1]).all()):
                    view = (sel, ids_sel, norms_sel, starts, int(ends[-1]))
                else:
                    offsets = np.empty(2 * sel.size, dtype=np.int64)
                    offsets[0::2] = starts
                    offsets[1::2] = ends
                    view = (sel, ids_sel, norms_sel, offsets, None)
            self._view = view
        return view

    def _kernel_scores(
        self, query: SparseVector, qnorm: float
    ) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """One vectorised scoring pass — the shared scalar/batch kernel.

        Scatters the query into the dense scratch, gathers it
        along the flat keyword column, and segment-sums per row with
        ``np.add.reduceat``.  Returns (scorable slots, their cosine
        scores); rows outside the view score an exact 0 by construction.
        Both offset modes sum each row's products in the same sequential
        order, so scores are bit-identical across compactions.  The
        scatter is always undone (``try/finally``), so a scoring failure
        mid-gather cannot leave the shared scratch dirty and corrupt
        every later score on this node.
        """
        sel, _ids_sel, norms_sel, offsets, end = self._scoring_view()
        if sel is None:
            return None, None
        scratch = self._scratch
        if scratch is None or scratch.size < query.dim:
            scratch = self._scratch = np.zeros(query.dim, dtype=np.float64)
        p = self._nnz if end is None else end
        # One guard element keeps end offsets == p legal for reduceat.
        prods = np.empty(p + 1, dtype=np.float64)
        try:
            scratch[query.indices] = query.values
            np.multiply(
                self._wt_flat[:p], scratch[self._kw_flat[:p]], out=prods[:p]
            )
        finally:
            scratch[query.indices] = 0.0
        if end is None:
            prods[p] = 0.0
            sums = np.add.reduceat(prods, offsets)[0::2]
        else:
            sums = np.add.reduceat(prods[:end], offsets)
        return sel, sums / (norms_sel * qnorm)

    def _ranked(
        self,
        query: SparseVector,
        limit: Optional[int],
        require_all: Optional[Sequence[int]],
        min_score: float,
    ) -> list[ScoredItem]:
        qnorm = query.norm()
        if qnorm == 0.0:
            return []
        sel, scores = self._kernel_scores(query, qnorm)
        if sel is None:
            return []
        keep = (scores > 0.0) & (scores >= min_score)
        if require_all:
            hit = self._slots_with_all(require_all)
            if hit.size == 0:
                return []
            mask = np.zeros(self._rows, dtype=np.bool_)
            mask[hit] = True
            keep &= mask[sel]
        ksel = np.nonzero(keep)[0]
        if ksel.size == 0:
            return []
        ids_sel = self._view[1]
        ksel = ksel[np.lexsort((ids_sel[ksel], -scores[ksel]))]
        if limit is not None:
            ksel = ksel[:limit]
        return [
            ScoredItem(iid, score)
            for iid, score in zip(ids_sel[ksel].tolist(), scores[ksel].tolist())
        ]

    def query(
        self,
        query: SparseVector,
        limit: Optional[int] = None,
        *,
        require_all: Optional[Sequence[int]] = None,
        min_score: float = 0.0,
    ) -> list[ScoredItem]:
        """Items ranked by descending cosine; deterministic tie-break on id.

        ``require_all`` additionally filters to items containing every
        listed keyword (exact multi-keyword matching); ``min_score``
        drops weak matches (a cosine-space τ threshold).  Runs through
        the same vectorised kernel as :meth:`query_many` and
        :meth:`least_similar`, so scalar and batch calls rank (and pick
        victims) identically; the score-tolerance contract lives in
        DESIGN.md, "Columnar node state".
        """
        return self._ranked(query, limit, require_all, min_score)

    def query_many(
        self,
        queries: Sequence[SparseVector],
        limit: Optional[int] = None,
        *,
        require_all: Optional[Sequence[int]] = None,
        min_score: float = 0.0,
    ) -> list[list[ScoredItem]]:
        """Rank many queries in one pass; element i equals ``query(queries[i])``.

        The scoring view and the dense scratch are shared across the
        batch, and queries with identical content are ranked once and
        copied — the bulk-scoring half of the batch read path (a
        thousand co-located queries must not cost a thousand
        ``local_index_query`` calls).
        """
        memo: dict[tuple[bytes, bytes], list[ScoredItem]] = {}
        out: list[list[ScoredItem]] = []
        for q in queries:
            ckey = (q.indices.tobytes(), q.values.tobytes())
            cached = memo.get(ckey)
            if cached is None:
                cached = memo[ckey] = self._ranked(q, limit, require_all, min_score)
            out.append(list(cached))
        return out

    def score_many(
        self, queries: Sequence[SparseVector]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bulk scoring primitive: every query against every stored item.

        Returns ``(item_ids, scores)`` where ``item_ids`` is the live
        ids ascending and ``scores[i, j]`` is the cosine of
        ``queries[i]`` against ``item_ids[j]`` — zero-norm items,
        zero-norm queries and no-overlap pairs score an exact 0.  The
        per-query rows come from the same kernel as :meth:`query` /
        :meth:`least_similar`, so downstream consumers (bench kernels,
        LSH-style multi-probe layers) see exactly the scores the
        retrieval and replacement paths act on.
        """
        rows = self._rows
        alive_slots = np.nonzero(self._alive[:rows])[0]
        order = np.argsort(self._ids[alive_slots])
        slots_sorted = alive_slots[order]
        ids_sorted = self._ids[slots_sorted].copy()
        scores = np.zeros((len(queries), slots_sorted.size), dtype=np.float64)
        if slots_sorted.size == 0:
            return ids_sorted, scores
        col_of = np.empty(rows, dtype=np.int64)
        col_of[slots_sorted] = np.arange(slots_sorted.size, dtype=np.int64)
        for i, q in enumerate(queries):
            qnorm = q.norm()
            if qnorm == 0.0:
                continue
            sel, row_scores = self._kernel_scores(q, qnorm)
            if sel is not None:
                scores[i, col_of[sel]] = row_scores
        return ids_sorted, scores

    def least_similar(self, query: SparseVector) -> Optional[StoredItem]:
        """The stored item *least* similar to ``query`` — the replacement
        victim of the Fig. 2 publish algorithm.

        Scores every stored item through the **same kernel** as
        :meth:`query` / :meth:`query_many` (items sharing no keyword
        score an exact 0 and are the most eligible victims), so scalar
        and batch paths agree on the victim bit-for-bit; ties break on
        ascending item id.
        """
        if not self._slots:
            return None
        rows = self._rows
        alive_slots = np.nonzero(self._alive[:rows])[0]
        scores_full = np.zeros(rows, dtype=np.float64)
        qnorm = query.norm()
        if qnorm != 0.0:
            sel, scores = self._kernel_scores(query, qnorm)
            if sel is not None:
                scores_full[sel] = scores
        pick = np.lexsort((self._ids[alive_slots], scores_full[alive_slots]))[0]
        return self._item_at(int(alive_slots[pick]))

    # -- postings (exact keyword filtering) ---------------------------------

    def _postings_view(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Lazy CSR postings: flat keywords of live rows sorted by keyword,
        with the parallel row slots — keyword lookups are searchsorted
        ranges, rebuilt only after a mutation actually happened."""
        postings = self._postings
        if postings is None:
            if not self._slots:
                postings = (None, None)
            else:
                rows = self._rows
                sel = np.nonzero(self._alive[:rows])[0]
                ls = self._lengths[sel]
                gi = _range_gather(self._starts[sel], ls)
                kwv = self._kw_flat[gi]
                rwv = np.repeat(sel, ls)
                order = np.argsort(kwv, kind="stable")
                postings = (kwv[order], rwv[order])
            self._postings = postings
        return postings

    def _slots_with_all(self, keyword_ids: Sequence[int]) -> np.ndarray:
        """Row slots whose items contain every listed keyword."""
        kwv, rwv = self._postings_view()
        if kwv is None:
            return np.empty(0, dtype=np.int64)
        out: Optional[np.ndarray] = None
        for k in keyword_ids:
            lo, hi = np.searchsorted(kwv, [k, k + 1])
            hit = rwv[lo:hi]
            out = np.unique(hit) if out is None else np.intersect1d(out, hit)
            if out.size == 0:
                break
        return out if out is not None else np.empty(0, dtype=np.int64)

    def items_with_all_keywords(
        self, keyword_ids: Sequence[int]
    ) -> list[StoredItem]:
        """Views of all stored items matching every keyword, by ascending id."""
        if not keyword_ids:
            return []
        hit = self._slots_with_all(keyword_ids)
        if hit.size == 0:
            return []
        order = np.argsort(self._ids[hit])
        return [self._item_at(s) for s in hit[order].tolist()]
