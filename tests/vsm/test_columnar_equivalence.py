"""Columnar-store equivalence: the SoA index vs a dict-based oracle.

The columnar re-platform (DESIGN.md, "Columnar node state") changed the
*representation* of per-node state, not its semantics.  These tests pin
that claim:

* randomized add / remove / re-add / query interleavings must match a
  plain dict oracle on rankings, ladder extremes, the ladder, item
  contents and item iteration order (the index is the node's only item
  store, so it must iterate like the dict store it replaced) — across
  scalar ops, bulk ops, and the tombstone-compaction cycles the
  interleavings trigger;
* ``least_similar`` (the COSINE replacement-victim rule) must agree with
  the victim derived from the batch ``score_many`` matrix — scalar and
  batch paths run one kernel, so the pick is identical, not just close;
* regression: a query that raises mid-kernel must not leave the shared
  dense scratch dirty (every later score on the node would be wrong);
* regression: ``LocalVsmIndex.remove_many`` with duplicate ids must remove
  each id once instead of raising ``KeyError`` mid-sweep, and an unknown
  id must fail *before* any mutation.
"""

import math

import numpy as np
import pytest

from repro.sim.node import StoredItem
from repro.vsm.index import ItemBlock, LocalVsmIndex
from repro.vsm.sparse import SparseVector

DIM = 24


def make_item(item_id, mapping, angle_key=0):
    ids = np.array(sorted(mapping), dtype=np.int64)
    w = np.array([mapping[i] for i in ids], dtype=np.float64)
    return StoredItem(item_id, angle_key, angle_key, ids, w)


def rand_item(rng, item_id):
    k = int(rng.integers(1, 6))
    kws = rng.choice(DIM, size=k, replace=False).tolist()
    ws = rng.uniform(0.2, 2.0, size=k)
    return make_item(
        item_id, dict(zip(kws, ws)), angle_key=int(rng.integers(0, 1 << 20))
    )


def rand_query(rng):
    k = int(rng.integers(1, 5))
    kws = rng.choice(DIM, size=k, replace=False).tolist()
    return SparseVector.from_mapping(
        dict(zip(kws, rng.uniform(0.2, 2.0, size=k))), DIM
    )


def oracle_ranking(items, q):
    """Brute-force (id, score) ranking over a dict oracle."""
    scored = []
    for it in items.values():
        v = SparseVector(it.keyword_ids, it.weights, DIM)
        s = v.cosine(q)
        if s > 0.0:
            scored.append((it.item_id, s))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored


def assert_rankings_match(got, expect):
    assert [i for i, _ in got] == [i for i, _ in expect]
    for (_, gs), (_, es) in zip(got, expect):
        assert gs == pytest.approx(es, rel=1e-12, abs=1e-15)


class TestRandomizedOracle:
    """Random interleavings of scalar/bulk mutations vs the dict oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_interleaved_mutations_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        idx = LocalVsmIndex()
        oracle: dict[int, StoredItem] = {}
        next_id = 0
        for step in range(120):
            op = rng.random()
            if op < 0.35 or not oracle:
                it = rand_item(rng, next_id)
                next_id += 1
                idx.add(it)
                oracle[it.item_id] = it
            elif op < 0.50:
                # Bulk add with an intra-batch duplicate id now and then.
                n = int(rng.integers(2, 8))
                batch = [rand_item(rng, next_id + j) for j in range(n)]
                next_id += n
                if n >= 3 and rng.random() < 0.5:
                    dup = rand_item(rng, batch[0].item_id)
                    batch.append(dup)
                idx.add_many(batch)
                for it in batch:
                    oracle[it.item_id] = it
            elif op < 0.65:
                # Re-add an existing id with fresh content.
                iid = int(rng.choice(sorted(oracle)))
                it = rand_item(rng, iid)
                idx.add(it)
                oracle[iid] = it
            elif op < 0.80:
                iid = int(rng.choice(sorted(oracle)))
                removed = idx.remove(iid)
                assert removed == oracle.pop(iid)
            else:
                n = min(len(oracle), int(rng.integers(1, 6)))
                ids = rng.choice(sorted(oracle), size=n, replace=False).tolist()
                idx.remove_many([int(i) for i in ids])
                for iid in ids:
                    del oracle[int(iid)]

            if step % 10 == 9:
                self.check_state(idx, oracle, rng)
        self.check_state(idx, oracle, rng)

    def check_state(self, index, oracle, rng):
        assert len(index) == len(oracle)
        assert list(index.item_ids()) == list(oracle)
        assert [it.item_id for it in index.items()] == list(oracle)
        # Rankings (scalar query + batch query_many share one kernel).
        queries = [rand_query(rng) for _ in range(3)]
        batch = index.query_many(queries)
        for q, hits in zip(queries, batch):
            got = [(h.item_id, h.score) for h in hits]
            assert_rankings_match(got, oracle_ranking(oracle, q))
            scalar = [(h.item_id, h.score) for h in index.query(q)]
            assert scalar == got
        # Ladder extremes and item contents.
        assert {it.item_id: it for it in index.items()} == oracle
        expect_ladder = sorted((it.angle_key, iid) for iid, it in oracle.items())
        assert index.angle_ladder() == expect_ladder
        if oracle:
            assert index.min_angle_item() == oracle[expect_ladder[0][1]]
            assert index.max_angle_item() == oracle[expect_ladder[-1][1]]
        else:
            assert index.min_angle_item() is None
            assert index.max_angle_item() is None

    def test_compaction_preserves_contents(self):
        rng = np.random.default_rng(42)
        idx = LocalVsmIndex()
        items = [rand_item(rng, i) for i in range(120)]
        idx.add_many(items)
        survivors = {it.item_id: it for it in items if it.item_id % 5 == 0}
        idx.remove_many([it.item_id for it in items if it.item_id % 5])
        # 96 tombstones against 24 live rows — compaction must have run.
        assert idx._rows == len(survivors)  # noqa: SLF001
        self.check_state(idx, survivors, rng)


class TestVictimKernelAgreement:
    """least_similar (scalar) vs the score_many matrix (batch): the
    COSINE replacement rule must pick the same victim bit-for-bit."""

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_scalar_and_batch_agree(self, seed):
        rng = np.random.default_rng(seed)
        idx = LocalVsmIndex()
        for i in range(60):
            idx.add(rand_item(rng, i))
        queries = [rand_query(rng) for _ in range(20)]
        ids, scores = idx.score_many(queries)
        for q, row in zip(queries, scores):
            victim = idx.least_similar(q)
            batch_pick = int(ids[np.lexsort((ids, row))[0]])
            assert victim.item_id == batch_pick

    def test_agreement_with_zero_score_items(self):
        # Items sharing no keyword with the query score an exact 0 and
        # are the most eligible victims; ties break on ascending id.
        idx = LocalVsmIndex()
        idx.add(make_item(7, {0: 1.0}))
        idx.add(make_item(3, {9: 1.0}))
        idx.add(make_item(5, {9: 2.0}))
        q = SparseVector.from_mapping({0: 1.0}, DIM)
        ids, scores = idx.score_many([q])
        assert idx.least_similar(q).item_id == 3
        assert int(ids[np.lexsort((ids, scores[0]))[0]]) == 3

    def test_scores_match_query_path(self):
        rng = np.random.default_rng(13)
        idx = LocalVsmIndex()
        for i in range(40):
            idx.add(rand_item(rng, i))
        queries = [rand_query(rng) for _ in range(8)]
        ids, scores = idx.score_many(queries)
        cols = {int(iid): j for j, iid in enumerate(ids)}
        for q, row in zip(queries, scores):
            for h in idx.query(q):
                assert row[cols[h.item_id]] == h.score


class TestScratchCleanup:
    """Regression: a kernel failure mid-score must not leave the shared
    dense scratch dirty (it would corrupt every later score)."""

    def test_failed_query_does_not_corrupt_later_scores(self, monkeypatch):
        idx = LocalVsmIndex()
        idx.add(make_item(1, {0: 1.0, 3: 2.0}))
        idx.add(make_item(2, {0: 2.0, 5: 1.0}))
        q_fail = SparseVector.from_mapping({0: 9.0, 3: 9.0}, DIM)
        q_later = SparseVector.from_mapping({5: 1.0}, DIM)
        expect = [(h.item_id, h.score) for h in idx.query(q_later)]

        def boom(*args, **kwargs):
            raise RuntimeError("kernel failure")

        # Fail *after* q_fail has been scattered into the scratch; its
        # stale weights at keywords 0/3 would inflate every later score.
        with monkeypatch.context() as m:
            m.setattr(np, "multiply", boom)
            with pytest.raises(RuntimeError):
                idx.query(q_fail)
        got = [(h.item_id, h.score) for h in idx.query(q_later)]
        assert got == expect

    def test_scratch_zeroed_after_failure(self):
        idx = LocalVsmIndex()
        idx.add(
            StoredItem(
                1,
                0,
                0,
                np.array([DIM + 9], dtype=np.int64),
                np.array([1.0], dtype=np.float64),
            )
        )
        with pytest.raises(IndexError):
            idx.query(SparseVector.from_mapping({2: 5.0}, DIM))
        assert not idx._scratch.any()  # noqa: SLF001 - the regression itself


class TestRemoveManyDuplicates:
    """Regression: duplicate ids in remove_many removed once, unknown ids
    rejected before any mutation."""

    def build(self):
        idx = LocalVsmIndex()
        idx.add(make_item(1, {0: 1.0}, angle_key=10))
        idx.add(make_item(2, {1: 1.0}, angle_key=20))
        idx.add(make_item(3, {2: 1.0}, angle_key=30))
        return idx

    def test_duplicate_ids_removed_once(self):
        idx = self.build()
        out = idx.remove_many([1, 2, 1, 1])
        assert [it.item_id for it in out] == [1, 2]
        assert sorted(idx.item_ids()) == [3]
        assert idx.angle_ladder() == [(30, 3)]
        assert idx.min_angle_item().item_id == 3

    def test_unknown_id_fails_before_mutation(self):
        idx = self.build()
        with pytest.raises(KeyError):
            idx.remove_many([1, 99])
        assert sorted(idx.item_ids()) == [1, 2, 3]
        assert idx.angle_ladder() == [(10, 1), (20, 2), (30, 3)]

    def test_empty_and_index_level_dedupe(self):
        idx = self.build()
        assert len(idx.remove_many([])) == 0
        assert [it.item_id for it in idx.remove_many([3, 3])] == [3]
        assert 3 not in idx


class TestBulkScalarEquivalence:
    """add_many / remove_many end states equal their scalar loops."""

    @pytest.mark.parametrize("seed", [20, 21])
    def test_add_many_matches_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        items = [rand_item(rng, i % 15) for i in range(40)]  # heavy dup load
        bulk = LocalVsmIndex()
        bulk.add_many(items)
        scalar = LocalVsmIndex()
        for it in items:
            scalar.add(it)
        assert bulk.angle_ladder() == scalar.angle_ladder()
        assert list(bulk.items()) == list(scalar.items())
        q = rand_query(rng)
        pairs = lambda hits: [(h.item_id, h.score) for h in hits]  # noqa: E731
        assert pairs(bulk.query(q)) == pairs(scalar.query(q))

    def test_add_many_precomputed_norms_match(self):
        rng = np.random.default_rng(22)
        items = [rand_item(rng, i) for i in range(10)]
        norms = [math.sqrt(it.weights.dot(it.weights)) for it in items]
        with_norms = LocalVsmIndex()
        with_norms.add_many(items, norms)
        without = LocalVsmIndex()
        without.add_many(items)
        q = rand_query(rng)
        pairs = lambda hits: [(h.item_id, h.score) for h in hits]  # noqa: E731
        assert pairs(with_norms.query(q)) == pairs(without.query(q))
        for it in items:
            assert with_norms.norm_of(it.item_id) == without.norm_of(it.item_id)
        assert [with_norms.norm_of(it.item_id) for it in items] == norms


class TestAdoptedRuns:
    """An empty store adopts a private run's arrays instead of copying;
    sibling runs share one chunk, so each store's later mutations must
    stay its own."""

    def test_sibling_stores_stay_independent(self):
        rng = np.random.default_rng(23)
        items = [rand_item(rng, i) for i in range(150)]
        runs = list(ItemBlock.from_items(items).runs([50, 100]))
        assert all(run.private for run in runs)
        stores = [LocalVsmIndex() for _ in runs]
        for store, run in zip(stores, runs):
            store.add_many(run)
        # Removals past the compaction threshold, then fresh adds.
        first = stores[0]
        for iid in range(40):
            first.remove(iid)
        added = [rand_item(rng, 200 + i) for i in range(40)]
        for it in added:
            first.add(it)
        first.add_many(added[:5])
        assert list(first.items()) == items[40:50] + added  # re-adds keep place
        for store, lo in zip(stores[1:], (50, 100)):
            assert list(store.items()) == items[lo : lo + 50]

    def test_repeated_id_run_is_copied(self):
        rng = np.random.default_rng(24)
        items = [rand_item(rng, i % 3) for i in range(6)]
        (run,) = ItemBlock.from_items(items).runs([])
        store = LocalVsmIndex()
        store.add_many(run)
        scalar = LocalVsmIndex()
        for it in items:
            scalar.add(it)
        assert list(store.items()) == list(scalar.items())
        assert store.angle_ladder() == scalar.angle_ladder()
        q = rand_query(rng)
        pairs = lambda hits: [(h.item_id, h.score) for h in hits]  # noqa: E731
        assert pairs(store.query(q)) == pairs(scalar.query(q))
