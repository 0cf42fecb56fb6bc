"""Unit tests for the per-node local VSM index."""

import numpy as np
import pytest

from repro.sim.node import StoredItem
from repro.vsm.index import LocalVsmIndex
from repro.vsm.sparse import SparseVector

DIM = 20


def item(item_id, mapping):
    ids = np.array(sorted(mapping), dtype=np.int64)
    w = np.array([mapping[i] for i in ids], dtype=np.float64)
    return StoredItem(item_id, 0, 0, ids, w)


def query(mapping):
    return SparseVector.from_mapping(mapping, DIM)


class TestMaintenance:
    def test_add_and_len(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0}))
        idx.add(item(2, {1: 1.0}))
        assert len(idx) == 2
        assert 1 in idx and 3 not in idx

    def test_re_add_replaces(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0}))
        idx.add(item(1, {5: 2.0}))
        assert len(idx) == 1
        hits = idx.query(query({5: 1.0}))
        assert [h.item_id for h in hits] == [1]
        assert idx.query(query({0: 1.0})) == []

    def test_remove_cleans_postings(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0, 3: 1.0}))
        removed = idx.remove(1)
        assert removed.item_id == 1
        assert len(idx) == 0
        assert idx.query(query({0: 1.0})) == []
        with pytest.raises(KeyError):
            idx.remove(1)

    def test_rebuild(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0}))
        idx.rebuild([item(2, {1: 1.0}), item(3, {1: 1.0})])
        assert len(idx) == 2
        assert 1 not in idx

    def test_scratch_follows_query_dim(self):
        # No dimension up front: the dense scratch is sized by the
        # largest query seen, and stays zeroed between queries.
        idx = LocalVsmIndex()
        idx.add(item(1, {2: 1.0}))
        small = idx.query(query({2: 1.0}))
        assert [h.item_id for h in small] == [1]
        idx.add(item(2, {DIM + 5: 1.0}))
        big = idx.query(SparseVector.from_mapping({DIM + 5: 1.0}, DIM + 10))
        assert [h.item_id for h in big] == [2]
        assert idx.query(query({2: 1.0}))[0].score == small[0].score
        assert not idx._scratch.any()  # noqa: SLF001


class TestQuery:
    def build(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0, 1: 1.0}))
        idx.add(item(2, {0: 1.0}))
        idx.add(item(3, {5: 1.0}))
        idx.add(item(4, {0: 1.0, 1: 1.0, 2: 1.0}))
        return idx

    def test_ranking_matches_bruteforce_cosine(self):
        idx = self.build()
        q = query({0: 1.0, 1: 1.0})
        hits = idx.query(q)
        got = [(h.item_id, h.score) for h in hits]
        # Brute force over all items.
        def cos(m):
            v = SparseVector.from_mapping(m, DIM)
            return v.cosine(q)

        expect = sorted(
            [
                (1, cos({0: 1.0, 1: 1.0})),
                (2, cos({0: 1.0})),
                (4, cos({0: 1.0, 1: 1.0, 2: 1.0})),
            ],
            key=lambda t: (-t[1], t[0]),
        )
        assert [i for i, _ in got] == [i for i, _ in expect]
        for (gi, gs), (ei, es) in zip(got, expect):
            assert gs == pytest.approx(es)

    def test_non_overlapping_items_excluded(self):
        hits = self.build().query(query({0: 1.0}))
        assert 3 not in [h.item_id for h in hits]

    def test_limit(self):
        assert len(self.build().query(query({0: 1.0}), limit=2)) == 2

    def test_require_all_filters(self):
        hits = self.build().query(query({0: 1.0}), require_all=[0, 1])
        assert sorted(h.item_id for h in hits) == [1, 4]

    def test_min_score(self):
        idx = self.build()
        q = query({0: 1.0, 1: 1.0})
        strict = idx.query(q, min_score=0.99)
        assert [h.item_id for h in strict] == [1]

    def test_empty_query_returns_nothing(self):
        q = SparseVector.from_mapping({}, DIM)
        assert self.build().query(q) == []


class TestQueryMany:
    """query_many(queries)[i] must equal query(queries[i]) exactly — the
    batch read path's bulk-scoring contract."""

    def build(self, seed=0, n_items=30):
        rng = np.random.default_rng(seed)
        idx = LocalVsmIndex()
        for iid in range(n_items):
            k = int(rng.integers(1, 5))
            kws = sorted(rng.choice(DIM, size=k, replace=False).tolist())
            idx.add(item(iid, {kw: float(w) for kw, w in
                             zip(kws, rng.uniform(0.2, 2.0, size=k))}))
        return rng, idx

    def rand_query(self, rng):
        k = int(rng.integers(1, 4))
        kws = rng.choice(DIM, size=k, replace=False).tolist()
        return query(dict(zip(kws, rng.uniform(0.2, 2.0, size=k))))

    def pairs(self, hits):
        return [(h.item_id, h.score) for h in hits]

    def test_matches_scalar_exactly(self):
        rng, idx = self.build()
        queries = [self.rand_query(rng) for _ in range(12)]
        queries[5] = queries[0]  # duplicate content exercises the memo
        for limit in (None, 3):
            batch = idx.query_many(queries, limit=limit)
            for q, hits in zip(queries, batch):
                assert self.pairs(hits) == self.pairs(idx.query(q, limit=limit))

    def test_matches_scalar_with_filters(self):
        rng, idx = self.build(seed=3)
        queries = [self.rand_query(rng) for _ in range(8)]
        kw = int(queries[0].indices[0])
        batch = idx.query_many(queries, require_all=[kw], min_score=0.1)
        for q, hits in zip(queries, batch):
            assert self.pairs(hits) == self.pairs(
                idx.query(q, require_all=[kw], min_score=0.1)
            )

    def test_mutation_invalidates_snapshot(self):
        rng, idx = self.build(seed=5)
        q = self.rand_query(rng)
        before = idx.query_many([q])[0]
        assert self.pairs(before) == self.pairs(idx.query(q))
        idx.add(item(999, {int(q.indices[0]): 5.0}))
        after = idx.query_many([q])[0]
        assert 999 in [h.item_id for h in after]
        idx.remove(999)
        again = idx.query_many([q])[0]
        assert self.pairs(again) == self.pairs(before)

    def test_duplicate_results_are_independent_lists(self):
        rng, idx = self.build(seed=7)
        q = self.rand_query(rng)
        a, b = idx.query_many([q, q])
        assert a is not b and self.pairs(a) == self.pairs(b)

    def test_empty_batch_and_empty_index(self):
        assert LocalVsmIndex().query_many([]) == []
        assert LocalVsmIndex().query_many([query({1: 1.0})]) == [[]]


class TestLeastSimilar:
    def test_picks_lowest_cosine(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0}))
        idx.add(item(2, {0: 1.0, 9: 5.0}))
        idx.add(item(3, {9: 1.0}))
        victim = idx.least_similar(query({0: 1.0}))
        assert victim.item_id == 3  # no overlap → score 0

    def test_tie_breaks_on_lowest_id(self):
        idx = LocalVsmIndex()
        idx.add(item(5, {7: 1.0}))
        idx.add(item(2, {8: 1.0}))
        victim = idx.least_similar(query({0: 1.0}))
        assert victim.item_id == 2

    def test_empty_index_returns_none(self):
        assert LocalVsmIndex().least_similar(query({0: 1.0})) is None


class TestItemsWithAllKeywords:
    def test_conjunction(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0, 1: 1.0}))
        idx.add(item(2, {0: 1.0}))
        idx.add(item(3, {0: 1.0, 1: 1.0, 2: 1.0}))
        hits = idx.items_with_all_keywords([0, 1])
        assert [i.item_id for i in hits] == [1, 3]

    def test_empty_keyword_list(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0}))
        assert idx.items_with_all_keywords([]) == []

    def test_unknown_keyword(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0}))
        assert idx.items_with_all_keywords([15]) == []
