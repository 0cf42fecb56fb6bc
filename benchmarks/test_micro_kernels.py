"""Micro-benchmarks of the hot computational kernels.

These are conventional repeated-round pytest-benchmark measurements
(unlike the figure benches, which time one full experiment): the
vectorised Eq.-5 angle computation, the Eq.-6 batch remap, overlay
routing, and the local-index query path.  They guard the performance
assumptions the experiment harnesses rely on.
"""

import numpy as np
import pytest

from repro.core import corpus_to_keys, equalizer_from_sample
from repro.core.angles import absolute_angles
from repro.overlay.idspace import KeySpace
from repro.overlay.tornado import TornadoOverlay
from repro.sim.network import Network
from repro.vsm.index import LocalVsmIndex
from repro.sim.node import StoredItem


@pytest.fixture(scope="module")
def space():
    return KeySpace()


def test_absolute_angles_throughput(benchmark, bench_trace):
    """Vectorised Eq. 5 over the full corpus — must stay O(nnz)."""
    corpus = bench_trace.corpus
    out = benchmark(absolute_angles, corpus)
    assert out.shape == (corpus.n_items,)
    assert np.all((out >= 0) & (out <= np.pi / 2 + 1e-9))


def test_corpus_key_derivation(benchmark, bench_trace, space):
    keys = benchmark(corpus_to_keys, bench_trace.corpus, space)
    assert keys.min() >= 0 and keys.max() < space.modulus


def test_equalizer_batch_remap(benchmark, bench_trace, space):
    keys = corpus_to_keys(bench_trace.corpus, space)
    eq = equalizer_from_sample(keys[:500], space)
    out = benchmark(eq.remap_many, keys)
    assert out.shape == keys.shape


def test_tornado_route_latency(benchmark, space):
    rng = np.random.default_rng(0)
    network = Network()
    overlay = TornadoOverlay(space, network)
    ids = set()
    while len(ids) < 1000:
        ids.add(int(rng.integers(0, space.modulus)))
    for nid in ids:
        overlay.add_node(nid)
    origins = [overlay.ring.at(int(rng.integers(0, 1000))) for _ in range(64)]
    keys = [int(rng.integers(0, space.modulus)) for _ in range(64)]
    # Warm the lazy routing tables so the benchmark measures routing.
    for o, k in zip(origins, keys):
        overlay.route(o, k)

    def run():
        total = 0
        for o, k in zip(origins, keys):
            total += overlay.route(o, k).hops
        return total

    hops = benchmark(run)
    assert hops > 0


def _bench_items(rng, n=400):
    return [
        StoredItem(
            i,
            0,
            0,
            np.sort(rng.choice(4000, size=40, replace=False)).astype(np.int64),
            rng.uniform(0.5, 3.0, 40),
        )
        for i in range(n)
    ]


def test_local_index_query(benchmark):
    rng = np.random.default_rng(1)
    idx = LocalVsmIndex()
    for it in _bench_items(rng):
        idx.add(it)
    from repro.vsm.sparse import SparseVector

    q = SparseVector.from_mapping({int(k): 1.0 for k in rng.choice(4000, 5, replace=False)}, 4000)
    hits = benchmark(idx.query, q, 20)
    assert isinstance(hits, list)


def test_local_index_add_many(benchmark):
    # The columnar store's primitive mutation: one block append for the
    # whole 400-item workload (the scalar-add path is the obs-bench
    # ``local_index_add`` kernel; this is its bulk counterpart).
    items = _bench_items(np.random.default_rng(2))

    def run():
        idx = LocalVsmIndex()
        idx.add_many(items)
        return len(idx)

    assert benchmark(run) == len(items)


def test_local_index_score_many(benchmark):
    from repro.vsm.sparse import SparseVector

    rng = np.random.default_rng(1)
    idx = LocalVsmIndex()
    for it in _bench_items(rng):
        idx.add(it)
    queries = [
        SparseVector.from_mapping(
            {int(k): 1.0 for k in rng.choice(4000, 5, replace=False)}, 4000
        )
        for _ in range(64)
    ]
    ids, scores = benchmark(idx.score_many, queries)
    assert scores.shape == (len(queries), len(ids))
