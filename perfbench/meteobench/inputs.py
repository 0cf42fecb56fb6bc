"""Benchmark shapes and the shared synthetic trace.

The corpus is the X-SCALE single-process shape: ``default_trace`` with
its fixed trace seed, so every seed of every workload runs against the
same 2×10⁵ items and the same N=10⁴ ring.  The ``--seed`` of a run only
draws the request stream: origins, order, publish order and the Zipf
draws.  Query sets are fixed too, because per-query cost is heavy-tailed
(a few one-keyword rows walk the full 256 nodes): a seed-drawn set of a
few thousand rows moves the message count by ~15% from seed to seed.

Generating the trace takes ~10 s of pure input generation, so the CSR
arrays are cached under ``.bench_build/`` in the checkout.  The cache
file name hashes the sources that generate the trace, so a change to
the generator never reads a stale corpus.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Sizes of one benchmark configuration."""

    name: str
    nodes: int
    items: int
    keywords: int
    #: storm: size of the fixed query set.  Every run completes at least
    #: one pass over it, cycling while time remains.
    storm_queries: int
    #: online: leading operations every run completes, timing or not.
    online_prefix: int
    #: Retrieves replayed through the sequential oracle after timing.
    check_sample: int


PAPER = Shape(
    name="paper", nodes=10_000, items=200_000, keywords=4_000,
    storm_queries=4_096, online_prefix=1_024, check_sample=128,
)
#: Seconds-long shape for the benchmark's own tests.
TINY = Shape(
    name="tiny", nodes=200, items=4_000, keywords=800,
    storm_queries=256, online_prefix=128, check_sample=32,
)
SHAPES = {s.name: s for s in (PAPER, TINY)}

#: Seed of everything the shape fixes, X-SCALE's build seed: the ring
#: (node ids, equalizer sample), the storm query set and the online
#: hold-out.  A run's ``--seed`` only draws its request stream.
SHAPE_SEED = 11
#: Queries per ``retrieve_many`` call in storm.
WINDOW = 64
STORM_AMOUNT = 5
STORM_MAX_WALK = 256
ONLINE_AMOUNT = 10
#: Capacity of the finite-capacity workloads, in units of c = items/nodes.
CAPACITY_C = 4
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Sources whose code decides the generated trace.
_GENERATOR_SOURCES = (
    "src/repro/workload",
    "src/repro/vsm/sparse.py",
    "src/repro/experiments/common.py",
)


def _generator_digest(root: Path, shape: Shape) -> str:
    import scipy

    h = hashlib.sha256()
    h.update(repr((shape.items, shape.keywords, np.__version__,
                   scipy.__version__)).encode())
    for rel in _GENERATOR_SOURCES:
        p = root / rel
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            h.update(str(f.relative_to(root)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:20]


def load_trace(root: Path, shape: Shape):
    """The shape's ``default_trace``, from the cache when it is current."""
    import scipy.sparse as sp

    from repro.experiments.common import default_trace
    from repro.vsm.sparse import Corpus
    from repro.workload import WorldCupParams, WorldCupTrace

    cache = root / ".bench_build" / "perfbench" / (
        f"trace-{shape.name}-{_generator_digest(root, shape)}.npz"
    )
    if cache.is_file():
        with np.load(cache, allow_pickle=False) as z:
            corpus = Corpus(sp.csr_matrix(
                (z["data"], z["indices"], z["indptr"]), shape=tuple(z["shape"])
            ))
            # The Zipf sampler only serves trace generation; queries come
            # from the corpus and the keyword weights.
            return WorldCupTrace(
                corpus=corpus,
                params=WorldCupParams(n_items=shape.items, n_keywords=shape.keywords),
                keyword_weights=z["keyword_weights"],
                popularity=None,
                seed=int(z["seed"]),
            )
    trace = default_trace(n_items=shape.items, n_keywords=shape.keywords, scale=1.0)
    m = trace.corpus.matrix
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_name(cache.name + f".{os.getpid()}.tmp")
    with open(tmp, "wb") as f:
        np.savez(f, data=m.data, indices=m.indices, indptr=m.indptr,
                 shape=np.array(m.shape), keyword_weights=trace.keyword_weights,
                 seed=trace.seed)
    os.replace(tmp, cache)
    return trace
