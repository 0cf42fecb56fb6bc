"""Experiment X-BUILD: million-item build-path scaling.

The build path is everything between "here is a corpus" and "every item
sits on its home": the Eq. 1–5 angle pass, the key map, the batched
route, and finite-capacity placement.  ROADMAP flagged the two scaling
cliffs this experiment pins:

* the whole-corpus angle pass materialises O(total nnz) temporaries —
  gigabytes at the paper's 2.76M-item trace — fixed by walking the
  corpus serially in row blocks (``chunk_rows``, default
  :data:`~repro.core.angles.DEFAULT_CHUNK_ROWS`), which must be
  *bit-identical* to the one-block pass;
* the finite-capacity branch of ``batch_publish`` ran the Fig. 2
  displacement chains one item at a time in Python — fixed by the
  cascade placement engine (:mod:`repro.core.cascade`), which must be
  *placement-identical*.

One row per corpus size: angle-pass timings (one block of all ``n``
rows vs the default ``chunk_rows``-row blocks) with the bit-identity
flag, and tight-capacity publish wall-clock for the cascade engine,
with the sequential-chain branch
timed alongside up to ``seq_max_items`` (it is quadratic-ish in load;
at 500K items it would take minutes for a number the small sizes
already establish).  The committed ``results/buildscale.csv`` is the
acceptance artifact for the ≥3× cascade claim — the speedup column at
the bench size (6K) — and for the ≥500K-item reach of the pipeline.

A last row runs the end-to-end benchmark's ``build`` shape
(:data:`PERF_BUILD`: N = 10⁴, 2×10⁵ items, capacity 4c), so the
benchmark's number has a committed twin here.

Capacity in the size rows is held at ~4/3 of the ideal load
c = items/nodes, so a constant fraction of homes overflow and chain
length stays size-independent: the curve isolates how the *engines*
scale, not how
overload grows.
"""

from __future__ import annotations

import time

import numpy as np

from ..core import Meteorograph, MeteorographConfig, PlacementScheme
from ..core.angles import DEFAULT_CHUNK_ROWS, absolute_angles
from ..workload import WorldCupParams, generate_trace
from .common import RowSet, sample_of, scale_factor, timer

__all__ = ["run_build_scale"]

#: Default corpus sizes (items) at REPRO_SCALE=1.  The last row is the
#: ≥500K-item reach point.
DEFAULT_SIZES = (6_000, 24_000, 96_000, 500_000)
#: The end-to-end benchmark's ``build`` shape (``perfbench/``): 2×10⁵
#: items over 4,000 keywords on N = 10⁴ nodes at capacity 4c.
PERF_BUILD = (200_000, 4_000, 10_000, 4.0)


def _build(corpus, n_nodes: int, capacity: int, seed: int) -> Meteorograph:
    rng = np.random.default_rng(seed)
    return Meteorograph.build(
        n_nodes,
        corpus.dim,
        rng=rng,
        sample=sample_of(corpus, rng),
        config=MeteorographConfig(
            scheme=PlacementScheme.UNUSED_HASH, node_capacity=capacity
        ),
    )


def _placements(system: Meteorograph) -> dict[int, frozenset]:
    return {
        node.node_id: frozenset(node.item_ids())
        for node in system.network.nodes()
        if len(node)
    }


def run_build_scale(
    *,
    sizes: "tuple[int, ...] | None" = None,
    seq_max_items: int = 25_000,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    seed: int = 19980724,
) -> RowSet:
    """Rows: one per corpus size, timing the whole build path.

    ``seq_max_items`` bounds where the old per-item chain branch is
    timed for the speedup column; larger rows leave it blank.  The last
    row is the :data:`PERF_BUILD` shape.  The
    placement/accounting equivalence of the two branches is asserted on
    every row where both ran.
    """
    rs = RowSet(
        "Build-path scaling — chunked key pipeline + cascade placement",
        (
            "items",
            "nodes",
            "cap",
            "gen s",
            "angles ms",
            "chunked ms",
            "keys identical",
            "cascade ms",
            "chain ms",
            "speedup",
            "spills",
            "drops",
        ),
    )
    s = scale_factor()
    if sizes is None:
        sizes = tuple(dict.fromkeys(max(500, int(round(n * s))) for n in DEFAULT_SIZES))
    # (items, keywords, nodes, capacity) per row.  Size rows: a ring sized
    # so the ideal load c = items/nodes stays ~125 and capacity ~4c/3, so
    # the overflow fraction (hence chain shape) is constant across sizes.
    cells = []
    for n_items in sizes:
        n_nodes = max(250, min(4000, n_items // 125))
        capacity = max(4, int(round((n_items / n_nodes) * 4 / 3)))
        cells.append((n_items, max(300, n_items // 5), n_nodes, capacity))
    p_items, p_keywords, p_nodes, p_cap = PERF_BUILD
    n_items = max(500, int(round(p_items * s)))
    n_nodes = max(25, int(round(p_nodes * s)))
    cells.append((
        n_items,
        max(100, int(round(p_keywords * s))),
        n_nodes,
        max(1, int(round(p_cap * n_items / n_nodes))),
    ))
    with timer(rs):
        identical_all = True
        for n_items, n_keywords, n_nodes, capacity in cells:
            t0 = time.perf_counter()
            trace = generate_trace(
                WorldCupParams(n_items=n_items, n_keywords=n_keywords), seed=seed
            )
            gen_s = time.perf_counter() - t0
            corpus = trace.corpus

            t0 = time.perf_counter()
            whole = absolute_angles(corpus, chunk_rows=n_items)
            whole_ms = (time.perf_counter() - t0) * 1e3
            t0 = time.perf_counter()
            chunked = absolute_angles(corpus, chunk_rows=chunk_rows)
            chunked_ms = (time.perf_counter() - t0) * 1e3
            keys_identical = bool(np.array_equal(whole, chunked))
            identical_all = identical_all and keys_identical

            cas_sys = _build(corpus, n_nodes, capacity, seed=seed + 1)
            t0 = time.perf_counter()
            cas_sys.publish_corpus(
                corpus, np.random.default_rng(seed + 2), batch=True, cascade=True
            )
            cascade_ms = (time.perf_counter() - t0) * 1e3
            spills = cas_sys.network.sink.count("displace")
            drops = n_items - cas_sys.network.total_items()

            chain_ms: "float | str" = ""
            speedup: "float | str" = ""
            if n_items <= seq_max_items:
                seq_sys = _build(corpus, n_nodes, capacity, seed=seed + 1)
                t0 = time.perf_counter()
                seq_sys.publish_corpus(
                    corpus,
                    np.random.default_rng(seed + 2),
                    batch=True,
                    cascade=False,
                )
                chain_ms = round((time.perf_counter() - t0) * 1e3, 1)
                speedup = round(chain_ms / cascade_ms, 1)
                assert _placements(seq_sys) == _placements(cas_sys)
                assert seq_sys.network.sink.snapshot() == cas_sys.network.sink.snapshot()

            rs.add(
                n_items,
                n_nodes,
                capacity,
                round(gen_s, 2),
                round(whole_ms, 1),
                round(chunked_ms, 1),
                keys_identical,
                round(cascade_ms, 1),
                chain_ms,
                speedup,
                spills,
                drops,
            )
        rs.notes["chunk_rows"] = chunk_rows
        rs.notes["seq_max_items"] = seq_max_items
        rs.notes["keys_identical_all"] = identical_all
    return rs
