"""The three workloads: ``storm``, ``build`` and ``online``.

Each drives the public ``Meteorograph`` API from one process as a closed
loop with one client — an operation is issued only after the previous
one returned.  A workload object holds inputs drawn from the run's seed;
nothing is generated inside a timed region.

* ``setup()`` builds a system (and pre-loads it, where the workload
  reads from a loaded ring); the benchmark times it as ``setup_s``.
* ``prepare(system)`` derives the inputs that name ring nodes (request
  origins).  The ring comes from a fixed seed, so inputs drawn from one
  set-up fit every other.
* ``run(system, seconds)`` is the timed closed loop.  It always finishes
  a fixed prefix of operations, so the exact counts taken from that
  prefix do not depend on how fast the machine is.  Calibration probes
  run between operations (see :mod:`.calib`).
* ``check(system, phase, report)`` replays a fixed sample through the
  sequential oracle and asserts the placement invariants.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .calib import Calibration
from .inputs import (
    CAPACITY_C, ONLINE_AMOUNT, SHAPE_SEED, STORM_AMOUNT, STORM_MAX_WALK, WINDOW,
    Shape,
)

_clock = time.perf_counter


class GuardError(RuntimeError):
    """The program served the workload through another engine path than
    the one the workload exists to measure."""


@dataclass
class Phase:
    """What one timed closed loop did."""

    ops: int = 0
    #: Seconds spent inside the client's calls (probes and bookkeeping
    #: between calls excluded), measured and in reference seconds.
    busy: float = 0.0
    ref_busy: float = 0.0
    #: Wall time of the loop, calibration probes excluded.
    wall: float = 0.0
    #: Per-operation latency in reference seconds, by operation kind.
    latencies: dict[str, list[float]] = field(default_factory=dict)
    cal: Calibration = field(default_factory=Calibration)
    failed: int = 0
    #: Exact counts over the fixed prefix.
    prefix_ops: int = 0
    prefix_bill: Counter = field(default_factory=Counter)
    prefix_retrieves: int = 0
    prefix_found: int = 0
    #: Sink bill of the whole phase, by kind, and the messages the
    #: returned results account for; the two must agree.
    bill: Counter = field(default_factory=Counter)
    charged: int = 0
    #: Frontier entries the results consumed, and discoveries returned.
    nodes_walked: int = 0
    discoveries: int = 0
    digest: str = ""


def _report_error(exc: BaseException) -> None:
    print("operation failed:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def _build(trace, shape: Shape, capacity_multiple):
    from repro.core import PlacementScheme
    from repro.experiments.common import build_system

    return build_system(
        trace, shape.nodes, PlacementScheme.UNUSED_HASH,
        rng=np.random.default_rng(SHAPE_SEED), capacity_multiple=capacity_multiple,
    )


def _corpus_queries(trace, rng, n) -> list:
    """``n`` corpus-row query vectors."""
    rows = rng.integers(0, trace.corpus.n_items, n)
    return [trace.corpus.vector(int(i)) for i in rows]


class Workload:
    name = ""
    #: True when every timed run needs a freshly set-up system.
    fresh_system_per_run = False
    #: Publish results of the last set-up's pre-load, if it has one.
    setup_results: list = []
    #: Whether long calls may run calibration probes inside them.
    probe_inside = True

    def __init__(self, shape: Shape, trace, seed: int, guards) -> None:
        self.shape = shape
        self.trace = trace
        self.seed = seed
        self.guards = guards

    def prepare(self, system) -> None:
        """Derive the ring-dependent inputs (default: none)."""

    def ops_per_s(self, phase: Phase) -> float:
        """Throughput in operations per reference second."""
        return phase.ops / phase.ref_busy

    def _ring(self, system) -> np.ndarray:
        return system.overlay.ring.as_array()

    def _expect_cascade(self, before: int) -> None:
        g = self.guards
        if g.cascade_calls != before + 1 or g.cascade_placed != before + 1:
            raise GuardError(
                f"{self.name}: publish_corpus did not run the cascade engine "
                f"exactly once (calls {g.cascade_calls - before}, placed "
                f"{g.cascade_placed - before})"
            )


class Storm(Workload):
    """Corpus-row queries from random origins, drained by
    ``retrieve_many`` in windows of 64 over a fully published ring with
    infinite capacity.  The distinct homes outnumber the walk-order
    cache, so the walk frontier does most of the work."""

    name = "storm"

    def __init__(self, shape, trace, seed, guards) -> None:
        super().__init__(shape, trace, seed, guards)
        fixed = _corpus_queries(trace, np.random.default_rng(SHAPE_SEED),
                                shape.storm_queries)
        # Windows keep a fixed membership and the seed orders them, so
        # the drain-time distribution does not hinge on which long walks
        # a seed happens to bunch into one window.
        windows = [fixed[i:i + WINDOW] for i in range(0, len(fixed), WINDOW)]
        rng = np.random.default_rng(seed)
        self.queries = [q for w in rng.permutation(len(windows)) for q in windows[w]]
        self.origin_ranks = rng.integers(0, shape.nodes, len(fixed))

    def setup(self):
        system = _build(self.trace, self.shape, None)
        self.setup_results = system.publish_corpus(
            self.trace.corpus, np.random.default_rng(self.seed), batch=True
        )
        return system

    def prepare(self, system) -> None:
        self.origins = self._ring(system)[self.origin_ranks].tolist()
        self.windows = [
            (self.origins[i:i + WINDOW], self.queries[i:i + WINDOW])
            for i in range(0, len(self.queries), WINDOW)
        ]

    def run(self, system, seconds: float) -> Phase:
        p = Phase()
        sink = system.network.sink
        before = sink.snapshot()
        first_pass = len(self.queries)
        self.sample = []
        lat: list[float] = []
        guard0 = self.guards.sequential_calls
        retrieve_many = system.retrieve_many
        h = hashlib.sha256()
        start = _clock()
        deadline = start + seconds
        i = 0
        # Cycle the query set until a full pass is done and time is up.
        while p.ops < first_pass or _clock() < deadline:
            origins, queries = self.windows[i % len(self.windows)]
            i += 1
            t = _clock()
            try:
                results = retrieve_many(origins, queries, STORM_AMOUNT,
                                        max_walk=STORM_MAX_WALK)
            except Exception as exc:  # one broken window must not end the run
                _report_error(exc)
                p.failed += len(queries)
                p.ops += len(queries)
                continue
            dt = _clock() - t
            f = p.cal.probe()
            p.busy += dt
            p.ref_busy += dt * f
            lat.extend([dt * f] * len(queries))
            for res in results:
                p.charged += checks.charged(res)
                p.nodes_walked += res.walk_hops
                p.discoveries += res.found
            if p.ops < first_pass:
                for res in results:
                    h.update(repr(checks.result_key(res)).encode())
                p.prefix_found += sum(r.found for r in results)
                p.prefix_retrieves += len(results)
                if len(self.sample) < self.shape.check_sample:
                    self.sample.extend(results)
            p.ops += len(queries)
            if p.ops == first_pass:
                p.prefix_bill = Counter(sink.diff(before))
        p.wall = _clock() - start - sum(p.cal.samples)
        p.prefix_ops = first_pass
        p.latencies = {"retrieve_window": lat}
        p.bill = Counter(sink.diff(before))
        p.digest = h.hexdigest()
        if self.guards.sequential_calls != guard0:
            raise GuardError(
                f"storm: retrieve_many fell back to the sequential loop "
                f"{self.guards.sequential_calls - guard0} times"
            )
        return p

    def check(self, system, phase: Phase, report: checks.Report) -> str:
        n = min(len(self.sample), self.shape.check_sample)
        checks.oracle_replay(
            report, system, self.origins[:n], self.queries[:n], self.sample[:n],
            amount=STORM_AMOUNT, max_walk=STORM_MAX_WALK,
        )
        return checks.placement_invariants(
            report, system, np.arange(self.trace.corpus.n_items)
        )


class Build(Workload):
    """``publish_corpus`` of every row, in a seed-drawn order, at capacity
    4c: the cascade displacement engine does most of the work and the
    read path is idle.  Each timed publish gets a freshly built ring."""

    name = "build"
    fresh_system_per_run = True

    def __init__(self, shape, trace, seed, guards) -> None:
        super().__init__(shape, trace, seed, guards)
        rng = np.random.default_rng(seed)
        self.order = rng.permutation(trace.corpus.n_items)
        self.corpus = trace.corpus.subsample(self.order)
        self.probes = _corpus_queries(trace, np.random.default_rng(SHAPE_SEED),
                                      shape.check_sample)
        self.probe_ranks = rng.integers(0, shape.nodes, shape.check_sample)

    def ops_per_s(self, phase: Phase) -> float:
        """Items per reference second of the median publish: one cold
        repetition must not move the figure."""
        return self.shape.items / float(np.median(phase.latencies["publish_corpus"]))

    def setup(self):
        return _build(self.trace, self.shape, CAPACITY_C)

    def run(self, system, seconds: float) -> Phase:
        p = Phase()
        sink = system.network.sink
        before = sink.snapshot()
        guard0 = self.guards.cascade_calls
        rng = np.random.default_rng(self.seed)
        with p.cal.long_call(self.probe_inside) as call:
            results = system.publish_corpus(self.corpus, rng, item_ids=self.order,
                                            batch=True, cascade=True)
        p.busy = p.wall = call.raw
        p.ref_busy = call.ref
        self._expect_cascade(guard0)
        p.ops = p.prefix_ops = len(results)
        p.latencies = {"publish_corpus": [p.ref_busy]}
        p.failed = sum(1 for r in results if not r.success)
        p.bill = Counter(sink.diff(before))
        p.prefix_bill = p.bill
        p.charged = sum(r.messages for r in results)
        p.nodes_walked = sum(r.displacement_hops for r in results)
        table = np.array(
            [(r.item_id, r.home, r.route_hops, r.displacement_hops, r.success)
             for r in results], dtype=np.int64,
        )
        p.digest = hashlib.sha256(table.tobytes()).hexdigest()
        return p

    def check(self, system, phase: Phase, report: checks.Report) -> str:
        origins = self._ring(system)[self.probe_ranks].tolist()
        got = system.retrieve_many(origins, self.probes, STORM_AMOUNT,
                                   max_walk=STORM_MAX_WALK)
        checks.oracle_replay(report, system, origins, self.probes, got,
                             amount=STORM_AMOUNT, max_walk=STORM_MAX_WALK)
        # Post-load probes: the discovery count of the built ring.
        phase.prefix_retrieves = len(got)
        phase.prefix_found = sum(r.found for r in got)
        return checks.placement_invariants(report, system, self.order)


class Online(Workload):
    """A ring pre-loaded with 90% of the rows at 4c takes scalar
    ``publish`` calls for the held-out rows and scalar ``retrieve`` calls
    (amount 10) at 1 publish : 3 retrieves.  The retrieves are the X-QPS
    Zipf(1.2) keyword storm from 64 gateways, so hot homes keep the
    walk-order cache warm and local scoring does most of the work."""

    name = "online"
    PUBLISH, RETRIEVE = 0, 1
    #: Operations between two calibration probes.
    PROBE_EVERY = 64

    def __init__(self, shape, trace, seed, guards) -> None:
        super().__init__(shape, trace, seed, guards)
        corpus = trace.corpus
        held = np.random.default_rng(SHAPE_SEED).choice(
            corpus.n_items, corpus.n_items // 10, replace=False
        )
        self.kept = np.setdiff1d(np.arange(corpus.n_items), held)
        self.preload = corpus.subsample(self.kept)
        rng = self.rng = np.random.default_rng(seed)
        self.held = rng.permutation(held)
        self.held_rows = [
            (int(i), v.indices, v.values)
            for i, v in ((i, corpus.vector(int(i))) for i in self.held)
        ]
        self.publish_ranks = rng.integers(0, shape.nodes, self.held.size)

    def setup(self):
        guard0 = self.guards.cascade_calls
        system = _build(self.trace, self.shape, CAPACITY_C)
        self.setup_results = system.publish_corpus(
            self.preload, np.random.default_rng(self.seed), item_ids=self.kept,
            batch=True, cascade=True,
        )
        self._expect_cascade(guard0)
        return system

    def _keyword_storm(self, ring: np.ndarray, n: int):
        """The X-QPS storm: Zipf(1.2) over the 8 most popular keywords that
        match at most ``cap`` items, entering through 64 gateways cycled
        round-robin (``repro.experiments.qps.qps_storm``).  Ranks come as a
        quota sample: each block of retrieves holds every rank its
        expected number of times, in seed order, so the handful of
        keywords with long walks weighs the same in every run."""
        from repro.experiments.qps import GATEWAY_NODES
        from repro.workload import keyword_query, nth_popular_keyword, zipf_pmf

        corpus = self.trace.corpus
        cap = max(8, min(self.shape.nodes, corpus.n_items // 20))
        freqs = corpus.keyword_frequencies()
        k = min(8, int(np.count_nonzero((freqs > 0) & (freqs <= cap))))
        block = 3 * self.shape.online_prefix // 4  # the prefix's retrieves
        quota = zipf_pmf(k, 1.2) * block
        counts = np.floor(quota).astype(np.int64)
        short = block - int(counts.sum())
        counts[np.argsort(counts - quota, kind="stable")[:short]] += 1
        ranks = np.repeat(np.arange(k), counts)
        vectors = [
            keyword_query(self.trace, [nth_popular_keyword(corpus, 1 + r, max_matches=cap)])
            for r in range(k)
        ]
        stream = np.concatenate(
            [self.rng.permutation(ranks) for _ in range(-(-n // block))]
        )[:n]
        gateway = ring[self.rng.integers(0, ring.size, GATEWAY_NODES)].tolist()
        origins = [gateway[i % GATEWAY_NODES] for i in range(n)]
        return origins, [vectors[r] for r in stream]

    def prepare(self, system) -> None:
        # The timed loop changes placements for as long as it runs; the
        # digest pins the state it starts from.
        self.setup_placements = checks.placement_invariants(
            checks.Report(), system, self.kept
        )
        ring = self._ring(system)
        r_origins, r_queries = self._keyword_storm(ring, 3 * len(self.held_rows))
        p_origins = ring[self.publish_ranks].tolist()
        ops = []
        for j, (item_id, kw, w) in enumerate(self.held_rows):
            ops.append((self.PUBLISH, p_origins[j], item_id, kw, w))
            for r in range(3 * j, 3 * j + 3):
                ops.append((self.RETRIEVE, r_origins[r], r_queries[r]))
        self.ops = ops

    def run(self, system, seconds: float) -> Phase:
        p = Phase()
        sink = system.network.sink
        before = sink.snapshot()
        prefix_n = self.shape.online_prefix
        publish, retrieve = system.publish, system.retrieve
        PUBLISH = self.PUBLISH
        lat_pub: list[float] = []
        lat_ret: list[float] = []
        pending: list[tuple[list, float]] = []  # latencies awaiting a probe

        def calibrate():
            f = p.cal.probe()
            for into, dt in pending:
                into.append(dt * f)
                p.ref_busy += dt * f
            pending.clear()

        h = hashlib.sha256()
        self.published = 0
        start = _clock()
        deadline = start + seconds
        for op in self.ops:
            t = _clock()
            try:
                if op[0] == PUBLISH:
                    res = publish(op[1], op[2], op[3], op[4])
                else:
                    res = retrieve(op[1], op[2], ONLINE_AMOUNT)
            except Exception as exc:  # one broken operation must not end the run
                _report_error(exc)
                p.failed += 1
                p.ops += 1
                continue
            dt = _clock() - t
            p.busy += dt
            if op[0] == PUBLISH:
                pending.append((lat_pub, dt))
                self.published += 1
                p.failed += not res.success
                p.charged += res.messages
                p.nodes_walked += res.displacement_hops
                key = (res.item_id, res.home, res.route_hops, res.displacement_hops,
                       res.success, tuple(res.chain))
            else:
                pending.append((lat_ret, dt))
                p.charged += checks.charged(res)
                p.nodes_walked += res.walk_hops
                p.discoveries += res.found
                if p.ops < prefix_n:
                    p.prefix_retrieves += 1
                    p.prefix_found += res.found
                key = checks.result_key(res)
            p.ops += 1
            if p.ops % self.PROBE_EVERY == 0:
                calibrate()
            if p.ops <= prefix_n:
                h.update(repr(key).encode())
                if p.ops == prefix_n:
                    p.prefix_bill = Counter(sink.diff(before))
            # Stop on a prefix-sized boundary: each such block holds the
            # retrieve quota exactly, so the latency tail does not depend
            # on where the deadline fell.
            if p.ops % prefix_n == 0 and _clock() >= deadline:
                break
        if pending or not p.cal.samples:
            calibrate()
        p.wall = _clock() - start - sum(p.cal.samples)
        p.prefix_ops = min(p.ops, prefix_n)
        p.latencies = {"publish": lat_pub, "retrieve": lat_ret}
        p.bill = Counter(sink.diff(before))
        if p.ops < prefix_n:  # the stream ran out first
            p.prefix_bill = p.bill
        p.digest = h.hexdigest()
        return p

    def check(self, system, phase: Phase, report: checks.Report) -> str:
        # The ring has moved on since the early retrieves ran, so the
        # sample is re-issued on the final state through the client's
        # path, the batch engine and the oracle, which must all agree.
        sample = [op for op in self.ops if op[0] == self.RETRIEVE]
        sample = sample[: self.shape.check_sample]
        origins = [op[1] for op in sample]
        queries = [op[2] for op in sample]
        client = [system.retrieve(o, q, ONLINE_AMOUNT) for o, q in zip(origins, queries)]
        batch = system.retrieve_many(origins, queries, ONLINE_AMOUNT)
        checks.oracle_replay(report, system, origins, queries, client,
                             amount=ONLINE_AMOUNT)
        for i, (a, b) in enumerate(zip(client, batch)):
            report.expect(checks.result_key(a) == checks.result_key(b),
                          f"retrieve #{i}: retrieve_many differs from retrieve")
        expected = np.concatenate([self.kept, self.held[: self.published]])
        checks.placement_invariants(report, system, expected)
        return self.setup_placements


WORKLOADS = {w.name: w for w in (Storm, Build, Online)}
