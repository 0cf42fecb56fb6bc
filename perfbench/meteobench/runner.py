"""One benchmark run: set up, time the closed loop, check, report.

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`);
``--trace 1`` reports the per-layer metrics of a separate traced phase
(:data:`repro`-side functions wrapped by :mod:`.layers`).  The last line
of standard output is one JSON object; the lines above it are the same
figures for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import checks, layers
from .calib import Calibration
from .inputs import SETUP_REPS, SHAPES, load_trace
from .spans import Guards, Tracer
from .workloads import WORKLOADS, GuardError, Phase

_clock = time.perf_counter

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p75_ms", "ms"),
    ("msgs_per_op", "msgs/op"),
    ("found_per_query", "items/query"),
    ("peak_rss_mb", "MB"),
)


def _args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", choices=sorted(SHAPES), default="paper",
                    help="problem size; 'tiny' is for the benchmark's own tests")
    return ap.parse_args(argv)


def _timed_setup(wl):
    """Set up once; returns (system, reference seconds, wall seconds)."""
    gc.collect()
    with Calibration().long_call() as call:
        system = wl.setup()
    return system, call.ref, call.raw


def _merge(phases: list[Phase], report: checks.Report) -> Phase:
    """Fold the repeated publishes of ``build`` into one phase."""
    out = phases[0]
    for p in phases[1:]:
        report.expect(p.digest == out.digest,
                      "a repeated publish placed items differently")
        out.ops += p.ops
        out.busy += p.busy
        out.ref_busy += p.ref_busy
        out.wall += p.wall
        out.cal.samples += p.cal.samples
        out.failed += p.failed
        for k, v in p.latencies.items():
            out.latencies[k] = out.latencies[k] + v
    return out


def measure(wl, seconds: float):
    """Untraced run: set-up samples (reference seconds), the timed phase
    and the final system."""
    setups = []
    system = None
    if wl.fresh_system_per_run:
        # One timed call per fresh system: repeat for the run's seconds,
        # and at least as often as the set-up is sampled.
        phases: list[Phase] = []
        report = checks.Report()
        while len(phases) < SETUP_REPS or sum(p.wall for p in phases) < seconds:
            system = None
            system, ref_s, _ = _timed_setup(wl)
            setups.append(ref_s)
            gc.collect()
            phases.append(wl.run(system, seconds))
        return setups, _merge(phases, report), system, report
    for _ in range(SETUP_REPS):
        system = None
        system, ref_s, _ = _timed_setup(wl)
        setups.append(ref_s)
    wl.prepare(system)
    gc.collect()
    return setups, wl.run(system, seconds), system, checks.Report()


def traced(wl, seconds: float, guards: Guards):
    """Untraced reference half, then the traced half on a fresh system.

    The tracing overhead compares the traced half with what the
    reference half predicts for the same set-up and operation count,
    both in reference seconds.
    """
    system, ref_setup, _ = _timed_setup(wl)
    wl.prepare(system)
    gc.collect()
    ref = wl.run(system, seconds / 2)
    system = None
    gc.collect()
    tracer = Tracer()
    layers.install(tracer)
    wl.probe_inside = False
    try:
        tracer.start()
        with Calibration().long_call(inside=False) as call:
            system = wl.setup()
        tracer.stop()
        setup_s = call.raw
        gc.collect()
        tracer.start()
        t = _clock()
        phase = wl.run(system, seconds / 2)
        run_wall = _clock() - t - sum(phase.cal.samples)
        tracer.stop()
    finally:
        tracer.restore()
    wall = setup_s + run_wall
    traced_ref = call.ref + phase.ref_busy
    predicted = ref_setup + ref.ref_busy / ref.ops * phase.ops
    work = layers.Work(
        nodes_walked=phase.nodes_walked
        + sum(r.displacement_hops for r in wl.setup_results),
        discoveries=phase.discoveries,
        bill=system.network.sink.snapshot(),
    )
    metrics = layers.per_layer(tracer, guards, work, wall, traced_ref / predicted - 1.0)
    return tracer, metrics, phase, system


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def end_to_end(wl, setups, phase: Phase) -> dict[str, float]:
    """The :data:`END_TO_END` metrics; times in reference seconds."""
    lat = [x for v in phase.latencies.values() for x in v]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": wl.ops_per_s(phase),
        "p50_ms": _percentile(lat, 50) * 1e3,
        "p75_ms": _percentile(lat, 75) * 1e3,
        "msgs_per_op": sum(phase.prefix_bill.values()) / phase.prefix_ops,
        "found_per_query": phase.prefix_found / phase.prefix_retrieves,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(argv, root: Path) -> int:
    args = _args(argv)
    shape = SHAPES[args.shape]
    guards = Guards().install()
    try:
        trace = load_trace(root, shape)
        wl = WORKLOADS[args.workload](shape, trace, args.seed, guards)
        if args.trace:
            tracer, metrics, phase, system = traced(wl, args.seconds, guards)
            units = dict(layers.PER_LAYER)
            report = checks.Report()
        else:
            setups, phase, system, report = measure(wl, args.seconds)
        report.expect(
            phase.charged == sum(phase.bill.values()),
            f"sink bill {dict(phase.bill)} != {phase.charged} messages "
            "accounted by the results",
        )
        placements = wl.check(system, phase, report)
        if not args.trace:
            metrics = end_to_end(wl, setups, phase)
            units = dict(END_TO_END)
    except GuardError as exc:
        print(f"perfbench: engine guard failed: {exc}", file=sys.stderr)
        return 3
    finally:
        guards.restore()

    attempted = phase.ops + report.attempted
    failed = phase.failed + report.failed
    for problem in report.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    w = args.workload
    print(f"{w}: seed {args.seed}, shape {shape.name} "
          f"(N={shape.nodes}, items={shape.items}), {phase.ops} ops, "
          f"busy {phase.busy:.2f} s measured = {phase.ref_busy:.2f} reference s, "
          f"loop wall {phase.wall:.2f} s")
    for kind, v in phase.latencies.items():
        if v:
            print(f"{w}: {kind} latency p50 {_percentile(v, 50) * 1e3:.3f} ms, "
                  f"p75 {_percentile(v, 75) * 1e3:.3f} ms, "
                  f"p90 {_percentile(v, 90) * 1e3:.3f} ms (reference) "
                  f"over {len(v)} samples")
    print(f"{w}: error_rate {failed / attempted:.6f} ({failed} of {attempted})")
    print(f"{w}: digest placements={placements[:16]} "
          f"prefix={phase.digest[:16]} prefix_bill={sorted(phase.prefix_bill.items())}")
    if args.trace:
        dump = tracer.dump(root / ".bench_build" / "perfbench" /
                           f"spans-{w}-seed{args.seed}.npz")
        print(f"{w}: {len(tracer.spans)} spans written to {dump.relative_to(root)}")
    for name, unit in units.items():
        print(f"{w}: {name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0
