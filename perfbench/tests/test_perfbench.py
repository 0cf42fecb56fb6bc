"""The benchmark's own tests, on the seconds-long ``tiny`` shape.

Run from the repo root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from meteobench import layers, runner
from meteobench.inputs import TINY, load_trace
from meteobench.spans import Guards, Patches
from meteobench.workloads import WORKLOADS, Storm

ROOT = Path(__file__).resolve().parents[2]
SEED = 3


def _bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _cli(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace),
         "--shape", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def trace():
    return load_trace(ROOT, TINY)


def test_cached_trace_matches_generator(trace):
    from repro.experiments.common import default_trace

    fresh = default_trace(n_items=TINY.items, n_keywords=TINY.keywords, scale=1.0)
    a, b = trace.corpus.matrix, fresh.corpus.matrix
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr))
    assert np.array_equal(trace.keyword_weights, fresh.keyword_weights)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end(workload):
    out = _cli(workload, trace=0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {name for name, _ in runner.END_TO_END}
    for name, m in out["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced(workload):
    out = _cli(workload, trace=1)
    assert out["correct"] and out["failed"] == 0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
    assert metrics["engine.sequential_calls"] == 0
    assert metrics["trace.attributed_frac"] > 0.8
    if workload == "storm":
        assert metrics["frontier.useful_ratio"] > 0
    if workload == "build":
        assert metrics["placement.displace_msgs"] > 0
        assert metrics["placement.cascade_s"] > 0


def _storm(trace, *, traced: bool, delay_s: float = 0.0):
    """One tiny storm run, with ``delay_s`` of busy work added to every
    ``LocalVsmIndex.query_many`` call through the benchmark's wrapping."""
    from repro.vsm.index import LocalVsmIndex

    calls = [0]

    def slow(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            end = time.perf_counter() + delay_s
            while time.perf_counter() < end:
                pass
            return fn(*args, **kwargs)

        return wrapper

    guards = Guards().install()
    patches = Patches()
    if delay_s:
        patches.replace(LocalVsmIndex, "query_many", slow)
    try:
        wl = Storm(TINY, trace, SEED, guards)
        if traced:
            _, metrics, _, _ = runner.traced(wl, 0.5, guards)
        else:
            setups, phase, _, _ = runner.measure(wl, 0.5)
            metrics = runner.end_to_end(wl, setups, phase)
    finally:
        patches.restore()
        guards.restore()
    return metrics, calls[0] * delay_s


def test_scoring_slowdown_leaves_bound_and_is_attributed(trace):
    bound = _bounds()["ops_per_s"]
    base, _ = _storm(trace, traced=False)
    slowed, _ = _storm(trace, traced=False, delay_s=200e-6)
    assert slowed["ops_per_s"] < base["ops_per_s"] * (1 - bound)

    base_t, _ = _storm(trace, traced=True)
    slowed_t, injected = _storm(trace, traced=True, delay_s=200e-6)
    # The traced half runs on its own fresh system; only its share of the
    # injected calls lands in the traced metrics, so compare against the
    # scoring calls the traced half made.
    injected_traced = slowed_t["scoring.calls"] * 200e-6
    grew = slowed_t["scoring.s"] - base_t["scoring.s"]
    assert injected > injected_traced > 0
    assert grew > 0.8 * injected_traced
    others = [
        slowed_t[f"{layer}.s"] - base_t[f"{layer}.s"]
        for layer in ("naming", "routing", "frontier", "store")
    ]
    assert max(others) < 0.2 * injected_traced
