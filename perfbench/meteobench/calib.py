"""Machine-speed calibration for the reported times.

On a shared machine the speed of one core drifts by tens of percent
within a minute, far more than the changes the benchmark exists to
catch.  Every run therefore times a fixed probe between operations
(never inside one) and reports each operation's duration scaled by the
speed the nearest probe saw::

    reference seconds = measured seconds × REFERENCE_S / probe seconds

A reference second is a second of a machine on which the probe takes
:data:`REFERENCE_S` — about the typical speed of the 2-core box the
benchmark was tuned on.  The probe mixes the three kinds of work the
program does, in about equal shares: a loop over a large list of big
Python ints (cache pressure), a generator-and-lambda walk of a sorted
list (call overhead), and small NumPy calls feeding a dict.  No single
kind tracked the drift as well as the mix did.  The probe calls no
program code and runs with the collector paused, so neither a change to
the program nor the size of its heap moves the reference.
"""

from __future__ import annotations

import functools
import gc
import random
import statistics
import time

import numpy as np

_clock = time.perf_counter

#: Probe duration that defines a reference second.
REFERENCE_S = 0.0095


@functools.cache
def _probe_data() -> tuple[list[int], list[int], np.ndarray]:
    rnd = random.Random(1)
    ints = [rnd.getrandbits(40) for _ in range(1 << 15)]
    return ints, sorted(ints[:10_000]), np.random.default_rng(1).random(4_096)


def _walk_ints(ints: list[int]) -> int:
    key = 1 << 39
    total = 0
    for k in ints:
        total += abs(k - key)
    return total


def _walk_sorted(keys: list[int]) -> list[int]:
    mid = len(keys) // 2
    key = keys[mid]
    dist = lambda k: abs(k - key)  # noqa: E731 - the call is the point

    def outward():
        lo, hi = mid - 1, mid + 1
        while lo >= 0 or hi < len(keys):
            if lo < 0 or (hi < len(keys) and dist(keys[hi]) <= dist(keys[lo])):
                yield keys[hi]
                hi += 1
            else:
                yield keys[lo]
                lo -= 1

    return list(outward())


def _small_arrays(values: np.ndarray) -> dict[int, float]:
    out = {}
    for i in range(900):
        x = values[i:i + 64]
        out[i] = float(np.dot(x, x)) + float(np.argsort(x)[0])
    return out


def _probe_once() -> float:
    ints, keys, values = _probe_data()
    # A collection that happens to fire inside the probe would charge the
    # program's heap size to the machine's speed.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = _clock()
        _walk_ints(ints)
        _walk_sorted(keys)
        _small_arrays(values)
        return _clock() - t
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Probe durations collected through one phase of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self, times: int = 1) -> float:
        """Run the probe ``times`` times; return the factor from measured
        to reference seconds that the median of these runs gives."""
        runs = [_probe_once() for _ in range(times)]
        self.samples += runs
        return REFERENCE_S / statistics.median(runs)

    def factor(self) -> float:
        """The factor every probe of the phase gives together."""
        return REFERENCE_S / statistics.median(self.samples)

    def long_call(self, inside: bool = True) -> "LongCall":
        """Context manager timing one long call; see :class:`LongCall`."""
        return LongCall(self, inside)


class LongCall:
    """Reference time of one call too long for probes around it alone.

    The call allocates steadily, so the collector's ``stop`` callback
    fires throughout it; at most every :attr:`EVERY` seconds that
    callback runs a probe.  Each stretch of the call is scaled by the
    probe that ends it, and the probes' own time is left out of both
    totals.  With ``inside=False`` (traced runs, where a probe inside a
    span would be charged to a layer) only the closing probes run.
    """

    EVERY = 0.2

    def __init__(self, cal: Calibration, inside: bool) -> None:
        self.cal = cal
        self.inside = inside
        self.raw = 0.0
        self.ref = 0.0

    def _close_stretch(self, probes: int = 1) -> None:
        end = _clock()
        f = self.cal.probe(probes)
        self.raw += end - self._mark
        self.ref += (end - self._mark) * f
        self._mark = _clock()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "stop" and _clock() - self._mark >= self.EVERY:
            self._close_stretch()

    def __enter__(self) -> "LongCall":
        self._mark = _clock()
        if self.inside:
            gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        if self.inside:
            gc.callbacks.remove(self._on_gc)
        self._close_stretch(1 if self.inside else 5)
