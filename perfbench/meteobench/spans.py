"""Span tracing around the public entry points of each layer.

The benchmark never edits the program.  It wraps functions where their
callers look them up — a class attribute, or a global of the importing
module — records one span per call (name, start, end, parent span,
request id) and restores every original on exit.

A span's *self time* is its duration minus the time its child spans
cover; summed per layer, self times partition the traced wall time
without double counting.  Garbage-collector pauses arrive through
``gc.callbacks`` as spans of their own, so a pause is charged to the
``gc`` layer instead of to whatever code happened to trigger it.

Spans stay in memory while the run lasts and are written out once, at
the end, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import gc
import itertools
import operator
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

_clock = time.perf_counter


def _count_of(counter: "itertools.count") -> int:
    """Current value of an ``itertools.count`` (its repr is ``count(n)``)."""
    return int(repr(counter)[6:-1])


class Patches:
    """Attribute replacements undone in reverse order by :meth:`restore`.

    ``owner`` is a class or a module.  Class- and static-method
    descriptors are unwrapped for the factory and re-wrapped around its
    result, so the patched attribute binds exactly like the original.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        new = make(fn)
        new.__wrapped__ = fn
        setattr(owner, attr, kind(new) if kind is not None else new)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


class Guards:
    """Engine-path counters, installed in every run (traced or not).

    The wrapped functions sit off the fast paths — the sequential
    fallback of ``retrieve_many`` and the cascade placement engine — so
    counting them costs one Python call per use, never per message.
    """

    def __init__(self) -> None:
        self.sequential_calls = 0
        self.cascade_calls = 0
        self.cascade_placed = 0
        self._patches = Patches()

    def install(self) -> "Guards":
        from repro.core import cascade, search_batch

        def count_sequential(fn):
            def wrapper(*args, **kwargs):
                self.sequential_calls += 1
                return fn(*args, **kwargs)

            return wrapper

        def count_cascade(fn):
            def wrapper(*args, **kwargs):
                self.cascade_calls += 1
                placed = fn(*args, **kwargs)
                self.cascade_placed += bool(placed)
                return placed

            return wrapper

        # retrieve_many's loop fallback calls these module globals.
        self._patches.replace(search_batch, "retrieve", count_sequential)
        self._patches.replace(search_batch, "retrieve_with_pointers", count_sequential)
        # batch_publish imports the engine from its module at call time.
        self._patches.replace(cascade, "cascade_placement", count_cascade)
        return self

    def restore(self) -> None:
        self._patches.restore()


class Tracer:
    """In-memory span recorder with per-name self-time accounting."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # frames: [span id, start, child time, name]
        self._ids = itertools.count()
        self._request = 0
        #: Finished spans: (id, name, start, end, parent id or -1, request id).
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: Work counted at the span boundaries (rows stored, hops, hits ...).
        self.counts: Counter[str] = Counter()
        self._ring_counters: list[itertools.count] = []
        self._gc_frame: Optional[list] = None
        self._materialising = False
        self._patches = Patches()

    # -- span stack ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        stack = self._stack
        if not stack and name != "gc:collect":
            self._request += 1
        frame = [next(self._ids), 0.0, 0.0, name]
        stack.append(frame)
        frame[1] = _clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        name = frame[3]
        self.self_s[name] += duration - frame[2]
        self.calls[name] += 1
        self.spans.append(
            (frame[0], name, frame[1], end,
             parent[0] if parent is not None else -1, self._request)
        )

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_frame = self._enter("gc:collect")
        elif self._gc_frame is not None:
            frame, self._gc_frame = self._gc_frame, None
            self._exit(frame)

    # -- wrapping -----------------------------------------------------------

    def span(
        self,
        owner,
        attr: str,
        name: str,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``before(args, kwargs)`` and ``after(result, args, kwargs)`` run
        outside the span, to count work without charging it to the layer.
        """
        enter, exit_ = self._enter, self._exit

        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                frame = enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    exit_(frame)
                if after is not None:
                    after(out, args, kwargs)
                return out

            return wrapper

        self._patches.replace(owner, attr, make)

    def stepped(self, owner, attr: str, name: str) -> None:
        """Trace a generator function step by step: creating it is one
        call of ``name``, and every ``next`` is a ``name.next`` span, so
        lazily built frontiers are charged when they are consumed."""
        enter, exit_ = self._enter, self._exit
        step = name + ".next"

        def steps(gen: Iterator) -> Iterator:
            while True:
                frame = enter(step)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    exit_(frame)
                yield item

        def make(fn):
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                return steps(fn(*args, **kwargs))

            return wrapper

        self._patches.replace(owner, attr, make)

    def counted_ring_walk(self, owner, attr: str, materialiser: str) -> None:
        """Count the nodes a ring-order generator yields, in C.

        Inside a ``materialiser`` span the caller drains the whole order
        into a list, so the generator is returned untouched and
        :meth:`materialised` counts the list.  Elsewhere the generator is
        zipped with an ``itertools.count`` whose final value is read when
        metrics are computed.
        """
        take_first = operator.itemgetter(0)

        def make(fn):
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                stack = self._stack
                if stack and stack[-1][3] == materialiser:
                    self._materialising = True
                    return gen
                counter = itertools.count()
                self._ring_counters.append(counter)
                return map(take_first, zip(gen, counter))

            return wrapper

        self._patches.replace(owner, attr, make)

    def materialised(self, order, args, kwargs) -> None:
        """``after`` hook of the materialiser: count a freshly built order."""
        if self._materialising:
            self._materialising = False
            self.counts["frontier.ring_steps"] += len(order)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def restore(self) -> None:
        self.stop()
        self._patches.restore()

    # -- results ------------------------------------------------------------

    def ring_steps(self) -> int:
        return self.counts["frontier.ring_steps"] + sum(
            _count_of(c) for c in self._ring_counters
        )

    def layer_self(self, layer: str) -> float:
        prefix = layer + ":"
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def layer_calls(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)

    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def dump(self, path: Path) -> Path:
        """Write every recorded span to ``path`` (``.npz``) and return it."""
        names = sorted({s[1] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        spans = sorted(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(names),
            span_id=np.fromiter((s[0] for s in spans), np.int64, len(spans)),
            name=np.fromiter((code[s[1]] for s in spans), np.int32, len(spans)),
            start=np.fromiter((s[2] for s in spans), np.float64, len(spans)),
            end=np.fromiter((s[3] for s in spans), np.float64, len(spans)),
            parent=np.fromiter((s[4] for s in spans), np.int64, len(spans)),
            request=np.fromiter((s[5] for s in spans), np.int64, len(spans)),
        )
        return path
