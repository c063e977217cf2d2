"""Layer spans recorded from outside the program, and their self times.

A :class:`Recorder` keeps one span per *layer transition*: calling into a
wrapped entry point of layer B while layer A is on top of the stack opens
a B span whose parent is the A span; a call into the same layer only
bumps a counter.  Generator entry points (the simulator's processes and
``yield from`` middleware calls) are timed per resume segment, so a flow
that is suspended holds no open span and spans always nest on the one
host call stack, however flows interleave in simulated time.

Spans stay in memory as compact integer columns until the run ends.  A
span's self time is its duration minus the durations of its direct
children, which are always spans of other layers.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Sequence

import numpy as np


class Recorder:
    """In-memory span columns plus per-entry-point call counters."""

    def __init__(self, layer_names: Sequence[str], clock: Callable[[], int] = perf_counter_ns):
        # Layer 0 is for phase root spans: time no layer span covers.
        self.layer_names = ["(unattributed)", *layer_names]
        self.layer_id = {name: i for i, name in enumerate(self.layer_names)}
        self.clock = clock
        self.counts: Dict[str, int] = {}
        self.layer = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: List[int] = []
        self._top = -1  # layer id on top of the stack, -1 when empty

    def open(self, layer: int) -> bool:
        """Open a span of ``layer`` unless that layer is already on top.
        Returns whether a span was opened (and so must be closed)."""
        if layer == self._top:
            return False
        stack = self._stack
        idx = len(self.layer)
        self.parent.append(stack[-1] if stack else -1)
        self.layer.append(layer)
        self.end.append(0)
        stack.append(idx)
        self._top = layer
        self.start.append(self.clock())
        return True

    def close(self) -> None:
        """Close the innermost open span."""
        t = self.clock()
        stack = self._stack
        idx = stack.pop()
        self.end[idx] = t
        self._top = self.layer[stack[-1]] if stack else -1

    def columns(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy columns."""
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }


def self_times(layer, start, end, parent, n_layers: int) -> np.ndarray:
    """Per-layer self time (same unit as ``start``/``end``).

    Each span contributes its duration minus the durations of its direct
    children.  Children of the same layer as their parent would be
    counted twice, so they are rejected: a recorder never produces them.
    """
    layer = np.asarray(layer, dtype=np.int64)
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    if (dur < 0).any():
        raise ValueError("span ends before it starts (left open?)")
    has_parent = parent >= 0
    if (layer[has_parent] == layer[parent[has_parent]]).any():
        raise ValueError("a span's child has the span's own layer")
    covered = np.zeros(len(dur), dtype=np.int64)
    np.add.at(covered, parent[has_parent], dur[has_parent])
    own = dur - covered
    if (own < 0).any():
        raise ValueError("children cover more than their parent span")
    return np.bincount(layer, weights=own, minlength=n_layers)


def traced_call(rec: Recorder, layer: int, fn: Callable, key: str, units=None) -> Callable:
    """Wrap a plain function: one span per layer transition, one count
    (or ``units(*args)`` counts) per call."""
    counts = rec.counts

    def wrapper(*args, **kwargs):
        counts[key] = counts.get(key, 0) + (1 if units is None else units(*args, **kwargs))
        if not rec.open(layer):
            return fn(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close()

    return wrapper


def _segments(rec: Recorder, layer: int, gen):
    """Drive ``gen``, timing each resume as one span of ``layer``."""
    value = None
    exc = None
    while True:
        opened = rec.open(layer)
        try:
            item = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            if opened:
                rec.close()
        value = exc = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # noqa: BLE001 - forwarded into gen
            exc = thrown


def traced_generator(rec: Recorder, layer: int, fn: Callable, key: str) -> Callable:
    """Wrap a generator function so each resume of its generator is a span."""
    counts = rec.counts

    def wrapper(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return _segments(rec, layer, fn(*args, **kwargs))

    return wrapper
