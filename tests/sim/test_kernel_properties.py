"""Property tests: the tuple-heap kernel vs the handle-heap reference model.

Each seed generates one randomized command script -- schedule bursts at
tie-heavy / medium / far-future delays, ``schedule_at``, ``call_soon``,
deadline timers, mass cancels, partial ``run(until=...)`` and
``run(max_events=...)`` phases, plus reentrant callbacks that schedule
more work from inside the dispatch loop.  The script is replayed
verbatim on both kernels and the observable traces must be identical:
every dispatched ``(time, tag)`` in order, every ``peek``/``pending``
observation, the final clock and the executed-event count.

Tags are unique per scheduled event, so trace equality pins the exact
``(time, seq)`` dispatch order, including FIFO tie-breaks between the
immediate queue and the heap, across tombstone compaction and deadline
timers.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.kernel import Kernel

from reference_kernel import ReferenceKernel

SEEDS = [1, 7, 42]

# Delay palettes: dense ties, medium gaps and far-future outliers.
_TIE_DELAYS = (0, 1, 2, 3, 5, 8)
_MED_MAX = 50_000
_FAR_MAX = 2_000_000_000


def _gen_script(seed: int, n_ops: int = 900) -> list[tuple]:
    """Generate a command script; pure data so both kernels replay it."""
    rng = random.Random(seed)
    script: list[tuple] = []
    tag = 0
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.30:
            delay = rng.choice(_TIE_DELAYS) if rng.random() < 0.5 else rng.randrange(_MED_MAX)
            script.append(("schedule", delay, tag))
            tag += 1
        elif r < 0.38:
            script.append(("schedule_far", rng.randrange(_MED_MAX, _FAR_MAX), tag))
            tag += 1
        elif r < 0.46:
            script.append(("schedule_at", rng.randrange(_MED_MAX), tag))
            tag += 1
        elif r < 0.54:
            script.append(("call_soon", tag))
            tag += 1
        elif r < 0.66:
            # Deadline-timer churn: most of these get cancelled below.
            script.append(("timer", rng.randrange(1, _MED_MAX), tag))
            tag += 1
        elif r < 0.74:
            script.append(("cancel", rng.randrange(1 << 30)))
        elif r < 0.78:
            script.append(("mass_cancel", rng.randrange(1 << 30)))
        elif r < 0.84:
            script.append(("burst", rng.randrange(40, 160), rng.randrange(_MED_MAX), tag))
            tag += 1000  # reserve a tag block for the burst
        elif r < 0.90:
            script.append(("run_until", rng.randrange(1, _MED_MAX)))
        elif r < 0.96:
            script.append(("run_some", rng.randrange(1, 200)))
        else:
            script.append(("observe",))
    script.append(("run_all",))
    return script


class _Driver:
    """Replays a script against one kernel, recording every observable."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.trace: list[tuple] = []
        self.handles: list = []  # live handles, same order on both kernels
        self.spawn_budget = 300

    def _cb(self, tag: int):
        kernel = self.kernel
        trace = self.trace

        def fire():
            trace.append(("fire", kernel.now, tag))
            # Reentrant scheduling: callbacks add more work, derived
            # deterministically from the tag so both kernels agree.
            if tag % 7 == 0 and self.spawn_budget > 0:
                self.spawn_budget -= 1
                kernel.schedule((tag * 31) % 1009, self._cb(tag + 1_000_000))
                if tag % 14 == 0:
                    kernel.call_soon(self._cb(tag + 2_000_000))

        return fire

    def replay(self, script: list[tuple]) -> None:
        kernel = self.kernel
        handles = self.handles
        for cmd in script:
            op = cmd[0]
            if op == "schedule" or op == "schedule_far":
                handles.append(kernel.schedule(cmd[1], self._cb(cmd[2])))
            elif op == "schedule_at":
                handles.append(kernel.schedule_at(kernel.now + cmd[1], self._cb(cmd[2])))
            elif op == "call_soon":
                handles.append(kernel.call_soon(self._cb(cmd[1])))
            elif op == "timer":
                handles.append(kernel.schedule_timer(cmd[1], self._cb(cmd[2])))
            elif op == "cancel":
                if handles:
                    handles.pop(cmd[1] % len(handles)).cancel()
            elif op == "mass_cancel":
                if len(handles) > 4:
                    start = cmd[1] % len(handles)
                    doomed = handles[start::2]
                    del handles[start::2]
                    for h in doomed:
                        h.cancel()
            elif op == "burst":
                n, base_delay, base_tag = cmd[1], cmd[2], cmd[3]
                for i in range(n):
                    handles.append(
                        kernel.schedule((base_delay + i * 17) % _MED_MAX, self._cb(base_tag + i))
                    )
            elif op == "run_until":
                t = kernel.run(until=kernel.now + cmd[1])
                self.trace.append(("ran_until", t))
            elif op == "run_some":
                t = kernel.run(max_events=cmd[1])
                self.trace.append(("ran_some", t, kernel.events_executed))
            elif op == "observe":
                self.trace.append(("observe", kernel.peek(), kernel.pending(), kernel.now))
            elif op == "run_all":
                t = kernel.run()
                self.trace.append(("ran_all", t))


@pytest.mark.parametrize("seed", SEEDS)
def test_calendar_matches_heap_reference(seed):
    script = _gen_script(seed)
    cal = _Driver(Kernel())
    ref = _Driver(ReferenceKernel())
    cal.replay(script)
    ref.replay(script)

    assert len(cal.trace) == len(ref.trace)
    for i, (got, want) in enumerate(zip(cal.trace, ref.trace)):
        assert got == want, f"seed {seed}: trace diverges at index {i}: {got} != {want}"
    assert cal.kernel.now == ref.kernel.now
    assert cal.kernel.events_executed == ref.kernel.events_executed
    assert cal.kernel.pending() == ref.kernel.pending() == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_dispatch_times_monotone(seed):
    """Sanity on the kernel itself: fire times never go backwards."""
    script = _gen_script(seed, n_ops=400)
    cal = _Driver(Kernel())
    cal.replay(script)
    fires = [e for e in cal.trace if e[0] == "fire"]
    assert fires, "script dispatched nothing"
    times = [e[1] for e in fires]
    assert times == sorted(times)


@pytest.mark.parametrize("seed", SEEDS)
def test_tie_break_is_fifo(seed):
    """All-ties workload: dispatch order must equal scheduling order
    across schedule / call_soon / timer inserts at one instant."""
    rng = random.Random(seed)
    kernel = Kernel()
    order: list[int] = []
    expected: list[int] = []
    for tag in range(500):
        expected.append(tag)
        kind = rng.random()
        if kind < 0.4:
            kernel.schedule(0, order.append, tag)
        elif kind < 0.7:
            kernel.call_soon(order.append, tag)
        else:
            kernel.schedule_timer(0, order.append, tag)
    kernel.run()
    assert order == expected
