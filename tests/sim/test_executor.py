"""Unit tests for the CPU execution engine and scheduling policies."""

import pytest

from repro.sim import Channel, Event, Kernel, Timeout, WaitEvent
from repro.sim.executor import (
    Compute,
    ExecEngine,
    FairPolicy,
    PriorityPolicy,
    RoundRobinPolicy,
    YieldCpu,
)


class UnitCpu:
    """1 unit of any opclass costs 1 ns."""

    def cost_ns(self, opclass, units):
        return int(units)


def make_engine(n_cores=1, policy=None):
    k = Kernel()
    engine = ExecEngine(k, [UnitCpu() for _ in range(n_cores)], policy or RoundRobinPolicy())
    return k, engine


def drain(k, engine):
    k.run()


def test_single_thread_compute_advances_time_and_charges_cpu():
    k, eng = make_engine()

    def body():
        yield Compute("op", 1000)

    t = eng.spawn(body(), name="t")
    eng.shutdown()
    k.run()
    assert t.state == "DONE"
    assert t.cpu_time_ns == 1000
    assert k.now == 1000
    assert t.wall_time_ns() == 1000


def test_two_threads_one_core_serialize():
    k, eng = make_engine(n_cores=1)

    def body():
        yield Compute("op", 100)

    t1 = eng.spawn(body(), name="t1")
    t2 = eng.spawn(body(), name="t2")
    eng.shutdown()
    k.run()
    assert k.now == 200
    assert t1.cpu_time_ns == 100 and t2.cpu_time_ns == 100


def test_two_threads_two_cores_run_in_parallel():
    k, eng = make_engine(n_cores=2)

    def body():
        yield Compute("op", 100)

    eng.spawn(body())
    eng.spawn(body())
    eng.shutdown()
    k.run()
    assert k.now == 100


def test_round_robin_interleaves_on_quantum():
    k = Kernel()
    eng = ExecEngine(k, [UnitCpu()], RoundRobinPolicy(quantum_ns=10))
    finish = {}

    def body(tag):
        yield Compute("op", 20)
        finish[tag] = k.now

    eng.spawn(body("a"), name="a")
    eng.spawn(body("b"), name="b")
    eng.shutdown()
    k.run()
    # With 10ns quanta the two 20ns jobs interleave: both finish near 40ns,
    # rather than a finishing at 20 and b at 40.
    assert finish["a"] == 30
    assert finish["b"] == 40


def test_thread_sleep_releases_cpu():
    k, eng = make_engine(n_cores=1)
    log = []

    def sleeper():
        yield Timeout(1000)
        log.append(("sleeper", k.now))

    def worker():
        yield Compute("op", 100)
        log.append(("worker", k.now))

    eng.spawn(sleeper(), name="s")
    eng.spawn(worker(), name="w")
    eng.shutdown()
    k.run()
    assert log == [("worker", 100), ("sleeper", 1000)]


def test_thread_blocks_on_event_and_receives_value():
    k, eng = make_engine()
    ev = Event(k)
    got = []

    def waiter():
        value = yield WaitEvent(ev)
        got.append(value)

    eng.spawn(waiter())
    k.schedule(500, ev.trigger, "data")
    eng.shutdown()
    k.run()
    assert got == ["data"]


def test_channel_works_inside_threads():
    k, eng = make_engine(n_cores=2)
    ch = Channel(k)
    got = []

    def producer():
        yield Compute("op", 10)
        ch.put("m")

    def consumer():
        item = yield from ch.get()
        got.append((item, k.now))

    eng.spawn(consumer())
    eng.spawn(producer())
    eng.shutdown()
    k.run()
    assert got == [("m", 10)]


def test_priority_preemption():
    k = Kernel()
    eng = ExecEngine(k, [UnitCpu()], PriorityPolicy(quantum_ns=1_000_000))
    log = []

    def low():
        yield Compute("op", 1000)
        log.append(("low-done", k.now))

    def high():
        yield Compute("op", 100)
        log.append(("high-done", k.now))

    eng.spawn(low(), name="low", priority=1)

    def launch_high():
        eng.spawn(high(), name="high", priority=10)

    k.schedule(200, launch_high)
    eng.shutdown()
    k.run()
    # High preempts low at t=200, runs 100ns, low resumes and finishes at 1100.
    assert log == [("high-done", 300), ("low-done", 1100)]


def test_priority_equal_no_preempt():
    k = Kernel()
    eng = ExecEngine(k, [UnitCpu()], PriorityPolicy(quantum_ns=1_000_000))
    log = []

    def body(tag, n):
        yield Compute("op", n)
        log.append(tag)

    eng.spawn(body("first", 100), priority=5)
    eng.spawn(body("second", 100), priority=5)
    eng.shutdown()
    k.run()
    assert log == ["first", "second"]


def test_affinity_restricts_core():
    k, eng = make_engine(n_cores=2)

    def body():
        yield Compute("op", 100)

    t1 = eng.spawn(body(), affinity=[1])
    t2 = eng.spawn(body(), affinity=[1])
    eng.shutdown()
    k.run()
    # Both pinned to core 1: serialized.
    assert k.now == 200
    assert eng.cores[0].busy_ns == 0
    assert eng.cores[1].busy_ns == 200


def test_affinity_no_matching_core_rejected():
    from repro.sim.errors import SimulationError

    k, eng = make_engine(n_cores=1)
    with pytest.raises(SimulationError):
        eng.spawn((x for x in []), affinity=[5])


def test_yield_cpu_round_robins():
    k, eng = make_engine(n_cores=1)
    log = []

    def body(tag):
        log.append((tag, 1))
        yield YieldCpu()
        log.append((tag, 2))

    eng.spawn(body("a"))
    eng.spawn(body("b"))
    eng.shutdown()
    k.run()
    assert log == [("a", 1), ("b", 1), ("a", 2), ("b", 2)]


def test_thread_exception_propagates():
    k, eng = make_engine()

    def body():
        yield Compute("op", 10)
        raise RuntimeError("task crashed")

    eng.spawn(body())
    eng.shutdown()
    with pytest.raises(RuntimeError, match="task crashed"):
        k.run()


def test_heterogeneous_cores_charge_differently():
    class SlowCpu:
        def cost_ns(self, opclass, units):
            return int(units) * 10

    k = Kernel()
    eng = ExecEngine(k, [UnitCpu(), SlowCpu()], RoundRobinPolicy())

    def body():
        yield Compute("op", 100)

    fast = eng.spawn(body(), affinity=[0])
    slow = eng.spawn(body(), affinity=[1])
    eng.shutdown()
    k.run()
    assert fast.cpu_time_ns == 100
    assert slow.cpu_time_ns == 1000


def test_core_utilization():
    k, eng = make_engine(n_cores=2)

    def body():
        yield Compute("op", 100)

    eng.spawn(body(), affinity=[0])
    eng.shutdown()
    k.run()
    assert eng.cores[0].utilization(k.now) == 1.0
    assert eng.cores[1].utilization(k.now) == 0.0


def test_context_switch_hook():
    k, eng = make_engine(n_cores=1)
    switches = []
    eng.on_context_switch = lambda core, old, new: switches.append(
        (core.index, old.name if old else None, new.name if new else None)
    )

    def body():
        yield Compute("op", 10)

    eng.spawn(body(), name="t1")
    eng.shutdown()
    k.run()
    assert (0, None, "t1") in switches
    assert (0, "t1", None) in switches


# -- pinned schedules for paths the MJPEG runs never take ----------------------
#
# Each scenario returns every thread's (start, end, cpu time, context
# switches), the context-switch sequence with its instants, and a log the
# bodies and outside callbacks append to.  The expected values are pinned
# literals: any change in the order the engine resumes threads at one
# instant shows up here.


class Recorder:
    def __init__(self, n_cores=1, policy=None):
        self.k = Kernel()
        self.eng = ExecEngine(
            self.k, [UnitCpu() for _ in range(n_cores)], policy or RoundRobinPolicy()
        )
        self.log = []
        self.switches = []
        self.eng.on_context_switch = lambda core, old, new: self.switches.append(
            (self.k.now, core.index, old.name if old else None, new.name if new else None)
        )

    def note(self, tag):
        self.log.append((self.k.now, tag))

    def compute(self, tag, *units):
        """A body computing each of ``units`` in turn, noting every end."""
        for i, n in enumerate(units):
            yield Compute("op", n)
            self.note(f"{tag}{i}")

    def result(self):
        self.k.run()
        return {
            "threads": [
                (t.name, t.start_time_ns, t.end_time_ns, t.cpu_time_ns, t.context_switches)
                for t in self.eng.threads
            ],
            "switches": self.switches,
            "log": self.log,
            "now": self.k.now,
        }


def scenario_same_instant_hop():
    """Two cores end their slices at t=100 next to unrelated events due
    at the same instant, queued both before and after the slices were
    armed; a blocked thread woken at t=100 lands on a busy machine."""
    r = Recorder(n_cores=2, policy=RoundRobinPolicy(quantum_ns=1_000))
    ev = Event(r.k)

    def before():
        r.note("before")
        r.k.call_soon(r.note, "before-soon")

    def waiter():
        value = yield WaitEvent(ev)
        r.note(f"woke-{value}")
        yield from r.compute("w", 30)

    r.k.schedule(100, before)
    r.eng.spawn(waiter(), name="w")
    r.eng.spawn(r.compute("a", 100, 50), name="a")
    r.eng.spawn(r.compute("b", 100, 70), name="b")
    r.k.schedule(100, ev.trigger, "x")
    r.k.schedule(100, r.k.call_soon, r.note, "after-soon")
    r.eng.shutdown()
    return r.result()


def scenario_priority_preempt_at_slice_end():
    """High-priority spawns due exactly when the running slice ends:
    at t=100 queued before the slice timer (the slice is preempted), at
    t=240 queued after it (the slice has ended, the spawn only queues)."""
    r = Recorder(n_cores=1, policy=PriorityPolicy(quantum_ns=1_000_000))

    def spawn(name):
        r.eng.spawn(r.compute(f"{name}-", 40), name=name, priority=9)

    r.k.schedule(100, spawn, "h1")
    r.eng.spawn(r.compute("low", 100, 100, 60), name="low", priority=1)
    r.k.schedule(200, r.k.schedule, 40, spawn, "h2")
    r.eng.shutdown()
    return r.result()


def scenario_round_robin_quantum():
    """Quantum expiry under contention, a sleeper rejoining the queue, a
    zero-cost compute and a voluntary yield."""
    r = Recorder(n_cores=1, policy=RoundRobinPolicy(quantum_ns=10))

    def sleeper():
        yield Compute("op", 7)
        yield Timeout(12)
        r.note("slept")
        yield Compute("op", 0)
        yield from r.compute("s", 13)

    def yielder():
        yield Compute("op", 4)
        yield YieldCpu()
        yield from r.compute("y", 9)

    r.eng.spawn(r.compute("a", 25, 3), name="a")
    r.eng.spawn(sleeper(), name="s")
    r.eng.spawn(yielder(), name="y")
    r.eng.spawn(r.compute("c", 10), name="c")
    r.eng.shutdown()
    return r.result()


def scenario_fair_quantum():
    """Weighted fair sharing on two cores with a pinned thread and a late
    arrival that ends a running slice."""
    r = Recorder(n_cores=2, policy=FairPolicy(quantum_ns=10, weight_step=2.0))
    r.eng.spawn(r.compute("a", 35), name="a", priority=0)
    r.eng.spawn(r.compute("b", 35), name="b", priority=1)
    r.eng.spawn(r.compute("c", 20, 5), name="c", affinity=[1])
    r.k.schedule(15, lambda: r.eng.spawn(r.compute("d", 12), name="d", priority=2))
    r.eng.shutdown()
    return r.result()


def scenario_kick_idle_core():
    """Cores parked idle are woken by a spawn, by a timed wakeup and by an
    explicit kick with nothing to run."""
    r = Recorder(n_cores=2, policy=RoundRobinPolicy(quantum_ns=50))

    def napper():
        yield Timeout(300)
        r.note("nap-over")
        yield from r.compute("n", 20)

    r.eng.spawn(napper(), name="n")
    r.k.schedule(100, r.eng.cores[1].kick)
    r.k.schedule(100, r.eng.cores[0].kick)
    r.k.schedule(200, lambda: r.eng.spawn(r.compute("late", 40), name="late"))
    r.k.schedule(230, lambda: r.eng.spawn(r.compute("later", 40), name="later"))
    r.eng.shutdown()
    return r.result()


def scenario_shutdown_after_idle():
    """``shutdown`` arriving after every thread finished, with a failing
    thread funnelled to ``on_thread_error`` and a non-command yield."""
    r = Recorder(n_cores=2)
    errors = []
    r.eng.on_thread_error = lambda t, e: errors.append((r.k.now, t.name, type(e).__name__))

    def confused():
        try:
            yield 42
        except Exception as exc:  # the engine throws SimulationError back
            r.note(type(exc).__name__)
        yield Compute("op", 5)
        raise ValueError("boom")

    r.eng.spawn(r.compute("a", 30), name="a")
    r.eng.spawn(confused(), name="x")
    r.k.schedule(500, r.eng.shutdown)
    out = r.result()
    out["errors"] = errors
    out["pending"] = r.k.pending()
    return out


def scenario_wakes_at_one_instant():
    """One trigger wakes two waiters on an idle two-core machine: the
    first wake hops, since the second is due at the same instant, and the
    second finds a core whose dispatch is already queued.  A sleeper
    wakes at t=15, the instant a slice ends, and another alone at t=40."""
    r = Recorder(n_cores=2, policy=RoundRobinPolicy(quantum_ns=50))
    ev = Event(r.k)

    def waiter(tag):
        value = yield WaitEvent(ev)
        r.note(f"{tag}-woke-{value}")
        yield from r.compute(tag, 10)

    def sleeper(tag, ns):
        yield Timeout(ns)
        r.note(f"{tag}-up")
        yield from r.compute(tag, 10)

    r.eng.spawn(waiter("a"), name="a")
    r.eng.spawn(waiter("b"), name="b")
    r.eng.spawn(sleeper("s", 15), name="s")
    r.eng.spawn(sleeper("t", 40), name="t")
    r.k.schedule(5, ev.trigger, "x")
    r.eng.shutdown()
    return r.result()


PINNED_SCHEDULES = {
    "same_instant_hop": {
        "threads": [
            ("w", 0, 180, 30, 2),
            ("a", 0, 150, 150, 1),
            ("b", 0, 170, 170, 1),
        ],
        "switches": [
            (0, 0, None, "w"),
            (0, 0, "w", None),
            (0, 0, None, "a"),
            (0, 1, None, "b"),
            (150, 0, "a", None),
            (150, 0, None, "w"),
            (170, 1, "b", None),
            (180, 0, "w", None),
        ],
        "log": [
            (100, "before"),
            (100, "before-soon"),
            (100, "after-soon"),
            (100, "a0"),
            (100, "b0"),
            (150, "a1"),
            (150, "woke-x"),
            (170, "b1"),
            (180, "w0"),
        ],
        "now": 180,
    },
    "priority_preempt_at_slice_end": {
        "threads": [
            ("low", 0, 300, 260, 2),
            ("h1", 100, 140, 40, 1),
            ("h2", 240, 340, 40, 1),
        ],
        "switches": [
            (0, 0, None, "low"),
            (100, 0, "low", None),
            (100, 0, None, "h1"),
            (140, 0, "h1", None),
            (140, 0, None, "low"),
            (300, 0, "low", None),
            (300, 0, None, "h2"),
            (340, 0, "h2", None),
        ],
        "log": [
            (140, "h1-0"),
            (140, "low0"),
            (240, "low1"),
            (300, "low2"),
            (340, "h2-0"),
        ],
        "now": 340,
    },
    "round_robin_quantum": {
        "threads": [
            ("a", 0, 68, 28, 3),
            ("s", 0, 71, 20, 3),
            ("y", 0, 48, 13, 2),
            ("c", 0, 60, 10, 2),
        ],
        "switches": [
            (0, 0, None, "a"),
            (10, 0, "a", None),
            (10, 0, None, "s"),
            (17, 0, "s", None),
            (17, 0, None, "y"),
            (21, 0, "y", None),
            (21, 0, None, "c"),
            (29, 0, "c", None),
            (29, 0, None, "a"),
            (39, 0, "a", None),
            (39, 0, None, "y"),
            (48, 0, "y", None),
            (48, 0, None, "s"),
            (58, 0, "s", None),
            (58, 0, None, "c"),
            (60, 0, "c", None),
            (60, 0, None, "a"),
            (68, 0, "a", None),
            (68, 0, None, "s"),
            (71, 0, "s", None),
        ],
        "log": [
            (48, "y0"),
            (48, "slept"),
            (60, "c0"),
            (65, "a0"),
            (68, "a1"),
            (71, "s0"),
        ],
        "now": 71,
    },
    "fair_quantum": {
        "threads": [
            ("a", 0, 47, 35, 2),
            ("b", 0, 55, 35, 4),
            ("c", 0, 60, 25, 3),
            ("d", 15, 27, 12, 2),
        ],
        "switches": [
            (0, 0, None, "a"),
            (0, 1, None, "b"),
            (10, 1, "b", None),
            (10, 1, None, "c"),
            (15, 0, "a", None),
            (15, 0, None, "d"),
            (20, 1, "c", None),
            (20, 1, None, "b"),
            (25, 0, "d", None),
            (25, 0, None, "d"),
            (27, 0, "d", None),
            (27, 0, None, "a"),
            (30, 1, "b", None),
            (30, 1, None, "c"),
            (40, 1, "c", None),
            (40, 1, None, "b"),
            (47, 0, "a", None),
            (50, 1, "b", None),
            (50, 1, None, "b"),
            (55, 1, "b", None),
            (55, 1, None, "c"),
            (60, 1, "c", None),
        ],
        "log": [
            (27, "d0"),
            (40, "c0"),
            (47, "a0"),
            (55, "b0"),
            (60, "c1"),
        ],
        "now": 60,
    },
    "kick_idle_core": {
        "threads": [
            ("n", 0, 320, 20, 2),
            ("late", 200, 240, 40, 1),
            ("later", 230, 270, 40, 1),
        ],
        "switches": [
            (0, 0, None, "n"),
            (0, 0, "n", None),
            (200, 0, None, "late"),
            (230, 1, None, "later"),
            (240, 0, "late", None),
            (270, 1, "later", None),
            (300, 0, None, "n"),
            (320, 0, "n", None),
        ],
        "log": [
            (240, "late0"),
            (270, "later0"),
            (300, "nap-over"),
            (320, "n0"),
        ],
        "now": 320,
    },
    "shutdown_after_idle": {
        "threads": [
            ("a", 0, 30, 30, 1),
            ("x", 0, 5, 5, 1),
        ],
        "switches": [
            (0, 0, None, "a"),
            (0, 1, None, "x"),
            (5, 1, "x", None),
            (30, 0, "a", None),
        ],
        "log": [
            (0, "SimulationError"),
            (30, "a0"),
        ],
        "now": 500,
        "errors": [(5, "x", "ValueError")],
        "pending": 0,
    },
    "wakes_at_one_instant": {
        "threads": [
            ("a", 0, 15, 10, 2),
            ("b", 0, 25, 10, 2),
            ("s", 0, 25, 10, 2),
            ("t", 0, 50, 10, 2),
        ],
        "switches": [
            (0, 0, None, "a"),
            (0, 0, "a", None),
            (0, 0, None, "b"),
            (0, 0, "b", None),
            (0, 0, None, "s"),
            (0, 0, "s", None),
            (0, 0, None, "t"),
            (0, 0, "t", None),
            (5, 0, None, "a"),
            (15, 1, None, "b"),
            (15, 0, "a", None),
            (15, 0, None, "s"),
            (25, 1, "b", None),
            (25, 0, "s", None),
            (40, 0, None, "t"),
            (50, 0, "t", None),
        ],
        "log": [
            (5, "a-woke-x"),
            (15, "b-woke-x"),
            (15, "a0"),
            (15, "s-up"),
            (25, "b0"),
            (25, "s0"),
            (40, "t-up"),
            (50, "t0"),
        ],
        "now": 50,
    },
}


@pytest.mark.parametrize("scenario", sorted(PINNED_SCHEDULES))
def test_pinned_schedule(scenario):
    assert globals()[f"scenario_{scenario}"]() == PINNED_SCHEDULES[scenario]
