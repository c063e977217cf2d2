"""The executor's clock jumps and inline wake dispatches keep the schedule.

``ExecEngine`` skips the kernel queue in two places: a compute slice
whose end no queued entry precedes is jumped over (``Kernel.advance_to``)
instead of arming a timer, and a wakeup with nothing else due at its
instant dispatches the idle core inline instead of through ``kick``'s
``call_soon`` hop.  Both must give exactly the schedule of an engine
that sends every slice end and every wake through the queue.

:class:`QueueOnlyKernel` is that engine's kernel: it refuses every jump
and reports something due at every instant.  The tests run the pinned
schedules of ``test_executor`` and random thread mixes on both kernels
and compare per-thread ``(start, end, cpu_time_ns, context_switches)``,
the ``on_context_switch`` sequence and the bodies' logs.  They also
check the jump's limits: a ``run(until=...)`` horizon, ``step()`` and
``run(max_events=...)``, and the depth of a long chain of jumps.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_executor as pinned
from repro.sim import Event, Kernel, Timeout, WaitEvent
from repro.sim.executor import (
    Compute,
    ExecEngine,
    FairPolicy,
    PriorityPolicy,
    RoundRobinPolicy,
    YieldCpu,
)


class QueueOnlyKernel(Kernel):
    """A kernel that makes every slice end and wake take the queue."""

    def advance_to(self, time_ns):
        return False

    def nothing_due_now(self):
        return False


class JumpLog(Kernel):
    """The real kernel, recording what every ``advance_to`` answered."""

    def __init__(self):
        super().__init__()
        self.answers = []

    def advance_to(self, time_ns):
        answer = super().advance_to(time_ns)
        self.answers.append(answer)
        return answer


class UnitCpu:
    def cost_ns(self, opclass, units):
        return int(units)


@pytest.mark.parametrize("scenario", sorted(pinned.PINNED_SCHEDULES))
def test_pinned_schedule_matches_the_queue_only_engine(scenario, monkeypatch):
    run = getattr(pinned, f"scenario_{scenario}")
    jumped = run()
    monkeypatch.setattr(pinned, "Kernel", QueueOnlyKernel)
    assert run() == jumped == pinned.PINNED_SCHEDULES[scenario]


# -- random thread mixes -------------------------------------------------------

POLICIES = {
    "rr": RoundRobinPolicy,
    "fair": lambda q: FairPolicy(quantum_ns=q, weight_step=2.0),
    "prio": PriorityPolicy,
}

N_EVENTS = 3

op = st.one_of(
    st.tuples(st.just("compute"), st.integers(0, 60)),
    st.tuples(st.just("sleep"), st.integers(0, 40)),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("trigger"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("yield"), st.just(0)),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
)

thread_spec = st.tuples(
    st.integers(0, 3),  # priority
    st.one_of(st.none(), st.sets(st.integers(0, 2), min_size=1)),  # affinity
    st.lists(op, max_size=6),
)

mix = st.fixed_dictionaries(
    {
        "cores": st.integers(1, 3),
        "policy": st.sampled_from(sorted(POLICIES)),
        "quantum": st.integers(1, 50),
        "threads": st.lists(thread_spec, min_size=1, max_size=6),
        # Outside the engine: (time, "spawn", thread index) or
        # (time, "trigger", event index).
        "outside": st.lists(
            st.tuples(
                st.integers(0, 300),
                st.sampled_from(["spawn", "trigger"]),
                st.integers(0, 5),
            ),
            max_size=4,
        ),
    }
)


def simulate(kernel_cls, spec, drive=None):
    """Run one thread mix; ``drive(kernel, log)`` runs the kernel
    (default: one ``run()``).  Returns everything the schedule shows."""
    k = kernel_cls()
    n_cores = spec["cores"]
    policy = POLICIES[spec["policy"]](spec["quantum"])
    eng = ExecEngine(k, [UnitCpu() for _ in range(n_cores)], policy)
    events = [Event(k, name=f"e{i}") for i in range(N_EVENTS)]
    log = []
    switches = []
    eng.on_context_switch = lambda core, old, new: switches.append(
        (k.now, core.index, old.name if old else None, new.name if new else None)
    )
    counter = iter(range(10_000))

    def trigger(i):
        if not events[i].triggered:
            events[i].trigger(k.now)

    def spawn(index, parent):
        priority, affinity, ops = spec["threads"][index % len(spec["threads"])]
        if affinity is not None:
            affinity = {c % n_cores for c in affinity}
        name = f"{parent}/{index}.{next(counter)}"
        eng.spawn(
            body(name, ops, depth=parent.count("/")),
            name=name, priority=priority, affinity=affinity,
        )

    def body(name, ops, depth):
        for i, (kind, arg) in enumerate(ops):
            if kind == "compute":
                yield Compute("op", arg)
            elif kind == "sleep":
                yield Timeout(arg)
            elif kind == "wait":
                value = yield WaitEvent(events[arg])
                log.append((k.now, name, i, "woke", value))
            elif kind == "trigger":
                trigger(arg)
            elif kind == "yield":
                yield YieldCpu()
            elif depth < 2:  # spawn, bounded
                spawn(arg, name)
            log.append((k.now, name, i, kind))

    for index in range(len(spec["threads"])):
        spawn(index, "")
    for time, kind, arg in spec["outside"]:
        if kind == "spawn":
            k.schedule(time, spawn, arg, "out")
        else:
            k.schedule(time, trigger, arg % N_EVENTS)
    eng.shutdown()
    (drive or (lambda kernel, log: kernel.run()))(k, log)
    return {
        "threads": [
            (t.name, t.state, t.start_time_ns, t.end_time_ns, t.cpu_time_ns, t.context_switches)
            for t in eng.threads
        ],
        "switches": switches,
        "log": log,
        "now": k.now,
        "busy": [core.busy_ns for core in eng.cores],
    }, k.events_executed


@settings(max_examples=150, deadline=None)
@given(mix)
def test_random_mix_matches_the_queue_only_engine(spec):
    jumped, events = simulate(Kernel, spec)
    queued, queued_events = simulate(QueueOnlyKernel, spec)
    assert jumped == queued
    assert events <= queued_events


@settings(max_examples=100, deadline=None)
@given(mix, st.lists(st.integers(0, 400), max_size=6))
def test_split_runs_stay_within_until_and_match_one_run(spec, cuts):
    def split(kernel, log):
        for until in sorted(cuts):
            if until < kernel.now:
                continue
            start = len(log)
            assert kernel.run(until=until) <= until
            assert kernel.now <= until
            assert all(entry[0] <= until for entry in log[start:])
        kernel.run()

    assert simulate(Kernel, spec, split)[0] == simulate(Kernel, spec)[0]


@settings(max_examples=60, deadline=None)
@given(mix, st.integers(1, 4))
def test_step_and_bounded_runs_never_jump(spec, batch):
    def stepwise(kernel, log):
        while kernel.step():
            pass

    def bounded(kernel, log):
        while kernel.pending():
            kernel.run(max_events=batch)

    whole = simulate(Kernel, spec)[0]
    for drive in (stepwise, bounded):
        kernels = []

        def make():
            kernels.append(JumpLog())
            return kernels[-1]

        assert simulate(make, spec, drive)[0] == whole
        assert not any(kernels[0].answers)


def test_a_long_chain_of_jumps_runs_in_a_loop():
    """2 000 threads on one core each compute and then block: every slice
    jumps, all within the engine's first dispatch event, with a bounded
    stack."""
    k = Kernel()
    eng = ExecEngine(k, [UnitCpu()], RoundRobinPolicy())
    never = Event(k)

    def body():
        yield Compute("op", 5)
        yield WaitEvent(never)

    threads = [eng.spawn(body(), name=f"t{i}") for i in range(2_000)]
    k.run()
    assert k.events_executed == 1
    assert k.now == 10_000
    assert [t.cpu_time_ns for t in threads] == [5] * 2_000
    assert eng.cores[0].busy_ns == 10_000
