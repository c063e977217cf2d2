"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Kernel
from repro.sim.errors import SchedulingError


def test_time_starts_at_zero():
    assert Kernel().now == 0


def test_schedule_and_run_advances_clock():
    k = Kernel()
    fired = []
    k.schedule(100, fired.append, "a")
    k.schedule(50, fired.append, "b")
    k.run()
    assert fired == ["b", "a"]
    assert k.now == 100


def test_same_time_events_fire_in_scheduling_order():
    k = Kernel()
    fired = []
    for i in range(10):
        k.schedule(5, fired.append, i)
    k.run()
    assert fired == list(range(10))


def test_schedule_at_absolute_time():
    k = Kernel()
    seen = []
    k.schedule_at(42, lambda: seen.append(k.now))
    k.run()
    assert seen == [42]


def test_negative_delay_rejected():
    k = Kernel()
    with pytest.raises(SchedulingError):
        k.schedule(-1, lambda: None)


def test_schedule_in_past_rejected():
    k = Kernel()
    k.schedule(100, lambda: None)
    k.run()
    with pytest.raises(SchedulingError):
        k.schedule_at(50, lambda: None)


def test_cancel_prevents_firing():
    k = Kernel()
    fired = []
    h = k.schedule(10, fired.append, "x")
    h.cancel()
    k.run()
    assert fired == []
    assert k.now == 0 or k.now == 10  # cancelled events may or may not advance time
    assert k.pending() == 0


def test_run_until_stops_before_future_events():
    k = Kernel()
    fired = []
    k.schedule(10, fired.append, "early")
    k.schedule(1000, fired.append, "late")
    k.run(until=500)
    assert fired == ["early"]
    assert k.now == 500
    k.run()
    assert fired == ["early", "late"]


def test_run_until_in_the_past_rejected():
    k = Kernel()
    fired = []
    k.schedule(10, fired.append, "a")
    k.run()
    assert k.now == 10
    k.schedule(5, fired.append, "b")
    # running "until" an instant already passed would rewind the clock
    # behind the event that fired at t=10
    with pytest.raises(SchedulingError):
        k.run(until=3)
    assert k.now == 10
    with pytest.raises(SchedulingError):
        k.schedule_at(4, fired.append, "c")
    k.run(until=10)  # until == now is a no-op, not an error
    assert k.now == 10 and fired == ["a"]
    k.run()
    assert fired == ["a", "b"]
    assert k.now == 15


def test_run_max_events():
    k = Kernel()
    fired = []
    for i in range(5):
        k.schedule(i, fired.append, i)
    k.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_are_processed():
    k = Kernel()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            k.schedule(10, chain, n + 1)

    k.schedule(0, chain, 0)
    k.run()
    assert fired == [0, 1, 2, 3]
    assert k.now == 30


def test_peek_skips_cancelled():
    k = Kernel()
    h = k.schedule(5, lambda: None)
    k.schedule(9, lambda: None)
    h.cancel()
    assert k.peek() == 9


def test_events_executed_counter():
    k = Kernel()
    for i in range(7):
        k.schedule(i, lambda: None)
    k.run()
    assert k.events_executed == 7


def test_nothing_due_now_sees_both_queues():
    k = Kernel()
    seen = []

    def probe(tag):
        seen.append((tag, k.now, k.nothing_due_now()))

    def queue_soon_then_probe():
        k.call_soon(lambda: None)
        probe("soon-queued")

    k.schedule(10, probe, "alone")
    k.schedule(20, probe, "first-of-two")
    k.schedule(20, lambda: None)
    k.schedule(30, queue_soon_then_probe)
    k.schedule(40, probe, "later-entry-only")
    k.schedule(41, lambda: None)
    k.run()
    assert seen == [
        ("alone", 10, True),
        ("first-of-two", 20, False),
        ("soon-queued", 30, False),
        ("later-entry-only", 40, True),
    ]
    assert k.nothing_due_now()


def test_advance_to_jumps_only_when_its_entry_would_run_next():
    k = Kernel()
    seen = []

    def probe(tag, target):
        seen.append((tag, k.now, k.advance_to(target), k.now))

    def queue_soon_then_probe():
        k.call_soon(lambda: None)
        probe("soon-queued", 35)

    k.schedule(10, probe, "clear-heap-head", 15)  # head at 20: jumps
    k.schedule(20, probe, "ties-heap-head", 30)  # head at 30: refuses
    k.schedule(30, queue_soon_then_probe)
    k.schedule(40, probe, "up-to-the-head", 49)
    k.schedule(50, lambda: None)
    k.run()
    assert seen == [
        ("clear-heap-head", 10, True, 15),
        ("ties-heap-head", 20, False, 20),
        ("soon-queued", 30, False, 30),
        ("up-to-the-head", 40, True, 49),
    ]
    assert k.events_executed == 6  # five timers and one call_soon: a jump is no event


def test_advance_to_skips_cancelled_heap_heads():
    k = Kernel()
    seen = []
    k.schedule(10, lambda: seen.append(k.advance_to(25)))
    k.schedule(20, lambda: None).cancel()
    k.run()
    assert seen == [True]
    assert k.now == 25


def test_advance_to_stays_within_until():
    k = Kernel()
    seen = []
    k.schedule(10, lambda: seen.append((k.advance_to(101), k.advance_to(100), k.now)))
    assert k.run(until=100) == 100
    assert seen == [(False, True, 100)]


def test_advance_to_refuses_outside_run_and_under_max_events():
    k = Kernel()
    seen = []
    assert not k.advance_to(5)
    for t in (10, 20, 30):
        k.schedule(t, lambda: seen.append(k.advance_to(k.now + 1)))
    assert k.step()
    k.run(max_events=1)
    assert not k.advance_to(25)
    k.run()
    assert seen == [False, False, True]
    assert not k.advance_to(k.now + 1)


def test_advance_to_refuses_after_run_raised():
    k = Kernel()

    def boom():
        raise RuntimeError("boom")

    k.schedule(10, boom)
    with pytest.raises(RuntimeError):
        k.run()
    assert not k.advance_to(20)
    assert k.now == 10
