"""Targeted tests for deadline timers (``schedule_timer``).

Timers must obey the exact ``(time, seq)`` ordering contract of
:meth:`Kernel.schedule`, and cancel-before-fire (the dominant
receive-deadline pattern) must neither fire nor let the tombstones it
leaves grow the queue beyond a constant factor of the live events.
"""

from repro.sim.kernel import Kernel
from repro.sim.process import Process, Timeout
from repro.sim.resources import Channel


def test_timer_shares_ordering_domain_with_schedule():
    kernel = Kernel()
    log = []
    # same instant, interleaved across all three insert paths: FIFO by
    # scheduling order must hold regardless of which queue each rides
    kernel.schedule(100, log.append, "s0")
    kernel.schedule_timer(100, log.append, "t0")
    kernel.schedule(100, log.append, "s1")
    kernel.schedule_timer(100, log.append, "t1")
    kernel.run()
    assert log == ["s0", "t0", "s1", "t1"]
    assert kernel.now == 100


def test_cancelled_timer_never_fires_and_never_tombstones():
    kernel = Kernel()
    fired = []
    handles = [kernel.schedule_timer(5_000, fired.append, i) for i in range(200)]
    keeper = kernel.schedule(7_000, fired.append, "keeper")
    for h in handles:
        h.cancel()
    assert kernel.pending() == 1
    kernel.run()
    assert fired == ["keeper"]
    assert not keeper.cancelled


def test_timer_beyond_wheel_horizon_falls_back_to_calendar():
    kernel = Kernel()
    log = []
    kernel.schedule_timer(10, log.append, "anchor")
    # six orders of magnitude beyond the first timer
    kernel.schedule_timer(10_000_000, log.append, "far")
    kernel.schedule(5_000, log.append, "mid")
    kernel.run()
    assert log == ["anchor", "mid", "far"]
    assert kernel.now == 10_000_000


def test_wheel_reanchors_to_new_timescale_after_draining():
    kernel = Kernel()
    log = []
    kernel.schedule_timer(50, log.append, ("fine", 50))
    kernel.run()
    # the queue is empty again: a much coarser timer must still order
    kernel.schedule_timer(1_000_000, lambda: log.append(("coarse", kernel.now)))
    kernel.run()
    assert log == [("fine", 50), ("coarse", 1_000_050)]


def test_timer_cancel_interleaved_with_regular_events():
    kernel = Kernel()
    log = []

    def deliver(i):
        log.append(("deliver", i, kernel.now))
        if pending_timers:
            pending_timers.pop().cancel()

    pending_timers = []
    for i in range(50):
        pending_timers.append(kernel.schedule_timer(10_000, log.append, ("timeout", i)))
        kernel.schedule(100 * (i + 1), deliver, i)
    kernel.run()
    delivered = [e for e in log if e[0] == "deliver"]
    timeouts = [e for e in log if e[0] == "timeout"]
    assert len(delivered) == 50
    # each delivery cancelled one deadline; none should have fired
    assert timeouts == []
    assert kernel.pending() == 0


def test_deadline_receive_churn_keeps_queue_bounded():
    """Delivery always beats the deadline, so every receive leaves one
    cancelled timer behind, far in the future.  Compaction must keep the
    stored entries within twice the live ones (plus a constant)."""
    kernel = Kernel()
    chan = Channel(kernel, name="churn")
    n = 20_000
    baseline = kernel.pending()
    worst = []

    def getter():
        for i in range(n):
            ok, item = yield from chan.get_with_deadline(1_000_000)
            assert ok and item == i
            stored = len(kernel._heap) + len(kernel._imm)
            worst.append(stored - 2 * kernel.pending())

    def producer():
        for i in range(n):
            yield Timeout(10)
            chan.put(i)

    Process(kernel, getter(), name="getter")
    Process(kernel, producer(), name="producer")
    kernel.run()
    assert len(worst) == n
    assert max(worst) <= 64
    assert kernel.pending() == baseline
    assert kernel.now == 10 * n  # no deadline ever fired
