"""The discrete-event kernel: a clock plus a binary heap of callbacks.

The kernel is intentionally minimal -- processes, events and resources are
layered on top of ``schedule_at`` / ``run``.  Determinism contract: events
with equal timestamps fire in scheduling order (FIFO tie-break via a
monotonically increasing sequence number).

Design notes
------------
- Queue entries are plain ``(time, seq, handle)`` tuples in one
  ``heapq`` list.  Sequence numbers are unique, so every comparison the
  heap makes is a C tuple comparison that never reaches the handle.
- Same-instant wakeups (``call_soon``) skip the heap through a FIFO
  deque of the same tuples.  Both queues share one sequence-number
  domain and the dispatcher takes whichever head is smaller, so
  ordering is exactly as if every event had gone through the heap.
- ``cancel`` is lazy: it flips a flag and the dispatcher drops the entry
  when it reaches the head.  Once at least ``_COMPACT_MIN`` tombstones
  make up half the stored entries, both queues are filtered in place,
  which keeps memory within ``2 * pending() + _COMPACT_MIN`` entries
  under schedule-then-cancel churn (receive deadlines).
- ``nothing_due_now`` and ``advance_to`` let a callback do inline the
  work it would otherwise queue, when that entry would be the very next
  one dispatched anyway: same-instant work when nothing else is due now
  (``nothing_due_now``), and a later timer when no queued entry comes
  first and ``run()`` would reach it (``advance_to``, a clock jump).
  The dispatch order is the one the queued entry would have given.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.errors import DeadlockError, SchedulingError

#: Compact once at least this many cancelled entries linger *and* they
#: make up half the stored entries.
_COMPACT_MIN = 64

#: ``run()`` horizon with no ``until``: every time is within it.
_NO_HORIZON = float("inf")


class EventHandle:
    """Cancellable handle for a scheduled callback."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_kernel")

    def __init__(
        self, time: int, seq: int, callback: Callable[..., None], args: tuple,
        kernel: Optional["Kernel"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The owning kernel while the event is queued; None once fired.
        self._kernel = kernel

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call repeatedly,
        including after the event has already fired (then a no-op)."""
        if self.cancelled:
            return
        self.cancelled = True
        kernel = self._kernel
        if kernel is not None:
            kernel._alive -= 1
            n = kernel._n_cancelled = kernel._n_cancelled + 1
            if n >= _COMPACT_MIN and n * 2 >= len(kernel._heap) + len(kernel._imm):
                kernel._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


class Kernel:
    """Discrete-event simulation kernel with integer-nanosecond time.

    Usage::

        k = Kernel()
        k.schedule(1000, print, "fires at t=1000ns")
        k.run()
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._heap: list[tuple] = []
        self._imm: deque[tuple] = deque()  # same-instant FIFO fast path
        self._live_processes: int = 0  # maintained by Process
        self.events_executed: int = 0
        #: Consulted by ``run()`` when the queue drains with processes
        #: still alive: a zero-arg callable returning True when it
        #: injected new work (e.g. drained an inter-shard mailbox), in
        #: which case the loop continues instead of raising
        #: :class:`DeadlockError`.
        self.on_idle: Optional[Callable[[], bool]] = None
        #: Per-shard kernels disable local deadlock detection: an idle
        #: shard with pending cross-shard input is not deadlocked, so the
        #: check belongs to the coordinator (after draining mailboxes).
        self.deadlock_check: bool = True
        self._alive: int = 0  # scheduled, not cancelled, not yet fired
        self._n_cancelled: int = 0  # cancelled entries still stored
        #: Latest time ``advance_to`` may reach: the running ``run()``'s
        #: ``until``; -1 (refuse) outside ``run()`` and under ``max_events``.
        self._horizon: float = -1

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SchedulingError(f"negative delay: {delay_ns}")
        # The push is repeated in schedule_at: this is the hottest call.
        time_ns = self._now + int(delay_ns)
        seq = self._seq
        self._seq = seq + 1
        self._alive += 1
        handle = EventHandle(time_ns, seq, callback, args, self)
        heappush(self._heap, (time_ns, seq, handle))
        return handle

    #: Deadline timers (usually cancelled before firing) are ordinary
    #: events; compaction bounds the tombstones their cancels leave.
    schedule_timer = schedule

    def schedule_at(self, time_ns: int, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SchedulingError(f"cannot schedule in the past: {time_ns} < {self._now}")
        time_ns = int(time_ns)
        seq = self._seq
        self._seq = seq + 1
        self._alive += 1
        handle = EventHandle(time_ns, seq, callback, args, self)
        heappush(self._heap, (time_ns, seq, handle))
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current instant: ``schedule(0,
        ...)``, FIFO ordering included, as an O(1) deque append (the
        event/channel wakeup fast path)."""
        seq = self._seq
        self._seq = seq + 1
        self._alive += 1
        handle = EventHandle(self._now, seq, callback, args, self)
        self._imm.append((self._now, seq, handle))
        return handle

    def _compact(self) -> None:
        """Drop every cancelled entry from both queues, in place (the
        dispatch loop holds references to the queue objects)."""
        heap = self._heap
        heap[:] = [e for e in heap if not e[2].cancelled]
        heapify(heap)
        live = [e for e in self._imm if not e[2].cancelled]
        self._imm.clear()
        self._imm.extend(live)
        self._n_cancelled = 0

    # -- dispatch -------------------------------------------------------------

    def pending(self) -> int:
        """Number of not-yet-cancelled scheduled callbacks.  O(1)."""
        return self._alive

    def peek(self) -> Optional[int]:
        """Timestamp of the next pending event, or None if the queue is empty."""
        heap = self._heap
        imm = self._imm
        while imm and imm[0][2].cancelled:
            imm.popleft()
            self._n_cancelled -= 1
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self._n_cancelled -= 1
        if imm:
            return min(imm[0][0], heap[0][0]) if heap else imm[0][0]
        return heap[0][0] if heap else None

    def nothing_due_now(self) -> bool:
        """True when no entry is queued at the current instant.

        A callback may then continue inline with work it would otherwise
        ``call_soon``: that work would have been the very next event, so
        the event order is the same.  Cancelled entries still stored
        count as due (the answer errs towards the hop)."""
        heap = self._heap
        return not self._imm and (not heap or heap[0][0] > self._now)

    def advance_to(self, time_ns: int) -> bool:
        """Jump the clock to ``time_ns`` (not before ``now``) from inside a
        callback, when an entry queued there would be dispatched next.

        Holds when nothing is queued at the current instant, every heap
        entry lies strictly after ``time_ns`` and the running ``run()``
        reaches ``time_ns`` (its ``until``).  The caller then does at
        once, at ``time_ns``, what that entry's callback would have done,
        and must return without further work.  Refuses (False) outside
        ``run()`` and under ``max_events``, so ``step()`` and bounded runs
        dispatch every event through the queue.  A jump is not an event:
        ``events_executed`` does not count it."""
        if self._imm or time_ns > self._horizon:
            return False
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self._n_cancelled -= 1
        if heap and heap[0][0] <= time_ns:
            return False
        self._now = time_ns
        return True

    def idle_advance(self, time_ns: int) -> None:
        """Move the idle clock forward to ``time_ns`` without dispatching.

        The sharded coordinator aligns quiescent shard clocks with it, so
        work injected between runs can never reach a shard in its past.
        Refuses to travel backwards -- that would re-open a past the
        shard already published lookahead promises about."""
        time_ns = int(time_ns)
        if time_ns < self._now:
            raise SchedulingError(f"cannot idle-advance backwards: {time_ns} < {self._now}")
        self._now = time_ns

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when idle."""
        if self.peek() is None:
            return False
        self.run(max_events=1)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``
        have fired.  Returns the final simulated time.

        Raises :class:`SchedulingError` if ``until`` lies in the past, and
        :class:`DeadlockError` if the queue drains while registered
        processes are still alive (everybody blocked on events that nobody
        can trigger).
        """
        if until is not None and until < self._now:
            raise SchedulingError(f"cannot run until the past: {until} < {self._now}")
        outer = self._horizon
        if max_events is not None:
            self._horizon = -1
        else:
            self._horizon = _NO_HORIZON if until is None else until
        executed = 0
        heap = self._heap
        imm = self._imm
        try:
            while max_events is None or executed < max_events:
                # peek()'s pruning, inlined: one call frame less per event.
                while imm and imm[0][2].cancelled:
                    imm.popleft()
                    self._n_cancelled -= 1
                while heap and heap[0][2].cancelled:
                    heappop(heap)
                    self._n_cancelled -= 1
                if imm:
                    entry = heap[0] if heap and heap[0] < imm[0] else imm[0]
                elif heap:
                    entry = heap[0]
                else:
                    if self.on_idle is not None and self.on_idle():
                        continue  # the hook injected new work (mailbox drain)
                    if self._live_processes > 0 and self.deadlock_check:
                        raise DeadlockError(
                            f"no pending events but {self._live_processes} process(es) still alive"
                        )
                    break
                if until is not None and entry[0] > until:
                    self._now = until
                    break
                if imm and imm[0] is entry:
                    imm.popleft()
                else:
                    heappop(heap)
                handle = entry[2]
                self._now = entry[0]
                self.events_executed += 1
                self._alive -= 1
                handle._kernel = None
                handle.callback(*handle.args)
                executed += 1
        finally:
            self._horizon = outer
        return self._now
