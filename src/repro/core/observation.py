"""The EMBera observation layer.

Paper section 3.3: "MPSoC observation has to take into account at least
three levels: the system, the middleware and the application level."

- **OS level** -- component execution time and memory occupation.  The
  numbers come from the runtime (gettimeofday / task_time, stack size,
  interface structures), exposed through an adapter callable so each
  platform implements the same query its own way (sections 4.2 / 5.2).
- **Middleware level** -- execution times of the ``send`` and ``receive``
  primitives, recorded by interposition in the component context.
- **Application level** -- component structure (interface listing) and
  communication-operation counters.

A probe is attached per component by the runtime; behaviour code never
sees it.  Counters for Table 2 count *data* messages only -- control
(end-of-stream) and observation traffic are infrastructure, not
application communication.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.core.errors import ObservationError
from repro.core.messages import DATA, OBSERVATION, Message
from repro.metrics import Counter, Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.component import Component

OS_LEVEL = "os"
MIDDLEWARE_LEVEL = "middleware"
APPLICATION_LEVEL = "application"

LEVELS = (OS_LEVEL, MIDDLEWARE_LEVEL, APPLICATION_LEVEL)

#: Opcodes of the probe's per-operation buffer (first tuple element).
_SEND = 0
_RECV = 1
_DEPOSIT = 2


@dataclass(frozen=True)
class ObservationRequest:
    """Sent to a component's observation provided interface."""

    level: str
    query: str = "report"
    reply_tag: str = ""

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ObservationError(f"unknown observation level {self.level!r}")


@dataclass(frozen=True)
class ObservationReply:
    """Returned through the component's observation required interface."""

    component: str
    level: str
    data: Dict[str, Any]
    reply_tag: str = ""


class _Folded:
    """A probe field the buffer fold keeps current: reading it folds the
    pending samples first, so the deferral is invisible to consumers."""

    def __set_name__(self, owner, name: str) -> None:
        self.attr = "_" + name

    def __get__(self, probe, owner=None):
        if probe is None:
            return self
        probe._drain_samples()
        return getattr(probe, self.attr)


class ObservationProbe:
    """Per-component accumulator fed by context interposition.

    ``policy`` (an :class:`~repro.core.obspolicy.ObservationPolicy`)
    selects what is recorded and which levels the observation service
    answers; ``None`` means everything.

    Each middleware operation is recorded once: ``record_*`` append one
    ``(op, iface, duration_ns, latency_ns, size_bytes)`` tuple to
    ``_mw_samples`` (``size_bytes`` is -1 for non-data messages,
    ``latency_ns`` -1 when unknown) -- the tuple-buffer trick
    :meth:`~repro.trace.tracer.Tracer.emit` uses.  Appending to a list is
    atomic under the GIL, so native-runtime threads share the probe
    without a lock.  Only what must happen per operation stays on that
    path: the telemetry clock (it fixes the window a sample lands in) and
    the live contract checks.  Everything else -- the Table-2 counters,
    byte totals, the middleware timers with ``sample_every`` replayed in
    operation order, and the telemetry histograms and counters -- is
    derived by one fold, :meth:`_drain_samples`, run on a report or
    field read and from the telemetry window roll.
    """

    send_timer = _Folded()
    recv_timer = _Folded()
    #: End-to-end message latency (sender timestamp -> delivery).  On
    #: OS21 the sender/receiver clocks are *local* per CPU, so this
    #: inherits their skew -- faithfully to the platform (sec. 5.2).
    latency_timer = _Folded()
    send_timers_by_iface = _Folded()
    recv_timers_by_iface = _Folded()
    data_sends = _Folded()
    data_receives = _Folded()
    deposits = _Folded()
    bytes_sent = _Folded()
    bytes_received = _Folded()

    def __init__(self, component: "Component", policy=None) -> None:
        self.component = component
        self.policy = policy
        self._op_index = 0
        self._mw_samples: list = []
        self._fold_lock = threading.Lock()
        self._send_timer = Timer(f"{component.name}.send")
        self._recv_timer = Timer(f"{component.name}.receive")
        self._latency_timer = Timer(f"{component.name}.latency")
        self._send_timers_by_iface: Dict[str, Timer] = {}
        self._recv_timers_by_iface: Dict[str, Timer] = {}
        self._data_sends = Counter(f"{component.name}.sends")
        self._data_receives = Counter(f"{component.name}.receives")
        self._deposits = Counter(f"{component.name}.deposits")
        self._bytes_sent = 0
        self._bytes_received = 0
        self.started_at_us: Optional[int] = None
        self.ended_at_us: Optional[int] = None
        # Heap tracking (memory-evolution extension, paper section 6).
        self.heap_bytes = 0
        self.heap_peak = 0
        self.heap_timeline: list = []  # (time_us, heap_bytes) samples
        # Robustness extension: fault, restart and recovery accounting.
        # Fed by the fault injector and the supervisor (never by the
        # behaviour), reported next to the Table-2 counters.
        self.fault_counts: Dict[str, int] = {}
        self.restarts = 0
        self.recovery_ns: list = []  # per-restart downtime samples (MTTR)
        # Exactly-once recovery accounting (see repro.recovery): committed
        # checkpoints and their cost, messages replayed to this component
        # after a restart, duplicates discarded by sequence dedup.
        self.checkpoints = 0
        self.checkpoint_bytes = 0
        self.checkpoint_ns: list = []  # per-checkpoint capture cost samples
        self.replays = 0
        self.dedups = 0
        #: Runtime-provided OS-level report: ``fn() -> dict``.
        self.os_adapter: Optional[Callable[[], Dict[str, Any]]] = None
        #: Runtime-provided middleware extras (e.g. live queue depths).
        self.middleware_adapter: Optional[Callable[[], Dict[str, Any]]] = None
        #: Live metrics plane, attached by
        #: :func:`repro.metrics.telemetry.enable_telemetry`.  Unlike the
        #: timers above, telemetry is *not* subject to ``sample_every``:
        #: contract checking needs every message, and the streaming
        #: histograms are cheap enough to afford it.
        self.telemetry = None

    # -- the fold ---------------------------------------------------------------

    def _drain_samples(self, *_roll) -> None:
        """Fold the buffered operations into every derived field.

        Also the telemetry roll hook (``*_roll`` takes its window
        arguments): a crossing window folds what it holds before its
        deltas are cut.  Snapshot-then-delete (``buf[:n]`` /
        ``del buf[:n]``) so samples a concurrent native-runtime thread
        appends mid-fold survive for the next fold.  The lock serialises
        folders (a roll on another component's thread, a report read),
        so none takes another's snapshot and ``sample_every`` replays
        one operation order.
        """
        with self._fold_lock:
            buf = self._mw_samples
            n = len(buf)
            if not n:
                return
            chunk = buf[:n]
            del buf[:n]
            policy = self.policy
            if policy is None:
                every, track_bytes = 1, True
            else:
                every = policy.sample_every if policy.time_middleware else 0
                track_bytes = policy.track_bytes
            op_index = self._op_index
            send_timer = self._send_timer
            recv_timer = self._recv_timer
            latency_timer = self._latency_timer
            by_send = self._send_timers_by_iface
            by_recv = self._recv_timers_by_iface
            tel = self.telemetry
            groups = ({}, {}) if tel is not None else None
            messages = [0, 0]  # data messages by op (_SEND, _RECV)
            nbytes = [0, 0]
            deposits = 0
            for sample in chunk:
                op, iface, dur, lat, size = sample
                if op == _DEPOSIT:
                    if size >= 0:
                        deposits += 1
                    continue
                if every:
                    op_index += 1
                    if op_index % every == 0:
                        if op == _SEND:
                            total, by_iface = send_timer, by_send
                        else:
                            total, by_iface = recv_timer, by_recv
                            if lat >= 0:
                                latency_timer.record(lat)
                        total.record(dur)
                        timer = by_iface.get(iface)
                        if timer is None:
                            timer = by_iface[iface] = Timer(iface)
                        timer.record(dur)
                if size >= 0:
                    messages[op] += 1
                    nbytes[op] += size
                if groups is not None:
                    by_iface = groups[op]
                    group = by_iface.get(iface)
                    if group is None:
                        group = by_iface[iface] = []
                    group.append(sample)
            self._op_index = op_index
            self._data_sends.value += messages[_SEND]
            self._data_receives.value += messages[_RECV]
            self._deposits.value += deposits
            if track_bytes:
                self._bytes_sent += nbytes[_SEND]
                self._bytes_received += nbytes[_RECV]
            if groups is not None:
                tel.fold(groups[_SEND], groups[_RECV])

    # -- recording (called from ComponentContext) ----------------------------

    def record_send(self, iface: str, message: Message, duration_ns: int) -> None:
        """Account one send operation (kind-aware; see class doc)."""
        kind = message.kind
        if kind == OBSERVATION:
            return  # observation traffic must not observe itself
        tel = self.telemetry
        if tel is not None:
            reg = tel.registry
            sent = message.sent_at_us
            ts = sent * 1_000 if sent is not None else reg.last_ns
            if ts > reg.last_ns:
                reg.last_ns = ts
            if ts >= reg._next_roll_ns:
                reg.advance(ts)
            if kind == DATA and tel.checker is not None:
                tel.checker.on_send(iface, message, ts)
        self._mw_samples.append(
            (_SEND, iface, duration_ns, -1, message.size_bytes if kind == DATA else -1)
        )

    def record_deposit(self, iface: str, message: Message, duration_ns: int) -> None:
        """A deposit into the component's own provided interface: tracked,
        but deliberately outside the send counters (see Table 2)."""
        kind = message.kind
        if kind == OBSERVATION:
            return
        self._mw_samples.append(
            (_DEPOSIT, iface, duration_ns, -1, message.size_bytes if kind == DATA else -1)
        )

    def record_receive(
        self, iface: str, message: Message, duration_ns: int, now_us: Optional[int] = None
    ) -> None:
        """Account one receive operation (kind-aware)."""
        kind = message.kind
        if kind == OBSERVATION:
            return
        sent = message.sent_at_us
        if now_us is not None and sent is not None:
            # Clamp at zero: cross-CPU local clocks may run ahead.
            latency_ns = max(0, (now_us - sent)) * 1_000
        else:
            latency_ns = -1
        tel = self.telemetry
        if tel is not None:
            reg = tel.registry
            ts = now_us * 1_000 if now_us is not None else reg.last_ns
            if ts > reg.last_ns:
                reg.last_ns = ts
            if ts >= reg._next_roll_ns:
                reg.advance(ts)
            if kind == DATA and tel.checker is not None:
                tel.checker.on_receive(iface, message, latency_ns, ts)
        self._mw_samples.append(
            (_RECV, iface, duration_ns, latency_ns, message.size_bytes if kind == DATA else -1)
        )

    def record_alloc(self, nbytes: int, time_us: int) -> None:
        """Account a heap allocation (memory-evolution timeline)."""
        self.heap_bytes += nbytes
        self.heap_peak = max(self.heap_peak, self.heap_bytes)
        self.heap_timeline.append((time_us, self.heap_bytes))

    def record_free(self, nbytes: int, time_us: int) -> None:
        """Account a heap release."""
        self.heap_bytes -= nbytes
        self.heap_timeline.append((time_us, self.heap_bytes))

    def record_fault(self, kind: str) -> None:
        """Account one fault event (injected or organic) by kind."""
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        if self.telemetry is not None:
            self.telemetry.on_fault(kind)

    def record_restart(self, downtime_ns: int, now_ns: Optional[int] = None) -> None:
        """Account a supervised restart and its failure-to-restart
        downtime -- the sample stream behind the MTTR report.  ``now_ns``
        (sim time of the restart) places the sample in the right
        telemetry window, making MTTR a live series."""
        self.restarts += 1
        self.recovery_ns.append(int(downtime_ns))
        if self.telemetry is not None:
            self.telemetry.on_restart(downtime_ns, now_ns)

    def record_checkpoint(self, nbytes: int, duration_ns: int) -> None:
        """Account one committed recovery checkpoint: snapshot size and
        capture cost (host time -- checkpointing is tooling, not workload)."""
        self.checkpoints += 1
        self.checkpoint_bytes += int(nbytes)
        self.checkpoint_ns.append(int(duration_ns))
        if self.telemetry is not None:
            self.telemetry.on_checkpoint(nbytes)

    def record_replay(self, now_ns: Optional[int] = None) -> None:
        """Account one message replayed to this component after a restart."""
        self.replays += 1
        if self.telemetry is not None:
            self.telemetry.on_replay(now_ns)

    def record_dedup(self, now_ns: Optional[int] = None) -> None:
        """Account one duplicate discarded by delivery-sequence dedup."""
        self.dedups += 1
        if self.telemetry is not None:
            self.telemetry.on_dedup(now_ns)

    # -- reports --------------------------------------------------------------

    def report(self, level: str) -> Dict[str, Any]:
        """Build the report dict for one observation level."""
        if self.policy is not None and not self.policy.allows_level(level):
            raise ObservationError(
                f"level {level!r} disabled by the observation policy of "
                f"{self.component.name!r}"
            )
        if level == OS_LEVEL:
            return self._os_report()
        if level == MIDDLEWARE_LEVEL:
            return self._middleware_report()
        if level == APPLICATION_LEVEL:
            return self._application_report()
        raise ObservationError(f"unknown observation level {level!r}")

    def _os_report(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.os_adapter is not None:
            data.update(self.os_adapter())
        if self.started_at_us is not None:
            end = self.ended_at_us
            data.setdefault("started_at_us", self.started_at_us)
            if end is not None:
                data.setdefault("exec_time_us", end - self.started_at_us)
        if self.heap_timeline:
            data.setdefault("heap_bytes", self.heap_bytes)
            data.setdefault("heap_peak_bytes", self.heap_peak)
            data.setdefault("heap_timeline", list(self.heap_timeline))
        return data

    def _middleware_report(self) -> Dict[str, Any]:
        data = {
            "send": self.send_timer.snapshot(),
            "receive": self.recv_timer.snapshot(),
            "latency": self.latency_timer.snapshot(),
            "send_by_interface": {
                name: t.snapshot() for name, t in self.send_timers_by_iface.items()
            },
            "receive_by_interface": {
                name: t.snapshot() for name, t in self.recv_timers_by_iface.items()
            },
        }
        if self.middleware_adapter is not None:
            data.update(self.middleware_adapter())
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry.interface_summary()
        return data

    def _application_report(self) -> Dict[str, Any]:
        recovery = self.recovery_ns
        report = {
            "structure": self.component.interfaces(),
            "sends": self.data_sends.snapshot(),
            "receives": self.data_receives.snapshot(),
            "deposits": self.deposits.snapshot(),
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "faults": {
                "injected": dict(self.fault_counts),
                "restarts": self.restarts,
                "mttr_us": (sum(recovery) // len(recovery)) // 1_000 if recovery else 0,
            },
            "recovery": {
                "checkpoints": self.checkpoints,
                "checkpoint_bytes": self.checkpoint_bytes,
                "checkpoint_mean_ns": (
                    sum(self.checkpoint_ns) // len(self.checkpoint_ns)
                    if self.checkpoint_ns else 0
                ),
                "replayed": self.replays,
                "deduped": self.dedups,
            },
        }
        if self.telemetry is not None:
            summary = self.telemetry.contract_summary()
            if summary:
                report["contracts"] = summary
        return report


def observation_service_behavior(ctx, probe: ObservationProbe):
    """The per-component observation servicing flow.

    Spawned by the runtime next to each component (an interceptor, in
    CORBA terms): consumes :class:`ObservationRequest` messages arriving
    on the component's ``introspection`` provided interface and answers
    through its ``introspection`` required interface.  Terminates on a
    control message tagged ``"shutdown"``.
    """
    from repro.core.interfaces import OBSERVATION_INTERFACE

    while True:
        msg = yield from ctx.receive(OBSERVATION_INTERFACE)
        if msg.kind != OBSERVATION:
            if msg.tag == "shutdown":
                return
            continue  # ignore stray traffic on the control channel
        request = msg.payload
        if not isinstance(request, ObservationRequest):
            continue
        try:
            data = probe.report(request.level)
        except ObservationError as error:
            data = {"error": str(error)}
        reply = ObservationReply(
            component=ctx.component.name,
            level=request.level,
            data=data,
            reply_tag=request.reply_tag,
        )
        yield from ctx.send(OBSERVATION_INTERFACE, reply, kind=OBSERVATION)
