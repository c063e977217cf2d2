"""Inter-shard mailboxes and the deterministic delivery staging area.

The sharded simulator (:mod:`repro.sim.shard`) splits one logical
machine across several :class:`~repro.sim.kernel.Kernel` instances.  A
message crossing (or, in sharded mode, even staying inside) a partition
cannot be ``Channel.put`` directly: channels are kernel-bound, and the
arrival *order* of concurrent sends would depend on which shard happened
to run first.  Instead every delivery is an :class:`Envelope` with a
totally ordered key

    ``(recv_time, send_time, src_component, src_interface, send_seq)``

where ``send_seq`` is the sender context's own per-message counter.  All
key fields are properties of the *logical* send, none of the shard
layout, so sorting envelopes by key reproduces one canonical per-channel
put order for every shard count -- the heart of the shard-invariance
oracle.

Two containers move envelopes:

- :class:`Mailbox` -- the cross-shard handoff: a FIFO the *sending*
  shard posts into and the *receiving* shard drains at synchronization
  points.  This is the only structure touched by two shards.
- :class:`Staging` -- the receiving shard's private priority queue of
  undelivered envelopes, ordered by key.  The shard flushes each
  receive instant once, when its kernel reaches it, delivering every
  envelope staged for that instant in key order (see ``Shard.stage``),
  which pins equal-``recv_time`` deliveries to key order no matter when
  or from which shard they arrived.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from sys import intern as _intern
from typing import Any, Callable, Iterable, List, Optional, Tuple

#: Key fields, in comparison order (see module docstring).
KEY_FIELDS = ("recv_time", "send_time", "src", "src_interface", "seq")


class Envelope:
    """One staged delivery: an ordering key plus the delivery action.

    ``deliver`` is a zero-arg callable executed *on the receiving
    shard's kernel* at ``recv_time`` (typically a bound ``Channel.put``).
    Comparison is by key only -- keys are unique per logical message
    (each sender context numbers its sends).  :class:`Staging` does not
    call ``__lt__``: it heaps the key tuples themselves.
    """

    __slots__ = ("recv_time", "send_time", "src", "src_interface", "seq", "deliver")

    def __init__(
        self,
        recv_time: int,
        send_time: int,
        src: str,
        src_interface: str,
        seq: int,
        deliver: Callable[[], None],
    ) -> None:
        if recv_time < send_time:
            raise ValueError(
                f"recv_time {recv_time} precedes send_time {send_time} "
                f"(negative link latency?)"
            )
        self.recv_time = recv_time
        self.send_time = send_time
        # A workload sends many envelopes with the same (src, iface)
        # strings; interning collapses them to one object each, so the
        # heap's tie-break comparisons short-circuit on identity instead
        # of comparing characters (and N staged envelopes hold 2 string
        # references, not 2N strings).
        self.src = _intern(src)
        self.src_interface = _intern(src_interface)
        self.seq = seq
        self.deliver = deliver

    @property
    def key(self) -> Tuple[int, int, str, str, int]:
        """The total-order key (shard-layout independent)."""
        return (self.recv_time, self.send_time, self.src, self.src_interface, self.seq)

    def __lt__(self, other: "Envelope") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Envelope recv={self.recv_time} send={self.send_time} "
            f"src={self.src}.{self.src_interface}#{self.seq}>"
        )


class Mailbox:
    """FIFO of envelopes posted by other shards.

    Order of the FIFO itself is irrelevant -- envelopes are re-ordered
    by key in the receiver's :class:`Staging`.
    """

    def __init__(self) -> None:
        self._items: List[Envelope] = []

    def post(self, envelope: Envelope) -> None:
        """Enqueue an envelope (called from the *sending* shard)."""
        self._items.append(envelope)

    def drain(self) -> List[Envelope]:
        """Remove and return all pending envelopes (receiving shard)."""
        items, self._items = self._items, []
        return items

    def __len__(self) -> int:
        return len(self._items)


def _deliver_group(group: List[Envelope]) -> Callable[[], None]:
    """One kernel callback delivering a whole equal-``recv_time`` group.

    The group is already in key order (popped off the staging heap), so
    delivering inline back-to-back produces exactly the channel-put
    order the per-envelope path produced: each ``deliver`` runs at the
    same kernel ``now`` and any wakeups it triggers ride ``call_soon``
    with sequence numbers *after* the whole group, just as they would
    have landed after the group's individually scheduled events.
    """

    def deliver_batch() -> None:
        for env in group:
            env.deliver()

    return deliver_batch


class Staging:
    """A shard-private min-heap of envelopes ordered by delivery key.

    The heap holds ``(*key, envelope)`` tuples, so every sift is a C
    tuple comparison; keys are unique, so it never reaches the envelope.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self.released = 0
        #: Delivery callbacks handed out (one per distinct ``recv_time``
        #: by :meth:`release_batched`, the path a shard's flush takes)
        #: -- ``released / batches`` is the batch factor the scaling
        #: bench reports.
        self.batches = 0

    def push(self, envelope: Envelope) -> None:
        """Stage one envelope for later release."""
        # The entry layout is repeated in push_many.
        heappush(
            self._heap,
            (envelope.recv_time, envelope.send_time, envelope.src,
             envelope.src_interface, envelope.seq, envelope),
        )

    def push_many(self, envelopes: Iterable[Envelope]) -> int:
        """Stage a chunk of envelopes in one O(n) heapify instead of n
        O(log n) sifts -- the mailbox drain path hands over a whole
        sweep's worth of cross-shard arrivals at once."""
        items = [
            (env.recv_time, env.send_time, env.src, env.src_interface, env.seq, env)
            for env in envelopes
        ]
        if not items:
            return 0
        heap = self._heap
        if len(items) > len(heap) >> 2:
            heap.extend(items)
            heapify(heap)
        else:
            for entry in items:
                heappush(heap, entry)
        return len(items)

    def min_recv_time(self) -> Optional[int]:
        """Earliest staged ``recv_time``, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def release_below(self, horizon: int, schedule: Callable[[int, Any], Any]) -> int:
        """Release every envelope with ``recv_time < horizon`` into the
        kernel via ``schedule(recv_time, deliver)``, in key order.

        Key-order release below a *conservative* horizon (no
        later-staged envelope can undercut it) is what makes equal-time
        deliveries land in the same canonical order for every shard
        count.  This is the per-envelope reference path; shards deliver
        through :meth:`release_batched`, which the staging tests hold to
        the same key order."""
        heap = self._heap
        n = 0
        while heap and heap[0][0] < horizon:
            env = heappop(heap)[-1]
            schedule(env.recv_time, env.deliver)
            n += 1
        self.released += n
        self.batches += n
        return n

    def release_batched(self, horizon: int, schedule: Callable[[int, Any], Any]) -> int:
        """Batched release: one scheduled callback per *distinct*
        ``recv_time`` below the horizon, delivering that time's whole
        key-ordered group inline.

        Equivalent to :meth:`release_below` by construction: the
        callbacks are handed out in key order, and within one timestamp
        the group delivers in key order.  A fan-in workload whose
        messages share timestamps pays one callback per timestamp
        instead of one per envelope -- the event count drops by the
        batch factor."""
        heap = self._heap
        if not heap or heap[0][0] >= horizon:
            return 0
        batch: List[Envelope] = []
        while heap and heap[0][0] < horizon:
            batch.append(heappop(heap)[-1])
        n = len(batch)
        i = 0
        while i < n:
            env = batch[i]
            t = env.recv_time
            j = i + 1
            while j < n and batch[j].recv_time == t:
                j += 1
            if j - i == 1:
                schedule(t, env.deliver)
            else:
                schedule(t, _deliver_group(batch[i:j]))
            self.batches += 1
            i = j
        self.released += n
        return n

    def __len__(self) -> int:
        return len(self._heap)
