"""Messages: the unit of EMBera communication.

Communication is "a simple one way asynchronous message-oriented
mechanism" (paper section 4.1).  Every message carries a *kind* so the
observation layer can count application traffic (Table 2 counts data
messages) separately from control and observation traffic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

DATA = "data"
CONTROL = "control"
OBSERVATION = "observation"

_KINDS = (DATA, CONTROL, OBSERVATION)

#: Fixed per-message header footprint (sender id, tag, seq, size).
MESSAGE_HEADER_BYTES = 32


def payload_nbytes(payload: Any) -> int:
    """Best-effort byte size of a payload for copy-cost accounting.

    Arrays count their buffer, bytes-likes their length, strings their
    UTF-8 length, containers the sum of their members (dict keys
    included) and anything else ``sys.getsizeof``.  One loop walks a
    work list that containers extend, so nesting costs no recursion, and
    the types the pipeline sends (dicts of str keys, ints and arrays) are
    matched by exact type before the general ``isinstance`` chain.
    """
    total = 0
    todo = [payload]
    for item in todo:  # containers append their members as the loop runs
        kind = type(item)
        if kind is dict:
            todo += item
            todo += item.values()
        elif kind is str:
            total += len(item.encode("utf-8"))
        elif kind is int:
            total += sys.getsizeof(item)
        elif kind is np.ndarray:
            total += item.nbytes
        elif item is None:
            pass
        elif isinstance(item, np.ndarray):
            total += item.nbytes
        elif isinstance(item, (bytes, bytearray, memoryview)):
            total += len(item)
        elif isinstance(item, str):
            total += len(item.encode("utf-8"))
        elif isinstance(item, (list, tuple)):
            todo += item
        elif isinstance(item, dict):
            todo += item
            todo += item.values()
        else:
            total += sys.getsizeof(item)
    return total


#: Span id meaning "no causal context" (root of a causal chain).
NO_SPAN = 0


@dataclass
class Message:
    """One message in transit between two interfaces."""

    payload: Any
    kind: str = DATA
    tag: str = ""
    src: str = ""
    src_interface: str = ""
    seq: int = 0
    size_bytes: int = -1  # -1: estimate from payload at send time
    sent_at_us: Optional[int] = None
    #: Causal identity: every send/deposit stamps a globally unique,
    #: monotonically increasing span id, and ``cause`` carries the span of
    #: the message whose reception triggered this one (NO_SPAN for chain
    #: roots).  Receives record the (cause -> span) edge, so offline
    #: analysis can reconstruct end-to-end causal chains across
    #: components, runtimes and the EMBX transport.
    span: int = NO_SPAN
    cause: int = NO_SPAN
    #: Durable-delivery sequence number (see :mod:`repro.recovery`): a
    #: contiguous per-connection counter stamped by the recovery hook on
    #: data and control sends.  0 means "not under delivery guarantees"
    #: (no recovery manager installed, observation traffic, deposits);
    #: receivers dedup and gap-detect by this, never by ``seq``/``span``
    #: (which change on retransmission).
    dseq: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}; expected one of {_KINDS}")
        if self.size_bytes == -1:
            self.size_bytes = payload_nbytes(self.payload) + MESSAGE_HEADER_BYTES
        if self.size_bytes < 0:
            raise ValueError(f"negative message size {self.size_bytes}")

    @property
    def is_data(self) -> bool:
        """True for application data messages (Table 2 counting)."""
        return self.kind == DATA

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Message {self.kind}:{self.tag or '-'} from={self.src or '?'} "
            f"seq={self.seq} {self.size_bytes}B>"
        )
