"""The per-link reference transport the tests compare ``LinkTransport`` with.

:class:`ReferenceTransport` is the CONGEST(B) link semantics written the
plain way: one in-flight record per message, a FIFO per live directed edge
kept in an insertion-ordered dict (drained edges are dropped, so a revived
edge re-enters at the end), and a ``deliver_round`` that moves ``B`` bits
along every live edge.  It is slow by design and shares no code with
:class:`repro.congest.transport.LinkTransport`, which must match it
delivery for delivery, metric for metric and log entry for log entry.

:class:`ReferenceDenseEngine` is the dense engine over this transport: the
oracle of the cross-engine equivalence, fault and property suites.
:class:`ReferenceEventEngine` is the event engine over it, so the event
scheduler's quiet-round jumps are checked against a transport whose
``skip_rounds`` raises on any skip that crosses a delivery, independently
of ``LinkTransport``'s lazy completion clock.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.congest.engine import DenseEngine, EventEngine
from repro.congest.message import Received


@dataclass
class _InFlight:
    """A message inside a link buffer, possibly mid-transmission."""

    sender: Hashable
    receiver: Hashable
    payload: Any
    bits: int
    remaining: int


class ReferenceTransport:
    """Link buffers and bit accounting, one record per message."""

    def __init__(self, bandwidth: int, record_messages: bool = False):
        self.bandwidth = bandwidth
        self.record_messages = record_messages
        # Per directed edge: FIFO of in-flight messages; only edges with
        # traffic have an entry.
        self._links: dict[tuple[Hashable, Hashable], deque[_InFlight]] = {}
        self._outgoing: list[_InFlight] = []
        self.total_messages = 0
        self.total_bits = 0
        self.max_edge_bits_per_round = 0
        self.per_round_bits: list[int] = []
        self.message_log: list[tuple[int, Hashable, Hashable, int]] = []

    def enqueue(self, sender: Hashable, receiver: Hashable, payload: Any, bits: int, round_no: int) -> None:
        self._outgoing.append(_InFlight(sender, receiver, payload, bits, bits))
        self.total_messages += 1
        self.total_bits += bits
        if self.record_messages:
            self.message_log.append((round_no, sender, receiver, bits))

    def enqueue_many(self, sender: Hashable, receivers: Iterable[Hashable], payload: Any, bits: int, round_no: int) -> None:
        for receiver in receivers:
            self.enqueue(sender, receiver, payload, bits, round_no)

    def flush(self) -> None:
        for msg in self._outgoing:
            self._links.setdefault((msg.sender, msg.receiver), deque()).append(msg)
        self._outgoing = []

    def deliver_round(self) -> dict[Hashable, list[Received]]:
        """Move B bits along every directed edge; collect completed messages."""
        inboxes: dict[Hashable, list[Received]] = defaultdict(list)
        round_bits = 0
        for (sender, receiver), queue in list(self._links.items()):
            budget = self.bandwidth
            while queue and budget > 0:
                msg = queue[0]
                moved = min(budget, msg.remaining)
                msg.remaining -= moved
                budget -= moved
                round_bits += moved
                if msg.remaining == 0:
                    queue.popleft()
                    inboxes[receiver].append(Received(sender, msg.payload, msg.bits))
            self.max_edge_bits_per_round = max(
                self.max_edge_bits_per_round, self.bandwidth - budget
            )
            if not queue:
                del self._links[(sender, receiver)]
        self.per_round_bits.append(round_bits)
        return inboxes

    def rounds_until_delivery(self) -> int | None:
        """Rounds until the next message completes; None if nothing in flight."""
        if not self._links:
            return None
        return min(-(-queue[0].remaining // self.bandwidth) for queue in self._links.values())

    def skip_rounds(self, rounds: int) -> int:
        """Account ``rounds`` quiet rounds; ``rounds`` must stay below
        :meth:`rounds_until_delivery`."""
        if rounds <= 0:
            return 0
        moved = self.bandwidth * rounds
        for queue in self._links.values():
            if queue[0].remaining <= moved:
                raise RuntimeError("skip_rounds crossed a delivery")
        for queue in self._links.values():
            queue[0].remaining -= moved
        if self._links:
            self.max_edge_bits_per_round = max(self.max_edge_bits_per_round, self.bandwidth)
        self.per_round_bits.extend([self.bandwidth * len(self._links)] * rounds)
        return moved * len(self._links)

    def pending_traffic(self) -> int:
        """Bits committed to link buffers and not yet moved."""
        return sum(msg.remaining for queue in self._links.values() for msg in queue)


class ReferenceDenseEngine(DenseEngine):
    """The dense engine over :class:`ReferenceTransport`."""

    transport_class = ReferenceTransport


class ReferenceEventEngine(EventEngine):
    """The event engine over :class:`ReferenceTransport`."""

    transport_class = ReferenceTransport
