"""Node handles and the node-program interface."""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Any, Hashable

from repro.congest.message import Received, bit_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.congest.network import CongestNetwork


class Node:
    """A processor in the network.

    Exposes the local knowledge the model grants (Section 2.1) that the
    node programs here use: its own id, the ids of its neighbours and any
    problem-specific input.  Everything else must arrive by message.
    """

    def __init__(
        self,
        node_id: Hashable,
        neighbors: list[Hashable],
        network: "CongestNetwork",
    ):
        self.id = node_id
        self.neighbors = neighbors
        self._neighbors_cached = set(neighbors)
        self.input: Any = None
        self.output: Any = None
        self.halted = False
        self._network = network

    # -- knowledge ----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the network (standard CONGEST assumption)."""
        return self._network.n_nodes

    @property
    def bandwidth(self) -> int:
        """The per-edge bandwidth ``B``."""
        return self._network.bandwidth

    def edge_weight(self, neighbor: Hashable) -> float:
        """Weight of the incident edge (each node knows incident weights)."""
        return self._network.edge_weight(self.id, neighbor)

    # -- actions ------------------------------------------------------------

    def send(self, neighbor: Hashable, payload: Any, bits: int | None = None) -> None:
        """Queue a message on the link to ``neighbor``.

        ``bits`` overrides the automatic size estimate
        (:func:`~repro.congest.message.bit_size`); a message of more than
        ``B`` bits is transmitted over ``ceil(bits / B)`` consecutive rounds
        (honest pipelining) and delivered atomically.

        A size depends on the payload alone, so a program sending one
        payload to several neighbours sizes it once and passes ``bits=``,
        and one forwarding a received payload unchanged passes
        ``bits=msg.bits`` -- provided that message was itself auto-sized
        from the same payload.
        """
        if self.halted:
            raise RuntimeError(f"halted node {self.id!r} cannot send")
        if neighbor not in self._neighbors_cached:
            if self._network._drop_stale_send(self.id, neighbor):
                return
            raise ValueError(f"{neighbor!r} is not a neighbor of {self.id!r}")
        size = bit_size(payload) if bits is None else bits
        if size < 1:
            raise ValueError("messages cost at least one bit")
        self._network._enqueue(self.id, neighbor, payload, size)

    def broadcast(self, payload: Any, bits: int | None = None) -> None:
        """Send the same payload to every neighbour.

        The automatic size estimate is computed once, not per neighbour
        (the payload is shared, so its size is too), and the whole batch is
        staged through the transport's bulk path in one call.
        """
        if self.halted:
            raise RuntimeError(f"halted node {self.id!r} cannot send")
        if not self.neighbors:
            return
        size = bit_size(payload) if bits is None else bits
        if size < 1:
            raise ValueError("messages cost at least one bit")
        self._network._enqueue_many(self.id, self.neighbors, payload, size)

    def halt(self, output: Any = None) -> None:
        """Stop participating; record the node's output."""
        self.output = output
        self.halted = True

    def _neighbor_set(self) -> set:
        return self._neighbors_cached

    # -- topology events (network-internal) ---------------------------------

    def _insert_neighbor(self, neighbor: Hashable) -> None:
        """Splice ``neighbor`` into the repr-sorted neighbour tuple (the
        network's edge-insertion hook; programs never call this)."""
        if neighbor in self._neighbors_cached:
            return
        neighbors = list(self.neighbors)
        bisect.insort(neighbors, neighbor, key=repr)
        self.neighbors = tuple(neighbors)
        self._neighbors_cached.add(neighbor)

    def _remove_neighbor(self, neighbor: Hashable) -> None:
        """Drop ``neighbor`` from the neighbour tuple (edge-deletion hook)."""
        if neighbor not in self._neighbors_cached:
            return
        self.neighbors = tuple(nid for nid in self.neighbors if nid != neighbor)
        self._neighbors_cached.discard(neighbor)


class NodeProgram:
    """Base class for per-node algorithm logic.

    One instance is created per node; instance attributes are the node's
    local state.  Override :meth:`on_start` (runs before round 1; may send)
    and :meth:`on_round` (runs every round with that round's inbox).

    **Idleness hints.**  The event-driven engine steps a node only when a
    message arrives or the program declares a round non-idle.  Programs with
    silent stretches advertise them by overriding :meth:`next_active_round`.
    The contract: for every round the hint skips, ``on_round`` with an empty
    inbox must be a no-op -- no sends, no halting, no change that affects
    future behaviour.  The default (every round is active) makes unhinted
    programs run identically on both engines.
    """

    def on_start(self, node: Node) -> None:  # pragma: no cover - default no-op
        pass

    def on_round(self, node: Node, round_no: int, inbox: list[Received]) -> None:
        raise NotImplementedError

    def next_active_round(self, node: Node, after_round: int) -> int | None:
        """Earliest round after ``after_round`` needing a step without a
        delivery; ``None`` means the program only reacts to messages (and to
        the hints it re-declares each time it is stepped)."""
        return after_round + 1
