"""Composable synchronous phases for CONGEST algorithms.

Multi-step distributed algorithms (build a BFS tree, aggregate, broadcast,
pipeline items to the root, ...) are expressed as sequences of *phases* with
statically known durations -- the standard synchronous-composition technique:
because every node can compute each phase's duration from common knowledge
(``n``, the bandwidth, a diameter bound supplied as input, and values learned
in earlier phases), all nodes switch phases in the same round without any
coordination traffic.

Control messages here are ``O(log n)``-sized; the simulator's auto-chunking
keeps the accounting honest if ``B`` is set smaller than a message.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

from repro.congest.message import Received, bit_size
from repro.congest.node import Node, NodeProgram


def send_each(node: Node, receivers: Iterable[Hashable], payload: Any) -> None:
    """Send one ``payload`` to every node in ``receivers``, sized once.

    The size is taken at the first send, so no receiver means no sizing.
    """
    bits = 0
    for receiver in receivers:
        bits = bits or bit_size(payload)
        node.send(receiver, payload, bits)


class Phase:
    """One synchronous phase.  All methods may read/write ``shared`` (the
    node's local knowledge dictionary) and send via the node handle.

    ``duration`` must be stable while the phase is active (it may depend on
    values fixed before the phase was entered, e.g. ``shared['D']``) -- the
    event engine computes the phase boundary from it once per step.
    """

    name = "phase"

    def duration(self, node: Node, shared: dict) -> int:
        raise NotImplementedError

    def on_enter(self, node: Node, shared: dict) -> None:  # pragma: no cover
        pass

    def on_round(self, node: Node, round_in_phase: int, inbox: list[Received], shared: dict) -> None:
        pass

    def on_exit(self, node: Node, shared: dict) -> None:  # pragma: no cover
        pass

    def idle_until(self, node: Node, round_in_phase: int, shared: dict) -> int | None:
        """The phase-level idleness hint for the event engine.

        Given that ``round_in_phase`` rounds of this phase have run at this
        node, return the next round-in-phase that must be stepped even if no
        message arrives, or ``None`` if only deliveries (and the phase-end
        boundary, which :class:`PhasedProgram` always schedules) matter.

        Contract: every skipped round's ``on_round`` with an empty inbox
        must be a no-op -- no sends and no change to future behaviour.  The
        default declares every round active, which is always safe.
        """
        return round_in_phase + 1


class PhasedProgram(NodeProgram):
    """Run a list of phases back to back; halt with ``shared['output']``.

    Nodes must receive ``diameter_bound`` in their input dictionary (or it
    defaults to ``n``); it seeds ``shared['D']``, from which phase durations
    are computed identically everywhere.
    """

    def __init__(self, phases: list[Phase]):
        self.phases = list(phases)
        self.index = 0
        self.round_in_phase = 0
        # Absolute round after which the current phase started; phase-local
        # rounds are computed from it so skipped (idle) rounds cost nothing.
        self._phase_started_after = 0
        # Duration is contractually stable while a phase is active, so it is
        # computed once on entry; the absolute boundary round falls out.
        self._phase_duration = 0
        self._phase_boundary = 0
        self.shared: dict[str, Any] = {}

    def on_start(self, node: Node) -> None:
        inputs = node.input if isinstance(node.input, dict) else {}
        self.shared["D"] = int(inputs.get("diameter_bound", node.n_nodes))
        self.shared["inputs"] = inputs
        self._enter_current(node, 0)

    def _enter_current(self, node: Node, at_round: int) -> None:
        while self.index < len(self.phases):
            phase = self.phases[self.index]
            self.round_in_phase = 0
            self._phase_started_after = at_round
            phase.on_enter(node, self.shared)
            duration = phase.duration(node, self.shared)
            if duration > 0:
                self._phase_duration = duration
                self._phase_boundary = at_round + duration
                return
            phase.on_exit(node, self.shared)
            self.index += 1
        node.halt(self.shared.get("output"))

    def on_round(self, node: Node, round_no: int, inbox: list[Received]) -> None:
        if self.index >= len(self.phases):  # pragma: no cover - already halted
            return
        phase = self.phases[self.index]
        self.round_in_phase = round_no - self._phase_started_after
        phase.on_round(node, self.round_in_phase, inbox, self.shared)
        if self.round_in_phase >= self._phase_duration:
            phase.on_exit(node, self.shared)
            self.index += 1
            self._enter_current(node, round_no)

    def next_active_round(self, node: Node, after_round: int) -> int | None:
        """Schedule the phase's next spontaneous round and its boundary."""
        if self.index >= len(self.phases):
            return None
        phase = self.phases[self.index]
        rp = after_round - self._phase_started_after
        boundary = self._phase_boundary
        hint = phase.idle_until(node, rp, self.shared)
        if hint is None:
            return boundary
        return min(self._phase_started_after + max(hint, rp + 1), boundary)


class LeaderElectionPhase(Phase):
    """Flood the maximum id for ``D`` rounds; everyone learns the leader."""

    name = "leader-election"

    def duration(self, node: Node, shared: dict) -> int:
        return shared["D"] + 1

    def on_enter(self, node: Node, shared: dict) -> None:
        shared["_best"] = node.id
        node.broadcast(("lead", node.id))

    def on_round(self, node: Node, r: int, inbox: list[Received], shared: dict) -> None:
        improved = False
        for msg in inbox:
            _, candidate = msg.payload
            if repr(candidate) > repr(shared["_best"]):
                shared["_best"] = candidate
                improved = True
        if improved and r < self.duration(node, shared):
            node.broadcast(("lead", shared["_best"]))

    def on_exit(self, node: Node, shared: dict) -> None:
        shared["leader"] = shared.pop("_best")
        shared["is_leader"] = shared["leader"] == node.id

    def idle_until(self, node: Node, round_in_phase: int, shared: dict) -> int | None:
        return None  # re-floods only on arrival of a better candidate


class BfsTreePhase(Phase):
    """Build a BFS tree rooted at the leader: parent, children, depth.

    Wave adoption takes ``D`` rounds; one extra round lets children report to
    their parents.
    """

    name = "bfs-tree"

    def duration(self, node: Node, shared: dict) -> int:
        return shared["D"] + 2

    def on_enter(self, node: Node, shared: dict) -> None:
        shared["parent"] = None
        shared["children"] = []
        shared["depth"] = None
        if shared.get("is_leader"):
            shared["depth"] = 0
            node.broadcast(("bfs", 0))

    def on_round(self, node: Node, r: int, inbox: list[Received], shared: dict) -> None:
        for msg in inbox:
            tag = msg.payload[0]
            if tag == "bfs" and shared["depth"] is None:
                shared["depth"] = msg.payload[1] + 1
                shared["parent"] = msg.sender
                node.send(msg.sender, ("child",))
                send_each(
                    node,
                    (nb for nb in node.neighbors if nb != msg.sender),
                    ("bfs", shared["depth"]),
                )
            elif tag == "child":
                shared["children"].append(msg.sender)

    def idle_until(self, node: Node, round_in_phase: int, shared: dict) -> int | None:
        return None  # adoption and child reports are delivery-driven


class ConvergecastPhase(Phase):
    """Aggregate a value up the BFS tree with a user combiner.

    ``initial(node, shared)`` produces each node's contribution;
    ``combine(a, b)`` must be associative and commutative.  The root stores
    the total in ``shared[result_key]`` (other nodes keep ``None``).
    """

    name = "convergecast"

    def __init__(self, result_key: str, initial, combine):
        self.result_key = result_key
        self.initial = initial
        self.combine = combine

    def duration(self, node: Node, shared: dict) -> int:
        return shared["D"] + 2

    def on_enter(self, node: Node, shared: dict) -> None:
        shared["_acc"] = self.initial(node, shared)
        shared["_waiting"] = set(map(repr, shared["children"]))
        shared[self.result_key] = None
        if not shared["_waiting"] and shared["parent"] is not None:
            node.send(shared["parent"], ("agg", shared["_acc"]))
            shared["_sent"] = True
        else:
            shared["_sent"] = False

    def on_round(self, node: Node, r: int, inbox: list[Received], shared: dict) -> None:
        for msg in inbox:
            if msg.payload[0] != "agg":
                continue
            shared["_acc"] = self.combine(shared["_acc"], msg.payload[1])
            shared["_waiting"].discard(repr(msg.sender))
        if not shared["_waiting"] and not shared["_sent"]:
            if shared["parent"] is not None:
                node.send(shared["parent"], ("agg", shared["_acc"]))
            shared["_sent"] = True

    def on_exit(self, node: Node, shared: dict) -> None:
        if shared["parent"] is None:
            shared[self.result_key] = shared["_acc"]
        for key in ("_acc", "_waiting", "_sent"):
            shared.pop(key, None)

    def idle_until(self, node: Node, round_in_phase: int, shared: dict) -> int | None:
        # Aggregation is delivery-driven.  (The root flips its private
        # ``_sent`` flag on an empty round, but never sends -- externally a
        # no-op, so skipping is safe.)
        return None


class BroadcastPhase(Phase):
    """Push the root's ``shared[value_key]`` down the BFS tree to everyone.

    ``chunks`` bounds how many ``B``-bit rounds the payload needs per hop
    (the simulator transmits oversized payloads over ``ceil(bits/B)``
    consecutive rounds); the phase duration scales accordingly.
    """

    name = "broadcast"

    def __init__(self, value_key: str, chunks: int = 1):
        self.value_key = value_key
        self.chunks = max(1, chunks)

    def duration(self, node: Node, shared: dict) -> int:
        return self.chunks * (shared["D"] + 1) + 2

    def on_enter(self, node: Node, shared: dict) -> None:
        if shared["parent"] is None:
            send_each(node, shared["children"], ("bc", shared[self.value_key]))

    def on_round(self, node: Node, r: int, inbox: list[Received], shared: dict) -> None:
        for msg in inbox:
            if msg.payload[0] != "bc":
                continue
            shared[self.value_key] = msg.payload[1]
            for child in shared["children"]:
                node.send(child, msg.payload, msg.bits)

    def idle_until(self, node: Node, round_in_phase: int, shared: dict) -> int | None:
        return None  # pure store-and-forward on delivery


class PipelinedUpcastPhase(Phase):
    """Pipeline a set of items to the root in ``D + K`` rounds [Pel00].

    Each node starts with ``shared[items_key]`` (a list); every round it
    forwards one still-unsent item to its parent (smallest first, by repr,
    for determinism).  ``capacity_key`` names a shared value bounding the
    total item count ``K``; an optional ``reducer`` drops dominated items at
    intermediate nodes (e.g. keep only the minimum-weight edge per fragment),
    which is how the Kutten-Peleg phase keeps the pipeline short.

    The queue holds ``(payload, bits)`` pairs: a node's own item is sized
    when it is sent, and a received item is forwarded with ``bits=msg.bits``,
    so each item is sized once, at the node it starts from.  The reducer
    runs once on entry and then only on rounds that delivered items.  Both
    are exact under the reducer contract: a reducer returns items from its
    input (the same objects, so their sizes carry over), and its output is
    reduced -- sorted by repr, or with its head removed, it is a list the
    reducer returns unchanged.  A round without deliveries only pops the
    head, so its queue is still reduced.
    """

    name = "pipelined-upcast"

    def __init__(self, items_key: str, result_key: str, capacity_key: str, reducer=None):
        self.items_key = items_key
        self.result_key = result_key
        self.capacity_key = capacity_key
        self.reducer = reducer

    def duration(self, node: Node, shared: dict) -> int:
        return shared["D"] + int(shared[self.capacity_key]) + 2

    def on_enter(self, node: Node, shared: dict) -> None:
        items = list(shared.get(self.items_key) or [])
        if self.reducer is not None:
            items = self.reducer(items)
        shared["_queue"] = [(("item", item), None) for item in sorted(items, key=repr)]
        shared[self.result_key] = None

    def _reduce(self, queue: list) -> list:
        """The reducer over the queued items, each kept with its payload."""
        entries = {id(payload[1]): (payload, bits) for payload, bits in queue}
        return [entries[id(item)] for item in self.reducer([payload[1] for payload, _ in queue])]

    def on_round(self, node: Node, r: int, inbox: list[Received], shared: dict) -> None:
        queue = shared["_queue"]
        delivered = False
        for msg in inbox:
            if msg.payload[0] == "item":
                queue.append((msg.payload, msg.bits))
                delivered = True
        if delivered and self.reducer is not None:
            queue = shared["_queue"] = self._reduce(queue)
        if shared["parent"] is not None and queue:
            payload, bits = queue.pop(0)
            node.send(shared["parent"], payload, bits)

    def on_exit(self, node: Node, shared: dict) -> None:
        queue = shared.pop("_queue")
        if shared["parent"] is None:
            shared[self.result_key] = [payload[1] for payload, _ in queue]
        elif queue:
            raise RuntimeError(
                f"upcast capacity too small: {len(queue)} items stranded at {node.id!r}"
            )

    def idle_until(self, node: Node, round_in_phase: int, shared: dict) -> int | None:
        # Forwarding one item per round is spontaneous while the local queue
        # is non-empty; a drained queue refills only on delivery.
        if shared.get("_queue") and shared.get("parent") is not None:
            return round_in_phase + 1
        return None


class PipelinedDowncastPhase(Phase):
    """Pipeline the root's item list to every node in ``D + K`` rounds."""

    name = "pipelined-downcast"

    def __init__(self, items_key: str, capacity_key: str):
        self.items_key = items_key
        self.capacity_key = capacity_key

    def duration(self, node: Node, shared: dict) -> int:
        return shared["D"] + int(shared[self.capacity_key]) + 2

    def on_enter(self, node: Node, shared: dict) -> None:
        if shared["parent"] is None:
            shared["_down_queue"] = list(shared.get(self.items_key) or [])
            shared[self.items_key] = list(shared["_down_queue"])
        else:
            shared["_down_queue"] = []
            shared[self.items_key] = []

    def on_round(self, node: Node, r: int, inbox: list[Received], shared: dict) -> None:
        for msg in inbox:
            if msg.payload[0] == "item":
                shared["_down_queue"].append(msg.payload[1])
                shared[self.items_key].append(msg.payload[1])
        if shared["_down_queue"] and shared["children"]:
            send_each(node, shared["children"], ("item", shared["_down_queue"].pop(0)))
        elif shared["_down_queue"]:
            shared["_down_queue"].clear()

    def on_exit(self, node: Node, shared: dict) -> None:
        leftover = shared.pop("_down_queue", None)
        # The root drains one item per round; a nonempty queue at phase end
        # means the capacity under-estimated the item count, and items still
        # in transit would be lost -- fail loudly instead.
        if shared["parent"] is None and shared["children"] and leftover:
            raise RuntimeError(
                f"downcast capacity too small: {len(leftover)} items undelivered at root"
            )

    def idle_until(self, node: Node, round_in_phase: int, shared: dict) -> int | None:
        # Active while the local queue drains (root seeds it in on_enter);
        # otherwise items arrive only by delivery.
        if shared.get("_down_queue"):
            return round_in_phase + 1
        return None


class LocalComputationPhase(Phase):
    """A zero-round phase running a local function at every node."""

    name = "local"

    def __init__(self, fn):
        self.fn = fn

    def duration(self, node: Node, shared: dict) -> int:
        return 0

    def on_enter(self, node: Node, shared: dict) -> None:
        self.fn(node, shared)
