"""The per-neighbour staged label flood the tests compare Elkin's flood with.

:class:`ReferenceLabelFloodProgram` is
:class:`repro.algorithms.elkin.StagedLabelFloodProgram` written the plain
way: every round it compares labels by ``repr``, looks up each neighbour's
activation round and decides, neighbour by neighbour, whether to announce,
and it rebuilds its output whether or not the label changed.  It is slow by
design and shares no step code with the flood under test, which must match
it run for run: rounds, bits, the per-round bit trace and every node's
adoption log.  The cross-engine equivalence suite runs the flood under test
on both sides, so it cannot see a change inside the program; this one can.
"""

from __future__ import annotations

from typing import Hashable

from repro.congest.message import Received
from repro.congest.node import Node, NodeProgram


class ReferenceLabelFloodProgram(NodeProgram):
    """Minimum-label flooding with per-class edge activation, one neighbour
    at a time.  Same inputs, outputs and wake-ups as the flood under test."""

    def __init__(self):
        self.label: Hashable = None
        self.log: list[tuple[int, Hashable]] = []
        self.edge_classes: dict[str, int] = {}

    def on_start(self, node: Node) -> None:
        inputs = node.input or {}
        self.label = node.id
        self.edge_classes = dict(inputs.get("edge_classes", {}))
        self.deadline = int(inputs.get("n_classes", 1)) + int(inputs.get("tail", node.n_nodes))
        self._activations = sorted(set(self.edge_classes.values()))
        self.log = [(0, self.label)]
        node.output = (self.label, tuple(self.log))

    def on_round(self, node: Node, round_no: int, inbox: list[Received]) -> None:
        improved = False
        for msg in inbox:
            _, their_label = msg.payload
            if repr(their_label) < repr(self.label):
                self.label = their_label
                improved = True
        if improved:
            self.log.append((round_no, self.label))
        # Announce over every *active* edge on activation or on change.
        announcement = ("lbl", self.label)
        for neighbor in node.neighbors:
            activation = self.edge_classes.get(repr(neighbor), 1)
            if round_no == activation or (improved and round_no >= activation):
                node.send(neighbor, announcement)
        node.output = (self.label, tuple(self.log))
        if round_no >= self.deadline:
            node.halt(node.output)

    def next_active_round(self, node: Node, after_round: int) -> int | None:
        for activation in self._activations:
            if activation > after_round:
                return min(activation, self.deadline)
        return self.deadline if self.deadline > after_round else None
