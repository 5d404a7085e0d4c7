"""Elkin-style alpha-approximate MST in ``O~(W/alpha + D)``-shaped rounds.

The paper's Fig. 3 upper-bound curve combines Elkin's ``O(W/alpha)``-round
alpha-approximation [Elk06] with the exact ``O~(sqrt(n) + D)`` algorithm.
We reproduce the *round-complexity shape* with a simplified algorithm, not
Elkin's:

1. quantise weights into ``C = ceil(W / alpha)`` classes
   ``w'(e) = ceil(w(e) / (alpha * w_min))`` -- an MST under ``w'`` is an
   ``(alpha + 1)``-approximate MST under ``w`` (each original weight ``w``
   satisfies ``w <= alpha w_min w' <= w + alpha w_min <= (1 + alpha) w``);
2. run a *staged-activation* minimum-label flood: the edges of class ``c``
   activate at round ``c``, every node continuously adopts the minimum label
   over its active edges and re-announces on change, and every node halts
   at the common deadline ``C + tail`` (the runner passes ``tail = n``).

The deviation from [Elk06]: the flood only models the round schedule.  Its
outputs are not read back.  The returned MST *weight* (the problem's
required output, Appendix A.3) is computed centrally by the runner, by
Kruskal over the quantised classes
(:func:`repro.graphs.kruskal.minimum_spanning_forest`).  On the connected
graphs the runner takes, that weight equals the standard identity

    MST_{w'} = sum_{t=1..C} (components(edges of class < t) - 1),

which is why a full deployment could compute it at the nodes: a flood
whose stage ``t`` settles leaves one label per component of the classes
below ``t``, and a final convergecast aggregates the counts (``O(D)``
extra rounds, not simulated here).
"""

from __future__ import annotations

import math
from typing import Hashable

import networkx as nx

from repro.algorithms.framework import send_each
from repro.congest.message import Received
from repro.congest.network import CongestNetwork, RunResult
from repro.congest.node import Node, NodeProgram
from repro.graphs.kruskal import minimum_spanning_forest


def quantise_weights(graph: nx.Graph, alpha: float) -> tuple[dict[frozenset, int], int]:
    """Map weights to classes ``1..C``; returns (class map, C)."""
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    weights = [data["weight"] for _, _, data in graph.edges(data=True)]
    w_min = min(weights)
    classes = {
        frozenset((u, v)): max(1, math.ceil(data["weight"] / (alpha * w_min)))
        for u, v, data in graph.edges(data=True)
    }
    return classes, max(classes.values())


class StagedLabelFloodProgram(NodeProgram):
    """Minimum-label flooding with per-class edge activation.

    Node input: ``{"edge_classes": {neighbor: class}, "n_classes": C,
    "tail": T}``.  ``C`` and the convergence tail ``T`` (a diameter-flavoured
    bound) are common knowledge -- every node knows ``W``, ``alpha`` and
    ``n`` -- so all nodes halt together at round ``C + T``, the honest
    deterministic round bound of the algorithm (local termination detection
    earlier than the last weight class is impossible anyway).

    Output: ``(final label, adoption log)``; the log records
    ``(stage, label)`` pairs.
    """

    def __init__(self):
        self.label: Hashable = None
        self.log: list[tuple[int, Hashable]] = []

    def on_start(self, node: Node) -> None:
        inputs = node.input or {}
        self.label = node.id
        self._label_repr = repr(self.label)
        edge_classes = inputs.get("edge_classes", {})
        self.deadline = int(inputs.get("n_classes", 1)) + int(inputs.get("tail", node.n_nodes))
        # Each neighbour's activation round, and the neighbours grouped by
        # it, both in ``node.neighbors`` order.  The runner takes no fault
        # plan, so the neighbour list cannot change during a run.
        self._activation = [(nb, edge_classes.get(repr(nb), 1)) for nb in node.neighbors]
        self._groups: dict[int, list[Hashable]] = {}
        for neighbor, activation in self._activation:
            self._groups.setdefault(activation, []).append(neighbor)
        # Spontaneous rounds: each incident edge's activation round, plus
        # the common halting deadline.  Everything else is delivery-driven,
        # which is what makes the event engine skip the long quiet stretch
        # between the last local activation and the deadline.
        self._activations = sorted(set(edge_classes.values()))
        self.log = [(0, self.label)]
        node.output = (self.label, tuple(self.log))

    def on_round(self, node: Node, round_no: int, inbox: list[Received]) -> None:
        improved = False
        for msg in inbox:
            their_label = msg.payload[1]
            their_repr = repr(their_label)
            if their_repr < self._label_repr:
                self.label, self._label_repr = their_label, their_repr
                improved = True
        # Announce over every *active* edge on change, else over the edges
        # that activate this round.
        if improved:
            self.log.append((round_no, self.label))
            node.output = (self.label, tuple(self.log))
            receivers = [nb for nb, activation in self._activation if activation <= round_no]
        else:
            receivers = self._groups.get(round_no, ())
        send_each(node, receivers, ("lbl", self.label))
        if round_no >= self.deadline:
            node.halt(node.output)

    def next_active_round(self, node: Node, after_round: int) -> int | None:
        for activation in self._activations:
            if activation > after_round:
                return min(activation, self.deadline)
        return self.deadline if self.deadline > after_round else None


def run_elkin_approx_mst(
    graph: nx.Graph,
    alpha: float,
    bandwidth: int = 64,
    engine: str = "event",
) -> tuple[float, RunResult]:
    """Run the staged flood; returns (approximate MST weight, metrics).

    The returned weight is the exact MST weight of the quantised instance,
    de-quantised -- guaranteed within a factor ``(1 + alpha)`` of the true
    MST weight.
    """
    classes, n_classes = quantise_weights(graph, alpha)
    weights = [data["weight"] for _, _, data in graph.edges(data=True)]
    w_min = min(weights)
    n = graph.number_of_nodes()
    inputs = {
        node: {
            "edge_classes": {
                repr(neighbor): classes[frozenset((node, neighbor))]
                for neighbor in graph.neighbors(node)
            },
            "n_classes": n_classes,
            "tail": n,  # safe convergence tail; O(D') on benign workloads
        }
        for node in graph.nodes()
    }
    network = CongestNetwork(
        graph, StagedLabelFloodProgram, bandwidth=bandwidth, inputs=inputs, engine=engine
    )
    result = network.run(max_rounds=200_000)

    mst_weight_quantised, _ = minimum_spanning_forest(
        (classes[frozenset((u, v))], u, v) for u, v in graph.edges()
    )
    return mst_weight_quantised * alpha * w_min, result
