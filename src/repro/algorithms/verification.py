"""The [DHK+12] distributed verification suite (Corollary 3.7's problems).

Every verifier follows the same skeleton:

1. flood minimum labels (with parity) over the relevant edge set -- the
   marked subnetwork ``M``, its complement ``N - M``, or ``M`` minus a
   special edge -- so each node learns its component and 2-colouring;
2. elect a leader and build a BFS tree over ``N`` (all edges);
3. convergecast the aggregate statistics (component count, degree
   histogram, odd-cycle flag, the component labels of ``s``/``t``);
4. the root evaluates the predicate and broadcasts the verdict.

Flooding uses a safe ``O(n)`` budget, so measured rounds are ``O(n + D)``.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

import networkx as nx

from repro.algorithms.framework import (
    BfsTreePhase,
    BroadcastPhase,
    ConvergecastPhase,
    LeaderElectionPhase,
    LocalComputationPhase,
    Phase,
    PhasedProgram,
    send_each,
)
from repro.congest.message import Received
from repro.congest.network import CongestNetwork, RunResult
from repro.congest.node import Node


class SubgraphFloodPhase(Phase):
    """Minimum-label flooding with parity over a selected edge set.

    ``edge_mode`` chooses the floodable edges per node input:
    ``"marks"`` (the subnetwork ``M``), ``"complement"`` (``N - M``) or
    ``"marks_minus_e"`` (``M`` without the input's ``special_edge``).
    Produces ``shared['comp_label']``, ``shared['parity']`` and
    ``shared['odd_cycle']`` (any same-label same-parity floodable edge).
    """

    name = "subgraph-flood"

    def __init__(self, edge_mode: str = "marks"):
        if edge_mode not in ("marks", "complement", "marks_minus_e"):
            raise ValueError(f"unknown edge mode {edge_mode!r}")
        self.edge_mode = edge_mode

    def duration(self, node: Node, shared: dict) -> int:
        return node.n_nodes + 3

    def _floodable(self, node: Node, shared: dict) -> list:
        inputs = shared["inputs"]
        marks = {repr(m) for m in inputs.get("m_neighbors", ())}
        special = inputs.get("special_edge")
        result = []
        for neighbor in node.neighbors:
            in_m = repr(neighbor) in marks
            if self.edge_mode == "complement":
                if not in_m:
                    result.append(neighbor)
                continue
            if not in_m:
                continue
            if self.edge_mode == "marks_minus_e" and special is not None:
                a, b = special
                if {repr(node.id), repr(neighbor)} == {repr(a), repr(b)}:
                    continue
            result.append(neighbor)
        return result

    def on_enter(self, node: Node, shared: dict) -> None:
        shared["comp_label"] = node.id
        shared["parity"] = 0
        shared["odd_cycle"] = False
        shared["_flood_edges"] = self._floodable(node, shared)
        send_each(node, shared["_flood_edges"], ("flood", node.id, 0))

    def on_round(self, node: Node, r: int, inbox: list[Received], shared: dict) -> None:
        n = node.n_nodes
        improved = False
        for msg in inbox:
            tag = msg.payload[0]
            if tag == "flood":
                _, their_label, their_parity = msg.payload
                if repr(their_label) < repr(shared["comp_label"]):
                    shared["comp_label"] = their_label
                    shared["parity"] = their_parity ^ 1
                    improved = True
            elif tag == "check":
                _, their_label, their_parity = msg.payload
                if (
                    repr(their_label) == repr(shared["comp_label"])
                    and their_parity == shared["parity"]
                ):
                    shared["odd_cycle"] = True
        if improved and r < n:
            send_each(
                node, shared["_flood_edges"], ("flood", shared["comp_label"], shared["parity"])
            )
        if r == n + 1:
            # Labels are stable; exchange (label, parity) for the odd-cycle
            # (bipartiteness) check across every floodable edge.
            send_each(
                node, shared["_flood_edges"], ("check", shared["comp_label"], shared["parity"])
            )

    def on_exit(self, node: Node, shared: dict) -> None:
        shared["flood_degree"] = len(shared.pop("_flood_edges"))

    def idle_until(self, node: Node, round_in_phase: int, shared: dict) -> int | None:
        # Delivery-driven flooding, except the spontaneous (label, parity)
        # exchange at round n+1.
        n = node.n_nodes
        return n + 1 if round_in_phase < n + 1 else None


def _statistics(node: Node, shared: dict) -> tuple:
    """Per-node contribution to the aggregate statistics tuple."""
    inputs = shared["inputs"]
    degree = shared["flood_degree"]
    is_root_of_component = 1 if repr(shared["comp_label"]) == repr(node.id) else 0
    label_s = shared["comp_label"] if inputs.get("is_s") else None
    label_t = shared["comp_label"] if inputs.get("is_t") else None
    return (
        is_root_of_component,  # components
        degree,  # sum of degrees = 2 |E|
        1 if degree == 0 else 0,  # isolated nodes
        1 if degree == 1 else 0,  # endpoints
        1 if degree > 2 else 0,  # high-degree nodes
        1 if shared["odd_cycle"] else 0,  # odd-cycle witnesses
        label_s,
        label_t,
    )


def _combine_statistics(a: tuple, b: tuple) -> tuple:
    return (
        a[0] + b[0],
        a[1] + b[1],
        a[2] + b[2],
        a[3] + b[3],
        a[4] + b[4],
        max(a[5], b[5]),
        a[6] if a[6] is not None else b[6],
        a[7] if a[7] is not None else b[7],
    )


class Statistics:
    """Decoded aggregate statistics at the root."""

    def __init__(self, raw: tuple, n: int):
        self.components = raw[0]
        self.edge_count = raw[1] // 2
        self.isolated = raw[2]
        self.endpoints = raw[3]
        self.high_degree = raw[4]
        self.has_odd_cycle = bool(raw[5])
        self.label_s = raw[6]
        self.label_t = raw[7]
        self.n = n


Verdict = Callable[[Statistics], bool]


def verification_program_factory(edge_mode: str, verdict: Verdict) -> Callable[[], PhasedProgram]:
    """Build the standard 4-stage verification program."""

    def decide(node: Node, shared: dict) -> None:
        if shared["parent"] is None:
            stats = Statistics(shared["stats"], node.n_nodes)
            shared["verdict"] = bool(verdict(stats))
        else:
            shared["verdict"] = None

    def finish(node: Node, shared: dict) -> None:
        shared["output"] = shared["verdict"]

    def factory() -> PhasedProgram:
        return PhasedProgram(
            [
                SubgraphFloodPhase(edge_mode),
                LeaderElectionPhase(),
                BfsTreePhase(),
                ConvergecastPhase("stats", _statistics, _combine_statistics),
                LocalComputationPhase(decide),
                BroadcastPhase("verdict"),
                LocalComputationPhase(finish),
            ]
        )

    return factory


# -- the verdicts of Appendix A.2 ---------------------------------------------


def connectivity_verdict(s: Statistics) -> bool:
    return s.components == 1


def spanning_connected_subgraph_verdict(s: Statistics) -> bool:
    return s.components == 1 and s.isolated == 0


def spanning_tree_verdict(s: Statistics) -> bool:
    return s.components == 1 and s.edge_count == s.n - 1


def hamiltonian_cycle_verdict(s: Statistics) -> bool:
    return (
        s.components == 1
        and s.edge_count == s.n
        and s.isolated == 0
        and s.endpoints == 0
        and s.high_degree == 0
    )


def simple_path_verdict(s: Statistics) -> bool:
    contains_cycle = s.edge_count > s.n - s.components
    nontrivial_components = s.components - s.isolated
    return (
        s.high_degree == 0
        and s.endpoints == 2
        and not contains_cycle
        and nontrivial_components == 1
    )


def cycle_containment_verdict(s: Statistics) -> bool:
    return s.edge_count > s.n - s.components


def bipartiteness_verdict(s: Statistics) -> bool:
    return not s.has_odd_cycle


def st_connectivity_verdict(s: Statistics) -> bool:
    return s.label_s is not None and repr(s.label_s) == repr(s.label_t)


def cut_verdict(s: Statistics) -> bool:
    # Flooding ran on the complement N - M: M is a cut iff it disconnects N.
    return s.components > 1


def st_cut_verdict(s: Statistics) -> bool:
    return repr(s.label_s) != repr(s.label_t)


def e_cycle_verdict(s: Statistics) -> bool:
    # Flooding ran on M minus e: a cycle through e exists iff e's endpoints
    # (tagged as s and t) remain connected.
    return s.label_s is not None and repr(s.label_s) == repr(s.label_t)


def edge_on_all_paths_verdict(s: Statistics) -> bool:
    # Flooding ran on M minus e: e lies on all u-v paths iff u and v are
    # separated without it.
    return repr(s.label_s) != repr(s.label_t)


#: problem name -> (edge mode, verdict)
VERIFIERS: dict[str, tuple[str, Verdict]] = {
    "connectivity": ("marks", connectivity_verdict),
    "connected spanning subgraph": ("marks", spanning_connected_subgraph_verdict),
    "spanning tree": ("marks", spanning_tree_verdict),
    "hamiltonian cycle": ("marks", hamiltonian_cycle_verdict),
    "simple path": ("marks", simple_path_verdict),
    "cycle containment": ("marks", cycle_containment_verdict),
    "bipartiteness": ("marks", bipartiteness_verdict),
    "s-t connectivity": ("marks", st_connectivity_verdict),
    "cut": ("complement", cut_verdict),
    "s-t cut": ("complement", st_cut_verdict),
    "e-cycle containment": ("marks_minus_e", e_cycle_verdict),
    "edge on all paths": ("marks_minus_e", edge_on_all_paths_verdict),
}


def build_inputs(
    graph: nx.Graph,
    m_edges: list[tuple[Hashable, Hashable]],
    s: Hashable | None = None,
    t: Hashable | None = None,
    special_edge: tuple[Hashable, Hashable] | None = None,
) -> dict[Hashable, dict]:
    """Per-node inputs: incident marks, diameter bound, role flags."""
    d = nx.diameter(graph)
    m = nx.Graph()
    m.add_nodes_from(graph.nodes())
    m.add_edges_from(m_edges)
    inputs = {}
    for node in graph.nodes():
        inputs[node] = {
            "m_neighbors": frozenset(m.neighbors(node)),
            "diameter_bound": d,
            "is_s": node == s,
            "is_t": node == t,
        }
        if special_edge is not None:
            inputs[node]["special_edge"] = special_edge
    return inputs


def run_verification(
    problem: str,
    graph: nx.Graph,
    m_edges: list[tuple[Hashable, Hashable]],
    bandwidth: int = 64,
    **input_kwargs: Any,
) -> tuple[bool, RunResult]:
    """Run a named verifier; returns (verdict, run metrics)."""
    if problem not in VERIFIERS:
        raise KeyError(f"unknown verification problem {problem!r}")
    edge_mode, verdict = VERIFIERS[problem]
    if edge_mode == "marks_minus_e":
        special = input_kwargs.get("special_edge")
        if special is None:
            raise ValueError(f"{problem} needs special_edge=")
        input_kwargs.setdefault("s", special[0])
        input_kwargs.setdefault("t", special[1])
    inputs = build_inputs(graph, m_edges, **input_kwargs)
    network = CongestNetwork(
        graph,
        verification_program_factory(edge_mode, verdict),
        bandwidth=bandwidth,
        inputs=inputs,
    )
    result = network.run()
    answer = bool(result.unanimous_output())
    if problem == "e-cycle containment":
        # A cycle through e needs e itself in M -- a local O(1) check at the
        # endpoint, folded into the verdict here.
        special = frozenset(input_kwargs["special_edge"])
        answer = answer and any(frozenset(e) == special for e in m_edges)
    return answer, result
