"""Tests for the Quantum Simulation Theorem machinery (Theorem 3.5)."""

import networkx as nx
import pytest

from repro.congest.node import Node, NodeProgram
from repro.core.server_model import CAROL, DAVID, SERVER
from repro.core.simulation_theorem import (
    OwnershipSchedule,
    SimulationTheoremNetwork,
    theorem_parameters,
)
from repro.experiments.scenarios import _ChatterProgram
from repro.graphs.generators import matching_pair_for_cycles


class EdgeChatterProgram(NodeProgram):
    """A worst-case-traffic program: every node messages every neighbour
    every round for a fixed horizon.  Stresses the accounting maximally."""

    ROUNDS = 5

    def on_start(self, node: Node) -> None:
        node.broadcast(("r", 0), bits=8)

    def on_round(self, node: Node, round_no: int, inbox) -> None:
        if round_no >= self.ROUNDS:
            node.halt(round_no)
            return
        node.broadcast(("r", round_no), bits=8)


class TestOwnershipSchedule:
    def test_initial_regions(self):
        schedule = OwnershipSchedule(3, 17)
        assert schedule.owner(("v", 1, 1), 0) == CAROL
        assert schedule.owner(("v", 2, 17), 0) == DAVID
        assert schedule.owner(("v", 1, 9), 0) == SERVER
        assert schedule.owner(("h", 1, 1), 0) == CAROL

    def test_regions_grow(self):
        schedule = OwnershipSchedule(3, 17)
        assert schedule.owner(("v", 1, 3), 1) == SERVER
        assert schedule.owner(("v", 1, 3), 2) == CAROL
        assert schedule.owner(("v", 1, 15), 2) == DAVID

    def test_partition(self):
        net = SimulationTheoremNetwork(2, 9)
        for t in (0, 1, 2):
            owners = [net.schedule.owner(node, t) for node in net.graph.nodes()]
            assert set(owners) == {CAROL, DAVID, SERVER}

    def test_horizon(self):
        assert OwnershipSchedule(3, 17).valid_horizon() == 6


class TestInputEmbedding:
    def test_observation_8_1_hamiltonian(self):
        net = SimulationTheoremNetwork(5, 9)  # Gamma' = 5 + 3 = 8
        carol, david = matching_pair_for_cycles(net.input_graph_size, 1, seed=0)
        assert net.check_observation_8_1(carol, david)

    def test_observation_8_1_multi_cycle(self):
        net = SimulationTheoremNetwork(5, 9)
        carol, david = matching_pair_for_cycles(net.input_graph_size, 2, seed=1)
        assert net.check_observation_8_1(carol, david)
        g = net.input_graph(net.input_graph_size, carol, david)
        assert nx.number_connected_components(g) == 2

    def test_embedding_marks_paths_and_matchings(self):
        net = SimulationTheoremNetwork(5, 9)
        carol, david = matching_pair_for_cycles(net.input_graph_size, 1, seed=2)
        m = net.embed_matchings(carol, david)
        assert m.has_edge(("v", 1, 1), ("v", 1, 2))  # path edges in M
        # Cross edges are not in M.
        assert not m.has_edge(("h", 1, 1), ("v", 1, 1)) or (("h", 1, 1), ("v", 1, 1)) in m.edges()
        # Exactly Gamma' matching edges on each side.
        left_edges = [e for e in m.edges() if e[0][2] == 1 and e[1][2] == 1 and (e[0][0] == "v" or e[0][0] == "h")]
        assert len(left_edges) >= net.input_graph_size // 2


class TestSimulationAccounting:
    def test_per_round_bound_holds(self):
        # Theorem 3.5's heart: Carol + David pay at most 6 k B per round
        # even under all-edges-every-round traffic.
        net = SimulationTheoremNetwork(4, 17)
        accounting = net.simulate(EdgeChatterProgram, bandwidth=8)
        assert accounting.rounds <= net.schedule.valid_horizon()
        for round_cost in accounting.per_round_cost:
            assert round_cost <= accounting.per_round_bound
        assert accounting.cost <= accounting.total_bound

    @pytest.mark.parametrize("length, worst_round", [(9, 48), (17, 64), (33, 80), (65, 96)])
    def test_budget_and_worst_round_are_pinned(self, length, worst_round):
        # ``simulation-theorem``'s chatter program costs Carol and David
        # exactly 2kB in its worst round, a third of the 6kB budget, so
        # ``within_per_round_bound`` alone passes a budget up to 3x too
        # small.  Pin both sides at B = 8 (k = 3, 4, 5, 6 highways).
        net = SimulationTheoremNetwork(4, length)
        horizon = net.schedule.valid_horizon()
        accounting = net.simulate(lambda: _ChatterProgram(horizon), bandwidth=8)
        assert accounting.per_round_bound == 6 * net.n_highways * 8
        assert max(accounting.per_round_cost) == 2 * net.n_highways * 8 == worst_round

    def test_path_traffic_is_free(self):
        # A program that only talks along paths left-to-right costs Carol
        # and David nothing: region growth absorbs the wavefront.
        class RightwardWave(NodeProgram):
            def on_start(self, node: Node) -> None:
                kind, i, j = node.id
                if kind == "v" and j == 1:
                    target = (kind, i, 2)
                    if target in set(node.neighbors):
                        node.send(target, ("w",), bits=4)

            def on_round(self, node: Node, round_no: int, inbox) -> None:
                kind, i, j = node.id
                if round_no >= 3:
                    node.halt()
                    return
                for msg in inbox:
                    target = (kind, i, j + 1) if kind == "v" else None
                    if target is not None and target in set(node.neighbors):
                        node.send(target, ("w",), bits=4)

        net = SimulationTheoremNetwork(3, 17)
        accounting = net.simulate(RightwardWave, bandwidth=8)
        assert accounting.carol_bits == 0
        assert accounting.david_bits == 0

    def test_run_stops_at_the_horizon(self):
        class Staller(NodeProgram):
            def on_round(self, node: Node, round_no: int, inbox) -> None:
                if round_no > 50:
                    node.halt()

        net = SimulationTheoremNetwork(2, 9)  # horizon (9 // 2) - 2 = 2
        accounting = net.simulate(Staller, bandwidth=4)
        assert accounting.rounds == net.schedule.valid_horizon() == 2
        assert not accounting.run.halted

    def test_server_pays_bulk(self):
        net = SimulationTheoremNetwork(4, 17)
        accounting = net.simulate(EdgeChatterProgram, bandwidth=8)
        assert accounting.server_bits > accounting.cost


class TestTheoremParameters:
    def test_node_budget(self):
        params = theorem_parameters(10_000, bandwidth=16)
        assert params["node_count"] == pytest.approx(10_000, rel=0.01)

    def test_scaling(self):
        small = theorem_parameters(1_000, 8)
        large = theorem_parameters(100_000, 8)
        assert large["L"] > small["L"]
        assert large["Gamma"] > small["Gamma"]
