"""The Quantum Simulation Theorem (Theorem 3.5, Sections 8 & D).

Any distributed algorithm on the network ``N(Gamma, L)`` that runs in at most
``L/2 - 2`` rounds can be simulated by Carol, David and the Server so that
Carol and David together send only ``O(B log L)`` (qu)bits per round: the
three parties *own* growing/shrinking regions of the network

    S_C^t = { v^i_j, h^i_j : j <= t + 1 }          (Eq. 36)
    S_D^t = { v^i_j, h^i_j : j >= L - t }          (Eq. 37)
    S_S^t = everything else                        (Eq. 38)

and the only traffic a bounded party must pay for is what crosses out of its
region -- at most one ``B``-bit message per highway per round.

This module makes that bookkeeping executable: it runs a real CONGEST
algorithm on ``N``, replays the message trace against the ownership
schedule, and reports exactly what Carol and David would have transmitted.
The ``simulation-theorem`` scenario and its shape test confirm the
theorem's guarantees on live algorithms: per-round cost ``<= 6 k B`` and
total ``O(B log L x rounds)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import networkx as nx

from repro.congest.network import CongestNetwork, RunResult
from repro.congest.topology import (
    boundary_nodes,
    simulation_network,
    simulation_network_parameters,
)
from repro.core.server_model import CAROL, DAVID, SERVER

Edge = tuple[int, int]


@dataclass(frozen=True)
class OwnershipSchedule:
    """The Eq. (36)-(38) region schedule on ``N(Gamma, L)``."""

    n_paths: int
    length: int

    def owner(self, node: Hashable, t: int) -> str:
        """Which party owns ``node`` at time ``t`` (t = 0, 1, ...)."""
        kind, _index, j = node
        if kind not in ("v", "h"):
            raise ValueError(f"not a simulation-network node: {node!r}")
        if j <= t + 1:
            return CAROL
        if j >= self.length - t:
            return DAVID
        return SERVER

    def valid_horizon(self) -> int:
        """Rounds until the Carol/David regions would collide: ``L/2 - 2``."""
        return self.length // 2 - 2


@dataclass
class SimulationAccounting:
    """What the three parties paid while simulating one execution."""

    rounds: int
    carol_bits: int
    david_bits: int
    server_bits: int
    per_round_cost: list[int]
    n_highways: int
    bandwidth: int
    run: RunResult

    @property
    def cost(self) -> int:
        """Server-model cost: Carol + David only (Definition 3.1)."""
        return self.carol_bits + self.david_bits

    @property
    def per_round_bound(self) -> int:
        """The proof's bound: ``6 k B`` per round (Appendix D.2)."""
        return 6 * self.n_highways * self.bandwidth

    @property
    def total_bound(self) -> int:
        return self.per_round_bound * max(1, self.rounds)


class SimulationTheoremNetwork:
    """The network ``N(Gamma, L)`` with input embedding and simulation accounting."""

    def __init__(self, n_paths: int, length: int):
        self.length, self.n_highways = simulation_network_parameters(length)
        self.n_paths = n_paths
        self.graph = simulation_network(n_paths, self.length)
        self.schedule = OwnershipSchedule(n_paths, self.length)
        self.left = boundary_nodes(n_paths, self.length, "left")
        self.right = boundary_nodes(n_paths, self.length, "right")

    @property
    def input_graph_size(self) -> int:
        """``Gamma' = Gamma + k``: the Server-model input graph's node count."""
        return self.n_paths + self.n_highways

    # -- input embedding (Section 8, Fig. 9/13) ------------------------------

    def embed_matchings(self, carol_matching: list[Edge], david_matching: list[Edge]) -> nx.Graph:
        """Build the subnetwork ``M`` for Server-model input ``G = (U, EC u ED)``.

        Carol marks ``v^i_1 v^j_1`` iff ``u_i u_j in EC`` (locally: she knows
        only ``EC``); David marks the right column from ``ED``; the server
        marks every path and highway edge.  Cross edges (highway-to-path and
        inter-highway) are *not* in ``M``.
        """
        m = nx.Graph()
        m.add_nodes_from(self.graph.nodes())
        for i in range(1, self.n_paths + 1):
            for j in range(1, self.length):
                m.add_edge(("v", i, j), ("v", i, j + 1))
        for level in range(1, self.n_highways + 1):
            step = 1 << level
            positions = list(range(1, self.length + 1, step))
            for a in range(len(positions) - 1):
                m.add_edge(("h", level, positions[a]), ("h", level, positions[a + 1]))
        for u, v in carol_matching:
            m.add_edge(self.left[u], self.left[v])
        for u, v in david_matching:
            m.add_edge(self.right[u], self.right[v])
        return m

    @staticmethod
    def input_graph(n_nodes: int, carol_matching: list[Edge], david_matching: list[Edge]) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(n_nodes))
        g.add_edges_from(carol_matching)
        g.add_edges_from(david_matching)
        return g

    def check_observation_8_1(self, carol_matching: list[Edge], david_matching: list[Edge]) -> bool:
        """Observation 8.1: #cycles in ``G`` equals #cycles in ``M``."""
        g = self.input_graph(self.input_graph_size, carol_matching, david_matching)
        m = self.embed_matchings(carol_matching, david_matching)
        if any(d != 2 for _, d in g.degree()):
            raise ValueError("matchings must be perfect (all degrees 2 in G)")
        m_cycle_nodes = [n for n in m.nodes() if m.degree(n) > 0]
        g_cycles = nx.number_connected_components(g)
        m_cycles = nx.number_connected_components(m.subgraph(m_cycle_nodes))
        return g_cycles == m_cycles

    # -- the simulation ------------------------------------------------------

    def simulate(
        self,
        program_factory: Callable[[], Any],
        bandwidth: int = 32,
    ) -> SimulationAccounting:
        """Run a CONGEST algorithm on ``N`` and account the three-party cost.

        A message sent at round ``t`` from ``u`` to ``w`` is paid by
        ``owner(u, t)`` iff that owner is Carol or David and the message
        leaves the party's (grown) region, i.e. ``owner(w, t + 1)`` differs.
        The construction makes region growth absorb all path traffic, so
        only highway-boundary messages cost -- at most ``k`` per party per
        round, each at most ``B`` bits.

        The run stops at the horizon ``L/2 - 2``, the last round the
        theorem covers.
        """
        network = CongestNetwork(
            self.graph,
            program_factory,
            bandwidth=bandwidth,
            # The ownership replay below needs the full per-message trace.
            record_messages=True,
        )
        run = network.run(max_rounds=self.schedule.valid_horizon())
        carol = david = server = 0
        per_round = [0] * (run.rounds + 1)
        for sent_round, sender, receiver, bits in network.message_log:
            sender_owner = self.schedule.owner(sender, sent_round)
            receiver_owner = self.schedule.owner(receiver, sent_round + 1)
            if sender_owner == SERVER or sender_owner == receiver_owner:
                server += bits
                continue
            if sender_owner == CAROL:
                carol += bits
            else:
                david += bits
            if sent_round < len(per_round):
                per_round[sent_round] += bits
        return SimulationAccounting(
            rounds=run.rounds,
            carol_bits=carol,
            david_bits=david,
            server_bits=server,
            per_round_cost=per_round,
            n_highways=self.n_highways,
            bandwidth=bandwidth,
            run=run,
        )


def theorem_parameters(n: int, bandwidth: int) -> dict[str, float]:
    """The Section 9.1 parameter plumbing: ``L``, ``Gamma`` and the
    contradiction threshold for an ``n``-node instantiation."""
    log_n = math.log2(max(4, n))
    length = max(5.0, math.sqrt(n / (bandwidth * log_n)))
    gamma = max(2.0, math.sqrt(n * bandwidth * log_n))
    return {
        "L": length,
        "Gamma": gamma,
        "node_count": length * gamma,
        "horizon": length / 2 - 2,
        "per_round_cost": 6 * bandwidth * math.log2(length),
    }
