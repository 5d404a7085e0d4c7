"""Distributed Set Disjointness -- Example 1.1, executably.

Two far-apart nodes ``u`` and ``v`` in a Theta(log n)-diameter network hold
``b``-bit strings; the network must decide whether ``<x, y> = 0``.

- **Classical** (:class:`ClassicalDisjointnessProgram`): ``u`` pipelines its
  string toward ``v`` in ``B``-bit chunks along shortest paths;
  ``~ dist(u,v) + ceil(b/B)`` rounds, matching the Omega~(b/B) bound from
  Disjointness communication complexity [DHK+12, Lemma 4.1].

- **Quantum** (:class:`QuantumDisjointnessProgram`): the Grover/[AA05]
  protocol.  Each oracle query ferries an ``O(log b)``-qubit index register
  from ``u`` to ``v`` and back (the registered entanglement makes this 2
  classical bits per qubit; we ship qubit payloads directly).  ``O(sqrt(b))``
  queries give ``~ 2 dist(u,v) sqrt(b)`` rounds -- the ``O(sqrt(b) D)``
  upper bound that *breaks* the classical simulation-theorem argument and
  forces the paper's Server-model detour.

The Grover iterations run for real on the statevector simulator, so the
answer is genuinely computed, with the known two-sided error.
"""

from __future__ import annotations

import math
import random
from typing import Hashable, Sequence

import networkx as nx

from repro.congest.message import QubitPayload, Received
from repro.congest.network import CongestNetwork, RunResult
from repro.congest.node import Node, NodeProgram
from repro.quantum.grover import grover_find_any


class ClassicalDisjointnessProgram(NodeProgram):
    """Pipeline x from u toward v in B-bit chunks, then flood the verdict.

    Inputs: ``{"role": "u"|"v"|None, "bits": tuple, "next_hop": neighbor}``
    (routing next-hops toward ``v`` are precomputed -- standard routing-table
    knowledge; computing them distributedly is a BFS, ``O(D)`` extra rounds).
    """

    def __init__(self):
        self.received_chunks: dict[int, tuple] = {}
        self.expected_chunks: int | None = None
        self.verdict: int | None = None

    def on_start(self, node: Node) -> None:
        inputs = node.input or {}
        self.role = inputs.get("role")
        if self.role == "u":
            bits = tuple(inputs["bits"])
            chunk_size = max(1, node.bandwidth - 16)  # header slack
            chunks = [
                bits[i : i + chunk_size] for i in range(0, len(bits), chunk_size)
            ]
            next_hop = inputs["next_hop"]
            for index, chunk in enumerate(chunks):
                node.send(next_hop, ("chunk", index, len(chunks), chunk))

    def on_round(self, node: Node, round_no: int, inbox: list[Received]) -> None:
        inputs = node.input or {}
        for msg in inbox:
            tag = msg.payload[0]
            if tag == "chunk":
                _, index, total, chunk = msg.payload
                if self.role == "v":
                    self.received_chunks[index] = chunk
                    self.expected_chunks = total
                else:
                    node.send(inputs["next_hop"], msg.payload, msg.bits)
            elif tag == "verdict":
                if self.verdict is None:
                    self.verdict = msg.payload[1]
                    node.broadcast(msg.payload, msg.bits)
                    node.halt(self.verdict)
        if (
            self.role == "v"
            and self.verdict is None
            and self.expected_chunks is not None
            and len(self.received_chunks) == self.expected_chunks
        ):
            x = tuple(
                bit
                for index in sorted(self.received_chunks)
                for bit in self.received_chunks[index]
            )
            y = tuple(inputs["bits"])
            self.verdict = int(all(a * b == 0 for a, b in zip(x, y)))
            node.broadcast(("verdict", self.verdict))
            node.halt(self.verdict)
        if self.verdict is not None and not node.halted:
            node.halt(self.verdict)


class QuantumDisjointnessProgram(NodeProgram):
    """Grover-based Disjointness with per-query index-register ferrying.

    The quantum state evolution is computed centrally by the harness (both
    the local and distributed executions apply identical unitaries); the
    program performs the honest *communication*: for each of the
    ``O(sqrt(b))`` oracle queries, a ``(ceil(log2 b) + 1)``-qubit payload
    travels u -> v and back.  Inputs as in the classical program, plus
    ``{"n_queries": int}`` at ``u`` (from the harness's Grover run) and the
    final verdict distributed by flooding.
    """

    def on_start(self, node: Node) -> None:
        inputs = node.input or {}
        self.role = inputs.get("role")
        self.verdict: int | None = None
        self.pending_queries = int(inputs.get("n_queries", 0)) if self.role == "u" else 0
        self.index_qubits = int(inputs.get("index_qubits", 1))
        if self.role == "u" and self.pending_queries > 0:
            node.send(inputs["next_hop"], QubitPayload(self.index_qubits + 1, tag=("query", 0)))
        elif self.role == "u":
            self._announce(node, int(inputs["local_verdict"]))

    def _announce(self, node: Node, verdict: int) -> None:
        self.verdict = verdict
        node.broadcast(("verdict", verdict))
        node.halt(verdict)

    def on_round(self, node: Node, round_no: int, inbox: list[Received]) -> None:
        inputs = node.input or {}
        for msg in inbox:
            payload = msg.payload
            if isinstance(payload, QubitPayload):
                kind, query_index = payload.tag
                if self.role == "v" and kind == "query":
                    node.send(inputs["next_hop"], QubitPayload(payload.n_qubits, tag=("reply", query_index)))
                elif self.role == "u" and kind == "reply":
                    done = query_index + 1
                    if done < self.pending_queries:
                        node.send(
                            inputs["next_hop"],
                            QubitPayload(payload.n_qubits, tag=("query", done)),
                        )
                    else:
                        self._announce(node, int(inputs["local_verdict"]))
                else:  # relay along the path
                    node.send(inputs["next_hop_" + kind], payload, msg.bits)
            elif payload[0] == "verdict":
                if self.verdict is None:
                    self.verdict = payload[1]
                    node.broadcast(payload, msg.bits)
                    node.halt(self.verdict)
        if self.verdict is not None and not node.halted:
            node.halt(self.verdict)


def _routing_tables(graph: nx.Graph, u: Hashable, v: Hashable) -> dict[Hashable, dict]:
    """Next-hops toward ``v`` (key ``next_hop`` / ``next_hop_query``) and
    toward ``u`` (``next_hop_reply``) for every node."""
    toward_v = nx.shortest_path(graph, target=v)
    toward_u = nx.shortest_path(graph, target=u)
    tables: dict[Hashable, dict] = {}
    for node in graph.nodes():
        entry: dict = {}
        if node != v:
            entry["next_hop"] = toward_v[node][1]
            entry["next_hop_query"] = toward_v[node][1]
        else:
            entry["next_hop"] = toward_u[node][1]
        if node != u:
            entry["next_hop_reply"] = toward_u[node][1]
        tables[node] = entry
    return tables


def run_classical_disjointness(
    graph: nx.Graph,
    u: Hashable,
    v: Hashable,
    x: Sequence[int],
    y: Sequence[int],
    bandwidth: int = 32,
) -> tuple[int, RunResult]:
    """Classical baseline; returns (verdict, metrics)."""
    tables = _routing_tables(graph, u, v)
    inputs = {}
    for node in graph.nodes():
        entry = dict(tables[node])
        entry["role"] = "u" if node == u else ("v" if node == v else None)
        if node == u:
            entry["bits"] = tuple(x)
        if node == v:
            entry["bits"] = tuple(y)
        inputs[node] = entry
    network = CongestNetwork(graph, ClassicalDisjointnessProgram, bandwidth=bandwidth, inputs=inputs)
    result = network.run(max_rounds=500_000)
    return int(result.unanimous_output()), result


def run_quantum_disjointness(
    graph: nx.Graph,
    u: Hashable,
    v: Hashable,
    x: Sequence[int],
    y: Sequence[int],
    bandwidth: int = 32,
    seed: int | None = 0,
) -> tuple[int, RunResult, int]:
    """Grover-based protocol; returns (verdict, metrics, n_queries).

    ``seed`` seeds Grover's measurements, which the runner draws; the node
    programs are deterministic.
    """
    b = len(x)
    rng = random.Random(seed)

    def oracle(i: int) -> bool:
        return bool(x[i] and y[i])

    witness, n_queries = grover_find_any(oracle, b, rng=rng)
    verdict = int(witness is None)

    tables = _routing_tables(graph, u, v)
    index_qubits = max(1, math.ceil(math.log2(b)))
    inputs = {}
    for node in graph.nodes():
        entry = dict(tables[node])
        entry["role"] = "u" if node == u else ("v" if node == v else None)
        entry["index_qubits"] = index_qubits
        if node == u:
            entry["n_queries"] = n_queries
            entry["local_verdict"] = verdict
        inputs[node] = entry
    network = CongestNetwork(graph, QuantumDisjointnessProgram, bandwidth=bandwidth, inputs=inputs)
    result = network.run(max_rounds=500_000)
    return int(result.unanimous_output()), result, n_queries
