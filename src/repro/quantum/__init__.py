"""Quantum computation substrate.

A dense statevector simulator with the phenomena the paper relies on:
teleportation (the Lemma 3.2 and Theorem 3.5 proofs replace qubits with
2 classical bits + entanglement), Grover search (the [AA05]-style
Disjointness speedup of Example 1.1), the Holevo bound (why entanglement
alone cannot replace communication, Section 1) and the qubit count of
quantum fingerprinting for Equality.
"""

from repro.quantum.fingerprint import FingerprintEquality
from repro.quantum.gates import CNOT, HADAMARD, PAULI_X, PAULI_Z
from repro.quantum.grover import grover_search, optimal_grover_iterations
from repro.quantum.holevo import holevo_bound, von_neumann_entropy
from repro.quantum.state import QuantumState
from repro.quantum.teleportation import teleport

__all__ = [
    "QuantumState",
    "HADAMARD",
    "PAULI_X",
    "PAULI_Z",
    "CNOT",
    "teleport",
    "FingerprintEquality",
    "grover_search",
    "optimal_grover_iterations",
    "holevo_bound",
    "von_neumann_entropy",
]
