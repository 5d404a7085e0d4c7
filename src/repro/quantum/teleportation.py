"""Quantum teleportation [NC04].

Teleportation underpins two steps of the paper: Lemma 3.2 assumes Carol and
David send *2 classical bits* per qubit to the server (the server dispenses
the entanglement for free), and the Quantum Simulation Theorem's accounting
treats qubit channels and (classical + EPR) channels interchangeably.

This module implements the protocol end-to-end on the statevector simulator;
it returns the two classical bits it sends.
"""

from __future__ import annotations

import random

import numpy as np

from repro.quantum.gates import CNOT, HADAMARD, PAULI_X, PAULI_Z
from repro.quantum.state import QuantumState


def teleport(
    message: QuantumState, rng: random.Random
) -> tuple[QuantumState, tuple[int, int]]:
    """Teleport a single-qubit state from Alice to Bob.

    Builds the 3-qubit system (message, Alice's EPR half, Bob's EPR half),
    runs the textbook circuit, and returns Bob's received qubit together with
    the two classical bits Alice transmitted.

    The returned state always has fidelity 1 with the input (tested as a
    property over random states).
    """
    if message.n_qubits != 1:
        raise ValueError("teleport expects a single-qubit message")

    # Qubits: 0 = message, 1 = Alice's EPR half, 2 = Bob's EPR half.
    system = message.tensor(QuantumState(2))
    system.apply(HADAMARD, [1])
    system.apply(CNOT, [1, 2])

    # Alice's Bell measurement on (0, 1).
    system.apply(CNOT, [0, 1])
    system.apply(HADAMARD, [0])
    m0, m1 = system.measure([0, 1], rng=rng)

    # Bob's corrections conditioned on the 2 classical bits.
    if m1 == 1:
        system.apply(PAULI_X, [2])
    if m0 == 1:
        system.apply(PAULI_Z, [2])

    # Extract Bob's qubit: measured qubits are in a definite basis state, so
    # the remaining qubit's state is the appropriate slice.
    tensor = system.vector.reshape(2, 2, 2)
    bob_vector = tensor[m0, m1, :]
    bob_vector = bob_vector / np.linalg.norm(bob_vector)
    return QuantumState(1, bob_vector), (m0, m1)
