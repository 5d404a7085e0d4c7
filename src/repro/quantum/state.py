"""Dense statevector simulator.

Qubits are indexed ``0..n-1``; qubit 0 is the most significant bit of the
computational-basis index (big-endian), so ``|q0 q1 ... q_{n-1}>`` has index
``q0 * 2^{n-1} + ... + q_{n-1}``.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np


class QuantumState:
    """An ``n``-qubit pure state with gate application and measurement."""

    def __init__(self, n_qubits: int, vector: np.ndarray | None = None):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        dim = 1 << n_qubits
        if vector is None:
            self.vector = np.zeros(dim, dtype=complex)
            self.vector[0] = 1.0
        else:
            vector = np.asarray(vector, dtype=complex)
            if vector.shape != (dim,):
                raise ValueError(f"vector must have shape ({dim},)")
            norm = np.linalg.norm(vector)
            if not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-9):
                raise ValueError("state vector must be normalised")
            self.vector = vector.copy()

    def copy(self) -> "QuantumState":
        return QuantumState(self.n_qubits, self.vector)

    # -- gate application ---------------------------------------------------

    def apply(self, gate: np.ndarray, qubits: Sequence[int]) -> "QuantumState":
        """Apply a ``2^k x 2^k`` unitary to the listed qubits, in place."""
        qubits = list(qubits)
        k = len(qubits)
        gate = np.asarray(gate, dtype=complex)
        if gate.shape != (1 << k, 1 << k):
            raise ValueError("gate dimension does not match qubit count")
        if len(set(qubits)) != k:
            raise ValueError("duplicate qubit indices")
        if any(q < 0 or q >= self.n_qubits for q in qubits):
            raise ValueError("qubit index out of range")
        # Reshape into a rank-n tensor and contract on the target axes.
        tensor = self.vector.reshape([2] * self.n_qubits)
        gate_tensor = gate.reshape([2] * (2 * k))
        tensor = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), qubits))
        # tensordot puts contracted axes first: move them back into place.
        rest = [q for q in range(self.n_qubits) if q not in qubits]
        perm = [0] * self.n_qubits
        for out_pos, q in enumerate(qubits + rest):
            perm[q] = out_pos
        tensor = tensor.transpose(perm)
        self.vector = tensor.reshape(-1)
        return self

    # -- measurement --------------------------------------------------------

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Outcome distribution over the listed qubits (all, by default)."""
        probs = np.abs(self.vector) ** 2
        if qubits is None:
            return probs
        qubits = list(qubits)
        tensor = probs.reshape([2] * self.n_qubits)
        other = tuple(q for q in range(self.n_qubits) if q not in qubits)
        marginal = tensor.sum(axis=other) if other else tensor
        # marginal axes are currently ordered by qubit index; reorder to the
        # requested order.
        current = sorted(qubits)
        perm = [current.index(q) for q in qubits]
        return marginal.transpose(perm).reshape(-1)

    def measure(self, qubits: Sequence[int], rng: random.Random) -> tuple[int, ...]:
        """Projective measurement of the listed qubits; collapses the state."""
        qubits = list(qubits)
        probs = self.probabilities(qubits)
        outcome_index = rng.choices(range(len(probs)), weights=probs.tolist())[0]
        outcome = tuple((outcome_index >> (len(qubits) - 1 - i)) & 1 for i in range(len(qubits)))
        self._collapse(qubits, outcome)
        return outcome

    def _collapse(self, qubits: Sequence[int], outcome: Sequence[int]) -> None:
        tensor = self.vector.reshape([2] * self.n_qubits)
        index: list[slice | int] = [slice(None)] * self.n_qubits
        keep = tensor.copy()
        for q, bit in zip(qubits, outcome):
            index[q] = 1 - bit
            keep[tuple(index)] = 0.0
            index[q] = slice(None)
        norm = np.linalg.norm(keep)
        if norm < 1e-12:
            raise ValueError("measurement outcome has zero probability")
        self.vector = (keep / norm).reshape(-1)

    # -- analysis -----------------------------------------------------------

    def fidelity(self, other: "QuantumState") -> float:
        """``|<psi|phi>|^2`` between two pure states."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("states have different sizes")
        return float(abs(np.vdot(self.vector, other.vector)) ** 2)

    def tensor(self, other: "QuantumState") -> "QuantumState":
        """The joint state ``self (x) other`` on ``n + m`` qubits."""
        return QuantumState(self.n_qubits + other.n_qubits, np.kron(self.vector, other.vector))
