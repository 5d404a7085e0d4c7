"""Tests for the statevector simulator and gate library."""

import random

import pytest

np = pytest.importorskip("numpy")  # whole module is linear-algebra-bound

from repro.quantum.gates import CNOT, HADAMARD, PAULI_X, PAULI_Z
from repro.quantum.state import QuantumState

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def _basis(bits):
    """The computational-basis state ``|b0 b1 ...>``."""
    vector = np.zeros(1 << len(bits), dtype=complex)
    vector[int("".join(map(str, bits)), 2)] = 1.0
    return QuantumState(len(bits), vector)


def _amplitude(state, bits):
    return state.vector[int("".join(map(str, bits)), 2)]


class TestGates:
    def test_all_gates_unitary(self):
        for gate in (PAULI_X, PAULI_Z, HADAMARD, CNOT):
            assert np.allclose(gate @ gate.conj().T, np.eye(len(gate)))

    def test_hadamard_squares_to_identity(self):
        assert np.allclose(HADAMARD @ HADAMARD, np.eye(2))


class TestQuantumState:
    def test_initial_state(self):
        state = QuantumState(2)
        assert _amplitude(state, [0, 0]) == pytest.approx(1.0)

    def test_x_flips(self):
        state = QuantumState(1)
        state.apply(PAULI_X, [0])
        assert _amplitude(state, [1]) == pytest.approx(1.0)

    def test_hadamard_superposition(self):
        state = QuantumState(1)
        state.apply(HADAMARD, [0])
        probs = state.probabilities()
        assert probs[0] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.5)

    def test_cnot_on_nonadjacent_qubits(self):
        state = _basis([1, 0, 0])
        state.apply(CNOT, [0, 2])
        assert _amplitude(state, [1, 0, 1]) == pytest.approx(1.0)

    def test_cnot_reversed_order(self):
        state = _basis([0, 1])
        state.apply(CNOT, [1, 0])  # control is qubit 1
        assert _amplitude(state, [1, 1]) == pytest.approx(1.0)

    def test_swap_gate(self):
        state = _basis([1, 0])
        state.apply(SWAP, [0, 1])
        assert _amplitude(state, [0, 1]) == pytest.approx(1.0)

    def test_bell_state_probabilities(self):
        state = QuantumState(2)
        state.apply(HADAMARD, [0])
        state.apply(CNOT, [0, 1])
        probs = state.probabilities()
        assert probs[0] == pytest.approx(0.5)
        assert probs[3] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.0)

    def test_measurement_collapses(self):
        rng = random.Random(0)
        state = QuantumState(2)
        state.apply(HADAMARD, [0])
        state.apply(CNOT, [0, 1])
        a = state.measure([0], rng=rng)[0]
        b = state.measure([1], rng=rng)[0]
        assert a == b  # perfectly correlated

    def test_marginal_probabilities(self):
        state = QuantumState(2)
        state.apply(HADAMARD, [0])
        probs = state.probabilities([0])
        assert probs[0] == pytest.approx(0.5)
        probs1 = state.probabilities([1])
        assert probs1[0] == pytest.approx(1.0)

    def test_fidelity(self):
        a = QuantumState(1)
        b = QuantumState(1)
        b.apply(PAULI_X, [0])
        assert a.fidelity(a.copy()) == pytest.approx(1.0)
        assert a.fidelity(b) == pytest.approx(0.0)

    def test_tensor(self):
        a = _basis([1])
        b = _basis([0])
        joint = a.tensor(b)
        assert _amplitude(joint, [1, 0]) == pytest.approx(1.0)

    def test_invalid_vector_rejected(self):
        with pytest.raises(ValueError):
            QuantumState(1, np.array([1.0, 1.0]))

    def test_duplicate_qubits_rejected(self):
        state = QuantumState(2)
        with pytest.raises(ValueError):
            state.apply(CNOT, [0, 0])

    def test_zero_probability_collapse_rejected(self):
        state = _basis([0])
        with pytest.raises(ValueError):
            state._collapse([0], [1])
