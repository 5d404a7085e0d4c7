"""Tests for teleportation, superdense coding, entanglement entropy, the
fingerprint size, Grover and the Holevo bound."""

import math
import random

import pytest

np = pytest.importorskip("numpy")  # whole module is linear-algebra-bound

from repro.quantum.fingerprint import FingerprintEquality
from repro.quantum.gates import CNOT, HADAMARD, PAULI_X, PAULI_Z
from repro.quantum.grover import grover_find_any, grover_search, optimal_grover_iterations
from repro.quantum.holevo import holevo_bound, von_neumann_entropy
from repro.quantum.state import QuantumState
from repro.quantum.teleportation import teleport


def random_qubit(seed: int) -> QuantumState:
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return QuantumState(1, vec / np.linalg.norm(vec))


_R = 1 / math.sqrt(2)
#: The six eigenstates of the Pauli X, Y and Z operators.
AXIS_STATES = {
    "zero": [1, 0],
    "one": [0, 1],
    "plus": [_R, _R],
    "minus": [_R, -_R],
    "plus_i": [_R, 1j * _R],
    "minus_i": [_R, -1j * _R],
}


def epr_pair() -> QuantumState:
    """``(|00> + |11>) / sqrt(2)`` from H and CNOT."""
    state = QuantumState(2)
    state.apply(HADAMARD, [0])
    state.apply(CNOT, [0, 1])
    return state


def first_qubit_density(state: QuantumState) -> np.ndarray:
    """The reduced density matrix of qubit 0 (the rest traced out)."""
    psi = state.vector.reshape(2, -1)
    return psi @ psi.conj().T


class TestTeleportation:
    def test_fidelity_one_over_random_states(self):
        rng = random.Random(42)
        for seed in range(25):
            message = random_qubit(seed)
            received, bits = teleport(message.copy(), rng=rng)
            assert received.fidelity(message) == pytest.approx(1.0, abs=1e-9)
            assert len(bits) == 2

    def test_rejects_multiqubit_message(self):
        with pytest.raises(ValueError):
            teleport(QuantumState(2), rng=random.Random(0))

    @pytest.mark.parametrize("name", sorted(AXIS_STATES))
    def test_each_axis_state_arrives_on_every_correction_branch(self, name):
        message = QuantumState(1, np.array(AXIS_STATES[name], dtype=complex))
        rng = random.Random(7)
        outcomes = set()
        for _ in range(24):
            received, bits = teleport(message.copy(), rng=rng)
            assert received.fidelity(message) == pytest.approx(1.0, abs=1e-9)
            outcomes.add(bits)
        assert outcomes == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestSuperdenseCoding:
    """One qubit of a shared EPR pair carries two classical bits: the sender
    applies ``Z^b0 X^b1`` to its half, the receiver undoes the Bell basis
    with CNOT and H and measures both qubits."""

    @pytest.mark.parametrize("bits", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_two_bits_per_qubit(self, bits):
        state = epr_pair()
        if bits[1]:
            state.apply(PAULI_X, [0])
        if bits[0]:
            state.apply(PAULI_Z, [0])
        state.apply(CNOT, [0, 1])
        state.apply(HADAMARD, [0])
        assert state.probabilities()[2 * bits[0] + bits[1]] == pytest.approx(1.0)
        assert state.measure([0, 1], rng=random.Random(0)) == bits


class TestEntanglementEntropy:
    def test_epr_half_carries_one_bit(self):
        rho = first_qubit_density(epr_pair())
        assert np.allclose(rho, np.eye(2) / 2)
        assert von_neumann_entropy(rho) == pytest.approx(1.0)

    def test_product_state_carries_nothing(self):
        state = QuantumState(2)
        state.apply(HADAMARD, [0])
        state.apply(HADAMARD, [1])
        assert von_neumann_entropy(first_qubit_density(state)) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_ghz_qubit_is_maximally_mixed(self, n_qubits):
        state = QuantumState(n_qubits)
        state.apply(HADAMARD, [0])
        for q in range(1, n_qubits):
            state.apply(CNOT, [0, q])
        probs = state.probabilities()
        assert probs[0] == pytest.approx(0.5) and probs[-1] == pytest.approx(0.5)
        assert von_neumann_entropy(first_qubit_density(state)) == pytest.approx(1.0)

    def test_bell_basis_is_orthonormal(self):
        bell = []
        for gates in ((), (PAULI_X,), (PAULI_Z,), (PAULI_X, PAULI_Z)):
            state = epr_pair()
            for gate in gates:
                state.apply(gate, [0])
            bell.append(state)
        for i, a in enumerate(bell):
            for j, b in enumerate(bell):
                assert a.fidelity(b) == pytest.approx(float(i == j), abs=1e-9)


class TestFingerprinting:
    def test_logarithmic_communication(self):
        scheme = FingerprintEquality(256)
        assert scheme.fingerprint_qubits <= 2 * math.ceil(math.log2(256)) + 4

    @pytest.mark.parametrize(
        "n_bits, code_length", [(1, 8), (3, 32), (8, 64), (100, 1024), (256, 2048)]
    )
    def test_code_length_is_the_next_power_of_two(self, n_bits, code_length):
        scheme = FingerprintEquality(n_bits)
        assert scheme.code_length == code_length
        assert 2**scheme.fingerprint_qubits == code_length

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            FingerprintEquality(0)


class TestGrover:
    def test_finds_unique_marked(self):
        rng = random.Random(0)
        hits = 0
        for trial in range(20):
            target = trial % 16
            index, queries = grover_search(lambda i: i == target, 16, n_marked=1, rng=rng)
            hits += index == target
            assert queries == optimal_grover_iterations(16, 1)
        assert hits >= 17  # theoretical success ~ 0.96

    def test_query_count_scales_as_sqrt(self):
        q16 = optimal_grover_iterations(16, 1)
        q256 = optimal_grover_iterations(256, 1)
        ratio = q256 / q16
        assert 3.0 <= ratio <= 5.5  # sqrt(16) = 4

    def test_find_any_with_unknown_count(self):
        rng = random.Random(3)
        marked = {3, 7, 11}
        found, queries = grover_find_any(lambda i: i in marked, 32, rng=rng)
        assert found in marked
        assert queries <= 40

    @pytest.mark.parametrize(
        "n_items, n_marked", [(4, 1), (16, 1), (64, 3), (256, 1), (1024, 10)]
    )
    def test_optimal_iterations_succeed_with_probability_1_minus_k_over_n(
        self, n_items, n_marked
    ):
        # After r iterations the marked amplitude is sin((2r + 1) theta).
        r = optimal_grover_iterations(n_items, n_marked)
        theta = math.asin(math.sqrt(n_marked / n_items))
        assert math.sin((2 * r + 1) * theta) ** 2 >= 1 - n_marked / n_items - 1e-12

    @pytest.mark.parametrize("n_items, n_marked", [(0, 1), (4, 0), (4, 5)])
    def test_iteration_count_rejects_bad_counts(self, n_items, n_marked):
        with pytest.raises(ValueError):
            optimal_grover_iterations(n_items, n_marked)

    def test_find_any_on_empty(self):
        rng = random.Random(4)
        found, queries = grover_find_any(lambda i: False, 32, rng=rng)
        assert found is None
        assert queries <= 80


class TestHolevo:
    def test_entropy_of_pure_state_zero(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert von_neumann_entropy(rho) == pytest.approx(0.0)

    def test_entropy_of_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_holevo_of_orthogonal_ensemble_is_one_bit(self):
        rho0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        rho1 = np.array([[0.0, 0.0], [0.0, 1.0]])
        chi = holevo_bound([0.5, 0.5], [rho0, rho1])
        assert chi == pytest.approx(1.0)

    def test_holevo_never_exceeds_qubit_count(self):
        # One qubit carries at most one bit -- "entanglement cannot replace
        # communication" (Section 1).
        rng = np.random.default_rng(0)
        states = []
        for _ in range(4):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            states.append(np.outer(v, v.conj()))
        chi = holevo_bound([0.25] * 4, states)
        assert chi <= 1.0 + 1e-9

    def test_identical_states_carry_nothing(self):
        rho = np.eye(2) / 2
        assert holevo_bound([0.5, 0.5], [rho, rho]) == pytest.approx(0.0)
