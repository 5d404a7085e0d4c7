"""Holevo bound [Hol73].

Section 1 of the paper: "entanglement cannot be used to replace
communication (by, e.g., Holevo's theorem)" -- this is why the limited-sight
argument for local problems survives quantumly.  We implement the bound

    chi({p_i, rho_i}) = S(rho) - sum_i p_i S(rho_i),    rho = sum_i p_i rho_i

which caps the mutual information extractable from ``n`` qubits at ``n`` bits.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def von_neumann_entropy(rho: np.ndarray) -> float:
    """``S(rho) = -Tr(rho log2 rho)`` in bits."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    eigenvalues = np.linalg.eigvalsh(rho)
    entropy = 0.0
    for lam in eigenvalues:
        lam = float(lam.real)
        if lam > 1e-12:
            entropy -= lam * math.log2(lam)
    return entropy


def holevo_bound(probabilities: Sequence[float], states: Sequence[np.ndarray]) -> float:
    """The Holevo quantity ``chi`` of an ensemble of density matrices.

    Always at most ``log2(dim)``: ``n`` qubits carry at most ``n`` bits of
    accessible information, no matter how much entanglement is shared.
    """
    if len(probabilities) != len(states):
        raise ValueError("need one probability per state")
    if not math.isclose(sum(probabilities), 1.0, abs_tol=1e-9):
        raise ValueError("probabilities must sum to 1")
    average = sum(p * np.asarray(rho, dtype=complex) for p, rho in zip(probabilities, states))
    chi = von_neumann_entropy(average)
    for p, rho in zip(probabilities, states):
        if p > 0:
            chi -= p * von_neumann_entropy(np.asarray(rho, dtype=complex))
    return max(0.0, chi)
