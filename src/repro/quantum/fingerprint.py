"""Quantum fingerprinting for Equality [BCW98]: its qubit count.

One of the canonical quantum/classical communication separations cited in
Section 4: Equality on ``n``-bit strings needs only ``O(log n)`` qubits via
fingerprint states and the swap test.  Strings of length ``n`` are encoded
with a binary code of length ``m = 8 n`` (rounded up to a power of two);
the fingerprint state
``|h_x> = (1/sqrt(m)) sum_i (-1)^{E(x)_i} |i>`` lives on ``log2(m)``
qubits, which is what the ``quantum-substrate`` scenario checks.
"""

from __future__ import annotations

import math


def _next_power_of_two(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


class FingerprintEquality:
    """The fingerprint size of Equality on ``n_bits``-bit strings."""

    def __init__(self, n_bits: int):
        if n_bits < 1:
            raise ValueError("need at least one input bit")
        self.n_bits = n_bits
        self.code_length = _next_power_of_two(8 * n_bits)

    @property
    def fingerprint_qubits(self) -> int:
        """Qubits per fingerprint: ``log2(code_length) = O(log n)``."""
        return int(math.log2(self.code_length))
