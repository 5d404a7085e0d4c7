"""Two-party communication complexity substrate (Section 2.1, [KN97]).

Alice and Bob hold inputs ``x`` and ``y`` and exchange bits (or qubits) over
a channel with per-message accounting.  The Server model of the paper
(:mod:`repro.core.server_model`) extends this with a third, free-talking
party.  This package carries the lower-bound side only: the upper bounds
the paper needs run as distributed algorithms (:mod:`repro.algorithms`).

- :mod:`repro.comm.protocols`    -- the channel/transcript framework.
- :mod:`repro.comm.problems`     -- Eq, Disj, IP, IPmod3, Gap-Eq and the
  graph verification problems in edge-partition form (Definition 3.3).
- :mod:`repro.comm.lower_bounds` -- fooling sets, log-rank, discrepancy.
"""

from repro.comm.problems import (
    DISJOINTNESS,
    EQUALITY,
    INNER_PRODUCT_MOD2,
    IPMOD3,
    GapEquality,
    Problem,
    hamiltonian_matching_problem,
)
from repro.comm.protocols import Channel, ProtocolResult, TwoPartyProtocol

__all__ = [
    "Channel",
    "ProtocolResult",
    "TwoPartyProtocol",
    "Problem",
    "EQUALITY",
    "DISJOINTNESS",
    "INNER_PRODUCT_MOD2",
    "IPMOD3",
    "GapEquality",
    "hamiltonian_matching_problem",
]
