"""Upper-bound distributed algorithms cited by the paper.

Every lower bound in the paper is matched against a classical algorithm:

- MST: Boruvka/GHS and the Garay-Kutten-Peleg-style ``O~(sqrt(n) + D)``
  two-phase algorithm [KP98] (:mod:`repro.algorithms.mst`);
- alpha-approximate MST in ``O~(W/alpha + D)`` rounds, Elkin-style [Elk06]
  (:mod:`repro.algorithms.elkin`);
- s-source distances via self-stabilising distributed Bellman-Ford, run to
  a fixed horizon (:mod:`repro.algorithms.paths`);
- the [DHK+12] verification suite (:mod:`repro.algorithms.verification`);
- distributed Set Disjointness, classical vs. Grover-quantum (Example 1.1)
  (:mod:`repro.algorithms.disjointness`);
- a linear-size spanner skeleton via pipelined centralisation
  (:mod:`repro.algorithms.spanning_structures`).

All algorithms run on the :mod:`repro.congest` simulator and report measured
rounds/bits, which the scenarios and the shape tests lay against the
closed-form bounds of :mod:`repro.core.bounds`.
"""

from repro.algorithms.framework import (
    BfsTreePhase,
    BroadcastPhase,
    ConvergecastPhase,
    LeaderElectionPhase,
    PhasedProgram,
    PipelinedDowncastPhase,
    PipelinedUpcastPhase,
)
from repro.algorithms.centralised import run_centralised
from repro.algorithms.mst import run_boruvka_mst, run_gkp_mst
from repro.algorithms.paths import run_refreshing_bellman_ford

__all__ = [
    "PhasedProgram",
    "LeaderElectionPhase",
    "BfsTreePhase",
    "ConvergecastPhase",
    "BroadcastPhase",
    "PipelinedUpcastPhase",
    "PipelinedDowncastPhase",
    "run_boruvka_mst",
    "run_gkp_mst",
    "run_refreshing_bellman_ford",
    "run_centralised",
]
