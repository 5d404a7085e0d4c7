"""Reproduction of "Can Quantum Communication Speed Up Distributed Computation?".

Elkin, Klauck, Nanongkai, Pandurangan -- PODC 2014 (arXiv:1207.5211).

The package is organised bottom-up:

- :mod:`repro.graphs`     -- graph property checkers and generators.
- :mod:`repro.quantum`    -- statevector quantum-computation substrate.
- :mod:`repro.congest`    -- the CONGEST(B) distributed network simulator.
- :mod:`repro.comm`       -- two-party problems and the fooling-set check.
- :mod:`repro.core`       -- the paper's contribution: Server model, nonlocal
  games, gamma_2 machinery, approximate degree, GV fooling sets, gadget
  reductions, the Quantum Simulation Theorem and the closed-form bounds of
  Theorems 3.6/3.8.
- :mod:`repro.algorithms` -- the upper-bound distributed algorithms the paper
  cites (MST, approximate MST, shortest paths, verification problems,
  distributed Disjointness, a linear-size spanner skeleton).
"""

__version__ = "1.0.0"

from repro.core.bounds import optimization_lower_bound, verification_lower_bound

__all__ = [
    "__version__",
    "verification_lower_bound",
    "optimization_lower_bound",
]
