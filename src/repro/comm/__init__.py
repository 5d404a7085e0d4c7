"""Two-party communication complexity substrate (Section 2.1, [KN97]).

Alice and Bob hold inputs ``x`` and ``y``.  The Server model of the paper
(:mod:`repro.core.server_model`) extends this with a third, free-talking
party.  This package carries only what the Section 6 lower-bound machinery
uses: the upper bounds the paper needs run as distributed algorithms
(:mod:`repro.algorithms`).

- :mod:`repro.comm.problems`     -- IP with the promise inputs of App. B.3
  and Gap-Eq, each with its +-1 communication matrix.
- :mod:`repro.comm.lower_bounds` -- the fooling-set check.
"""

from repro.comm.problems import GapEquality, Problem

__all__ = [
    "Problem",
    "GapEquality",
]
