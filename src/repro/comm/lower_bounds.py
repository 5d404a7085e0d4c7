"""Classical communication lower-bound tools.

The fooling-set check that Theorem 6.1 uses through [KdW12]; it operates
on explicit (small) input sets.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence


def is_fooling_set(evaluate: Callable[[Any, Any], int], pairs: Sequence[tuple[Any, Any]]) -> bool:
    """Check the 1-fooling-set property of Section 6.

    Every pair evaluates to 1; for distinct pairs ``(x, y)`` and
    ``(x', y')`` at least one cross input evaluates differently.
    """
    for x, y in pairs:
        if evaluate(x, y) != 1:
            return False
    for (x, y), (x2, y2) in itertools.combinations(pairs, 2):
        if evaluate(x, y2) == 1 and evaluate(x2, y) == 1:
            return False
    return True
