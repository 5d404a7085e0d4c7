"""Classical communication lower-bound tools.

The fooling-set check that Theorem 6.1 uses through [KdW12]; it operates
on explicit (small) input sets.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence


def is_fooling_set(
    evaluate: Callable[[Any, Any], int], pairs: Sequence[tuple[Any, Any]], value: int = 1
) -> bool:
    """Check the 1-fooling-set property of Section 6.

    Every pair evaluates to ``value``; for distinct pairs ``(x, y)`` and
    ``(x', y')`` at least one cross input evaluates differently.
    """
    for x, y in pairs:
        if evaluate(x, y) != value:
            return False
    for (x, y), (x2, y2) in itertools.combinations(pairs, 2):
        if evaluate(x, y2) == value and evaluate(x2, y) == value:
            return False
    return True
