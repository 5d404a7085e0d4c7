"""``GridIndex``: the name of a retired kNN index.

Kept only because ``perfbench/layers.py`` wraps ``GridIndex.__init__`` by
name; the geometric generators scan all pairs (:mod:`repro.graphs.generators`).
"""

from __future__ import annotations


class GridIndex:
    """Holds no logic; it goes once the benchmark stops naming it."""

    def __init__(self) -> None:
        pass
