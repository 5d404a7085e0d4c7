"""``ColumnarTransport``: a former name of the one transport.

Kept only because ``perfbench/layers.py`` names it.
"""

from __future__ import annotations

from repro.congest.transport import LinkTransport


class ColumnarTransport(LinkTransport):
    """:class:`~repro.congest.transport.LinkTransport` under its former
    name; it goes once the benchmark stops naming it."""
