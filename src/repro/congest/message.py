"""Message payloads and bit-size accounting.

The CONGEST model charges by the bit, so every payload needs a defensible
size.  We use a simple self-delimiting encoding estimate: integers cost their
two's-complement length, floats a fixed 64 bits, strings and bytes an 8-bit
length header plus 8 bits per character or byte, containers the sum of their
parts plus the header.  Callers may always override with an explicit
``bits=`` argument when a tighter encoding is intended.

The rules live in one table, ``_SIZE_RULES``, keyed by exact type.  A type
not in it (an ``IntEnum``, a ``NamedTuple``, an ``OrderedDict``, a
:class:`QubitPayload` subclass, ...) is resolved once through its
``__mro__`` to the first listed base and added to the table; a type with no
listed base cannot be sized.  The container walk sizes ``str``, ``int`` and
``float`` items inline, by the same rules as the table.

A size is a pure function of the payload.  So a node that sends one payload
to several neighbours sizes it once and passes ``bits=``, and a node that
forwards a received payload unchanged passes ``bits=msg.bits`` -- but only
when that message was itself auto-sized from the same payload, since an
explicit ``bits=`` upstream is a different price.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Hashable, Iterable, NamedTuple

_FLOAT_BITS = 64
_HEADER_BITS = 8


@dataclass(frozen=True)
class QubitPayload:
    """A payload of ``n_qubits`` qubits travelling over a quantum link.

    The statevector itself is carried out-of-band by the algorithm (exact
    many-node quantum simulation is exponential); the simulator's job is the
    accounting: ``n_qubits`` qubits occupy ``n_qubits`` units of the per-edge
    budget ``B`` (Section 2.1: "at most B qubits can be sent through each
    edge in each direction").
    """

    n_qubits: int
    tag: Any = None

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("a qubit payload needs at least one qubit")


def _qubit_bits(payload: QubitPayload) -> int:
    return payload.n_qubits


def _one_bit(payload: Any) -> int:
    return 1


def _int_bits(payload: int) -> int:
    return payload.bit_length() + 1  # sign bit; zero costs one bit


def _float_bits(payload: float) -> int:
    return _FLOAT_BITS


def _text_bits(payload: str | bytes) -> int:
    return _HEADER_BITS + 8 * len(payload)


def _items_bits(items: Iterable[Any]) -> int:
    """Summed size of ``items``: ``str``, ``int`` and ``float`` inline (the
    table's rules, without the call), everything else through the table."""
    total = 0
    for item in items:
        cls = type(item)
        if cls is str:
            total += _HEADER_BITS + 8 * len(item)
        elif cls is int:
            total += item.bit_length() + 1
        elif cls is float:
            total += _FLOAT_BITS
        else:
            total += (_SIZE_RULES.get(cls) or _resolve_rule(cls))(item)
    return total


def _collection_bits(payload: tuple | list | frozenset) -> int:
    return _HEADER_BITS + _items_bits(payload)


def _dict_bits(payload: dict) -> int:
    return _HEADER_BITS + _items_bits(chain.from_iterable(payload.items()))


#: Exact type -> size rule.  Subclasses are added on first use by
#: :func:`_resolve_rule`.
_SIZE_RULES: dict[type, Callable[[Any], int]] = {
    QubitPayload: _qubit_bits,
    bool: _one_bit,
    type(None): _one_bit,
    int: _int_bits,
    float: _float_bits,
    str: _text_bits,
    bytes: _text_bits,
    tuple: _collection_bits,
    list: _collection_bits,
    frozenset: _collection_bits,
    dict: _dict_bits,
}


def _resolve_rule(cls: type) -> Callable[[Any], int]:
    """The rule of the first listed type in ``cls.__mro__``, cached."""
    for base in cls.__mro__:
        rule = _SIZE_RULES.get(base)
        if rule is not None:
            _SIZE_RULES[cls] = rule
            return rule
    raise TypeError(f"cannot size payload of type {cls.__name__}")


def bit_size(payload: Any) -> int:
    """Estimate the size of a payload in bits (qubits for quantum payloads)."""
    cls = type(payload)
    return (_SIZE_RULES.get(cls) or _resolve_rule(cls))(payload)


class Received(NamedTuple):
    """A message as seen by the receiving node.

    A named tuple rather than a frozen dataclass: one is allocated per
    delivered message on the hottest path of every engine, and tuple
    construction is several times cheaper than ``object.__setattr__``.
    """

    sender: Hashable
    payload: Any
    bits: int
