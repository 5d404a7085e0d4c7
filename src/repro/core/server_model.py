"""The Server model (Definition 3.1) and the Section 3.1 equivalence.

Three players: Carol (input ``x``), David (input ``y``) and the Server (no
input).  Carol and David may talk to each other and to the server; the
server's messages are **free**, so the complexity counts only the bits Carol
and David send.  The server may dispense arbitrary entangled states at no
cost, which is why the model is at least as strong as two-party communication
with shared entanglement.

For *classical* protocols the model is equivalent to the plain two-party
model (Section 3.1): Alice simulates Carol plus a copy of the server, Bob
simulates David plus a copy of the server, and they exchange exactly the bits
Carol and David would have sent.  :func:`two_party_simulation_of_server`
implements that argument executably and the tests confirm the costs match
bit-for-bit.  (Quantumly the argument breaks -- one cannot clone the server's
state -- which is the paper's reason for introducing the model at all.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

CAROL = "carol"
DAVID = "david"
SERVER = "server"


@dataclass
class ServerTranscriptEntry:
    sender: str
    receiver: str
    payload: Any
    bits: int


@dataclass
class ServerResult:
    output: Any
    carol_bits: int
    david_bits: int
    server_bits: int
    transcript: list[ServerTranscriptEntry] = field(default_factory=list)


class ServerChannel:
    """Message routing with the Server model's asymmetric accounting."""

    def __init__(self) -> None:
        self.transcript: list[ServerTranscriptEntry] = []
        self.bits = {CAROL: 0, DAVID: 0, SERVER: 0}

    def send(self, sender: str, receiver: str, payload: Any, bits: int) -> Any:
        if sender not in (CAROL, DAVID, SERVER) or receiver not in (CAROL, DAVID, SERVER):
            raise ValueError("parties are 'carol', 'david', 'server'")
        if sender == receiver:
            raise ValueError("a party cannot message itself")
        if bits < 1:
            raise ValueError("transmissions cost at least one bit")
        self.bits[sender] += bits
        self.transcript.append(ServerTranscriptEntry(sender, receiver, payload, bits))
        return payload


# -- Structured round-based protocols (for the simulation argument) ----------


@dataclass
class StructuredServerProtocol:
    """A classical server-model protocol in explicit round form.

    Per round ``t`` (0-based):

    - Carol computes ``carol_message(x, carol_view, t) -> bits`` (a tuple of
      0/1) from her input and everything the server has sent her;
    - David likewise;
    - the server computes ``server_message(history, t) -> (to_carol, to_david)``
      from all bits received so far.

    After ``n_rounds`` rounds, ``carol_output(x, carol_view)`` produces the
    answer.  All functions must be deterministic (public randomness can be
    baked into them), which is exactly the setting of the Section 3.1
    equivalence argument.
    """

    n_rounds: int
    carol_message: Callable[[Any, list, int], tuple[int, ...]]
    david_message: Callable[[Any, list, int], tuple[int, ...]]
    server_message: Callable[[list, list, int], tuple[Any, Any]]
    carol_output: Callable[[Any, list], Any]

    def run(self, x: Any, y: Any) -> ServerResult:
        channel = ServerChannel()
        carol_view: list[Any] = []
        david_view: list[Any] = []
        carol_sent: list[tuple[int, ...]] = []
        david_sent: list[tuple[int, ...]] = []
        for t in range(self.n_rounds):
            c_bits = tuple(self.carol_message(x, carol_view, t))
            d_bits = tuple(self.david_message(y, david_view, t))
            channel.send(CAROL, SERVER, c_bits, bits=max(1, len(c_bits)))
            channel.send(DAVID, SERVER, d_bits, bits=max(1, len(d_bits)))
            carol_sent.append(c_bits)
            david_sent.append(d_bits)
            to_carol, to_david = self.server_message(carol_sent, david_sent, t)
            channel.send(SERVER, CAROL, to_carol, bits=1)
            channel.send(SERVER, DAVID, to_david, bits=1)
            carol_view.append(to_carol)
            david_view.append(to_david)
        output = self.carol_output(x, carol_view)
        return ServerResult(
            output=output,
            carol_bits=channel.bits[CAROL],
            david_bits=channel.bits[DAVID],
            server_bits=channel.bits[SERVER],
            transcript=channel.transcript,
        )


def streamed_xor_protocol(n_rounds: int) -> StructuredServerProtocol:
    """The streamed-XOR protocol, the workload of Section 3.1 and Lemma 3.2.

    Each round Carol and David stream one bit of their inputs (cycling) to
    the server, which reflects the running XOR of every bit received so far
    to both; Carol outputs the last reflection.  It costs ``2 * n_rounds``
    bits and is deterministic, so both the two-party simulation and the
    abort simulation of :mod:`repro.core.nonlocal_games` apply.
    """

    def carol_message(x, view, t):
        return (x[t % len(x)],)

    def david_message(y, view, t):
        return (y[t % len(y)],)

    def server_message(carol_sent, david_sent, t):
        xor = 0
        for bits in carol_sent + david_sent:
            for bit in bits:
                xor ^= bit
        return xor, xor

    return StructuredServerProtocol(
        n_rounds=n_rounds,
        carol_message=carol_message,
        david_message=david_message,
        server_message=server_message,
        carol_output=lambda x, view: view[-1],
    )


@dataclass
class TwoPartySimulationResult:
    output: Any
    alice_bits: int
    bob_bits: int

    @property
    def total_bits(self) -> int:
        return self.alice_bits + self.bob_bits


def two_party_simulation_of_server(
    protocol: StructuredServerProtocol, x: Any, y: Any
) -> TwoPartySimulationResult:
    """The Section 3.1 classical simulation, executably.

    Alice simulates Carol and a private copy of the server; Bob simulates
    David and his own copy.  Each round Alice must forward Carol's
    server-bound bits to Bob (so Bob's server copy stays in sync) and vice
    versa -- and *nothing else*.  The two-party cost therefore equals the
    server-model cost exactly, which the tests assert.
    """
    carol_view: list[Any] = []
    david_view: list[Any] = []
    carol_sent: list[tuple[int, ...]] = []
    david_sent: list[tuple[int, ...]] = []
    alice_bits = 0
    bob_bits = 0
    for t in range(protocol.n_rounds):
        c_bits = tuple(protocol.carol_message(x, carol_view, t))
        d_bits = tuple(protocol.david_message(y, david_view, t))
        # Alice -> Bob: Carol's bits to the server.  Bob -> Alice: David's.
        alice_bits += max(1, len(c_bits))
        bob_bits += max(1, len(d_bits))
        carol_sent.append(c_bits)
        david_sent.append(d_bits)
        # Both players now run identical server copies (free, local).
        to_carol_alice, to_david_alice = protocol.server_message(carol_sent, david_sent, t)
        to_carol_bob, to_david_bob = protocol.server_message(carol_sent, david_sent, t)
        if repr(to_carol_alice) != repr(to_carol_bob) or repr(to_david_alice) != repr(to_david_bob):
            raise AssertionError("server copies diverged; protocol is not deterministic")
        carol_view.append(to_carol_alice)
        david_view.append(to_david_alice)
    output = protocol.carol_output(x, carol_view)
    return TwoPartySimulationResult(output=output, alice_bits=alice_bits, bob_bits=bob_bits)
