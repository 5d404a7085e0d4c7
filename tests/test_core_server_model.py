"""Tests for the Server model and the Section 3.1 equivalence."""

import pytest

pytest.importorskip("numpy")  # the comm/server stack is numpy-bound

from repro.comm.protocols import Channel, TwoPartyProtocol
from repro.core.server_model import (
    CAROL,
    DAVID,
    SERVER,
    ServerChannel,
    ServerProtocol,
    TwoPartyAsServerProtocol,
    streamed_xor_protocol,
    two_party_simulation_of_server,
)


class TestServerChannel:
    def test_cost_counts_only_carol_and_david(self):
        channel = ServerChannel()
        channel.send(CAROL, SERVER, "x", bits=5)
        channel.send(DAVID, SERVER, "y", bits=3)
        channel.send(SERVER, CAROL, "huge", bits=1_000_000)
        assert channel.cost == 8

    def test_entanglement_dispensing_free(self):
        channel = ServerChannel()
        channel.dispense_entanglement("EPR x 1000")
        assert channel.cost == 0
        assert len(channel.transcript) == 2

    def test_invalid_parties_rejected(self):
        channel = ServerChannel()
        with pytest.raises(ValueError):
            channel.send("mallory", SERVER, "x", bits=1)
        with pytest.raises(ValueError):
            channel.send(CAROL, CAROL, "x", bits=1)


class ParityCheckProtocol(TwoPartyProtocol):
    """Alice sends a public-coin parity of ``x``; Bob answers whether his
    parity matches.  Two messages, 2 bits, coins drawn from the run's seed."""

    name = "parity-check"

    def execute(self, x, y, channel: Channel, rng):
        coins = [rng.randrange(2) for _ in x]
        parity = channel.alice_sends(sum(c * b for c, b in zip(coins, x)) % 2, bits=1)
        answer = int(parity == sum(c * b for c, b in zip(coins, y)) % 2)
        return channel.bob_sends(answer, bits=1)


class TestTwoPartyLift:
    def test_lifted_protocol_same_cost(self):
        inner = ParityCheckProtocol()
        lifted = TwoPartyAsServerProtocol(inner)
        x = (1, 0, 1, 0, 1, 0, 1, 0)
        inner_result = inner.run(x, x, seed=7)
        lifted_result = lifted.run(x, x, seed=7)
        assert lifted_result.output == inner_result.output
        assert lifted_result.cost == inner_result.total_communication
        assert lifted_result.server_bits == 0


class TestStructuredProtocol:
    def test_runs_and_costs(self):
        proto = streamed_xor_protocol(3)
        result = proto.run((1, 0, 1), (0, 1, 1))
        assert result.carol_bits == 3
        assert result.david_bits == 3
        assert result.cost == 6
        # XOR of all six streamed bits.
        assert result.output == (1 ^ 0 ^ 1) ^ (0 ^ 1 ^ 1)

    def test_two_party_simulation_matches_exactly(self):
        # The Section 3.1 theorem: identical output, identical cost.
        proto = streamed_xor_protocol(4)
        for x, y in [((1, 0, 1, 1), (0, 1, 1, 0)), ((0, 0, 0, 0), (1, 1, 1, 1))]:
            server_result = proto.run(x, y)
            sim = two_party_simulation_of_server(proto, x, y)
            assert sim.output == server_result.output
            assert sim.total_bits == server_result.cost

    @pytest.mark.parametrize("n_rounds", [1, 2, 8, 32])
    def test_streamed_xor_cycles_inputs_and_costs_two_bits_a_round(self, n_rounds):
        # Inputs shorter than the run: round t streams bit t mod 3.
        x, y = (1, 1, 0), (0, 1, 1)
        result = streamed_xor_protocol(n_rounds).run(x, y)
        assert (result.carol_bits, result.david_bits) == (n_rounds, n_rounds)
        assert result.server_bits == 2 * n_rounds
        expected = 0
        for t in range(n_rounds):
            expected ^= x[t % 3] ^ y[t % 3]
        assert result.output == expected

    def test_simulation_over_many_inputs(self):
        import random

        proto = streamed_xor_protocol(5)
        rng = random.Random(0)
        for _ in range(25):
            x = tuple(rng.randrange(2) for _ in range(5))
            y = tuple(rng.randrange(2) for _ in range(5))
            assert two_party_simulation_of_server(proto, x, y).output == proto.run(x, y).output


class TestServerProtocolBase:
    def test_abstract_execute(self):
        with pytest.raises(NotImplementedError):
            ServerProtocol().execute(None, None, ServerChannel(), None)
