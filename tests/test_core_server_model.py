"""Tests for the Server model and the Section 3.1 equivalence."""

import pytest

pytest.importorskip("numpy")  # the comm/server stack is numpy-bound

from repro.core.server_model import (
    CAROL,
    DAVID,
    SERVER,
    ServerChannel,
    streamed_xor_protocol,
    two_party_simulation_of_server,
)


class TestServerChannel:
    def test_cost_counts_only_carol_and_david(self):
        channel = ServerChannel()
        channel.send(CAROL, SERVER, "x", bits=5)
        channel.send(DAVID, SERVER, "y", bits=3)
        channel.send(SERVER, CAROL, "huge", bits=1_000_000)
        assert channel.bits[CAROL] + channel.bits[DAVID] == 8
        assert channel.bits[SERVER] == 1_000_000
        assert len(channel.transcript) == 3

    def test_invalid_parties_rejected(self):
        channel = ServerChannel()
        with pytest.raises(ValueError):
            channel.send("mallory", SERVER, "x", bits=1)
        with pytest.raises(ValueError):
            channel.send(CAROL, CAROL, "x", bits=1)


class TestStructuredProtocol:
    def test_runs_and_costs(self):
        proto = streamed_xor_protocol(3)
        result = proto.run((1, 0, 1), (0, 1, 1))
        assert result.carol_bits == 3
        assert result.david_bits == 3
        # XOR of all six streamed bits.
        assert result.output == (1 ^ 0 ^ 1) ^ (0 ^ 1 ^ 1)

    def test_two_party_simulation_matches_exactly(self):
        # The Section 3.1 theorem: identical output, identical cost.
        proto = streamed_xor_protocol(4)
        for x, y in [((1, 0, 1, 1), (0, 1, 1, 0)), ((0, 0, 0, 0), (1, 1, 1, 1))]:
            server_result = proto.run(x, y)
            sim = two_party_simulation_of_server(proto, x, y)
            assert sim.output == server_result.output
            assert sim.total_bits == server_result.carol_bits + server_result.david_bits

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
        for _ in range(50):
            x = tuple(rng.randrange(2) for _ in range(5))
            y = tuple(rng.randrange(2) for _ in range(5))
            server = proto.run(x, y)
            sim = two_party_simulation_of_server(proto, x, y)
            # Section 3.1: the two-party simulation costs exactly the
            # players' bits and gives the same output.
            assert sim.total_bits == server.carol_bits + server.david_bits
            assert sim.output == server.output

