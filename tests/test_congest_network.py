"""Tests for the CONGEST simulator: rounds, bandwidth, pipelining, metrics."""

import json
import os
import subprocess
import sys
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import NamedTuple

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.congest.message import QubitPayload, bit_size
from repro.congest.network import CongestNetwork
from repro.congest.node import Node, NodeProgram


class EchoOnce(NodeProgram):
    """Round 1: node 0 sends 'ping' to all; receivers halt on receipt."""

    def on_start(self, node: Node) -> None:
        if node.id == 0:
            node.broadcast(("ping",))
            node.halt("sent")

    def on_round(self, node: Node, round_no: int, inbox, **_) -> None:
        if inbox:
            node.halt("got")


class FloodProgram(NodeProgram):
    """Flood a token; halt when seen.  Measures diameter-from-0 in rounds."""

    def on_start(self, node: Node) -> None:
        self.seen = False
        if node.id == 0:
            node.broadcast(("tok",))
            self.seen = True
            node.halt(0)

    def on_round(self, node: Node, round_no: int, inbox) -> None:
        if inbox and not self.seen:
            self.seen = True
            node.broadcast(("tok",))
            node.halt(round_no)


class BigSender(NodeProgram):
    def on_start(self, node: Node) -> None:
        if node.id == 0:
            node.send(1, "x" * 100, bits=100)
            node.halt()

    def on_round(self, node: Node, round_no: int, inbox) -> None:
        if inbox:
            node.halt(round_no)


def reference_bit_size(payload):
    """The ``isinstance`` chain the type-table ``bit_size`` replaced, kept
    verbatim as the reference every payload shape must still match."""
    if isinstance(payload, QubitPayload):
        return payload.n_qubits
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length() + 1)  # sign bit
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8 + 8 * len(payload)
    if isinstance(payload, bytes):
        return 8 + 8 * len(payload)
    if payload is None:
        return 1
    if isinstance(payload, (tuple, list)):
        return 8 + sum(reference_bit_size(item) for item in payload)
    if isinstance(payload, frozenset):
        return 8 + sum(reference_bit_size(item) for item in payload)
    if isinstance(payload, dict):
        return 8 + sum(reference_bit_size(k) + reference_bit_size(v) for k, v in payload.items())
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


class Level(IntEnum):
    LOW = 0
    HIGH = 1_000_003


class Colour(str, Enum):
    RED = "red"
    BLUE = "bleu ∞"


class Edge(NamedTuple):
    u: object
    v: object


class TaggedQubits(QubitPayload):
    pass


@dataclass
class Plain:
    x: int = 0


#: Hashable leaves: usable as frozenset items and dict keys.
HASHABLE_LEAVES = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=12),
    st.binary(max_size=12),
    st.none(),
    st.sampled_from(Level),
    st.sampled_from(Colour),
    st.builds(QubitPayload, st.integers(1, 64)),
    st.builds(TaggedQubits, st.integers(1, 64), st.sampled_from(["q", ("reply", 3)])),
)
HASHABLES = st.recursive(
    HASHABLE_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(inner, max_size=4),
        st.builds(Edge, inner, inner),
    ),
    max_leaves=4,
)
PAYLOADS = st.recursive(
    HASHABLES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.builds(Edge, inner, inner),
        st.dictionaries(HASHABLES, inner, max_size=4),
        st.dictionaries(HASHABLES, inner, max_size=4).map(OrderedDict),
    ),
    max_leaves=20,
)


class TestBitSize:
    @settings(max_examples=150, deadline=None)
    @given(PAYLOADS)
    def test_every_payload_shape_keeps_the_reference_size(self, payload):
        assert bit_size(payload) == reference_bit_size(payload)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.text(alphabet=st.characters(codec="utf-8"), max_size=12),
            st.integers(min_value=-(2**80), max_value=2**80),
            st.floats(allow_nan=True, allow_infinity=True),
        )
    )
    def test_inlined_leaves_match_the_table(self, leaf):
        """Containers size ``str``, ``int`` and ``float`` items inline; the
        inlined rules must equal the table's top-level ones."""
        assert bit_size([leaf]) == 8 + bit_size(leaf)
        assert bit_size({leaf: leaf}) == 8 + 2 * bit_size(leaf)

    def test_subclasses_resolve_to_their_listed_base(self):
        assert bit_size(True) == 1
        assert bit_size(Level.HIGH) == bit_size(1_000_003)
        assert bit_size(Colour.BLUE) == bit_size("bleu ∞")
        assert bit_size(Edge(1, "a")) == bit_size((1, "a"))
        assert bit_size(OrderedDict(a=1)) == bit_size({"a": 1})
        assert bit_size(TaggedQubits(7)) == 7

    @pytest.mark.parametrize(
        "payload", [{1, 2}, bytearray(b"ab"), object(), Plain(), (1, [2, {3}])]
    )
    def test_unsizable_payloads_raise_the_reference_error(self, payload):
        with pytest.raises(TypeError) as expected:
            reference_bit_size(payload)
        with pytest.raises(TypeError, match=f"^{expected.value}$"):
            bit_size(payload)

    def test_int_sizes(self):
        assert bit_size(0) == 1
        assert bit_size(255) == 9
        assert bit_size(True) == 1

    def test_container_sizes(self):
        assert bit_size((1, 2)) > bit_size(1)
        assert bit_size("ab") == 8 + 16

    def test_qubit_payload(self):
        assert bit_size(QubitPayload(5)) == 5
        with pytest.raises(ValueError):
            QubitPayload(0)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            bit_size(object())


class TestExecution:
    def test_flood_measures_distance(self):
        graph = nx.path_graph(6)
        result = CongestNetwork(graph, FloodProgram, bandwidth=64).run()
        assert result.halted
        assert result.outputs[5] == 5  # distance from node 0
        assert result.outputs[1] == 1

    def test_message_arrives_next_round(self):
        graph = nx.path_graph(2)
        result = CongestNetwork(graph, EchoOnce, bandwidth=64).run()
        assert result.rounds == 1
        assert result.outputs[1] == "got"

    def test_big_message_takes_multiple_rounds(self):
        graph = nx.path_graph(2)
        result = CongestNetwork(graph, BigSender, bandwidth=10).run()
        # 100 bits over B=10 takes 10 rounds to traverse the single edge.
        assert result.outputs[1] == 10

    def test_metrics_accumulate(self):
        graph = nx.cycle_graph(5)
        result = CongestNetwork(graph, FloodProgram, bandwidth=64).run()
        assert result.total_messages >= 5
        assert result.total_bits >= result.total_messages
        assert result.max_edge_bits_per_round <= 64

    def test_unanimous_output(self):
        graph = nx.path_graph(3)

        class Fixed(NodeProgram):
            def on_start(self, node):
                node.halt("same")

            def on_round(self, node, round_no, inbox):
                pass

        result = CongestNetwork(graph, Fixed).run()
        assert result.unanimous_output() == "same"

    def test_unanimous_raises_on_disagreement(self):
        graph = nx.path_graph(3)

        class ById(NodeProgram):
            def on_start(self, node):
                node.halt(node.id)

            def on_round(self, node, round_no, inbox):
                pass

        result = CongestNetwork(graph, ById).run()
        with pytest.raises(ValueError):
            result.unanimous_output()

    def test_send_to_non_neighbor_rejected(self):
        graph = nx.path_graph(3)

        class Bad(NodeProgram):
            def on_start(self, node):
                if node.id == 0:
                    node.send(2, "x")

            def on_round(self, node, round_no, inbox):
                node.halt()

        with pytest.raises(ValueError):
            CongestNetwork(graph, Bad).run()

    def test_halted_node_cannot_send(self):
        graph = nx.path_graph(2)
        network = CongestNetwork(graph, EchoOnce, bandwidth=8)
        network.run()
        with pytest.raises(RuntimeError):
            network.nodes[0].send(1, "late")

    def test_inputs_delivered(self):
        graph = nx.path_graph(2)

        class ReadInput(NodeProgram):
            def on_start(self, node):
                node.halt(node.input)

            def on_round(self, node, round_no, inbox):
                pass

        result = CongestNetwork(graph, ReadInput, inputs={0: "a", 1: "b"}).run()
        assert result.outputs == {0: "a", 1: "b"}

    def test_message_log_records_rounds(self):
        graph = nx.path_graph(3)
        network = CongestNetwork(graph, FloodProgram, bandwidth=64, record_messages=True)
        network.run()
        rounds_in_log = [entry[0] for entry in network.message_log]
        assert 0 in rounds_in_log  # on_start send
        assert max(rounds_in_log) >= 1

    def test_message_log_off_by_default(self):
        # The per-message log grows unboundedly, so it is opt-in; the
        # aggregate metrics are unaffected.
        graph = nx.path_graph(3)
        network = CongestNetwork(graph, FloodProgram, bandwidth=64)
        result = network.run()
        assert network.message_log == []
        assert result.total_messages > 0

    def test_engine_selection(self):
        from repro.congest.engine import DenseEngine, EventEngine, get_engine

        graph = nx.path_graph(4)
        assert isinstance(CongestNetwork(graph, FloodProgram).engine, EventEngine)
        assert isinstance(CongestNetwork(graph, FloodProgram, engine="dense").engine, DenseEngine)
        engine = DenseEngine()
        assert get_engine(engine) is engine
        with pytest.raises(ValueError, match="unknown engine"):
            CongestNetwork(graph, FloodProgram, engine="bogus")


class TestEngineNames:
    @pytest.mark.parametrize("name", ["dense", "event"])
    def test_each_name_builds_its_engine_and_transport(self, name):
        from repro.congest.engine import ENGINE_NAMES
        from repro.congest.transport import LinkTransport

        assert name in ENGINE_NAMES
        network = CongestNetwork(nx.path_graph(5), FloodProgram, engine=name)
        assert network.engine.name == name
        assert type(network.transport) is network.engine.transport_class
        assert type(network.transport) is LinkTransport
        result = network.run()
        reference = CongestNetwork(nx.path_graph(5), FloodProgram, engine="dense").run()
        assert (result.rounds, result.outputs) == (reference.rounds, reference.outputs)
        assert result.per_round_bits == reference.per_round_bits

    @pytest.mark.parametrize(
        "name", ["auto", "Event", "colunmar", "numpy", "columnar", "parallel"]
    )
    def test_unknown_names_raise_and_list_the_known_ones(self, name):
        from repro.congest.engine import get_engine

        known = "known: dense, event"
        with pytest.raises(ValueError, match=f"unknown engine '{name}'; {known}"):
            get_engine(name)
        with pytest.raises(ValueError, match="unknown engine"):
            CongestNetwork(nx.path_graph(3), FloodProgram, engine=name)


class TestStepBatch:
    @pytest.mark.parametrize("name", ["dense", "event"])
    def test_every_on_round_call_goes_through_the_module_global(self, name, monkeypatch):
        """Each engine calls ``step_batch`` through the module global once
        per executed round, with that round's active set in node-id order,
        so a wrapper installed there sees every ``on_round`` call and
        changes no result.  The benchmark's ``congest.step`` span is such
        a wrapper."""
        from repro.congest import engine as engine_mod

        on_round_calls = []

        class SlowRelay(NodeProgram):
            """Forward a 40-bit token once; at B=8 each hop takes 5 rounds."""

            def on_start(self, node: Node) -> None:
                if node.id == 0:
                    node.broadcast(("tok",), bits=40)
                    node.halt(0)

            def on_round(self, node: Node, round_no: int, inbox) -> None:
                on_round_calls.append((round_no, node.id))
                if inbox:
                    node.broadcast(("tok",), bits=40)
                    node.halt(round_no)

            def next_active_round(self, node, after_round):
                return None

        graph = nx.path_graph(6)
        unwrapped = CongestNetwork(graph, SlowRelay, bandwidth=8, engine=name).run()
        on_round_calls.clear()

        batches = []
        original = engine_mod.step_batch

        def wrapper(network, round_no, node_ids, inboxes):
            stepped = original(network, round_no, node_ids, inboxes)
            batches.append((round_no, list(node_ids), stepped))
            return stepped

        monkeypatch.setattr(engine_mod, "step_batch", wrapper)
        network = CongestNetwork(graph, SlowRelay, bandwidth=8, engine=name)
        result = network.run()
        engine = network.engine

        assert (result.rounds, result.outputs, result.per_round_bits) == (
            unwrapped.rounds,
            unwrapped.outputs,
            unwrapped.per_round_bits,
        )
        assert result.halted
        assert sum(stepped for _, _, stepped in batches) == engine.node_steps
        assert engine.node_steps == len(on_round_calls) > 0
        rounds = [round_no for round_no, _, _ in batches]
        assert rounds == sorted(set(rounds))
        assert len(batches) + engine.skipped_rounds == result.rounds
        assert (engine.skipped_rounds > 0) == (name == "event")
        order = {nid: i for i, nid in enumerate(network.nodes)}
        for _, node_ids, _ in batches:
            positions = [order[nid] for nid in node_ids]
            assert positions == sorted(set(positions))


#: Run in a fresh interpreter where numpy acts as not installed, and where
#: every attempt to import it -- guarded or not -- is recorded: import the
#: simulator, the graph generators and the algorithm and core modules built
#: on them, then run GKP on every engine.
_NUMPY_FREE_PROBE = r"""
import importlib
import json
import pkgutil
import random
import sys

attempts = []


class NumpyAbsent:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            attempts.append(name)
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, NumpyAbsent())

import repro.congest
import repro.graphs

modules = [
    f"{pkg.__name__}.{info.name}"
    for pkg in (repro.congest, repro.graphs)
    for info in pkgutil.iter_modules(pkg.__path__)
]
modules += [f"repro.algorithms.{name}" for name in (
    "centralised", "elkin", "framework", "mst", "paths", "spanning_structures",
    "verification",
)]
modules += [f"repro.core.{name}" for name in (
    "bounds", "fooling", "gadgets", "server_model", "simulation_theorem",
)]
for name in modules:
    importlib.import_module(name)

from repro.algorithms.mst import run_gkp_mst
from repro.graphs.generators import random_connected_graph

graph = random_connected_graph(18, extra_edge_prob=0.2, seed=5)
weights = random.Random(6).sample(range(1, 1000), graph.number_of_edges())
for (u, v), w in zip(graph.edges(), weights):
    graph.edges[u, v]["weight"] = float(w)
runs = {}
for engine in ("dense", "event"):
    edges, result = run_gkp_mst(graph, bandwidth=128, engine=engine)
    runs[engine] = {
        "edges": sorted(sorted(map(repr, e)) for e in edges),
        "per_round_bits": result.per_round_bits,
    }
print(json.dumps({"modules": modules, "numpy_imports": attempts, "runs": runs}))
"""


class TestWithoutNumpy:
    def test_simulator_and_algorithms_run_without_numpy(self):
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
        )}
        out = subprocess.run(
            [sys.executable, "-c", _NUMPY_FREE_PROBE],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout.splitlines()[-1])
        assert "repro.congest.columnar" in report["modules"]
        assert "repro.graphs.generators" in report["modules"]
        assert report["numpy_imports"] == []
        runs = report["runs"]
        assert set(runs) == {"dense", "event"}
        assert runs["dense"]["edges"]
        assert runs["event"] == runs["dense"]
