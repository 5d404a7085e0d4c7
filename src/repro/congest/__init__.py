"""The CONGEST(B) distributed network simulator (Section 2.1, Appendix A.1).

A synchronous message-passing simulator in which each directed edge carries
at most ``B`` bits (or qubits) per round.  Local computation is free and
unbounded, exactly as in the model; the simulator's job is honest accounting
of rounds, messages and bits.

- :mod:`repro.congest.message`   -- payload bit-size accounting.
- :mod:`repro.congest.node`      -- node handles and the program interface
  (including the idleness hints the event engine exploits).
- :mod:`repro.congest.transport` -- ``LinkTransport``: round staging,
  chunking, bit metrics, and a completion-clock heap
  that touches only the links whose message completes.
- :mod:`repro.congest.columnar`  -- ``ColumnarTransport``, a former name
  of ``LinkTransport`` kept for the benchmark's instrumentation.
- :mod:`repro.congest.engine`    -- the schedulers: the reference
  ``DenseEngine`` and the event-driven ``EventEngine`` fast path, both
  over one transport and one ``on_round`` loop (``step_batch``);
  ``get_engine`` resolves the names in ``ENGINE_NAMES``.
- :mod:`repro.congest.network`   -- the ``CongestNetwork`` façade tying the
  layers together.
- :mod:`repro.congest.topology`  -- network families, including the
  Simulation-Theorem network of Figs. 8/10/13.
- :mod:`repro.congest.faults`    -- deterministic fault injection: seeded
  ``FaultPlan`` schedules (message drops, crash spans, edge churn)
  applied by a ``FaultyTransport`` wrapper under the engine seam.
"""

from repro.congest.engine import (
    DenseEngine,
    Engine,
    EventEngine,
    get_engine,
    step_batch,
)
from repro.congest.faults import (
    CrashSpan,
    FaultPlan,
    FaultStats,
    FaultyTransport,
    TopologyEvent,
)
from repro.congest.message import QubitPayload, Received, bit_size
from repro.congest.network import CongestNetwork, RunResult
from repro.congest.node import Node, NodeProgram
from repro.congest.topology import (
    dumbbell_graph,
    simulation_network,
    simulation_network_parameters,
)
from repro.congest.transport import LinkTransport

__all__ = [
    "CongestNetwork",
    "RunResult",
    "Engine",
    "DenseEngine",
    "EventEngine",
    "step_batch",
    "get_engine",
    "LinkTransport",
    "FaultPlan",
    "FaultyTransport",
    "FaultStats",
    "CrashSpan",
    "TopologyEvent",
    "Node",
    "NodeProgram",
    "Received",
    "QubitPayload",
    "bit_size",
    "simulation_network",
    "simulation_network_parameters",
    "dumbbell_graph",
]
