"""The CONGEST(B) distributed network simulator (Section 2.1, Appendix A.1).

A synchronous message-passing simulator in which each directed edge carries
at most ``B`` bits (or qubits) per round.  Local computation is free and
unbounded, exactly as in the model; the simulator's job is honest accounting
of rounds, messages and bits.

- :mod:`repro.congest.message`   -- payload bit-size accounting.
- :mod:`repro.congest.node`      -- node handles and the program interface
  (including the idleness hints the event engine exploits).
- :mod:`repro.congest.transport` -- link buffers, chunking, strict-mode
  checks and bit metrics.
- :mod:`repro.congest.columnar`  -- ``ColumnarTransport``, the same link
  semantics over flat staging columns and a completion-clock heap.
- :mod:`repro.congest.engine`    -- pluggable schedulers: the reference
  ``DenseEngine``, the event-driven ``EventEngine`` fast path, the
  thread-sharded ``ParallelEngine`` and ``ColumnarEngine`` (the event
  clock over ``ColumnarTransport``), all over one batched step ABI
  (``StepPlan`` / ``step_batch``); ``get_engine`` resolves the names in
  ``ENGINE_NAMES``.
- :mod:`repro.congest.network`   -- the ``CongestNetwork`` façade tying the
  layers together.
- :mod:`repro.congest.topology`  -- network families, including the
  Simulation-Theorem network of Figs. 8/10/13.
- :mod:`repro.congest.faults`    -- deterministic fault injection: seeded
  ``FaultPlan`` schedules (drops, duplicates, reorders, crash spans, edge
  churn) applied by a ``FaultyTransport`` wrapper under the engine seam.
"""

from repro.congest.engine import (
    DenseEngine,
    Engine,
    EventEngine,
    ParallelEngine,
    StepPlan,
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
from repro.congest.network import BandwidthExceeded, CongestNetwork, RunResult
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
    "BandwidthExceeded",
    "Engine",
    "DenseEngine",
    "EventEngine",
    "ParallelEngine",
    "StepPlan",
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
