"""Dependency-free telemetry: tracers, JSONL traces, run summaries.

See :mod:`repro.obs.trace` for the tracer API and the trace line schema,
and ``docs/observability.md`` for the workflow (tracing a sweep, reading a
trace, the timeline page).
"""

from repro.obs.trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    CollectingTracer,
    RunMetaCollector,
    Tracer,
    TraceWriter,
    current_tracer,
    read_trace,
    summarize_trace,
    task_trace_path,
    trace_files,
    use_tracer,
)

__all__ = [
    "NULL_TRACER",
    "TRACE_SCHEMA",
    "CollectingTracer",
    "RunMetaCollector",
    "Tracer",
    "TraceWriter",
    "current_tracer",
    "read_trace",
    "summarize_trace",
    "task_trace_path",
    "trace_files",
    "use_tracer",
]
