"""The execution-backend seam: how sweep points reach compute.

``run_sweep`` resolves caching and grid order; everything between "this
point must run" and "here is its outcome dict" is a backend.  A sweep
builds its backend once, with what all its points share: the scenario
modules a worker re-imports and the trace directory.  The backend then
receives plain :class:`~repro.experiments.sweep.SweepPoint`\\ s, executes
them in whatever way it likes, and hands back ``(point, outcome)`` pairs
in completion order -- the runner reassembles grid order.

Outcome dicts are the same shape everywhere (and JSON-serializable, since
they are persisted and replayed from the store)::

    {"status": "ok",    "result": {...}, "duration_s": 1.2, "meta": {...}}
    {"status": "error", "error": "<traceback>", "duration_s": 0.3, "meta": {...}}

``meta`` is the uniform timing/engine block (see
:class:`repro.obs.trace.RunMetaCollector`): every execution path fills it
with wall-clock duration plus the engine round/skip/step counts of the
CONGEST runs the point performed, so records carry the same schema whether
they ran serially or in a pool worker.  (The ``error`` of a worker that
died mid-task is synthesized by the backend, not by the task, so it has no
``meta``.)

:func:`execute_point` is the single task-execution entry point shared by
every backend (inline or pool worker), so a serial run is bit-identical
to a parallel one.  Given a trace directory, each execution also writes a
per-task JSONL trace there; its writer is then the point's run collector.

Each point also runs in its own collector scope.  On entry the heap it
starts with -- the imported package, earlier points' survivors, the
caller's objects -- is frozen (``gc.freeze()``, an O(1) list splice) and
the gen-0 threshold is raised to :data:`POINT_GC_THRESHOLD`, so the
point's collections walk only the objects it made.  On every exit one
full collection, still frozen, frees the point's own garbage; then the
heap is unfrozen and the threshold restored, so the caller finds the
collector as it left it.  The exit collection counts in ``duration_s``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
import traceback

from repro.experiments.registry import (
    BUILTIN_SCENARIO_MODULES,
    get_scenario,
    load_builtin_scenarios,
)
from repro.experiments.sweep import SweepPoint
from repro.obs.trace import RunMetaCollector, TraceWriter, task_trace_path, use_tracer


#: The gen-0 collection threshold inside a point's collector scope
#: (CPython's default is 700).  Gen-1 and gen-2 keep the caller's values.
POINT_GC_THRESHOLD = 20_000


def _json_equal(a, b) -> bool:
    """Equality after a JSON round-trip: NaN equals itself (it serializes
    and replays identically), but a tuple is not the list it comes back as
    and non-string dict keys are not the strings they come back as."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    return a == b


class ExecutionBackend:
    """submit / poll / shutdown lifecycle shared by all backends.

    Contract: every submitted point eventually appears in exactly one
    ``poll()`` batch (as ``(point, outcome)``), even on a worker crash --
    backends capture failures as outcome dicts, never raise them through
    ``poll``.  ``shutdown`` must release resources and is called exactly
    once, also on error paths (an interrupted sweep included).
    """

    def submit(self, point: SweepPoint) -> None:
        """Accept one point for execution."""
        raise NotImplementedError

    def poll(self) -> list[tuple[SweepPoint, dict]]:
        """Points completed since the last poll (possibly empty).  The pool
        never blocks here; the serial backend runs its next point here."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release backend resources (worker pools)."""
        raise NotImplementedError


def execute_point(
    scenario_name: str,
    params: dict,
    seed: int,
    scenario_modules: tuple[str, ...] = (),
    trace_dir: str | os.PathLike | None = None,
) -> dict:
    """Run one sweep point; capture success or failure as an outcome dict.

    The single execution path for every backend.  Results must be
    JSON-serializable dicts: a payload that cannot round-trip through JSON
    would replay differently from cache than it ran fresh, so it is failed
    here, at the point of production, with a clear error.

    Every outcome carries the uniform ``meta`` block (engine round/skip/step
    counts via the ambient :class:`~repro.obs.trace.RunMetaCollector`); given
    ``trace_dir``, that collector is a :class:`~repro.obs.trace.TraceWriter`
    writing a per-task JSONL trace there, ending with a ``gc`` event (what the
    collector did during the point) and a ``task_result`` event.  Both backends
    pass the last two arguments positionally, since ``perfbench/layers.py``'s
    wrapper forwards no keywords.

    The point runs in the collector scope the module docstring describes.
    Points never nest, so the scope keeps no nesting state: a caller that
    froze objects itself finds them unfrozen afterwards.
    """
    load_builtin_scenarios(tuple(m for m in scenario_modules if m not in BUILTIN_SCENARIO_MODULES))
    writer = None
    if trace_dir is not None:
        try:
            writer = TraceWriter(
                task_trace_path(trace_dir, scenario_name, seed),
                source="task",
                scenario=scenario_name,
                seed=seed,
            )
        except OSError:
            pass  # an unwritable trace dir must never fail the task
    collector = RunMetaCollector() if writer is None else writer
    gc_before = gc.get_stats() if writer is not None else None
    threshold = gc.get_threshold()
    start = time.perf_counter()
    gc.freeze()
    gc.set_threshold(POINT_GC_THRESHOLD, *threshold[1:])
    try:
        with use_tracer(collector):
            scn = get_scenario(scenario_name)
            result = scn.run(params, seed)
        if not isinstance(result, dict):
            raise TypeError(
                f"scenario {scenario_name!r} must return a dict, got {type(result).__name__}"
            )
        # Full round-trip check, not just dumps(): tuples and non-string
        # dict keys serialize fine but come back as lists / string keys, so
        # a cached replay would differ from the fresh run.
        try:
            round_tripped = json.loads(json.dumps(result))
        except (TypeError, ValueError) as exc:
            raise TypeError(
                f"scenario {scenario_name!r} returned a non-JSON-serializable result "
                f"({exc}); results are persisted and replayed as JSON, so every value "
                f"must round-trip"
            ) from exc
        if not _json_equal(round_tripped, result):
            raise TypeError(
                f"scenario {scenario_name!r} returned a result that does not survive "
                f"a JSON round-trip (e.g. tuples or non-string dict keys); a cached "
                f"replay would differ from the fresh run"
            )
        outcome = {"status": "ok", "result": result}
    except Exception:
        outcome = {"status": "error", "error": traceback.format_exc()}
    finally:
        exit_start = time.perf_counter()
        gc.collect()
        end = time.perf_counter()
        gc.unfreeze()
        gc.set_threshold(*threshold)
    outcome["duration_s"] = end - start
    outcome["meta"] = collector.meta()
    if writer is not None:
        gc_after = gc.get_stats()
        writer.event(
            "gc",
            collections=[a["collections"] - b["collections"] for a, b in zip(gc_after, gc_before)],
            collected=sum(a["collected"] - b["collected"] for a, b in zip(gc_after, gc_before)),
            exit_s=end - exit_start,
        )
        writer.event(
            "task_result", status=outcome["status"], duration_s=outcome["duration_s"]
        )
        writer.close()
    return outcome
