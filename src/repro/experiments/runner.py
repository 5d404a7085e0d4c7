"""Sweep orchestration: cache resolution + backend dispatch + reassembly.

The runner resolves each sweep point against the result store first
(skip-if-cached), submits the misses to an execution backend
(:mod:`repro.experiments.backends`: serial inline or a local process
pool) and collects them in one poll loop, captures failures as records
instead of crashing the sweep, and returns records in deterministic grid
order regardless of completion order.

Which backend runs the tasks is a dispatch detail: both execute
:func:`~repro.experiments.backends.base.execute_point`, so the records a
sweep produces are field-identical (modulo ``duration_s``) across
backends -- ``tests/test_backends.py`` asserts exactly that.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

#: How often the collector polls an idle backend, in seconds.
_POLL_INTERVAL = 0.02

from repro.experiments.backends import resolve_backend
from repro.experiments.registry import get_scenario
from repro.experiments.store import ResultRecord, ResultStore, cache_key, package_code_version
from repro.experiments.sweep import SweepPoint


@dataclass
class SweepReport:
    """Outcome of one sweep: records in grid order plus cache accounting."""

    scenario: str
    records: list[ResultRecord] = field(default_factory=list)
    cached: int = 0
    executed: int = 0
    failed: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run_sweep(
    points: list[SweepPoint],
    store: ResultStore | None = None,
    workers: int = 1,
    force: bool = False,
    progress: Callable[[str], None] | None = None,
    backend: str | None = None,
    trace_dir: str | os.PathLike | None = None,
) -> SweepReport:
    """Run a sweep; returns records in the order of ``points``.

    ``backend`` names the execution backend, ``"serial"`` or ``"pool"``;
    ``None`` picks a pool when ``workers > 1``, else serial.  It is built
    here once, with what all points share (the scenario modules a worker
    re-imports and ``trace_dir``), and shut down here on every exit, an
    interrupt included.  The pool's start method and worker recycling are
    fixed (:mod:`repro.experiments.backends.pool`).

    With a store, points whose cache key already has a record are served
    from cache unless ``force``; fresh records are persisted as they
    complete.  Keys and records carry :func:`package_code_version`, so a
    source edit never serves a record computed by older code.

    With ``trace_dir``, each executed point writes its ``task-*.jsonl``
    trace there; cached points write none, and the sweep itself writes
    nothing.
    """
    if not points:
        raise ValueError("empty sweep")
    names = {p.scenario for p in points}
    if len(names) != 1:
        raise ValueError(f"sweep mixes scenarios {sorted(names)}; run them separately")
    scenario = get_scenario(points[0].scenario)
    report = SweepReport(scenario=scenario.name)
    say = progress or (lambda _msg: None)
    code_version = package_code_version()
    keys = {
        p.index: cache_key(p.scenario, p.params, p.seed, code_version=code_version)
        for p in points
    }
    slots: dict[int, ResultRecord] = {}
    pending: list[SweepPoint] = []

    for point in points:
        cached = None if force or store is None else store.get(scenario.name, keys[point.index])
        if cached is not None:
            slots[point.index] = cached
            report.cached += 1
            if cached.status != "ok":
                # A persisted failure served from cache still fails the
                # sweep -- callers gating on report.ok must see it.
                report.failed += 1
            say(f"[cache:{cached.status}] {scenario.name} #{point.index} {point.params}")
        else:
            pending.append(point)

    def finish(point: SweepPoint, outcome: dict) -> None:
        record = ResultRecord(
            key=keys[point.index],
            scenario=point.scenario,
            params=point.params,
            seed=point.seed,
            replicate=point.replicate,
            status=outcome["status"],
            result=outcome.get("result"),
            error=outcome.get("error"),
            duration_s=outcome.get("duration_s", 0.0),
            code_version=code_version,
            meta=outcome.get("meta") or {},
        )
        slots[point.index] = record
        report.executed += 1
        if record.status != "ok":
            report.failed += 1
            say(f"[{record.status}] {scenario.name} #{point.index} {point.params}")
        else:
            say(
                f"[done] {scenario.name} #{point.index} {point.params} "
                f"({record.duration_s:.2f}s)"
            )
        # Failures are persisted too: a sweep that died at point 37 resumes
        # there, and `report` can show what broke.  `force` re-runs them.
        if store is not None:
            store.put(record)

    # Ship the scenario's defining module to workers: under spawn and
    # forkserver they do not inherit the parent's registry.  (A __main__
    # registration can't be shipped by name; a spawn or forkserver worker
    # re-runs the main script as __mp_main__, which registers it again.)
    scenario_modules: tuple[str, ...] = ()
    if scenario.fn.__module__ not in ("__main__", None):
        scenario_modules = (scenario.fn.__module__,)

    if pending:
        engine = resolve_backend(
            backend, workers=workers, n_tasks=len(pending),
            scenario_modules=scenario_modules, trace_dir=trace_dir,
        )
        try:
            for point in pending:
                engine.submit(point)
            outstanding = len(pending)
            while outstanding:
                batch = engine.poll()
                if not batch:
                    time.sleep(_POLL_INTERVAL)
                    continue
                for done_point, outcome in batch:
                    finish(done_point, outcome)
                outstanding -= len(batch)
        finally:
            engine.shutdown()

    report.records = [slots[p.index] for p in points]
    return report
