"""Package-wide import invariants, each checked in a fresh interpreter.

- Every ``repro`` module is imported while one point of every registered
  scenario runs through the CLI, so no module outlives the stored records
  that exercise it.  The HTML/docs report layer and the ``python -m`` entry
  point are exempt: no sweep point can reach them.
- Registering the built-in scenarios and expanding their default grids
  imports no ``scipy``; only the points that solve linear programs do.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: Module-name prefixes the audit does not require a scenario to import.
EXEMPT = ("repro.experiments.reporting", "repro.experiments.__main__")

_RUN_EVERY_SCENARIO = """
import contextlib, io, json, sys
from repro.experiments.cli import main
from repro.experiments.registry import list_scenarios

ran, failed = [], []
for scn in list_scenarios():
    argv = ["run", scn.name, "--no-store"]
    for axis in scn.default_grid:
        argv += ["--set", f"{axis}={scn.spec(axis).default}"]
    with contextlib.redirect_stdout(io.StringIO()):
        (ran if main(argv) == 0 else failed).append(scn.name)
print(json.dumps({
    "registered": [scn.name for scn in list_scenarios()],
    "ran": ran,
    "failed": failed,
    "imported": sorted(m for m in sys.modules if m == "repro" or m.startswith("repro.")),
}))
"""

_EXPAND_EVERY_GRID = """
import json, sys
from repro.experiments.registry import list_scenarios, load_builtin_scenarios
from repro.experiments.sweep import expand_grid

load_builtin_scenarios()
points = sum(len(expand_grid(scn)) for scn in list_scenarios())
print(json.dumps({"points": points, "scipy": "scipy" in sys.modules}))
"""


def _fresh_interpreter(code: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def package_modules() -> list[str]:
    """Every module of the package, named from its file, without importing it."""
    names = []
    for path in PACKAGE.rglob("*.py"):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(("repro", *parts)))
    return sorted(names)


def test_every_module_is_imported_by_a_scenario_point():
    audit = _fresh_interpreter(_RUN_EVERY_SCENARIO)
    assert not audit["failed"], f"scenario points failed: {audit['failed']}"
    assert sorted(audit["ran"]) == sorted(audit["registered"])
    imported = set(audit["imported"])
    for module in package_modules():
        if module.startswith(EXEMPT):
            continue
        assert module in imported, (
            f"{module} is imported by no scenario point: run it from a "
            "scenario or delete it"
        )


def test_registering_scenarios_loads_no_scipy():
    setup = _fresh_interpreter(_EXPAND_EVERY_GRID)
    assert setup["points"] > 0
    assert not setup["scipy"], "a scenario module imports scipy at registration"
