"""Generated documentation: the scenario catalog as markdown.

``docs/scenarios.md`` is not hand-written -- it is the output of
:func:`scenarios_markdown` over the live registry, and
``tests/test_docs.py`` asserts the committed file matches, so the catalog
cannot drift from the code.  Regenerate after touching a registration::

    PYTHONPATH=src python -m repro.experiments.reporting.docs > docs/scenarios.md

Only scenarios registered by the built-in modules
(:data:`~repro.experiments.registry.BUILTIN_SCENARIO_MODULES`) are
documented; ad-hoc registrations from tests or user scripts are ignored.
"""

from __future__ import annotations

import inspect

from repro.experiments.registry import (
    BUILTIN_SCENARIO_MODULES,
    Scenario,
    list_scenarios,
)

_PREAMBLE = """\
# Scenario catalog

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with:
       PYTHONPATH=src python -m repro.experiments.reporting.docs > docs/scenarios.md
     tests/test_docs.py fails when this file drifts from the registry. -->

Every figure, table and ablation this repo reproduces is a registered
*scenario*: a seeded function plus typed parameter specs, a default sweep
grid and declarative report plots (see
[docs/architecture.md](architecture.md) for how scenarios flow through
the sweep runner, the execution backends and the HTML report subsystem).
Run any of them with:

```sh
python -m repro.experiments run <scenario> [--set axis=v1,v2,...] [--workers N]
python -m repro.experiments report --html report-site
```
"""


def builtin_scenarios() -> list[Scenario]:
    """The registered scenarios defined by the built-in modules only."""
    return [
        scn
        for scn in list_scenarios()
        if scn.fn.__module__ in BUILTIN_SCENARIO_MODULES
    ]


def _scenario_section(scn: Scenario) -> str:
    lines = [f"## `{scn.name}`", "", scn.description, ""]
    doc = inspect.getdoc(scn.fn)
    if doc:
        # Skip the first line when the registration reused it as the
        # description -- the section already leads with it.
        body = doc.splitlines()
        if scn.description and body and body[0].strip() == scn.description:
            body = body[1:]
        prose = "\n".join(body).strip()
        if prose:
            lines.extend([prose, ""])
    if scn.tags:
        lines.extend(["Tags: " + ", ".join(f"`{t}`" for t in scn.tags), ""])

    def cell(value) -> str:
        # Literal pipes would open a new table column.
        return str(value).replace("|", "\\|")

    if scn.params:
        lines.append("| parameter | type | default | sweeps over | help |")
        lines.append("| --- | --- | --- | --- | --- |")
    else:
        lines.append("No parameters: a run is one point per replicate.")
    for p in scn.params:
        swept = (
            ", ".join(cell(v) for v in scn.default_grid[p.name])
            if p.name in scn.default_grid
            else "—"
        )
        lines.append(
            f"| `{p.name}` | {p.type.__name__} | {cell(p.default)} | {swept} | {cell(p.help)} |"
        )
    lines.append("")

    if scn.plots:
        lines.append("Report plots:")
        lines.append("")
        for plot in scn.plots:
            axes = "log-log" if plot.logx and plot.logy else (
                "log-y" if plot.logy else ("log-x" if plot.logx else "linear")
            )
            series = ", ".join(f"`{y}`" for y in plot.ys)
            grouping = f", grouped by `{plot.group_by}`" if plot.group_by else ""
            lines.append(
                f"- **{plot.title}** — {plot.kind}, {axes}: {series} vs "
                f"`{plot.x}`{grouping}"
            )
        lines.append("")
    return "\n".join(lines)


def scenarios_markdown() -> str:
    """Render the complete ``docs/scenarios.md`` content."""
    sections = [_PREAMBLE]
    for scn in builtin_scenarios():
        sections.append(_scenario_section(scn))
    return "\n".join(sections).rstrip() + "\n"


if __name__ == "__main__":
    print(scenarios_markdown(), end="")
