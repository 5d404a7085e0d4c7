"""The scenario registry: declarative experiment registration.

A *scenario* is a callable ``fn(*, seed, **params) -> dict`` plus typed
parameter specs and a default sweep grid.  Registering one makes it
discoverable by the CLI (``python -m repro.experiments list``), sweepable
by the grid expander, runnable by the parallel runner, and cacheable by
the result store -- so reproducing a new figure or ablation is a ~20-line
``@scenario`` registration rather than a new benchmark script.

Scenario functions must be module-level (picklable by reference) so the
process-pool runner can ship them to workers.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable

#: Modules imported by default to populate the registry (workers and the
#: CLI both import these before resolving scenario names).
BUILTIN_SCENARIO_MODULES = ("repro.experiments.scenarios",)


class ScenarioNotFound(KeyError):
    """Raised when a scenario name is not in the registry."""


@dataclass(frozen=True)
class ParamSpec:
    """One typed scenario parameter.

    ``choices``, when non-empty, lists every value a categorical parameter
    accepts; :meth:`coerce` rejects any other, so a misspelled ``--set``
    value fails at grid expansion, before any point runs.
    """

    name: str
    type: type = float
    default: Any = None
    help: str = ""
    choices: tuple[str, ...] = ()

    def coerce(self, raw: Any) -> Any:
        """Coerce a raw (possibly string, e.g. CLI) value to the spec type."""
        if raw is None:
            return self.default
        value = self._convert(raw)
        if self.choices and value not in self.choices:
            raise ValueError(
                f"unknown {self.name.replace('_', ' ')} {value!r}; "
                f"known: {', '.join(self.choices)}"
            )
        return value

    def _convert(self, raw: Any) -> Any:
        if isinstance(raw, self.type):
            return raw
        if self.type is bool and isinstance(raw, str):
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"cannot parse {raw!r} as bool for {self.name!r}")
        return self.type(raw)


@dataclass(frozen=True)
class PlotSpec:
    """A declarative plot over a scenario's stored records.

    The HTML report subsystem (:mod:`repro.experiments.reporting`) turns
    each spec into an embedded SVG chart on the scenario's page: ``x``
    names the horizontal axis and each entry of ``ys`` one series, both
    resolved per record against the result payload first and the resolved
    params second.  ``group_by`` splits every series by the distinct
    values of a (typically categorical) key, e.g. one Borůvka exactness
    curve per topology generator.  Specs carry no data -- they are pure
    registry metadata, so ``@scenario(plots=...)`` keeps figure layout
    next to the code that produces the numbers.
    """

    name: str
    title: str
    x: str
    ys: tuple[str, ...]
    #: "line" | "scatter" | "bar" (bar treats ``x`` as categorical).
    kind: str = "line"
    logx: bool = False
    logy: bool = False
    group_by: str | None = None
    x_label: str = ""
    y_label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("line", "scatter", "bar"):
            raise ValueError(f"unknown plot kind {self.kind!r}; known: line, scatter, bar")
        if not self.ys:
            raise ValueError(f"plot {self.name!r} declares no y series")


@dataclass(frozen=True)
class Scenario:
    """A registered experiment scenario."""

    name: str
    fn: Callable[..., dict]
    params: tuple[ParamSpec, ...] = ()
    description: str = ""
    #: Default sweep grid: param name -> list of values (single values are
    #: fixed axes).  ``run NAME`` with no --set sweeps this grid.
    default_grid: dict[str, list] = field(default_factory=dict)
    tags: tuple[str, ...] = ()
    #: Declarative report charts rendered by ``report --html`` (pages fall
    #: back to a synthesised default plot when empty).
    plots: tuple[PlotSpec, ...] = ()

    def spec(self, name: str) -> ParamSpec:
        """Look up one :class:`ParamSpec` by name (KeyError if undeclared)."""
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"scenario {self.name!r} has no parameter {name!r}")

    def resolve_params(self, overrides: dict[str, Any]) -> dict[str, Any]:
        """Defaults merged with coerced overrides; rejects unknown names."""
        unknown = set(overrides) - {p.name for p in self.params}
        if unknown:
            raise KeyError(
                f"unknown parameter(s) {sorted(unknown)} for scenario {self.name!r}; "
                f"known: {[p.name for p in self.params]}"
            )
        resolved = {}
        for p in self.params:
            resolved[p.name] = p.coerce(overrides[p.name]) if p.name in overrides else p.default
        return resolved

    def run(self, params: dict[str, Any], seed: int) -> dict:
        """Execute the scenario function on fully-resolved params."""
        return self.fn(seed=seed, **params)


_REGISTRY: dict[str, Scenario] = {}


def scenario(
    name: str,
    *,
    params: list[ParamSpec] | tuple[ParamSpec, ...] = (),
    description: str = "",
    default_grid: dict[str, list] | None = None,
    tags: tuple[str, ...] = (),
    plots: tuple[PlotSpec, ...] | list[PlotSpec] = (),
) -> Callable[[Callable[..., dict]], Callable[..., dict]]:
    """Decorator registering ``fn(*, seed, **params) -> dict`` as a scenario.

    ``plots`` declares the charts the HTML report renders for this
    scenario's stored records (see :class:`PlotSpec`); scenarios without
    specs get a synthesised default plot.
    """

    def decorate(fn: Callable[..., dict]) -> Callable[..., dict]:
        if name in _REGISTRY and _REGISTRY[name].fn is not fn:
            raise ValueError(f"scenario {name!r} already registered")
        grid = dict(default_grid or {})
        spec_names = {p.name for p in params}
        unknown = set(grid) - spec_names
        if unknown:
            raise ValueError(f"default_grid keys {sorted(unknown)} not in params of {name!r}")
        doc_first_line = (fn.__doc__ or "").strip().splitlines()[:1]
        _REGISTRY[name] = Scenario(
            name=name,
            fn=fn,
            params=tuple(params),
            description=description or (doc_first_line[0] if doc_first_line else ""),
            default_grid=grid,
            tags=tuple(tags),
            plots=tuple(plots),
        )
        return fn

    return decorate


#: Modules already imported by :func:`load_builtin_scenarios`.  The call
#: sits on every ``execute_point`` hot path, so skip the (surprisingly
#: non-trivial) ``importlib.import_module`` sys.modules round-trip for
#: modules this process has already loaded.
_LOADED_MODULES: set[str] = set()


def load_builtin_scenarios(extra_modules: tuple[str, ...] = ()) -> None:
    """Import the scenario modules (idempotent) to populate the registry."""
    for module in (*BUILTIN_SCENARIO_MODULES, *extra_modules):
        if module not in _LOADED_MODULES:
            importlib.import_module(module)
            _LOADED_MODULES.add(module)


def get_scenario(name: str) -> Scenario:
    """Resolve a scenario by name, importing the built-in modules if needed."""
    if name not in _REGISTRY:
        load_builtin_scenarios()
    if name not in _REGISTRY:
        raise ScenarioNotFound(
            f"unknown scenario {name!r}; known: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def list_scenarios() -> list[Scenario]:
    """Every registered scenario, sorted by name (built-ins loaded first)."""
    load_builtin_scenarios()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
