"""Package-wide audits.

- Every function under ``src/repro`` runs while the audit's point set goes
  through the CLI under ``cProfile`` in a fresh interpreter, or
  :data:`ALLOWLIST` says why it stays.  The point set is every scenario's
  full default grid, one point for each categorical value outside that
  grid, one ``--backend pool`` point, ``list``, a cached rerun, ``report``
  as text, JSON and HTML with a trace, and ``trace summarize``.  A
  function is keyed by (file, first line), the first line including
  decorators, which is what ``co_firstlineno`` holds; nested functions
  count.  Blind spot: a call made while a module is imported counts as a
  run.
- Every parameter with a default, of every function, method and nested
  function under ``src/repro``, is set by some call in ``src/repro`` or
  ``perfbench/*.py``, or :data:`OPTION_ALLOWLIST` says why it stays.  Tests
  and ``examples/`` do not count: an option only they set multiplies the
  configurations to cover without serving a workload.  The audit reads the
  source with ``ast`` and imports nothing.  A call sets a parameter when
  its callee name (the ``Name`` id or the ``Attribute`` attr; a class name
  for ``__init__``) is the function's name and it passes the parameter by
  keyword, at or past its position, through ``*args`` (a positional
  parameter) or through ``**``.  A ``**`` argument that is a dict literal,
  or a name bound only to dict literals with string keys, passes those
  keys; a forward of the enclosing function's own ``**kwargs`` passes what
  that function's callers pass it, if the function mentions that name only
  in ``**`` arguments (one that indexes it or calls its methods, as
  ``kwargs.setdefault(...)``, may add keys); any other ``**`` argument
  passes every name.  Blind spots: a ``**`` the audit cannot resolve
  counts as setting every parameter of every function of that name; a
  parameter that is set but whose value nothing reads passes; a default
  that every caller overrides passes, although no call ever takes it;
  dataclass fields are not parameters and are not inventoried; a call
  through another name (``Engine.transport_class(...)``) sets nothing.
- Every name a module under ``src/repro`` imports at module level is used
  in that module (a package ``__init__`` re-exports, so it is exempt).
- Registering the built-in scenarios and expanding their default grids
  imports no ``scipy`` (checked in a fresh interpreter); only the points
  that solve linear programs do.
"""

import ast
import contextlib
import cProfile
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: Functions that stay although no audit point runs them, by qualified name
#: (``module:qualname``); a bare module name covers every function in it.
ALLOWLIST = {
    # Base hooks that subclasses override.
    "repro.congest.engine:Engine.run": "base hook; DenseEngine and EventEngine override it",
    "repro.congest.node:NodeProgram.on_start": "base hook of every node program",
    "repro.congest.node:NodeProgram.on_round": "base hook of every node program",
    "repro.algorithms.framework:Phase.duration": "base hook of every tree phase",
    "repro.algorithms.framework:Phase.idle_until": "base hook of every tree phase",
    "repro.algorithms.framework:Phase.on_enter": "base hook of every tree phase",
    "repro.algorithms.framework:Phase.on_round": "base hook of every tree phase",
    "repro.experiments.backends.base:ExecutionBackend.submit": "base hook of both backends",
    "repro.experiments.backends.base:ExecutionBackend.poll": "base hook of both backends",
    "repro.experiments.backends.base:ExecutionBackend.shutdown": "base hook of both backends",
    "repro.obs.trace:Tracer.close": "base hook; TraceWriter overrides it",
    "repro.obs.trace:Tracer.emit": (
        "the null tracer's no-ops; every audit point runs under a collector"
    ),
    "repro.obs.trace:Tracer.run_summary": (
        "the null tracer's no-ops; every audit point runs under a collector"
    ),
    # The pool's worker side, which the profiler cannot see, and the pool
    # paths that need a late or dead worker.
    "repro.experiments.backends.pool:_init_worker": "runs in each pool worker",
    "repro.experiments.backends.pool:_run_task": "runs in each pool worker",
    "repro.experiments.backends.pool:_pid_alive": "runs when a poll catches a task in flight",
    # Reference code that tests compare live code against.
    "repro.graphs.properties": "the centralised truth of the Cor. 3.7 verifiers (ROADMAP item 5)",
    "repro.core.gamma2:gamma2_upper": "the SDP upper bound that tests hold gamma2_lower against",
    "repro.core.gamma2:_factorisation_value": "part of gamma2_upper",
    "repro.core.fooling:code_min_distance": "checks the distance of the greedy GV code in tests",
    "repro.core.gadgets:HamInstance.union_graph": "tests check the gadget graphs' shape with it",
    "repro.congest.transport:LinkTransport.live_edges": "tests compare it with the reference transport",
    "repro.congest.transport:LinkTransport.pending_traffic": "tests assert no traffic is left in flight",
    "repro.congest.faults:FaultyTransport.pending_traffic": "tests assert no traffic is left in flight",
    "repro.congest.network:CongestNetwork.pending_traffic": "tests assert no traffic is left in flight",
    "repro.obs.trace:CollectingTracer.__init__": "the in-memory tracer the trace tests read",
    "repro.obs.trace:CollectingTracer.emit": "the in-memory tracer the trace tests read",
    "repro.obs.trace:CollectingTracer.by_kind": "the in-memory tracer the trace tests read",
    # Rare paths of live code.
    "repro.congest.transport:LinkTransport._materialize_block": "a one-round block read before it completes",
    "repro.congest.message:_int_bits": "bit_size of a bare int payload",
    "repro.congest.message:_float_bits": "bit_size of a bare float payload",
    "repro.congest.message:_text_bits": "bit_size of a bare str payload",
    "repro.congest.message:_resolve_rule": "bit_size of a payload type seen for the first time",
    "repro.experiments.reporting.svg:empty_plot": "a chart whose records hold no value",
    # Callers outside src/ that CI runs.
    "repro.experiments.registry:Scenario.resolve_params": "perfbench/tests and examples call it",
    "repro.core.simulation_theorem:theorem_parameters": "examples/lower_bound_pipeline.py",
    "repro.core.nonlocal_games:XORGame.quantum_bias": "examples/lower_bound_pipeline.py",
    "repro.experiments.reporting.docs": "tests/test_docs.py regenerates docs/scenarios.md with it",
    "repro.graphs.spatial:GridIndex.__init__": (
        "perfbench/layers.py wraps it by name; it goes with ROADMAP item 2"
    ),
}

#: Defaulted parameters that stay although no call in ``src/repro`` or
#: ``perfbench/*.py`` sets them, by ``module:qualname(param)``.
OPTION_ALLOWLIST = {
    "repro.congest.transport:LinkTransport.__init__(record_messages)": (
        "CongestNetwork sets it through Engine.transport_class(...), a name the audit "
        "does not resolve"
    ),
    "repro.core.gamma2:gamma2_upper(iterations)": "reference code that tests compare against",
    "repro.core.gamma2:gamma2_upper(seed)": "reference code that tests compare against",
}

#: Where the calls that justify an option may live: the package and the
#: benchmark harness's own files.
CALLER_ROOTS = (PACKAGE, Path(__file__).resolve().parents[1] / "perfbench")

_RUN_THE_POINT_SET = r"""
import contextlib, cProfile, io, json, tempfile

profile = cProfile.Profile()
profile.enable()
from repro.experiments.cli import main
from repro.experiments.registry import list_scenarios

failed = []


def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        if main(list(argv)) != 0:
            failed.append(" ".join(argv))


with tempfile.TemporaryDirectory() as tmp:
    store, traces = f"{tmp}/store", f"{tmp}/traces"
    cli("list")
    for scn in list_scenarios():
        cli("run", scn.name, "--store", store)
        defaults = {axis: scn.spec(axis).default for axis in scn.default_grid}
        for spec in scn.params:
            for value in spec.choices:
                if value not in scn.default_grid.get(spec.name, [spec.default]):
                    axes = {**defaults, spec.name: value}
                    cli("run", scn.name, "--no-store", *(f"--set={k}={v}" for k, v in axes.items()))
    cli("run", "chsh-gamma2", "--store", store)
    cli("run", "chsh-gamma2", "--set", "restarts=3", "--backend", "pool", "--workers", "1",
        "--store", store)
    cli("run", "bfs-restabilization", "--set", "n=12", "--set", "drop_prob=0.1",
        "--store", store, "--trace", traces)
    cli("report", "--store", store)
    cli("report", "--store", store, "--format", "json")
    cli("report", "--store", store, "--html", f"{tmp}/site", "--trace", traces)
    cli("trace", "summarize", traces)
profile.disable()
ran = sorted(
    {(s.code.co_filename, s.code.co_firstlineno) for s in profile.getstats()
     if not isinstance(s.code, str)}
)
print(json.dumps({"failed": failed, "ran": ran}))
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
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _modules(package: Path, name: str):
    """Yield (path, module name, parsed source) for every ``.py`` file of
    ``package``."""
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield path, ".".join((name, *parts)), ast.parse(path.read_text(encoding="utf-8"))


def package_functions(package: Path = PACKAGE, name: str = "repro") -> dict[tuple[str, int], str]:
    """Every function of ``package``, keyed by (file, first line), valued by
    its qualified name, read from the source without importing it."""
    functions = {}
    for path, module, tree in _modules(package, name):

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions[(str(path), first)] = f"{module}:{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


def _allowed_by(entry: str, name: str) -> bool:
    if ":" not in entry:
        return name.split(":")[0] == entry
    return name == entry or name.startswith(entry + ".")


def audit(
    functions: dict[tuple[str, int], str], ran: set[tuple[str, int]], allowlist: dict[str, str]
) -> tuple[list[str], list[str]]:
    """The allowlist entries that name no function, and the functions that
    never ran and no entry keeps."""
    stale = sorted(
        entry for entry in allowlist if not any(_allowed_by(entry, n) for n in functions.values())
    )
    never_ran = sorted(
        name
        for key, name in functions.items()
        if key not in ran and not any(_allowed_by(entry, name) for entry in allowlist)
    )
    return stale, never_ran


def package_options(
    package: Path = PACKAGE, name: str = "repro"
) -> dict[str, tuple[str, str, int | None]]:
    """Every parameter with a default of every function of ``package``,
    keyed by ``module:qualname(param)`` and valued by (the callee name that
    reaches it, the parameter, its position among the positional
    parameters after ``self``/``cls``, or ``None`` if keyword-only)."""
    options = {}
    for _path, module, tree in _modules(package, name):

        def visit(node: ast.AST, prefix: str, owner: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    callee = owner if child.name == "__init__" and owner else child.name
                    args = child.args
                    positional = [a.arg for a in args.posonlyargs + args.args]
                    if positional and positional[0] in ("self", "cls"):
                        positional = positional[1:]
                    defaulted = positional[len(positional) - len(args.defaults):]
                    for param in defaulted:
                        key = f"{module}:{qualname}({param})"
                        options[key] = (callee, param, positional.index(param))
                    for param, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            options[f"{module}:{qualname}({param.arg})"] = (callee, param.arg, None)
                    visit(child, f"{qualname}.<locals>.", None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", child.name)
                else:
                    visit(child, prefix, owner)

        visit(tree, "", None)
    return options


#: A call, the innermost function around it (the module at top level) and
#: the callee name that reaches that function (``None`` at top level).
Site = tuple[ast.Call, ast.AST, str | None]


def package_calls(roots: tuple[Path, ...] = CALLER_ROOTS) -> dict[str, list[Site]]:
    """Every call under ``roots`` (a package, searched recursively, or a
    directory, whose own ``*.py`` files alone count), by callee name."""
    calls: dict[str, list[Site]] = {}

    def visit(node: ast.AST, scope: ast.AST, caller: str | None, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is not None:
                    calls.setdefault(name, []).append((child, scope, caller))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = owner if child.name == "__init__" and owner else child.name
                visit(child, child, callee, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope, caller, child.name)
            else:
                visit(child, scope, caller, owner)

    for root in roots:
        paths = root.rglob("*.py") if (root / "__init__.py").exists() else root.glob("*.py")
        for path in sorted(paths):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            visit(tree, tree, None, None)
    return calls


def _literal_keys(node: ast.AST | None) -> set[str] | None:
    """The keys of a dict literal whose keys are all strings, else ``None``."""
    if isinstance(node, ast.Dict) and all(
        isinstance(key, ast.Constant) and isinstance(key.value, str) for key in node.keys
    ):
        return {key.value for key in node.keys}
    return None


def _passed(site: Site, calls: dict[str, list[Site]], seen: frozenset = frozenset()):
    """The names a call passes by keyword, ``**`` arguments resolved, or
    ``None`` when a ``**`` argument may pass any name."""
    call, scope, caller = site
    names: set[str] = set()
    for keyword in call.keywords:
        if keyword.arg is not None:
            names.add(keyword.arg)
            continue
        value, keys = keyword.value, _literal_keys(keyword.value)
        if keys is None and isinstance(value, ast.Name):
            kwarg = getattr(getattr(scope, "args", None), "kwarg", None)
            if kwarg is None or kwarg.arg != value.id:
                keys = _bound_keys(scope, value.id)
            elif _only_unpacked(scope, value.id):
                keys = _forwarded(scope, caller, calls, seen)
        if keys is None:
            return None
        names |= keys
    return names


def _forwarded(function, caller: str, calls: dict[str, list[Site]], seen: frozenset):
    """What the callers of ``function`` pass into its ``**kwargs``: the
    names they pass less its named parameters."""
    if caller in seen:
        return set()
    args = function.args
    named = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    keys: set[str] = set()
    for site in calls.get(caller, ()):
        passed = _passed(site, calls, seen | {caller})
        if passed is None:
            return None
        keys |= passed - named
    return keys


def _only_unpacked(function: ast.AST, name: str) -> bool:
    """Whether ``function`` mentions ``name`` only as a ``**name`` argument,
    so it adds no key to the dict its callers filled."""
    mentions = unpacked = 0
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and node.id == name:
            mentions += 1
        if isinstance(node, ast.keyword) and node.arg is None:
            unpacked += getattr(node.value, "id", None) == name
    return mentions == unpacked


def _bound_keys(scope: ast.AST, name: str) -> set[str] | None:
    """The keys ``name`` may hold in ``scope`` if every binding of it there
    is a plain assignment of a dict literal and nothing indexes or calls
    into it, else ``None``."""
    keys: set[str] = set()
    stores = assigned = 0
    for node in ast.walk(scope):
        if isinstance(node, (ast.Subscript, ast.Attribute)) and getattr(node.value, "id", None) == name:
            return None
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Store):
            stores += 1
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(target, "id", None) == name for target in targets):
                literal = _literal_keys(node.value)
                if literal is None:
                    return None
                keys |= literal
                assigned += 1
    return keys if stores and stores == assigned else None


def _sets(site: Site, calls: dict[str, list[Site]], param: str, position: int | None) -> bool:
    passed = _passed(site, calls)
    if passed is None or param in passed:
        return True
    call = site[0]
    if position is None:
        return False
    return any(isinstance(arg, ast.Starred) for arg in call.args) or len(call.args) > position


def option_audit(
    options: dict[str, tuple[str, str, int | None]],
    calls: dict[str, list[Site]],
    allowlist: dict[str, str],
) -> tuple[list[str], list[str]]:
    """The allowlist entries that name no defaulted parameter, and the
    defaulted parameters that no call sets and no entry keeps."""
    stale = sorted(entry for entry in allowlist if entry not in options)
    unset = sorted(
        key
        for key, (callee, param, position) in options.items()
        if key not in allowlist
        and not any(_sets(site, calls, param, position) for site in calls.get(callee, ()))
    )
    return stale, unset


def unused_imports(package: Path = PACKAGE, name: str = "repro") -> list[str]:
    """Every name a non-``__init__`` module of ``package`` imports at
    module level and never mentions again, as ``module:name``."""
    unused = []
    for path, module, tree in _modules(package, name):
        if path.name == "__init__.py":
            continue
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # Quoted annotations (``"FaultPlan | None"``) mention names, too.
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # Python 3.10 rejects a NUL in the string with ValueError.
                with contextlib.suppress(SyntaxError, ValueError):
                    quoted = ast.parse(node.value, mode="eval")
                    used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
        unused += sorted(f"{module}:{bound}" for bound in imported if bound not in used)
    return unused


@pytest.fixture(scope="module")
def repo_options():
    return package_options(), package_calls()


def test_every_option_has_a_caller(repo_options):
    stale, unset = option_audit(*repo_options, OPTION_ALLOWLIST)
    assert not stale, f"option allowlist entries that name no defaulted parameter: {stale}"
    assert not unset, (
        f"{len(unset)} defaulted parameter(s) set by no call in src/ or perfbench/: pass "
        f"them from a caller, delete them, or allowlist them with a reason: {unset}"
    )


@pytest.mark.parametrize("entry", sorted(OPTION_ALLOWLIST))
def test_every_option_entry_keeps_an_unset_parameter(repo_options, entry):
    kept = {k: v for k, v in OPTION_ALLOWLIST.items() if k != entry}
    assert option_audit(*repo_options, kept) == ([], [entry])


def test_every_module_level_import_is_used():
    unused = unused_imports()
    assert not unused, f"module-level imports no code of their module uses: {unused}"


def test_every_function_runs_in_a_scenario_point():
    points = _fresh_interpreter(_RUN_THE_POINT_SET)
    assert not points["failed"], f"audit CLI calls failed: {points['failed']}"
    ran = {(str(Path(path).resolve()), line) for path, line in points["ran"]}
    stale, never_ran = audit(package_functions(), ran, ALLOWLIST)
    assert not stale, f"allowlist entries that name no function: {stale}"
    assert not never_ran, (
        f"{len(never_ran)} function(s) run in no scenario point: run them from a "
        f"scenario, delete them, or allowlist them with a reason: {never_ran}"
    )


def test_registering_scenarios_loads_no_scipy():
    setup = _fresh_interpreter(_EXPAND_EVERY_GRID)
    assert setup["points"] > 0
    assert not setup["scipy"], "a scenario module imports scipy at registration"


# -- the audit's own machinery, on a toy package ------------------------------

_TOY_MODULE = """\
import functools


def called():
    def inner():
        return 1

    return inner()


def never_called():
    def never_inner():
        return 0

    return never_inner()


@functools.lru_cache(maxsize=None)
def decorated(x):
    return x


class Box:
    @staticmethod
    def make():
        return Box()

    @property
    def size(self):
        return 3

    def unused(self):
        return None
"""

_TOY_RAN = {
    "toy.mod:called",
    "toy.mod:called.<locals>.inner",
    "toy.mod:decorated",
    "toy.mod:Box.make",
    "toy.mod:Box.size",
}
_TOY_NEVER_RAN = [
    "toy.mod:Box.unused",
    "toy.mod:never_called",
    "toy.mod:never_called.<locals>.never_inner",
    "toy:setup",
]
#: Keeps every toy function that never runs: one method, one function with
#: its nested function, and one whole module.
_TOY_KEEP = {
    "toy.mod:Box.unused": "kept method",
    "toy.mod:never_called": "kept function",
    "toy": "kept module",
}


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """The inventory of a package ``toy`` (an ``__init__`` and ``mod``) and
    the keys ``cProfile`` records while five of its functions run."""
    package = tmp_path_factory.mktemp("audit").resolve() / "toy"
    package.mkdir()
    (package / "__init__.py").write_text('def setup():\n    return "toy"\n')
    (package / "mod.py").write_text(_TOY_MODULE)
    spec = importlib.util.spec_from_file_location("toy_mod", package / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    profile = cProfile.Profile()
    profile.enable()
    mod.called()
    mod.decorated(2)
    mod.Box.make().size
    profile.disable()
    ran = {
        (str(Path(s.code.co_filename).resolve()), s.code.co_firstlineno)
        for s in profile.getstats()
        if not isinstance(s.code, str)
    }
    return package_functions(package, "toy"), ran


class TestAuditMachinery:
    def test_inventory_names_nested_functions_methods_and_package_inits(self, toy):
        functions, _ = toy
        assert sorted(functions.values()) == sorted(_TOY_RAN | set(_TOY_NEVER_RAN))

    def test_profiler_keys_match_the_inventory_decorators_included(self, toy):
        functions, ran = toy
        assert {name for key, name in functions.items() if key in ran} == _TOY_RAN

    def test_an_uncalled_function_fails_the_audit(self, toy):
        assert audit(*toy, {}) == ([], _TOY_NEVER_RAN)

    def test_the_allowlist_keeps_what_it_names(self, toy):
        assert audit(*toy, _TOY_KEEP) == ([], [])

    @pytest.mark.parametrize("entry", sorted(_TOY_KEEP))
    def test_dropping_an_entry_names_what_it_kept(self, toy, entry):
        kept = {k: v for k, v in _TOY_KEEP.items() if k != entry}
        assert audit(*toy, kept) == (
            [],
            [name for name in _TOY_NEVER_RAN if _allowed_by(entry, name)],
        )

    @pytest.mark.parametrize(
        "entry", ["toy.mod:gone", "toy.mod:Box.gone", "toy.gone", "toy.mod:call"]
    )
    def test_an_entry_that_names_no_function_fails_the_audit(self, toy, entry):
        # ``toy.mod:call`` is a prefix of ``called`` but names no function.
        assert audit(*toy, {**_TOY_KEEP, entry: "stale"}) == ([entry], [])

    def test_an_allowlisted_function_that_runs_passes(self, toy):
        assert audit(*toy, {**_TOY_KEEP, "toy.mod:called": "also runs"}) == ([], [])

    def test_a_module_entry_covers_that_module_alone(self, toy):
        stale, never_ran = audit(*toy, {"toy": "kept module"})
        assert stale == []
        assert never_ran == [name for name in _TOY_NEVER_RAN if name != "toy:setup"]


# -- the option audit's machinery, on a toy package ---------------------------

_TOY_OPTIONS_MODULE = """\
def unset(a, b=1):
    return a + b


def by_keyword(a, b=1):
    return a + b


def by_position(a, b=1):
    return a + b


def by_star_args(a, b=1):
    return a + b


def by_star_kwargs(a, *, b=1, c=2):
    return a + b + c


def by_dict_literal(a, *, b=1, c=2):
    return a + b + c


def forwards(a, **kwargs):
    return by_forward(a, **kwargs)


def by_forward(a, *, b=1, c=2):
    return a + b + c


def adds_then_forwards(a, **kwargs):
    kwargs.setdefault("c", 3)
    return by_adding_forward(a, **kwargs)


def by_adding_forward(a, *, b=1, c=2):
    return a + b + c


def keyword_only(a, *, b=1):
    def nested(c=2):
        return c

    return a + b + nested(c=3)


class Box:
    def __init__(self, size=3):
        self.size = size

    def grow(self, by=1):
        return self.size + by
"""

#: Calls from a second root, a plain directory like ``perfbench/``.
_TOY_CALLERS = """\
from opts.mod import (
    Box, adds_then_forwards, by_dict_literal, by_keyword, by_position, by_star_args,
    by_star_kwargs, forwards, keyword_only, unset,
)

args, kwargs = (0, 2), {"b": 2}
options = {"b": 2}
unset(0)
by_keyword(0, b=2)
by_position(0, 2)
by_star_args(*args)
by_star_kwargs(0, **kwargs)  # not bound by a plain assignment: may pass any name
by_dict_literal(0, **options)  # bound to a dict literal: passes its keys
forwards(0, b=2)  # reaches by_forward through forwards' **kwargs
adds_then_forwards(0, b=2)  # which sets c before it forwards: may pass any name
keyword_only(0, 2)  # a keyword-only parameter is not set by position
Box(4).grow(by=2)
"""

_TOY_UNSET = [
    "opts.mod:by_dict_literal(c)",
    "opts.mod:by_forward(c)",
    "opts.mod:keyword_only(b)",
    "opts.mod:unset(b)",
]


@pytest.fixture(scope="module")
def toy_options(tmp_path_factory):
    root = tmp_path_factory.mktemp("options").resolve()
    package = root / "opts"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(_TOY_OPTIONS_MODULE)
    callers = root / "bench"
    callers.mkdir()
    (callers / "drive.py").write_text(_TOY_CALLERS)
    return package_options(package, "opts"), package_calls((package, callers))


class TestOptionAuditMachinery:
    def test_inventory_names_defaults_of_functions_methods_and_nested_functions(
        self, toy_options
    ):
        options, _ = toy_options
        assert options == {
            "opts.mod:unset(b)": ("unset", "b", 1),
            "opts.mod:by_keyword(b)": ("by_keyword", "b", 1),
            "opts.mod:by_position(b)": ("by_position", "b", 1),
            "opts.mod:by_star_args(b)": ("by_star_args", "b", 1),
            "opts.mod:by_star_kwargs(b)": ("by_star_kwargs", "b", None),
            "opts.mod:by_star_kwargs(c)": ("by_star_kwargs", "c", None),
            "opts.mod:by_dict_literal(b)": ("by_dict_literal", "b", None),
            "opts.mod:by_dict_literal(c)": ("by_dict_literal", "c", None),
            "opts.mod:by_forward(b)": ("by_forward", "b", None),
            "opts.mod:by_forward(c)": ("by_forward", "c", None),
            "opts.mod:by_adding_forward(b)": ("by_adding_forward", "b", None),
            "opts.mod:by_adding_forward(c)": ("by_adding_forward", "c", None),
            "opts.mod:keyword_only(b)": ("keyword_only", "b", None),
            "opts.mod:keyword_only.<locals>.nested(c)": ("nested", "c", 0),
            "opts.mod:Box.__init__(size)": ("Box", "size", 0),
            "opts.mod:Box.grow(by)": ("grow", "by", 0),
        }

    def test_an_unset_parameter_fails_the_audit(self, toy_options):
        # Set by keyword, by position, through *args and **kwargs, through
        # the class name and from a nested call: everything else passes.
        assert option_audit(*toy_options, {}) == ([], _TOY_UNSET)

    def test_a_name_bound_to_dict_literals_passes_their_keys(self, toy_options):
        unset = option_audit(*toy_options, {})[1]
        assert "opts.mod:by_dict_literal(b)" not in unset
        assert "opts.mod:by_dict_literal(c)" in unset

    @pytest.mark.parametrize(
        "binding, sets_c", [('{"c": 3}', True), ('{"b": 4}', False), ("dict(c=3)", True)]
    )
    def test_every_binding_of_the_name_counts(self, toy_options, binding, sets_c):
        # A second literal adds its keys; any other binding passes every name.
        options, calls = toy_options
        tree = ast.parse(f'options = {{"b": 2}}\noptions = {binding}\nby_dict_literal(0, **options)')
        rebound = {**calls, "by_dict_literal": [(tree.body[-1].value, tree, None)]}
        unset = option_audit(options, rebound, {})[1]
        assert ("opts.mod:by_dict_literal(c)" not in unset) == sets_c

    def test_a_kwargs_forward_passes_what_the_forwarders_callers_pass(self, toy_options):
        options, calls = toy_options
        unset = option_audit(options, calls, {})[1]
        assert "opts.mod:by_forward(b)" not in unset
        assert "opts.mod:by_forward(c)" in unset
        # With no caller of the forwarder, the forward passes nothing.
        alone = {name: sites for name, sites in calls.items() if name != "forwards"}
        assert "opts.mod:by_forward(b)" in option_audit(options, alone, {})[1]

    def test_a_forwarder_that_adds_keys_passes_every_name(self, toy_options):
        unset = option_audit(*toy_options, {})[1]
        assert not any(key.startswith("opts.mod:by_adding_forward") for key in unset)

    def test_any_other_double_star_passes_every_name(self, toy_options):
        unset = option_audit(*toy_options, {})[1]
        assert not any(key.startswith("opts.mod:by_star_kwargs") for key in unset)

    def test_the_allowlist_keeps_what_it_names(self, toy_options):
        kept = {key: "kept" for key in _TOY_UNSET}
        assert option_audit(*toy_options, kept) == ([], [])

    @pytest.mark.parametrize("entry", _TOY_UNSET)
    def test_dropping_an_entry_names_what_it_kept(self, toy_options, entry):
        kept = {key: "kept" for key in _TOY_UNSET if key != entry}
        assert option_audit(*toy_options, kept) == ([], [entry])

    @pytest.mark.parametrize(
        "entry", ["opts.mod:unset(a)", "opts.mod:gone(b)", "opts.mod:Box.__init__(self)"]
    )
    def test_an_entry_that_names_no_defaulted_parameter_fails_the_audit(
        self, toy_options, entry
    ):
        kept = {key: "kept" for key in _TOY_UNSET}
        assert option_audit(*toy_options, {**kept, entry: "stale"}) == ([entry], [])

    def test_a_call_outside_the_caller_roots_sets_nothing(self, toy_options):
        options, _ = toy_options
        assert option_audit(options, {}, {}) == ([], sorted(options))


_TOY_IMPORTS = """\
import json
import os.path
from collections import OrderedDict as Ordered
from typing import Hashable, Sequence


#: A NUL, which some Python versions' ast.parse rejects with ValueError.
SEPARATOR = "\\0"


def first(items: Sequence) -> "Hashable | None":
    return os.path.basename(items[0]) if items else None
"""


class TestImportAuditMachinery:
    def test_an_unused_module_level_import_fails_the_audit(self, tmp_path):
        package = tmp_path / "imps"
        package.mkdir()
        (package / "__init__.py").write_text("import json\n")  # a re-export: exempt
        (package / "mod.py").write_text(_TOY_IMPORTS)
        # ``os`` is used through its attribute, ``Sequence`` in an annotation
        # and ``Hashable`` in a quoted one.
        assert unused_imports(package, "imps") == ["imps.mod:Ordered", "imps.mod:json"]
