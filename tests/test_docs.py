"""Documentation invariants: generated catalog, link targets, docstrings.

Also checks that every file that defines a test is one plain ``pytest``
collects, so no test sits in a file that no run picks up.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

import repro.experiments
from repro.experiments.reporting.docs import builtin_scenarios, scenarios_markdown

REPO = Path(__file__).resolve().parent.parent

#: ``[label](target)`` markdown links, excluding images.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)#\s]+)(#[^)\s]*)?\)")

#: Inline code spans, each on one line (a ``` fence line never matches).
_CODE_SPAN = re.compile(r"`([^`\n]+)`")

#: Top-level directories whose paths the docs cite in code spans.
_REPO_DIRS = ("benchmarks/", "perfbench/", "examples/", "tests/", "src/")

#: Every doc a reader follows to a file: README, docs/, the verify recipe.
_PATH_DOCS = (
    ["README.md"]
    + sorted(f"docs/{p.name}" for p in (REPO / "docs").glob("*.md"))
    + [".claude/skills/verify/SKILL.md"]
)


class TestScenariosCatalog:
    def test_scenarios_md_matches_registry(self):
        """docs/scenarios.md is generated; regenerate it when this fails:

        PYTHONPATH=src python -m repro.experiments.reporting.docs > docs/scenarios.md
        """
        committed = (REPO / "docs" / "scenarios.md").read_text()
        assert committed == scenarios_markdown(), (
            "docs/scenarios.md drifted from the scenario registry; regenerate with "
            "`PYTHONPATH=src python -m repro.experiments.reporting.docs > docs/scenarios.md`"
        )

    def test_documented_command_prints_the_catalog_without_warnings(self):
        # Run as the docstring above says, with runpy's warnings as errors:
        # a package __init__ that imports the module before runpy runs it
        # makes runpy warn on every run.
        src = Path(repro.experiments.__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
        )}
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.experiments.reporting.docs"],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""
        assert out.stdout == (REPO / "docs" / "scenarios.md").read_text()

    def test_catalog_excludes_adhoc_registrations(self):
        # This test module's sibling suites register test-* scenarios; the
        # generated catalog must stay insensitive to them.
        names = {scn.name for scn in builtin_scenarios()}
        assert names and not any(n.startswith("test-") for n in names)

    def test_every_builtin_scenario_documented(self):
        committed = (REPO / "docs" / "scenarios.md").read_text()
        for scn in builtin_scenarios():
            assert f"## `{scn.name}`" in committed

    def test_parameterless_scenario_gets_a_note_not_an_empty_table(self):
        section = scenarios_markdown().split("## `lower-bound-machinery`")[1].split("\n## ")[0]
        assert "No parameters: a run is one point per replicate." in section
        assert "| parameter |" not in section

    def test_every_builtin_scenario_named_in_readme(self):
        readme = (REPO / "README.md").read_text()
        missing = [scn.name for scn in builtin_scenarios() if f"`{scn.name}`" not in readme]
        assert not missing, f"README.md never names these scenarios: {missing}"


class TestDocLinks:
    @pytest.mark.parametrize(
        "doc", sorted(p.name for p in (REPO / "docs").glob("*.md")) + ["README.md"]
    )
    def test_relative_links_resolve(self, doc):
        path = REPO / ("docs" if doc != "README.md" else ".") / doc
        text = path.read_text()
        for match in _LINK.finditer(text):
            target = match.group(1)
            if re.match(r"[a-z]+://", target) or target.startswith("mailto:"):
                continue
            resolved = (path.parent / target).resolve()
            assert resolved.exists(), f"{doc}: broken relative link {target!r}"


def _missing_repo_paths(text):
    """Repo paths cited in the code spans of ``text`` that do not exist.

    Every word of a span counts, so paths inside commands are checked too.
    A ``::node`` test suffix is dropped, ``*`` matches as a glob and
    placeholders such as ``bench_<name>.py`` are skipped.
    """
    missing = []
    for span in _CODE_SPAN.finditer(text):
        for word in span.group(1).split():
            if not word.startswith(_REPO_DIRS) or "<" in word:
                continue
            path = word.split("::")[0]
            found = any(REPO.glob(path)) if "*" in path else (REPO / path).exists()
            if not found:
                missing.append(path)
    return missing


class TestDocPaths:
    @pytest.mark.parametrize("doc", _PATH_DOCS)
    def test_backticked_repo_paths_exist(self, doc):
        missing = _missing_repo_paths((REPO / doc).read_text())
        assert not missing, f"{doc} cites missing paths: {missing}"

    def test_checker_accepts_node_suffixes_globs_and_placeholders(self):
        text = (
            "`tests/test_docs.py::TestDocPaths` and "
            "`python3 perfbench/*.py --seed 1` "
            "and `src/repro/<package>/missing.py` and `no_such_file.py`"
        )
        assert _missing_repo_paths(text) == []

    def test_checker_flags_missing_paths_inside_commands(self):
        text = (
            "`src/repro/no_such_module.py`, "
            "`python examples/no_such_demo.py --quick` and "
            "`perfbench/no_such_*.py`"
        )
        assert _missing_repo_paths(text) == [
            "src/repro/no_such_module.py",
            "examples/no_such_demo.py",
            "perfbench/no_such_*.py",
        ]


def _defines_a_test(path):
    """Whether ``path`` has a module-level ``test*`` function or a ``Test*``
    class with a ``test*`` method, which pytest collects from a test file."""

    def is_test(node):
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        return isinstance(node, functions) and node.name.startswith("test")

    for node in ast.parse(path.read_text()).body:
        if is_test(node):
            return True
        if isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            if any(is_test(item) for item in node.body):
                return True
    return False


def _uncollected_test_files(root, skip):
    """``.py`` files under ``root`` that define a test but are not named
    ``test_*.py``; directories whose name or root-relative path matches a
    ``skip`` pattern are not searched."""
    found = []
    for directory, subdirs, files in os.walk(root):
        rel = Path(directory).relative_to(root)
        subdirs[:] = sorted(
            d for d in subdirs
            if not any(fnmatch(d, p) or fnmatch((rel / d).as_posix(), p) for p in skip)
        )
        for name in sorted(files):
            path = Path(directory) / name
            if name.endswith(".py") and not fnmatch(name, "test_*.py") and _defines_a_test(path):
                found.append((rel / name).as_posix())
    return found


class TestEveryTestIsCollected:
    def test_every_file_that_defines_a_test_is_named_test_py(self, pytestconfig):
        """Plain ``pytest`` collects only ``test_*.py``: a test in a file of
        any other name runs nowhere.  Directories that pytest does not
        recurse into or that ``.gitignore`` lists are not searched."""
        ignored = (REPO / ".gitignore").read_text().splitlines()
        skip = pytestconfig.getini("norecursedirs") + [
            line.rstrip("/") for line in ignored if line.endswith("/")
        ]
        stray = _uncollected_test_files(REPO, skip)
        assert not stray, f"plain pytest collects none of these test files: {stray}"

    def test_checker_finds_tests_outside_test_files(self, tmp_path):
        files = {
            "bench/bench_fig.py": "def test_shape():\n    pass\n",
            "bench/bench_class.py": "class TestShape:\n    def test_it(self):\n        pass\n",
            "bench/helpers.py": "def build():\n    pass\n\nclass TestData:\n    x = 1\n",
            "bench/test_ok.py": "def test_shape():\n    pass\n",
            "out/bench_skipped.py": "def test_shape():\n    pass\n",
        }
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        assert _uncollected_test_files(tmp_path, ["out"]) == [
            "bench/bench_class.py",
            "bench/bench_fig.py",
        ]


def _experiment_modules():
    modules = [repro.experiments]
    for info in pkgutil.walk_packages(
        repro.experiments.__path__, prefix="repro.experiments."
    ):
        if info.name.endswith("__main__"):
            continue  # importing it would execute the CLI
        modules.append(importlib.import_module(info.name))
    # The fault-injection layer is scenario-facing API: hold it to the same
    # docstring standard as the experiment modules.
    modules.append(importlib.import_module("repro.congest.faults"))
    return modules


class TestDocstringLint:
    def test_every_module_has_a_docstring(self):
        for module in _experiment_modules():
            assert module.__doc__ and len(module.__doc__.strip()) >= 20, (
                f"{module.__name__} is missing a module docstring"
            )

    def test_public_api_has_docstrings(self):
        undocumented = []
        for module in _experiment_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or not (
                    inspect.isclass(obj) or inspect.isfunction(obj)
                ):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-exports are documented at their definition
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
                if inspect.isclass(obj):
                    for meth_name, meth in vars(obj).items():
                        if meth_name.startswith("_") or not inspect.isfunction(meth):
                            continue
                        if not (meth.__doc__ or "").strip():
                            undocumented.append(
                                f"{module.__name__}.{name}.{meth_name}"
                            )
        assert not undocumented, f"missing docstrings: {sorted(undocumented)}"
