"""End-to-end HTML report demo: tiny sweep -> result store -> static site.

Run with::

    PYTHONPATH=src python examples/html_report_demo.py [OUT_DIR]

Runs two small sweeps (the Fig. 2 bound table and the CHSH solver), then
renders the report site -- one self-contained page per scenario with
inline-SVG plots plus a cross-scenario index -- into OUT_DIR (default:
a temporary directory) and prints the index path.
"""

import sys
import tempfile
from pathlib import Path

from repro.experiments import ResultStore, expand_grid, get_scenario, run_sweep
from repro.experiments.reporting import build_site


def main(out_dir: str | None = None) -> Path:
    out = Path(out_dir) if out_dir else Path(tempfile.mkdtemp(prefix="report-demo-"))
    store = ResultStore(out / "store")

    for name, grid in (
        ("fig2-bound-table", {"n": [1_000, 10_000, 100_000]}),
        ("chsh-gamma2", {"restarts": [1, 2, 4], "iterations": [80]}),
    ):
        scenario = get_scenario(name)
        points = expand_grid(scenario, grid)
        report = run_sweep(points, store=store, progress=print)
        print(f"{name}: {report.executed} executed, {report.cached} cached\n")

    index = build_site(store, out / "site")
    pages = sorted(p.name for p in index.parent.glob("*.html"))
    print(f"report site: {index}")
    print(f"pages: {', '.join(pages)}")
    return index


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
