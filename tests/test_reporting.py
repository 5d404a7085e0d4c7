"""The HTML report subsystem: SVG kit, report model, site builder, CLI."""

import json
import re
import xml.etree.ElementTree as ET

import pytest

from repro.experiments import ParamSpec, PlotSpec, ResultStore, scenario
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import get_scenario
from repro.experiments.reporting import (
    build_reports,
    build_site,
    page_name,
    plot_series,
    render_bar_chart,
    render_plot,
    render_scenario_page,
)
from repro.experiments.reporting.svg import Series, linear_ticks, log_ticks
from repro.experiments.store import ResultRecord


@scenario("test-rep-plot", params=[ParamSpec("x", int, 1), ParamSpec("kind", str, "a")])
def _rep_plot(*, seed, x, kind):
    """Synthetic scenario for report-model tests."""
    return {"y": float(x)}


def _record(scenario_name, key, params, result, *, seed=7, status="ok", error=None):
    return ResultRecord(
        key=key,
        scenario=scenario_name,
        params=params,
        seed=seed,
        replicate=0,
        status=status,
        result=result,
        error=error,
        duration_s=0.25,
    )


def _fig3_store(root) -> ResultStore:
    """A fixed store with fig3 + engine-speedup + an unregistered scenario."""
    store = ResultStore(root)
    for i, w in enumerate((2.0, 32.0, 256.0)):
        store.put(
            _record(
                "fig3-mst-tradeoff",
                f"k{i}",
                {"n": 24, "aspect_ratio": w, "engine": "event"},
                {
                    "W": w,
                    "elkin_rounds": 100 * (i + 1),
                    "gkp_rounds": 80 * (i + 2),
                    "combined_rounds": 100 * (i + 1),
                    "formula_lower_bound": 10.0 * (i + 1),
                    "formula_upper_bound": 1000.0 * (i + 1),
                },
            )
        )
    for i, w in enumerate((256.0, 1024.0)):
        store.put(
            _record(
                "fig3-engine-speedup",
                f"s{i}",
                {"n": 24, "aspect_ratio": w},
                {
                    "W": w,
                    "dense_seconds": 0.8 + i,
                    "event_seconds": 0.1,
                    "speedup": 8.0 * (i + 1),
                    "engines_agree": True,
                },
            )
        )
    store.put(
        _record(
            "ghost-scenario",
            "g0",
            {"alpha": 1},
            {"metric": 3.5},
        )
    )
    store.put(
        _record(
            "ghost-scenario",
            "g1",
            {"alpha": 2},
            None,
            status="error",
            error="Traceback ...\nValueError: boom",
        )
    )
    return store


class TestSvg:
    def test_linear_ticks_nice_steps(self):
        ticks = linear_ticks(0.0, 10.0)
        assert ticks[0] == 0.0
        assert all(b - a == ticks[1] - ticks[0] for a, b in zip(ticks, ticks[1:]))
        assert 3 <= len(ticks) <= 7

    def test_log_ticks_powers_of_ten(self):
        assert log_ticks(2.0, 8000.0) == [1.0, 10.0, 100.0, 1000.0, 10000.0]

    def test_render_plot_deterministic_and_wellformed(self):
        series = [Series.of("a", [(1, 2), (10, 20), (100, 15)])]
        one = render_plot("t", series, logx=True)
        two = render_plot("t", series, logx=True)
        assert one == two
        ET.fromstring(one)  # raises if not valid XML

    def test_log_axis_drops_nonpositive_points(self):
        svg = render_plot("t", [Series.of("a", [(0, 5), (-1, 6), (10, 7)])], logx=True)
        assert svg.count("<circle") == 1

    def test_no_data_renders_placeholder(self):
        svg = render_plot("empty", [])
        assert "no plottable data" in svg

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown plot kind"):
            render_plot("t", [], kind="pie")

    def test_bar_chart_one_rect_per_value(self):
        svg = render_bar_chart(
            "t", ["x", "y"], [Series.of("s", [(0, 3.0), (1, 5.0)])]
        )
        assert svg.count('fill="#2563eb"') == 2 + 1  # 2 bars + legend swatch
        ET.fromstring(svg)

    def test_escapes_markup_in_labels(self):
        svg = render_plot("<b>&title", [Series.of("a<b", [(1, 1), (2, 2)])])
        assert "<b>" not in svg.replace("<b>&amp;title", "")
        assert "&lt;b&gt;" in svg


class TestModel:
    def test_axes_fixed_and_status_tally(self, tmp_path):
        store = _fig3_store(tmp_path)
        reports = {r.name: r for r in build_reports(list(store.iter_records()))}
        fig3 = reports["fig3-mst-tradeoff"]
        assert list(fig3.axes) == ["aspect_ratio"]
        assert fig3.axes["aspect_ratio"] == [2.0, 32.0, 256.0]
        assert fig3.fixed == {"n": 24, "engine": "event"}
        assert (fig3.n_ok, fig3.n_error) == (3, 0)
        ghost = reports["ghost-scenario"]
        assert (ghost.n_ok, ghost.n_error) == (1, 1)
        assert ghost.scenario is None  # not registered; page still renders

    def test_timeout_record_of_an_older_store_counts_as_not_ok(self):
        """Nothing writes the ``timeout`` status any more; a store written
        before per-task timeouts went may still hold one."""
        records = [
            _record("ghost-scenario", "g0", {"alpha": 1}, {"metric": 1.0}),
            _record("ghost-scenario", "g1", {"alpha": 2}, None, status="timeout"),
        ]
        (report,) = build_reports(records)
        assert (report.n_ok, report.n_error) == (1, 1)

    def test_declared_plot_specs_resolve_to_series(self, tmp_path):
        store = _fig3_store(tmp_path)
        reports = {r.name: r for r in build_reports(list(store.iter_records()))}
        fig3 = reports["fig3-mst-tradeoff"]
        specs = fig3.plot_specs()
        assert [s.name for s in specs] == ["rounds-vs-w", "bounds-vs-w"]
        series, categories = plot_series(fig3, specs[0])
        assert categories == []
        assert [s.label for s in series] == [
            "elkin_rounds",
            "gkp_rounds",
            "combined_rounds",
        ]
        assert series[0].points == ((2.0, 100.0), (32.0, 200.0), (256.0, 300.0))

    def test_unregistered_scenario_synthesises_default_spec(self, tmp_path):
        store = _fig3_store(tmp_path)
        reports = {r.name: r for r in build_reports(list(store.iter_records()))}
        specs = reports["ghost-scenario"].plot_specs()
        assert len(specs) == 1
        assert specs[0].x == "alpha" and specs[0].ys == ("metric",)

    def test_line_series_average_replicates(self):
        records = [
            _record("test-rep-plot", f"r{i}", {"x": 2}, {"y": y}, seed=i)
            for i, y in enumerate((10.0, 30.0))
        ]
        report = build_reports(records)[0]
        series, _ = plot_series(
            report, PlotSpec(name="p", title="p", x="x", ys=("y",))
        )
        assert series[0].points == ((2.0, 20.0),)

    def test_group_by_splits_series(self):
        records = [
            _record("test-rep-plot", f"g{i}", {"x": i, "kind": kind}, {"y": i * 1.0})
            for i, kind in enumerate(("a", "b", "a", "b"))
        ]
        report = build_reports(records)[0]
        series, _ = plot_series(
            report,
            PlotSpec(name="p", title="p", x="x", ys=("y",), group_by="kind"),
        )
        assert [s.label for s in series] == ["y kind=a", "y kind=b"]

    def test_plotspec_validation(self):
        with pytest.raises(ValueError, match="unknown plot kind"):
            PlotSpec(name="p", title="p", x="x", ys=("y",), kind="pie")
        with pytest.raises(ValueError, match="no y series"):
            PlotSpec(name="p", title="p", x="x", ys=())

    def test_builtin_scenarios_declare_plots(self):
        for name in ("fig3-mst-tradeoff", "boruvka-mst-sweep", "fig2-bound-table"):
            assert get_scenario(name).plots, f"{name} lost its plot specs"


class TestSite:
    def test_site_deterministic_for_fixed_store(self, tmp_path):
        store = _fig3_store(tmp_path / "store")
        index1 = build_site(store, tmp_path / "site1")
        index2 = build_site(store, tmp_path / "site2")
        pages1 = {p.name: p.read_bytes() for p in index1.parent.iterdir()}
        pages2 = {p.name: p.read_bytes() for p in index2.parent.iterdir()}
        assert pages1 == pages2
        assert set(pages1) == {
            "index.html",
            "fig3-mst-tradeoff.html",
            "fig3-engine-speedup.html",
            "ghost-scenario.html",
        }

    def test_fig3_and_speedup_pages_embed_plots(self, tmp_path):
        store = _fig3_store(tmp_path / "store")
        index = build_site(store, tmp_path / "site")
        tradeoff = (index.parent / "fig3-mst-tradeoff.html").read_text()
        speedup = (index.parent / "fig3-engine-speedup.html").read_text()
        assert tradeoff.count("<svg") >= 2
        assert "Fig. 3 — MST rounds vs aspect ratio W" in tradeoff
        assert speedup.count("<svg") >= 2
        assert "speedup" in speedup

    def test_pages_are_self_contained(self, tmp_path):
        store = _fig3_store(tmp_path / "store")
        index = build_site(store, tmp_path / "site")
        for page in index.parent.glob("*.html"):
            text = page.read_text()
            assert "<style>" in text and "<script" not in text
            assert not re.search(r'(src|href)="https?://', text)

    def test_nonfinite_metrics_render_instead_of_crashing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(
            _record(
                "ghost-scenario",
                "nf",
                {"alpha": 1},
                {"metric": float("inf"), "other": float("nan")},
            )
        )
        index = build_site(store, tmp_path / "site")
        page = (index.parent / "ghost-scenario.html").read_text()
        assert "inf" in page and "nan" in page

    def test_index_em_dash_for_unswept_scenarios(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(_record("ghost-scenario", "g0", {"alpha": 1}, {"metric": 1.0}))
        index = build_site(store, tmp_path / "site")
        text = index.read_text()
        assert "—" in text and "&amp;mdash;" not in text

    def test_error_records_surface_on_page(self, tmp_path):
        store = _fig3_store(tmp_path / "store")
        build_site(store, tmp_path / "site")
        ghost = (tmp_path / "site" / "ghost-scenario.html").read_text()
        assert "ValueError: boom" in ghost
        assert 'class="status-error"' in ghost

    def test_empty_store_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            build_site(ResultStore(tmp_path / "nothing"), tmp_path / "site")

    def test_scenario_filter(self, tmp_path):
        store = _fig3_store(tmp_path / "store")
        index = build_site(store, tmp_path / "site", scenario="fig3-mst-tradeoff")
        names = {p.name for p in index.parent.iterdir()}
        assert names == {"index.html", "fig3-mst-tradeoff.html"}

    def test_index_links_exactly_the_pages_written(self, tmp_path):
        store = _fig3_store(tmp_path / "store")
        trace = tmp_path / "t.jsonl"
        lines = [
            {"kind": "meta", "schema": 1, "source": "test", "ts": 0.0},
            {"kind": "round", "ts": 0.1, "round": 0, "active": 2, "sent_bits": 8},
        ]
        trace.write_text("".join(json.dumps(line) + "\n" for line in lines))
        index = build_site(store, tmp_path / "site", trace_paths=[trace])
        site = index.parent
        pages = {p.name for p in site.glob("*.html")}
        assert "timeline.html" in pages
        assert set(re.findall(r'href="([^"#]+)"', index.read_text())) == pages - {"index.html"}
        for page in pages:
            for target in re.findall(r'href="([^"#]+)"', (site / page).read_text()):
                assert target in pages, f"{page} links missing page {target}"

    def test_page_name_slugs(self):
        assert page_name("fig3-mst-tradeoff") == "fig3-mst-tradeoff.html"
        assert page_name("weird name/../x") == "weird-name----x.html"


class TestCli:
    def test_report_html_builds_site(self, tmp_path, capsys):
        store = _fig3_store(tmp_path / "store")
        code = cli_main(
            ["report", "--store", str(store.root), "--html", str(tmp_path / "site")]
        )
        assert code == 0
        assert "report site:" in capsys.readouterr().out
        index = (tmp_path / "site" / "index.html").read_text()
        assert 'href="fig3-mst-tradeoff.html"' in index

    def test_report_format_json_round_trips(self, tmp_path, capsys):
        store = _fig3_store(tmp_path / "store")
        code = cli_main(["report", "--store", str(store.root), "--format", "json"])
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 7
        assert {r["scenario"] for r in records} == {
            "fig3-mst-tradeoff",
            "fig3-engine-speedup",
            "ghost-scenario",
        }

    def test_report_empty_store_exits_1_in_every_format(self, tmp_path, capsys):
        for extra in ([], ["--format", "json"], ["--html", str(tmp_path / "s")]):
            code = cli_main(["report", "--store", str(tmp_path / "none"), *extra])
            assert code == 1
            assert "no records" in capsys.readouterr().out
        assert not (tmp_path / "s").exists()

    def test_render_scenario_page_handles_unregistered(self, tmp_path):
        store = _fig3_store(tmp_path)
        reports = build_reports(list(store.iter_records("ghost-scenario")))
        html = render_scenario_page(reports[0])
        assert "ghost-scenario" in html
