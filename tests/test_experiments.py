"""The experiment harness: registry, sweep expansion, store, runner, CLI."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.comm import problems
from repro.core import approx_degree, fooling, nonlocal_games
from repro.experiments import (
    ParamSpec,
    ResultRecord,
    ResultStore,
    ScenarioNotFound,
    cache_key,
    expand_grid,
    get_scenario,
    list_scenarios,
    run_sweep,
    scenario,
)
from repro.experiments.backends import pool as pool_backend
from repro.experiments.cli import main as cli_main
from repro.experiments.sweep import canonical_json, derive_seed, parse_axis_overrides

BUILTINS = (
    "boruvka-mst-sweep",
    "chsh-gamma2",
    "example11-disjointness",
    "fig2-bound-table",
    "fig3-mst-tradeoff",
    "gkp-cap-ablation",
    "server-model-equivalence",
    "spanner-skeleton",
    "verification-suite",
)


@scenario(
    "test-echo",
    params=[ParamSpec("x", int, 1), ParamSpec("label", str, "a")],
    default_grid={"x": [1, 2]},
)
def _echo(*, seed, x, label):
    return {"x": x, "label": label, "seed_mod": seed % 1000}


@scenario("test-always-fails", params=[ParamSpec("x", int, 1)])
def _always_fails(*, seed, x):
    raise RuntimeError("deliberate failure")


@scenario("test-sleepy", params=[ParamSpec("delay", float, 5.0)])
def _sleepy(*, seed, delay):
    time.sleep(delay)
    return {"slept": delay}


#: What ``test-logged`` points and a sweep's progress callback did, in order.
_LOG: list[tuple[str, int]] = []


@scenario("test-logged", params=[ParamSpec("x", int, 0)])
def _logged(*, seed, x):
    _LOG.append(("run", x))
    return {"x": x}


class TestRegistry:
    def test_builtin_catalog_discoverable(self):
        names = {s.name for s in list_scenarios()}
        assert set(BUILTINS) <= names

    def test_get_scenario_loads_builtins(self):
        scn = get_scenario("fig3-mst-tradeoff")
        assert scn.name == "fig3-mst-tradeoff"
        assert {p.name for p in scn.params} >= {"n", "aspect_ratio", "alpha"}
        assert scn.default_grid["aspect_ratio"]  # multi-point by default
        assert len(scn.default_grid["aspect_ratio"]) >= 2

    def test_unknown_scenario_raises(self):
        with pytest.raises(ScenarioNotFound):
            get_scenario("no-such-scenario")

    def test_resolve_params_coerces_and_rejects_unknown(self):
        scn = get_scenario("test-echo")
        assert scn.resolve_params({"x": "7"}) == {"x": 7, "label": "a"}
        with pytest.raises(KeyError, match="unknown parameter"):
            scn.resolve_params({"bogus": 1})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            scenario("test-echo")(lambda *, seed: {})


class TestSweepExpansion:
    def test_grid_is_cartesian_and_ordered(self):
        scn = get_scenario("test-echo")
        points = expand_grid(scn, {"x": [1, 2], "label": ["a", "b"]})
        assert [(p.params["x"], p.params["label"]) for p in points] == [
            (1, "a"), (1, "b"), (2, "a"), (2, "b"),
        ]
        assert [p.index for p in points] == [0, 1, 2, 3]

    def test_same_grid_and_seed_give_identical_cache_keys(self):
        scn = get_scenario("test-echo")
        first = expand_grid(scn, {"x": [1, 2, 3]}, replicates=2, base_seed=42)
        second = expand_grid(scn, {"x": [1, 2, 3]}, replicates=2, base_seed=42)
        assert [p.seed for p in first] == [p.seed for p in second]
        keys_first = [cache_key(p.scenario, p.params, p.seed) for p in first]
        keys_second = [cache_key(p.scenario, p.params, p.seed) for p in second]
        assert keys_first == keys_second
        assert len(set(keys_first)) == len(keys_first)  # all distinct

    def test_seed_derivation_varies_with_everything(self):
        def seed(scenario, params, replicate, base_seed):
            return derive_seed(
                canonical_json(scenario), canonical_json(params), replicate, base_seed
            )

        base = seed("s", {"x": 1}, 0, 0)
        assert seed("s", {"x": 2}, 0, 0) != base
        assert seed("s", {"x": 1}, 1, 0) != base
        assert seed("s", {"x": 1}, 0, 1) != base
        assert seed("other", {"x": 1}, 0, 0) != base

    def test_scalar_axis_and_defaults(self):
        scn = get_scenario("test-echo")
        points = expand_grid(scn, {"x": 5})
        assert len(points) == 1
        assert points[0].params == {"x": 5, "label": "a"}
        # No grid: the registered default grid applies.
        assert [p.params["x"] for p in expand_grid(scn)] == [1, 2]

    def test_unknown_axis_rejected(self):
        with pytest.raises(KeyError, match="unknown grid axis"):
            expand_grid(get_scenario("test-echo"), {"bogus": [1]})

    def test_parse_axis_overrides(self):
        assert parse_axis_overrides(["x=1,2,3", "label=b"]) == {
            "x": ["1", "2", "3"],
            "label": ["b"],
        }
        with pytest.raises(ValueError):
            parse_axis_overrides(["nonsense"])


class TestStoreAndCache:
    def test_cache_hit_skips_execution(self, tmp_path):
        store = ResultStore(tmp_path)
        points = expand_grid(get_scenario("test-echo"), {"x": [1, 2, 3]})
        first = run_sweep(points, store=store)
        assert (first.cached, first.executed) == (0, 3)
        second = run_sweep(points, store=store)
        assert (second.cached, second.executed) == (3, 0)
        assert [r.result for r in second.records] == [r.result for r in first.records]

    def test_force_reruns(self, tmp_path):
        store = ResultStore(tmp_path)
        points = expand_grid(get_scenario("test-echo"), {"x": [1]})
        run_sweep(points, store=store)
        report = run_sweep(points, store=store, force=True)
        assert (report.cached, report.executed) == (0, 1)

    def test_records_are_json_on_disk(self, tmp_path):
        store = ResultStore(tmp_path)
        points = expand_grid(get_scenario("test-echo"), {"x": [1, 2]})
        run_sweep(points, store=store)
        files = sorted((tmp_path / "test-echo").glob("*.json"))
        assert len(files) == 2
        record = json.loads(files[0].read_text())
        assert record["scenario"] == "test-echo"
        assert record["status"] == "ok"
        assert set(record) >= {"key", "params", "seed", "result", "code_version"}

    def test_version_bump_invalidates_cache(self):
        key = cache_key("s", {"x": 1}, 7)
        assert cache_key("s", {"x": 1}, 7, code_version="9.9.9") != key

    def test_a_record_with_a_scenario_version_still_loads(self):
        # Stores written while scenarios carried a version keep loading:
        # ``from_json`` ignores the field it no longer knows.
        record = ResultRecord(
            key="k", scenario="s", params={"x": 1}, seed=7, replicate=0, status="ok",
            result={"y": 2},
        )
        data = json.loads(record.to_json())
        assert "scenario_version" not in data
        data["scenario_version"] = "1"
        assert ResultRecord.from_json(json.dumps(data)) == record

    def test_source_edit_changes_the_key_fresh_interpreters_agree(self, tmp_path):
        code = "from repro.experiments.store import cache_key; print(cache_key('s', {'x': 1}, 7))"

        def fresh_key(src: Path) -> str:
            out = subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert out.returncode == 0, out.stderr
            return out.stdout.strip()

        src = Path(repro.__file__).resolve().parents[1]
        key = fresh_key(src)
        assert fresh_key(src) == key == cache_key("s", {"x": 1}, 7)
        copy = tmp_path / "src"
        shutil.copytree(
            src / "repro", copy / "repro", ignore=shutil.ignore_patterns("__pycache__")
        )
        assert fresh_key(copy) == key
        init = copy / "repro" / "__init__.py"
        source = bytearray(init.read_bytes())
        source[source.index(b'"""') + 3] ^= 0x20  # flip the case of one docstring letter
        init.write_bytes(bytes(source))
        assert fresh_key(copy) != key

    @pytest.mark.parametrize(
        "text",
        ['{"key": "k", "scenario": "test-ec', "[1, 2]", '{"key": "k"}'],
        ids=["truncated", "not-an-object", "missing-fields"],
    )
    def test_unreadable_record_is_a_cache_miss(self, tmp_path, text):
        store = ResultStore(tmp_path)
        points = expand_grid(get_scenario("test-echo"), {"x": [1]})
        run_sweep(points, store=store)
        (path,) = (tmp_path / "test-echo").glob("*.json")
        path.write_text(text)
        assert store.get("test-echo", path.stem) is None
        assert list(store.iter_records()) == []
        report = run_sweep(points, store=store)
        assert (report.cached, report.executed) == (0, 1)
        assert store.get("test-echo", path.stem) == report.records[0]

    def test_torn_record_breaks_neither_report_nor_run(self, tmp_path, capsys, caplog):
        store = str(tmp_path)
        argv = ["run", "test-echo", "--set", "x=1,2,3", "--store", store]
        assert cli_main(argv) == 0
        files = sorted((tmp_path / "test-echo").glob("*.json"))
        assert len(files) == 3
        torn = files[1]
        torn.write_text(torn.read_text()[:60])
        capsys.readouterr()
        assert cli_main(["report", "--store", store]) == 0
        assert "2 record(s) in" in capsys.readouterr().out
        assert f"skipping unreadable record {torn}" in caplog.text
        assert cli_main(argv) == 0
        assert "2 cached, 1 executed, 0 failed" in capsys.readouterr().out
        assert ResultRecord.from_json(torn.read_text()).status == "ok"

    def test_store_warnings_reach_stderr_from_the_cli(self, tmp_path):
        # The CLI configures no logging: the store's warnings reach stderr
        # through logging's last-resort handler.
        (tmp_path / "s").mkdir()
        torn = tmp_path / "s" / "torn.json"
        torn.write_text('{"key": "k", "scen')
        out = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "report", "--store", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 1  # no readable record
        assert f"skipping unreadable record {torn}" in out.stderr

    def test_failure_captured_not_raised(self, tmp_path):
        store = ResultStore(tmp_path)
        points = expand_grid(get_scenario("test-always-fails"))
        report = run_sweep(points, store=store)
        assert report.failed == 1 and not report.ok
        record = report.records[0]
        assert record.status == "error"
        assert "deliberate failure" in record.error
        # Failures are persisted (resumable) and served from cache too --
        # and a cached failure still fails the resumed sweep.
        resumed = run_sweep(points, store=store)
        assert (resumed.cached, resumed.executed) == (1, 0)
        assert resumed.failed == 1 and not resumed.ok


class TestSerialRunner:
    def test_progress_streams_point_by_point(self):
        """A serial sweep reports each point before it runs the next."""
        _LOG.clear()
        points = expand_grid(get_scenario("test-logged"), {"x": [0, 1, 2]})

        def progress(line):
            _LOG.append(("done", int(line.split()[2].lstrip("#"))))

        assert run_sweep(points, store=None, backend="serial", progress=progress).ok
        assert _LOG == [(state, x) for x in (0, 1, 2) for state in ("run", "done")]


class TestParallelRunner:
    def test_parallel_matches_serial(self, tmp_path):
        points = expand_grid(
            get_scenario("chsh-gamma2"), {"restarts": [1, 2, 3, 4], "iterations": 60}
        )
        serial = run_sweep(points, store=None, workers=1)
        parallel = run_sweep(points, store=ResultStore(tmp_path), workers=3)
        assert serial.ok and parallel.ok
        assert parallel.executed == 4
        assert [r.result for r in parallel.records] == [r.result for r in serial.records]
        assert [r.seed for r in parallel.records] == [r.seed for r in serial.records]

    def test_points_are_collected_as_they_finish(self, monkeypatch):
        """Grid order puts a slow point first: the fast point behind it is
        collected (and reported) first, and the records still come back in
        grid order."""
        monkeypatch.setattr(pool_backend, "DEFAULT_START_METHOD", "fork")
        points = expand_grid(get_scenario("test-sleepy"), {"delay": [0.6, 0.01]})
        progress = []
        report = run_sweep(points, store=None, workers=2, progress=progress.append)
        assert report.ok
        assert [line.split()[:3] for line in progress] == [
            ["[done]", "test-sleepy", "#1"],
            ["[done]", "test-sleepy", "#0"],
        ]
        assert [r.result["slept"] for r in report.records] == [0.6, 0.01]

    def test_workers_recycled_with_maxtasksperchild(self, monkeypatch):
        monkeypatch.setattr(pool_backend, "DEFAULT_START_METHOD", "fork")
        monkeypatch.setattr(pool_backend, "MAX_TASKS_PER_CHILD", 1)
        points = expand_grid(get_scenario("test-echo"), {"x": [1, 2, 3, 4, 5]})
        report = run_sweep(points, store=None, workers=2)
        assert report.ok and report.executed == 5
        assert [r.result["x"] for r in report.records] == [1, 2, 3, 4, 5]


class TestFig3MstTradeoffScenario:
    def test_elkin_runs_alike_at_b_64_and_the_scenario_bandwidth(self):
        """Both Fig. 3 runs take the scenario's ``bandwidth``.  A label
        message ``("lbl", id)`` costs at most 64 bits for every id below
        2^23, so on the default instances Elkin's rounds, bits and weight at
        that B equal those at the runner's default B = 64."""
        from repro.algorithms.elkin import run_elkin_approx_mst
        from repro.experiments.scenarios import _fig3_graph

        for point in expand_grid(get_scenario("fig3-mst-tradeoff")):
            p = point.params
            assert p["bandwidth"] == 128
            graph = _fig3_graph(
                point.seed, p["n"], p["aspect_ratio"], p["extra_edge_prob"], p["graph_seed"]
            )
            runs = [
                run_elkin_approx_mst(graph, alpha=p["alpha"], bandwidth=bandwidth)
                for bandwidth in (64, p["bandwidth"])
            ]
            (weight_64, at_64), (weight_b, at_b) = runs
            assert weight_b == weight_64
            assert (at_b.rounds, at_b.total_bits, at_b.total_messages) == (
                at_64.rounds,
                at_64.total_bits,
                at_64.total_messages,
            )
            assert at_b.max_edge_bits_per_round <= 64


class TestSpannerSkeletonScenario:
    def test_linear_size_and_stretch_with_quiet_rounds(self):
        points = expand_grid(get_scenario("spanner-skeleton"), {"n": 24})
        report = run_sweep(points, store=None)
        assert report.ok
        result = report.records[0].result
        assert result["linear_size"] and result["within_stretch"]
        assert result["spanner_edges"] < result["m"] or result["m"] < 2 * 24
        # The phased construction is mostly quiet: the event engine must
        # skip a large majority of the dense n x rounds schedule.
        assert result["quiet_fraction"] > 0.5


class TestBoruvkaMstSweepScenario:
    # At B = 64 a candidate takes two rounds per hop, so its flood window
    # is twice the label window's.  At B = 8 a label (16 bits at n = 25)
    # also takes two, so the candidates are computed in round 2 of each
    # iteration, when the announced labels arrive.
    @pytest.mark.parametrize("bandwidth", [128, 64, 8])
    @pytest.mark.parametrize("generator", ["random", "grid", "geometric"])
    def test_exact_mst_on_every_topology_family(self, generator, bandwidth):
        scn = get_scenario("boruvka-mst-sweep")
        params = scn.resolve_params(
            {"n": 25, "generator": generator, "weight_model": "euclidean",
             "bandwidth": bandwidth}
        )
        result = scn.run(params, seed=9)
        assert result["exact"], result
        assert result["tree_edges"] == result["n"] - 1
        assert result["rounds"] > 0 and result["total_bits"] > 0

    def test_engine_axis_sweeps_identically(self):
        """The engine is a grid axis: every engine must report the same MST
        and the same CONGEST metrics on the same point."""
        scn = get_scenario("boruvka-mst-sweep")
        results = {}
        for engine in ("dense", "event"):
            params = scn.resolve_params(
                {"n": 16, "generator": "geometric", "weight_model": "distinct",
                 "engine": engine}
            )
            results[engine] = scn.run(params, seed=5)
        for field in ("tree_weight", "rounds", "total_bits", "total_messages", "exact"):
            assert results["event"][field] == results["dense"][field], field

    def test_unknown_generator_and_weight_model_fail_the_point(self):
        scn = get_scenario("boruvka-mst-sweep")
        with pytest.raises(ValueError, match="unknown generator"):
            scn.run(scn.resolve_params({"generator": "bogus"}), seed=0)
        with pytest.raises(ValueError, match="unknown weight model"):
            scn.run(scn.resolve_params({"weight_model": "bogus"}), seed=0)


class TestBoruvkaRoundsMove:
    """Borůvka halts in the iteration after its last merge, so the rounds
    the two Borůvka scenarios plot move with the instance.  A schedule fixed
    by ``n`` alone would give one value on every default record (939 in
    ``boruvka-mst-sweep`` and 373 in ``mst-under-faults`` for
    ``ceil(log2 n) + 1`` iterations)."""

    @staticmethod
    def _values(name, key):
        report = run_sweep(expand_grid(get_scenario(name), base_seed=1))
        assert report.ok, [r.error for r in report.records if r.status != "ok"]
        return {r.result[key] for r in report.records}

    def test_boruvka_sweep_rounds(self):
        assert len(self._values("boruvka-mst-sweep", "rounds")) >= 2

    def test_mst_under_faults_clean_rounds(self):
        assert len(self._values("mst-under-faults", "rounds_clean")) >= 2


class TestBfsRestabilizationScenario:
    def test_fault_seed_axis_seeds_the_plan(self):
        """At a fixed point seed (so a fixed graph), only the plan's seed
        differs: the same ``fault_seed`` repeats the result, another one
        changes it."""
        scn = get_scenario("bfs-restabilization")
        results = [
            scn.run(scn.resolve_params({"n": 12, "drop_prob": 0.2, "fault_seed": s}), seed=3)
            for s in (0, 0, 1)
        ]
        assert results[0] == results[1]
        assert results[0] != results[2]


class TestServerModelEquivalenceScenario:
    @pytest.mark.parametrize("n_rounds", [2, 8, 32])
    def test_default_grid_is_cost_exact(self, n_rounds):
        scn = get_scenario("server-model-equivalence")
        assert n_rounds in scn.default_grid["n_rounds"]
        result = scn.run(scn.resolve_params({"n_rounds": n_rounds}), seed=n_rounds)
        assert result["cost_exact"] and result["outputs_match"]
        assert result["server_player_bits"] == result["two_party_bits"] == 2 * n_rounds


class TestGadgetReductionsScenario:
    def test_zero_trials_fail_the_point(self):
        scn = get_scenario("gadget-reductions")
        with pytest.raises(ValueError, match="trials >= 1, got trials=0"):
            scn.run(scn.resolve_params({"trials": 0}), seed=0)

    def test_single_bit_fails_the_point(self):
        scn = get_scenario("gadget-reductions")
        with pytest.raises(ValueError, match="n >= 2, got n=1"):
            scn.run(scn.resolve_params({"n": 1}), seed=0)

    def test_smallest_valid_point_is_sound(self):
        scn = get_scenario("gadget-reductions")
        result = scn.run(scn.resolve_params({"n": 2, "trials": 1}), seed=0)
        assert result["ipmod3_sound"] and result["gap_eq_sound"]


#: The boolean claims of ``lower-bound-machinery``, one per paper reference.
LOWER_BOUND_CLAIMS = (
    "mod3_degree_linear",
    "mod3_beats_or",
    "ipmod3_block_norm",
    "gap_eq_fooling_set",
    "gap_eq_bound_grows",
    "hadamard_gamma2",
    "lemma_3_2_win_probability",
)


def _or_swapped_for_mod3(monkeypatch):
    monkeypatch.setattr(approx_degree, "or_function", approx_degree.mod3_function)


def _mod3_swapped_for_or_past_6(monkeypatch):
    mod3, or_ = approx_degree.mod3_function, approx_degree.or_function
    monkeypatch.setattr(approx_degree, "mod3_function", lambda n: mod3(n) if n <= 6 else or_(n))


def _blocks_outside_the_promise(monkeypatch):
    every = problems.all_inputs
    monkeypatch.setattr(problems, "ipmod3_promise_inputs", lambda n: (every(n), every(n)))


def _repeated_codeword(monkeypatch):
    code = fooling.greedy_gv_code
    monkeypatch.setattr(fooling, "greedy_gv_code", lambda n, d: code(n, d) + code(n, d)[:1])


def _codewords_inside_the_gap(monkeypatch):
    code = fooling.greedy_gv_code
    monkeypatch.setattr(fooling, "greedy_gv_code", lambda n, d: code(n, 2)[:16])


def _code_size_flat_in_n(monkeypatch):
    monkeypatch.setattr(fooling, "gilbert_varshamov_size_bound", lambda n, d: 2.0**16)


def _ipmod3_for_ip(monkeypatch):
    def ipmod3(n):
        def evaluate(x, y):
            return int(sum(a * b for a, b in zip(x, y)) % 3 == 0)

        return problems.Problem(f"IPmod3_{n}", n, evaluate)

    monkeypatch.setattr(problems, "inner_product_mod2", ipmod3)


def _guess_cost_4_per_bit(monkeypatch):
    monkeypatch.setattr(
        nonlocal_games,
        "predicted_xor_win_probability",
        lambda q, bits: 0.5 + (q - 0.5) * 4.0**-bits,
    )


class TestLowerBoundMachineryScenario:
    @staticmethod
    def _false_claims(seed: int = 0) -> set[str]:
        scn = get_scenario("lower-bound-machinery")
        result = scn.run(scn.resolve_params({}), seed=seed)
        assert all(type(result[claim]) is bool for claim in LOWER_BOUND_CLAIMS)
        return {claim for claim in LOWER_BOUND_CLAIMS if not result[claim]}

    def test_declares_no_parameter(self):
        scn = get_scenario("lower-bound-machinery")
        assert scn.params == () and scn.default_grid == {}
        assert len(expand_grid(scn)) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_every_claim_holds(self, seed):
        assert self._false_claims(seed) == set()

    @pytest.mark.parametrize("base_seed", [0, 1])
    def test_cli_point_holds_every_claim(self, base_seed):
        (point,) = expand_grid(get_scenario("lower-bound-machinery"), base_seed=base_seed)
        report = run_sweep([point], store=None)
        assert report.ok
        result = report.records[0].result
        assert [claim for claim in LOWER_BOUND_CLAIMS if result[claim] is not True] == []

    @pytest.mark.parametrize(
        "breaks, failing",
        [
            pytest.param(breaks, failing, id=breaks.__name__.lstrip("_"))
            for breaks, failing in (
                (_or_swapped_for_mod3, {"mod3_beats_or"}),
                (_mod3_swapped_for_or_past_6, {"mod3_degree_linear", "mod3_beats_or"}),
                (_blocks_outside_the_promise, {"ipmod3_block_norm"}),
                (_repeated_codeword, {"gap_eq_fooling_set"}),
                (_codewords_inside_the_gap, {"gap_eq_fooling_set"}),
                (_code_size_flat_in_n, {"gap_eq_bound_grows"}),
                (_ipmod3_for_ip, {"hadamard_gamma2"}),
                (_guess_cost_4_per_bit, {"lemma_3_2_win_probability"}),
            )
        ],
    )
    def test_a_broken_input_fails_only_its_claim(self, monkeypatch, breaks, failing):
        breaks(monkeypatch)
        assert self._false_claims() == failing


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTINS:
            assert name in out

    def test_fig3_acceptance_parallel_then_cached(self, tmp_path, capsys):
        """The acceptance criterion: a parallel multi-point fig3 sweep writes
        JSON records, and a second invocation serves every point from cache."""
        store = str(tmp_path / "store")
        argv = [
            "run", "fig3-mst-tradeoff", "--workers", "4", "--store", store,
            "--set", "n=24", "--set", "aspect_ratio=2.0,64.0,2048.0",
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "0 cached, 3 executed, 0 failed" in out
        files = list((tmp_path / "store" / "fig3-mst-tradeoff").glob("*.json"))
        assert len(files) == 3
        for path in files:
            record = json.loads(path.read_text())
            assert record["status"] == "ok"
            assert {"elkin_rounds", "gkp_rounds", "combined_rounds"} <= set(record["result"])

        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "3 cached, 0 executed, 0 failed" in out

    def test_engine_flags_become_grid_axes(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = [
            "run", "boruvka-mst-sweep", "--store", str(store),
            "--set", "n=12", "--set", "generator=random", "--set", "weight_model=distinct",
            "--set", "engine=dense",
        ]
        assert cli_main(argv) == 0
        (path,) = (store / "boruvka-mst-sweep").glob("*.json")
        record = json.loads(path.read_text())
        assert record["params"]["engine"] == "dense"
        assert set(record["params"]) == {
            spec.name for spec in get_scenario("boruvka-mst-sweep").params
        }
        assert record["result"]["engine"] == "dense" and record["result"]["exact"]
        # Scenarios without an engine param reject the axis cleanly.
        assert cli_main(["run", "test-echo", "--no-store", "--set", "engine=dense"]) == 2
        assert "unknown grid axis" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "engine",
        ["colunmar", "auto", "Columnar", "numpy", "event,auto", "columnar", "parallel"],
    )
    def test_unknown_engine_fails_before_any_point_runs(self, tmp_path, capsys, engine):
        store = tmp_path / "store"
        argv = [
            "run", "boruvka-mst-sweep", "--set", "n=12", "--store", str(store),
            "--set", f"engine={engine}",
        ]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown engine")
        assert len(err.splitlines()) == 1
        assert not store.exists() or not any(store.rglob("*.json"))

    @pytest.mark.parametrize(
        "second", ["restarts=2", " restarts = 2"], ids=["same-spelling", "padded"]
    )
    def test_repeated_set_key_fails_before_any_point_runs(self, tmp_path, capsys, second):
        store = tmp_path / "store"
        argv = [
            "run", "chsh-gamma2", "--set", "restarts=1", "--set", second,
            "--store", str(store),
        ]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --set restarts given twice; list its values once: --set restarts=1,2\n"
        )
        assert "sweep" not in captured.out
        assert not store.exists()

    @pytest.mark.parametrize(
        "scenario_name, axes",
        [
            ("boruvka-mst-sweep", ["n=12", "generator=geometirc"]),
            ("boruvka-mst-sweep", ["n=12", "weight_model=euclidian"]),
            ("quantum-substrate", ["check=holevoo"]),
            ("verification-suite", ["problem=spaning tree"]),
        ],
        ids=["generator", "weight_model", "check", "problem"],
    )
    def test_misspelled_categorical_value_fails_before_any_point_runs(
        self, tmp_path, capsys, scenario_name, axes
    ):
        store = tmp_path / "store"
        flags = [arg for axis in axes for arg in ("--set", axis)]
        assert cli_main(["run", scenario_name, *flags, "--store", str(store)]) == 2
        name, _, value = axes[-1].partition("=")
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown {name.replace('_', ' ')} {value!r}; known: ")
        assert len(err.splitlines()) == 1
        assert not store.exists()

    def test_engine_help_lists_every_engine_name(self):
        from repro.congest.engine import ENGINE_NAMES
        from repro.experiments.scenarios import ENGINE_PARAM as engine

        assert engine.default in ENGINE_NAMES
        assert engine.help.endswith("|".join(ENGINE_NAMES))

    def test_cli_import_help_and_report_load_no_simulator(self, tmp_path):
        code = (
            "import contextlib, io, sys\n"
            "from repro.experiments.cli import main\n"
            "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['--help'])\n"
            f"main(['report', 'chsh-gamma2', '--store', {str(tmp_path)!r}])\n"
            "print(sorted(m for m in ('networkx', 'repro.congest.engine') if m in sys.modules))\n"
        )
        src = Path(repro.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workers", "0"], "--workers must be >= 1, got 0"),
            (["--workers", "-2"], "--workers must be >= 1, got -2"),
            (
                ["--backend", "serial", "--workers", "4"],
                "--backend serial runs one worker, got --workers 4",
            ),
        ],
        ids=["workers-0", "workers-minus-2", "serial-workers-4"],
    )
    def test_bad_workers_fails_before_any_point_runs(self, tmp_path, capsys, flags, message):
        store = tmp_path / "store"
        assert cli_main(["run", "chsh-gamma2", *flags, "--store", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "sweep" not in captured.out
        assert not store.exists()

    @pytest.mark.parametrize(
        "flags, banner",
        [
            ([], "sweep test-echo: 1 point(s), workers=1, store=<none>"),
            (["--backend", "serial"], "sweep test-echo: 1 point(s), backend=serial, workers=1,"),
        ],
        ids=["default", "serial"],
    )
    def test_run_banner_names_the_backend_only_when_given(self, capsys, flags, banner):
        assert cli_main(["run", "test-echo", "--set", "x=1", "--no-store", *flags]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith(banner)

    @pytest.mark.parametrize(
        "flag, value", [("--mp-start", "fork"), ("--maxtasksperchild", "-3"), ("--timeout", "5")]
    )
    def test_removed_pool_flags_fail_before_any_point_runs(
        self, tmp_path, capsys, flag, value
    ):
        store = tmp_path / "store"
        argv = ["run", "chsh-gamma2", "--workers", "2", flag, value, "--store", str(store)]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"error: unrecognized arguments: {flag}" in captured.err
        assert "sweep" not in captured.out
        assert not store.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["-v", "list"], "unrecognized arguments: -v"),
            (["--quiet", "list"], "unrecognized arguments: --quiet"),
            (["report", "--format", "html"], "invalid choice: 'html'"),
            (["run", "chsh-gamma2", "--backend", "auto"], "invalid choice: 'auto'"),
        ],
        ids=["verbose", "quiet", "report-format-html", "backend-auto"],
    )
    def test_removed_cli_options_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "axes", [["restarts=0"], ["restarts=1", "iterations=0"]], ids=["restarts", "iterations"]
    )
    def test_empty_solver_search_stores_an_error_record(self, tmp_path, capsys, axes):
        store = tmp_path / "store"
        flags = [arg for axis in axes for arg in ("--set", axis)]
        assert cli_main(["run", "chsh-gamma2", *flags, "--store", str(store)]) == 1
        (path,) = (store / "chsh-gamma2").glob("*.json")
        record = json.loads(path.read_text())
        assert record["status"] == "error" and record["result"] is None
        assert record["error"].strip().splitlines()[-1].startswith(
            "ValueError: gamma2_dual needs restarts >= 1 and iterations >= 1"
        )

    def test_bad_input_gives_clean_error(self, tmp_path, capsys):
        assert cli_main(["run", "test-echo", "--set", "bogus=1", "--store", str(tmp_path)]) == 2
        assert "unknown grid axis" in capsys.readouterr().err
        assert cli_main(["run", "no-such-scenario", "--no-store"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        assert cli_main(["run", "test-echo", "--set", "x=abc", "--no-store"]) == 2
        assert "invalid literal" in capsys.readouterr().err

    def test_report_shows_error_line_for_failed_records(self, tmp_path, capsys):
        cli_main(["run", "test-always-fails", "--store", str(tmp_path)])
        capsys.readouterr()
        cli_main(["report", "test-always-fails", "--store", str(tmp_path)])
        out = capsys.readouterr().out
        assert "[ERROR]" in out
        assert "-> RuntimeError: deliberate failure" in out

    def test_report(self, tmp_path, capsys):
        store = str(tmp_path)
        cli_main(["run", "test-echo", "--store", store])
        capsys.readouterr()
        assert cli_main(["report", "test-echo", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert cli_main(["report", "--store", str(tmp_path / "empty")]) == 1
