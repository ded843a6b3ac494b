"""Tests for the command-line figure runner."""

import pytest

from repro.engine import SCALES
from repro.experiments.cli import build_parser, main
from repro.experiments.scenarios import (
    BUILTIN_SCENARIOS,
    SCENARIO_TABLE_SHAPERS,
    figure_names,
    figure_rows,
)

#: The paper's evaluation: Figures 2-20, Table 3 and Appendix G.
PAPER_FIGURE_IDS = (
    "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09a",
    "fig09b", "fig10", "fig11", "fig12a", "fig12b", "fig13", "fig14", "fig16",
    "fig17", "fig18", "fig19", "fig20", "table3", "appg",
)


class TestRegistry:
    def test_every_registered_figure_is_callable(self):
        for name in figure_names():
            assert BUILTIN_SCENARIOS[name]().description
            assert callable(SCENARIO_TABLE_SHAPERS[name])

    def test_expected_figures_present(self):
        names = figure_names()
        for expected in PAPER_FIGURE_IDS:
            assert expected in names

    def test_figure_rows_unknown(self):
        with pytest.raises(KeyError):
            figure_rows("fig99", SCALES["smoke"])

    def test_figure_rows_unshaped_scenario(self):
        with pytest.raises(KeyError, match="no figure table"):
            figure_rows("energy-budget", SCALES["smoke"])

    def test_figure_rows_smoke(self):
        rows = figure_rows("fig06", SCALES["smoke"])
        assert rows
        assert {"centralized", "distributed"} == {row["scheme"] for row in rows}


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "Available figures" in out
        listed = [line.split()[0] for line in out.splitlines()[3:]]
        assert listed == figure_names()

    def test_no_arguments_lists(self, capsys):
        assert main([]) == 0
        assert "fig13" in capsys.readouterr().out

    def test_run_one_figure(self, capsys):
        assert main(["--figure", "fig06", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out
        assert "centralized" in out

    def test_unknown_figure_sets_exit_code(self, capsys):
        assert main(["--figure", "fig99", "--scale", "smoke"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_figure_and_run_scenario_print_the_same_table(self, capsys):
        assert main(["--figure", "fig06", "--scale", "smoke"]) == 0
        figure = capsys.readouterr().out.strip()
        assert figure.startswith("fig06 -- ")
        assert "centralized" in figure
        assert main(["run-scenario", "fig06", "--scale", "smoke",
                     "--no-store"]) == 0
        assert figure in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.scale == "default"
        assert args.figure == []


class TestScenarioCommands:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "fig02-smoke" in out
        assert "built-in" in out

    def test_run_scenario_builtin(self, capsys, tmp_path, monkeypatch):
        store = tmp_path / "results.sqlite"
        assert main(["run-scenario", "fig02-smoke", "--scale", "smoke",
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "fig02-smoke" in out
        assert "36 executed" in out
        assert store.exists()
        # second invocation resumes from the store: zero runs execute
        assert main(["run-scenario", "fig02-smoke", "--scale", "smoke",
                     "--store", str(store)]) == 0
        assert "0 executed, 36 from the result store" in capsys.readouterr().out

    def test_run_scenario_from_file(self, capsys, tmp_path):
        from repro.experiments.scenarios import BUILTIN_SCENARIOS

        path = tmp_path / "custom.json"
        scenario = BUILTIN_SCENARIOS["fig02-smoke"]().with_overrides(
            name="custom", algorithms=("naive",), grid={},
        )
        path.write_text(scenario.to_json())
        assert main(["run-scenario", str(path), "--scale", "smoke",
                     "--no-store"]) == 0
        assert "custom" in capsys.readouterr().out

    def test_run_scenario_unknown(self, capsys):
        assert main(["run-scenario", "fig99", "--scale", "smoke",
                     "--no-store"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestMetricsOption:
    @pytest.fixture()
    def tiny_scenario(self):
        """A one-run scenario the --metrics flag can instrument cheaply."""
        from repro.engine import ScenarioSpec
        from repro.experiments.scenarios import BUILTIN_SCENARIOS, register_scenario

        register_scenario("zmetrics", lambda: ScenarioSpec(
            name="zmetrics", query="query1", algorithms=("naive",),
            data={"sigma_s": 0.5, "sigma_t": 0.5, "sigma_st": 0.2},
            runs=1, cycles=3,
        ))
        try:
            yield "zmetrics"
        finally:
            BUILTIN_SCENARIOS.pop("zmetrics", None)

    def test_metrics_flag_renders_and_persists_node_series(
            self, capsys, tmp_path, tiny_scenario):
        from repro.engine import ResultStore

        store = tmp_path / "results.sqlite"
        assert main(["run-scenario", tiny_scenario, "--scale", "smoke",
                     "--metrics", "energy,hotspots", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Instrumentation summary" in out
        assert "energy_total_uj" in out
        assert "Per-node energy (top 5, uJ)" in out
        with ResultStore(store) as result_store:
            assert result_store.node_metrics_count(scenario=tiny_scenario) > 0
            rows = result_store.node_metrics(scenario=tiny_scenario,
                                             series="energy_uj")
            assert rows and rows[0]["value"] >= 0.0

    def test_metrics_runs_coexist_with_plain_runs(self, capsys, tmp_path,
                                                  tiny_scenario):
        """Instrumented and plain runs have distinct keys in one store."""
        store = tmp_path / "results.sqlite"
        assert main(["run-scenario", tiny_scenario, "--scale", "smoke",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["run-scenario", tiny_scenario, "--scale", "smoke",
                     "--metrics", "energy", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        # the instrumented invocation cannot be served by the plain run
        assert "1 executed, 0 from the result store" in out
        # plain re-invocation still resumes from the store
        assert main(["run-scenario", tiny_scenario, "--scale", "smoke",
                     "--store", str(store)]) == 0
        assert "0 executed, 1 from the result store" in capsys.readouterr().out

    def test_unknown_metrics_sink_is_a_usage_error(self, capsys, tiny_scenario):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-scenario", tiny_scenario, "--scale", "smoke",
                  "--no-store", "--metrics", "voltage"])
        assert excinfo.value.code == 2
        assert "unknown metrics sink" in capsys.readouterr().err

    def test_metrics_augments_scenario_sinks(self, capsys, tmp_path):
        """--metrics adds to a scenario's own sinks instead of replacing
        them, so declared metric columns stay resolvable."""
        store = tmp_path / "results.sqlite"
        assert main(["run-scenario", "energy-budget", "--scale", "smoke",
                     "--metrics", "energy", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "hotspot_gini" in out          # scenario's own hotspot sink
        assert "energy_total_uj" in out

    def test_campaign_summary_reports_metric_values(self, capsys, tmp_path,
                                                    tiny_scenario):
        assert main(["run-campaign", tiny_scenario, "--scale", "smoke",
                     "--metrics", "energy", "--store",
                     str(tmp_path / "c.sqlite"), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "metric_values" in out


class TestRunCampaign:
    @pytest.fixture()
    def tiny_campaign(self):
        """Two throwaway registered scenarios a glob can pick up together."""
        from repro.engine import ScenarioSpec
        from repro.experiments.scenarios import BUILTIN_SCENARIOS, register_scenario

        def factory(name):
            return lambda: ScenarioSpec(
                name=name, query="query1", algorithms=("naive",),
                data={"sigma_s": 0.5, "sigma_t": 0.5, "sigma_st": 0.2},
                runs=1, cycles=3,
            )

        names = ("zcamp-a", "zcamp-b")
        for name in names:
            register_scenario(name, factory(name))
        try:
            yield names
        finally:
            for name in names:
                BUILTIN_SCENARIOS.pop(name, None)

    def test_glob_runs_matching_scenarios_through_one_store(
            self, capsys, tmp_path, tiny_campaign):
        store = tmp_path / "campaign.sqlite"
        assert main(["run-campaign", "zcamp-*", "--scale", "smoke",
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "zcamp-a" in out and "zcamp-b" in out
        assert "Campaign summary" in out
        assert "TOTAL" in out
        assert store.exists()
        # resume on a warm store executes zero runs
        assert main(["run-campaign", "zcamp-*", "--scale", "smoke",
                     "--store", str(store), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.count("0 executed, 1 from the result store") == 2

    def test_patterns_deduplicate(self, capsys, tmp_path, tiny_campaign):
        assert main(["run-campaign", "zcamp-a", "zcamp-*", "--scale", "smoke",
                     "--store", str(tmp_path / "c.sqlite"), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.count("scenario 'zcamp-a'") == 1

    def test_no_pattern_errors(self, capsys):
        assert main(["run-campaign", "--scale", "smoke"]) == 2
        assert "PATTERN or --all" in capsys.readouterr().err

    def test_all_with_patterns_errors(self, capsys):
        assert main(["run-campaign", "fig02-smoke", "--all",
                     "--scale", "smoke"]) == 2
        assert "--all cannot be combined" in capsys.readouterr().err

    def test_degenerate_flush_window_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-campaign", "fig02-smoke", "--flush-every", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_unmatched_pattern_errors(self, capsys):
        assert main(["run-campaign", "zz-no-such-*", "--scale", "smoke"]) == 2
        assert "matches no scenario" in capsys.readouterr().err

    def test_match_scenarios_all_and_files(self, tmp_path, tiny_campaign):
        from repro.experiments.scenarios import (
            BUILTIN_SCENARIOS,
            match_scenarios,
            resolve_scenario,
        )

        assert match_scenarios([], include_all=True) == sorted(BUILTIN_SCENARIOS)
        assert match_scenarios(["fig0*"])[0].startswith("fig0")
        # scenario files are matched by stem and returned as paths
        path = tmp_path / "zfile-camp.json"
        path.write_text(resolve_scenario("zcamp-a").with_overrides(
            name="zfile-camp").to_json())
        assert match_scenarios(["zfile-*"], directory=tmp_path) == [str(path)]

    def test_progress_lines_report_eta(self, capsys, tmp_path, tiny_campaign):
        assert main(["run-campaign", "zcamp-a", "--scale", "smoke",
                     "--no-store"]) == 0
        err = capsys.readouterr().err
        assert "[1/1] zcamp-a" in err
        assert "eta" in err


class TestRunnerPassThrough:
    def test_every_builtin_figure_accepts_a_runner(self, tmp_path):
        from repro.engine import SweepRunner

        with SweepRunner(store=tmp_path / "figures.sqlite") as runner:
            first = figure_rows("fig06", SCALES["smoke"], runner=runner)
            again = figure_rows("fig06", SCALES["smoke"], runner=runner)
        assert first == again == figure_rows("fig06", SCALES["smoke"])

    def test_runner_figures_do_not_warn(self, capsys):
        assert main(["--figure", "fig06", "--scale", "smoke", "--jobs", "2"]) == 0
        assert capsys.readouterr().err == ""


class TestEnvScaleHandling:
    def test_env_scale_becomes_parser_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert build_parser().parse_args([]).scale == "smoke"

    def test_empty_env_scale_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "")
        assert build_parser().parse_args([]).scale == "default"

    def test_unknown_env_scale_aborts_with_preset_list(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([])
        assert "galactic" in str(excinfo.value)
        assert "smoke" in str(excinfo.value)

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        args = build_parser().parse_args(["--scale", "default"])
        assert args.scale == "default"


class TestScenarioCoverage:
    def test_every_figure_is_a_registered_scenario(self):
        """Every shaped figure is a built-in scenario named by its id."""
        for name in figure_names():
            assert name in BUILTIN_SCENARIOS, name
            assert BUILTIN_SCENARIOS[name]().name == name

    def test_run_scenario_multi_phase_builtin(self, capsys):
        assert main(["run-scenario", "fig14-smoke", "--scale", "smoke",
                     "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "fig14-smoke" in out
        assert "no_failure" in out and "with_failure" in out
