"""Tests for ScenarioSpec / RunSpec: expansion, round-tripping, hashing."""

import hashlib
import json

import pytest

from repro.engine import SCALES, RunSpec, ScenarioSpec, load_scenario_file
from repro.engine.spec import freeze, thaw
from repro.experiments.scenarios import BUILTIN_SCENARIOS

SMOKE = SCALES["smoke"]


def fig2_smoke_scenario(**overrides):
    base = dict(
        name="fig02-test",
        query="query1",
        algorithms=("naive", "base"),
        data={"ratio": "1/2:1/2", "sigma_st": 0.2},
        grid={"ratio": ["1/10:1", "1/2:1/2"], "sigma_st": [0.2, 0.05]},
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestFreeze:
    def test_round_trip_nested(self):
        payload = {"a": [1, 2, {"b": 3}], "c": {"d": [4.5]}}
        assert thaw(freeze(payload)) == payload

    def test_frozen_is_hashable(self):
        hash(freeze({"a": [1, 2], "b": {"c": 3}}))


class TestExpansion:
    def test_grid_cartesian_product(self):
        specs = fig2_smoke_scenario().expand(SMOKE)
        # 2 ratios x 2 sigma_st x 2 algorithms x 1 smoke run
        assert len(specs) == 8
        settings = [spec.setting_dict() for spec in specs]
        assert settings[0] == {"ratio": "1/10:1", "sigma_st": 0.2}
        # declaration order: ratio is the outer axis
        assert settings[-1] == {"ratio": "1/2:1/2", "sigma_st": 0.05}

    def test_ratio_resolves_sigmas(self):
        spec = fig2_smoke_scenario().expand(SMOKE)[0]
        assert (spec.sigma_s, spec.sigma_t, spec.sigma_st) == (0.1, 1.0, 0.2)
        # assumed defaults to the data selectivities
        assert spec.assumed_sigma_s == spec.sigma_s

    def test_scale_resolves_runs_cycles_nodes(self):
        specs = fig2_smoke_scenario(grid={}).expand(SCALES["default"])
        assert len(specs) == SCALES["default"].runs * 2
        assert specs[0].cycles == SCALES["default"].cycles
        assert specs[0].num_nodes == SCALES["default"].num_nodes
        assert {spec.run_index for spec in specs} == {0, 1}

    def test_explicit_cycles_beat_scale(self):
        spec = fig2_smoke_scenario(grid={}, cycles=7, runs=1).expand(SMOKE)[0]
        assert spec.cycles == 7

    def test_use_long_cycles_resolves_scale_long_cycles(self):
        spec = fig2_smoke_scenario(grid={}, use_long_cycles=True).expand(SMOKE)[0]
        assert spec.cycles == SMOKE.long_cycles
        # an explicit cycle count still wins
        spec = fig2_smoke_scenario(grid={}, use_long_cycles=True,
                                   cycles=7).expand(SMOKE)[0]
        assert spec.cycles == 7

    def test_sigma_grid_overrides_ratio_data(self):
        # explicit sigma_s axis values must win over the ratio-derived ones
        specs = fig2_smoke_scenario(grid={"sigma_s": [0.1, 0.9]}).expand(SMOKE)
        assert sorted({spec.sigma_s for spec in specs}) == [0.1, 0.9]
        assert all(spec.sigma_t == 0.5 for spec in specs)  # from the ratio

    def test_failure_fraction_resolved_against_cycles(self):
        scenario = fig2_smoke_scenario(
            grid={}, cycles=40, failures=({"node": 9, "at_fraction": 0.5},),
        )
        assert scenario.expand(SMOKE)[0].failures == ((9, 20),)

    def test_unknown_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown grid axis"):
            fig2_smoke_scenario(grid={"bogus": [1]})

    def test_bad_accounting_rejected(self):
        with pytest.raises(ValueError, match="accounting"):
            fig2_smoke_scenario(accounting="parsecs")


class TestRoundTrip:
    def test_dict_round_trip(self):
        scenario = fig2_smoke_scenario()
        clone = ScenarioSpec.from_dict(scenario.to_dict())
        assert clone.to_dict() == scenario.to_dict()
        assert clone.spec_hash() == scenario.spec_hash()

    def test_json_round_trip(self):
        scenario = fig2_smoke_scenario()
        clone = ScenarioSpec.from_json(scenario.to_json())
        assert clone == scenario
        assert hash(clone) == hash(scenario)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            ScenarioSpec.from_dict({"name": "x", "quarks": 3})

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(fig2_smoke_scenario().to_json())
        assert load_scenario_file(path) == fig2_smoke_scenario()

    def test_load_toml_file(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(
            'query = "query1"\n'
            'algorithms = ["naive"]\n'
            "[data]\n"
            'ratio = "1/2:1/2"\n'
            "sigma_st = 0.2\n"
        )
        scenario = load_scenario_file(path)
        assert scenario.name == "s"  # defaults to the file stem
        assert scenario.algorithms == ("naive",)

    @pytest.mark.parametrize("payload", [
        {"queue_capacity": 8},
        {"grid": {"queue_capacity": [4, 8]}},
        {"grid": {"point": [{"queue_capacity": 8, "sigma_st": 0.2}]}},
    ], ids=["field", "grid-axis", "composite-axis"])
    def test_the_retired_queue_bound_fails_at_load(self, tmp_path, payload):
        path = tmp_path / "bounded.json"
        path.write_text(json.dumps(dict(name="bounded", query="query1", **payload)))
        with pytest.raises(ValueError, match="forwarding-queue bound was removed"):
            load_scenario_file(path)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("{}")
        with pytest.raises(ValueError, match="unsupported scenario file type"):
            load_scenario_file(path)


class TestHashing:
    def test_run_key_stable_across_round_trip(self):
        spec = fig2_smoke_scenario().expand(SMOKE)[0]
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.run_key() == spec.run_key()

    def test_spec_stored_with_the_retired_queue_bound_loads(self):
        spec = fig2_smoke_scenario().expand(SMOKE)[0]
        stored = dict(spec.to_dict(), queue_capacity=None)
        assert RunSpec.from_dict(stored) == spec
        with pytest.raises(ValueError, match="forwarding-queue bound was removed"):
            RunSpec.from_dict(dict(stored, queue_capacity=8))

    def test_run_key_differs_per_run(self):
        specs = fig2_smoke_scenario().expand(SMOKE)
        assert len({spec.run_key() for spec in specs}) == len(specs)

    def test_run_key_sensitive_to_workload(self):
        a = fig2_smoke_scenario().expand(SMOKE)[0]
        b = fig2_smoke_scenario(topology_seed=1).expand(SMOKE)[0]
        assert a.run_key() != b.run_key()

    def test_builtin_run_keys_match_the_stored_results(self):
        """Every built-in scenario's smoke-scale run keys, digested in
        scenario-name order as the parent of the forwarding-queue bound's
        removal computed them: results stored before it stay addressable."""
        keys = [spec.run_key() for name in sorted(BUILTIN_SCENARIOS)
                for spec in BUILTIN_SCENARIOS[name]().expand(SMOKE)]
        assert len(keys) == 860
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == (
            "bdcf9222502096c18fae695d898fb0bd2b21cc1199549fb3feeb73498b9ecc03")

    def test_scenario_spec_hash_is_content_hash(self):
        assert fig2_smoke_scenario().spec_hash() == fig2_smoke_scenario().spec_hash()
        assert (fig2_smoke_scenario().spec_hash()
                != fig2_smoke_scenario(cycles=3).spec_hash())


class TestScaleFromEnv:
    def test_blank_env_means_default(self, monkeypatch):
        from repro.engine import scale_from_env

        monkeypatch.setenv("REPRO_SCALE", "   ")
        assert scale_from_env().name == "default"

    def test_unknown_env_rejected_with_preset_list(self, monkeypatch):
        from repro.engine import scale_from_env

        monkeypatch.setenv("REPRO_SCALE", "warp")
        with pytest.raises(KeyError, match="warp"):
            scale_from_env()

    def test_resolve_scale_case_insensitive(self):
        from repro.engine import resolve_scale

        assert resolve_scale("SMOKE").name == "smoke"
        with pytest.raises(KeyError, match="expected one of"):
            resolve_scale("warp")


class TestCompositeAndVariantAxes:
    def test_composite_axis_flattens_joint_overrides(self):
        scenario = fig2_smoke_scenario(grid={
            "workload": [{"query": "query1", "sigma_st": 0.05},
                         {"query": "query2", "sigma_st": 0.10}],
        })
        specs = scenario.expand(SMOKE)
        settings = {(s.query, s.sigma_st) for s in specs}
        assert settings == {("query1", 0.05), ("query2", 0.10)}

    def test_composite_axis_rejects_unknown_keys_for_join_kind(self):
        with pytest.raises(ValueError, match="composite grid axis"):
            fig2_smoke_scenario(grid={"workload": [{"quarks": 3}]})

    def test_true_and_assumed_ratio_axes_are_independent(self):
        scenario = fig2_smoke_scenario(
            algorithms=("innet",),
            grid={"true_ratio": ["1/10:1"], "assumed_ratio": ["1:1/10"]},
        )
        spec = scenario.expand(SMOKE)[0]
        assert (spec.sigma_s, spec.sigma_t) == (0.1, 1.0)
        assert (spec.assumed_sigma_s, spec.assumed_sigma_t) == (1.0, 0.1)

    def test_variants_replace_algorithm_expansion(self):
        scenario = fig2_smoke_scenario(
            grid={},
            variants=(
                {"label": "plain", "algorithm": "naive"},
                {"label": "half", "algorithm": "naive",
                 "cycles_span": (0.0, 0.5), "workload_seed_offset": 3},
            ),
        )
        specs = scenario.expand(SMOKE)
        assert [s.display_label for s in specs] == ["plain", "half"]
        assert specs[1].cycles == SMOKE.cycles // 2
        assert specs[1].workload_seed == specs[0].workload_seed + 3

    def test_unknown_variant_key_rejected(self):
        with pytest.raises(ValueError, match="unknown variant field"):
            fig2_smoke_scenario(variants=({"label": "x", "quarks": 1},))

    def test_cycles_factor_scales_resolved_cycles(self):
        scenario = fig2_smoke_scenario(grid={"cycles_factor": [1, 2]})
        specs = scenario.expand(SMOKE)
        assert sorted({s.cycles for s in specs}) == [SMOKE.cycles, 2 * SMOKE.cycles]

    def test_min_cycles_floor(self):
        spec = fig2_smoke_scenario(grid={}, min_cycles=25).expand(SMOKE)[0]
        assert spec.cycles == 25
