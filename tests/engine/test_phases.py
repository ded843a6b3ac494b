"""Tests for multi-phase runs: resolution, round-tripping, equivalence,
parallel == serial on phased sweeps, and store resume."""

import json

import pytest

from repro.core.cost_model import Selectivities
from repro.engine import (
    SCALES,
    PhaseSpec,
    ResultStore,
    RunSpec,
    ScenarioSpec,
    SweepRunner,
    build_phased_workload,
    build_topology,
    execute_run,
    run_single,
)
from repro.engine.spec import resolve_phases
from repro.experiments.scenarios import resolve_scenario
from repro.workloads.queries import build_query1

SMOKE = SCALES["smoke"]


def phased_scenario(**overrides):
    base = dict(
        name="phased-test",
        query="query1",
        algorithms=("innet",),
        data={"sigma_s": 0.5, "sigma_t": 0.5, "sigma_st": 0.2},
        phases=(
            {"name": "warmup", "fraction": 0.5},
            {"name": "drift", "data": {"sigma_s": 0.1, "sigma_t": 1.0,
                                       "sigma_st": 0.2}},
        ),
        cycles=10,
        runs=1,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestPhaseResolution:
    def test_fraction_and_remainder(self):
        phases = (PhaseSpec(name="a", fraction=0.5), PhaseSpec(name="b"))
        resolved = resolve_phases(phases, 11)
        assert [p.cycles for p in resolved] == [5, 6]
        assert all(p.fraction is None for p in resolved)

    def test_explicit_cycles_must_sum(self):
        phases = (PhaseSpec(name="a", cycles=4), PhaseSpec(name="b", cycles=4))
        with pytest.raises(ValueError, match="sum to 8"):
            resolve_phases(phases, 10)

    def test_two_open_phases_rejected(self):
        with pytest.raises(ValueError, match="at most one phase"):
            resolve_phases((PhaseSpec(name="a"), PhaseSpec(name="b")), 10)

    def test_over_allocation_rejected(self):
        phases = (PhaseSpec(name="a", cycles=12), PhaseSpec(name="b"))
        with pytest.raises(ValueError, match="over-allocate"):
            resolve_phases(phases, 10)

    def test_cycles_and_fraction_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            PhaseSpec(name="a", cycles=3, fraction=0.5)

    def test_expansion_resolves_fractions(self):
        spec = phased_scenario().expand(SMOKE)[0]
        assert [p.cycles for p in spec.phases] == [5, 5]
        assert spec.phases[0].name == "warmup"


class TestPhaseRoundTrip:
    def test_phase_spec_json_round_trip(self):
        phase = PhaseSpec(
            name="failure", fraction=0.5,
            data={"ratio": "1/2:1/2", "sigma_st": 0.05},
            failures=({"node": "join"}, {"node": 3, "at": 2}),
            moves=({"node": "leaf"},),
        )
        clone = PhaseSpec.from_dict(json.loads(json.dumps(phase.to_dict())))
        assert clone == phase
        assert hash(clone) == hash(phase)

    def test_scenario_with_phases_round_trips(self):
        scenario = phased_scenario()
        clone = ScenarioSpec.from_json(scenario.to_json())
        assert clone == scenario
        assert clone.spec_hash() == scenario.spec_hash()

    def test_run_spec_with_phases_round_trips_and_hashes_stably(self):
        spec = phased_scenario().expand(SMOKE)[0]
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.run_key() == spec.run_key()

    def test_phases_change_the_run_key(self):
        plain = phased_scenario(phases=()).expand(SMOKE)[0]
        phased = phased_scenario().expand(SMOKE)[0]
        assert plain.run_key() != phased.run_key()

    def test_unknown_phase_field_rejected(self):
        with pytest.raises(ValueError, match="unknown phase field"):
            PhaseSpec.from_dict({"name": "a", "cycle": 3})


class TestPhasedExecutionEquivalence:
    def test_single_open_phase_equals_plain_run(self):
        """Chunking the cycle loop at phase boundaries changes nothing."""
        plain = execute_run(phased_scenario(phases=()).expand(SMOKE)[0])
        phased = execute_run(phased_scenario(
            phases=({"name": "a", "fraction": 0.4}, {"name": "b"}),
        ).expand(SMOKE)[0])
        assert phased.report.total_traffic == plain.report.total_traffic
        assert phased.report.base_traffic == plain.report.base_traffic
        assert phased.report.results_produced == plain.report.results_produced
        # ...except for the per-phase accounting the phased run adds
        assert (phased.report.extra["phase_a_traffic"]
                + phased.report.extra["phase_b_traffic"]
                == phased.report.computation_traffic)

    def test_drift_phases_match_switched_data_source(self):
        """A phase data override == a two-regime workload run in one piece."""
        spec = phased_scenario().expand(SMOKE)[0]
        phased = execute_run(spec)

        topology = build_topology(SMOKE, preset="moderate", seed=0)
        query = build_query1()
        source = build_phased_workload(
            topology, query,
            [(0, Selectivities(0.5, 0.5, 0.2)), (5, Selectivities(0.1, 1.0, 0.2))],
            seed=spec.workload_seed,
        )
        reference = run_single(query, topology, source, "innet",
                               Selectivities(0.5, 0.5, 0.2),
                               cycles=10, seed=spec.seed)
        assert phased.report.total_traffic == reference.report.total_traffic
        assert phased.report.results_produced == reference.report.results_produced

    def test_phase_moves_run_and_report(self):
        scenario = phased_scenario(phases=(
            {"name": "static", "fraction": 0.5},
            {"name": "mobile", "moves": ({"node": "leaf"},)},
        ))
        result = execute_run(scenario.expand(SMOKE)[0])
        assert result.report.extra["phase_mobile_moves"] >= 0.0
        assert result.report.cycles == 10


def _aggregate_table(sweep):
    table = {}
    for group in sweep.groups:
        for label, aggregate in group.aggregates.items():
            key = (tuple(sorted(group.setting.items())), label)
            table[key] = {
                metric: (aggregate.mean(metric), aggregate.confidence_95(metric))
                for metric in ("total_traffic", "base_traffic")
            }
    return table


class TestPhasedSweeps:
    def test_fig14_parallel_equals_serial(self):
        scenario = resolve_scenario("fig14-smoke")
        serial = SweepRunner(jobs=1).run(scenario, SMOKE)
        parallel = SweepRunner(jobs=2, adaptive=False).run(scenario, SMOKE)
        assert serial.executed == parallel.executed > 0
        assert _aggregate_table(serial) == _aggregate_table(parallel)

    def test_appg_parallel_equals_serial(self):
        scenario = resolve_scenario("appg-smoke")
        serial = SweepRunner(jobs=1).run(scenario, SMOKE)
        parallel = SweepRunner(jobs=2, adaptive=False).run(scenario, SMOKE)
        assert serial.executed == parallel.executed > 0
        assert _aggregate_table(serial) == _aggregate_table(parallel)

    def test_phased_scenario_resumes_with_zero_executions(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        scenario = resolve_scenario("fig14-smoke")
        first = SweepRunner(store=store).run(scenario, SMOKE)
        assert first.executed > 0 and first.from_store == 0
        again = SweepRunner(jobs=2, store=store).run(scenario, SMOKE)
        assert (again.executed, again.from_store) == (0, first.executed)
        assert _aggregate_table(first) == _aggregate_table(again)

    def test_fig14_failure_run_has_per_phase_accounting(self):
        sweep = SweepRunner().run(resolve_scenario("fig14-smoke"), SMOKE)
        failed = sweep.groups[0].aggregates["with_failure"].runs[0].report
        assert "phase_pre_failure_traffic" in failed.extra
        assert "phase_after_failure_traffic" in failed.extra


class TestReviewRegressions:
    def test_duplicate_phase_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            resolve_phases((PhaseSpec(name="steady", cycles=5),
                            PhaseSpec(name="steady")), 10)

    def test_custom_source_with_phase_data_override_rejected(self):
        scenario = ScenarioSpec(
            name="drifting-custom-source",
            algorithms=("innet-cmpg",),
            data={"source": "fig12a-skewed"},
            phases=({"name": "a", "fraction": 0.5},
                    {"name": "b", "data": {"sigma_s": 0.1, "sigma_t": 1.0,
                                           "sigma_st": 0.2}}),
            cycles=4,
            runs=1,
        )
        with pytest.raises(ValueError, match="cannot drift"):
            execute_run(scenario.expand(SMOKE)[0])

    def test_assumed_provider_not_shared_across_workloads(self):
        """A measured provider must track its own grid point's workload."""
        from repro.engine.workload import (
            memoized_assumed_provider,
            reset_workload_caches,
        )

        reset_workload_caches()
        scenario = ScenarioSpec(
            name="provider-key-test",
            query="query3",
            topology_preset="intel",
            algorithms=("base",),
            data={"source": "intel-humidity"},
            assumed={"provider": "fig13-measured"},
            cycles=4,
            runs=1,
        )
        spec_a = scenario.expand(SMOKE)[0]
        spec_b = scenario.with_overrides(
            workload_seed_base=scenario.workload_seed_base + 1
        ).expand(SMOKE)[0]
        providers = [execute_run(spec).report for spec in (spec_a, spec_b)]
        assert providers  # both executed without sharing errors
        # distinct workload seeds must produce distinct cached providers
        from repro.engine.workload import _PROVIDER_CACHE

        assert len(_PROVIDER_CACHE) == 2
        reset_workload_caches()
