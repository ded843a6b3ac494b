"""Full-report digests of lossy, failing, phased runs, pinned from the parent
commit of the columnar window store.

The columnar cycle must keep results, traffic and the link-model RNG stream
bit-identical where ships are conditioned on probe outcomes and verdicts:
lossy links, two node failures after the first half (the ``mote-dynamic``
benchmark shape) and -- second scenario -- selectivity learning with wrong
initial estimates, so recoveries, replays, window hand-offs and group
re-decisions all run.  Each digest is the SHA-256 of the complete
:class:`~repro.joins.base.ExecutionReport` (every field, including per-kind
traffic, per-node sink series and per-phase extras) as recorded by running
this file's scenarios at the parent commit.

The last two digests were pinned from the parent commit of the array
semantic routing index: a keyed Query 0 ``innet-cmg`` run on a 3,000-node
``scale`` deployment (Bloom-indexed content search over ``id``) and an
``innet`` Query 3 run of the Figure 13 shape (region routing over ``pos``).

The mobility and grid digests were pinned from the parent commit of the
single CSR adjacency: an Appendix G leaf-mobility sweep plus a Query 1 run
with a leaf move between its phases (``is_leaf`` and the row mutators behind
``remove_links_of`` / ``rebuild_links_of`` at paper scale), and a run of the
Figure 5 shape on the ``grid`` deployment.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.engine import FIGURE2_ALGORITHMS, ExperimentScale, SweepRunner
from repro.engine.spec import ScenarioSpec
from repro.experiments.figures_joins import fig05_scenario
from repro.experiments.figures_substrate import appg_scenario

FAILURES = ({"node": 7, "at": 0}, {"node": 30, "at": 5})
PHASES = ({"name": "pre", "fraction": 0.5}, {"name": "post", "failures": FAILURES})

DYNAMIC = ScenarioSpec(
    name="digest/dynamic",
    query="query1",
    algorithms=tuple(FIGURE2_ALGORITHMS) + ("innet-learn",),
    data={"ratio": "1/2:1/2", "sigma_st": 0.2},
    topology_seed=0, seed_base=3, workload_seed_base=103,
    link_loss=0.2, link_seed=3,
    sinks=("energy", "hotspots"),
    phases=PHASES,
)
DYNAMIC_DIGESTS = {
    "naive": "11176d158b191148e078c035333b2890a8266f0d7c14508cfedd25bc4cccceda",
    "base": "bee2242b691d50eb9b7db2398635e1c7df984c4b3cceec4c5f6f8d395b04d850",
    "ght": "d4d4bcc8a659403d9fd030f4779cea0cf4fb31419612fe2a2088b3c7d0cf7879",
    "innet": "0cee47defd834f6dec65febe345e5ef4c32446033e145a4cffcd517321ffa1ab",
    "innet-cmg": "ad9c12175a29bd2eed2792ef1ee7c9c0181823f05d178110cb8371b3b398ba2d",
    "innet-cmpg": "555c182d38e829fde415a4aa7b5917e49c026e6c07894f3a92d57fa523a42b3c",
    "innet-learn": "6b692f6a41d7ba87548e6a4cd3223e63ea4f662ddf3b467981e25bad63b72123",
}

_POLICY = {"adaptive_policy": {"check_interval": 10, "min_cycles": 10}}
LEARNING = ScenarioSpec(
    name="digest/learning",
    query="query1",
    algorithms=("innet-learn", "innet-basic-learn"),
    data={"sigma_s": 0.1, "sigma_t": 1.0, "sigma_st": 0.05},
    assumed={"sigma_s": 1.0, "sigma_t": 0.1, "sigma_st": 0.05},
    strategy_kwargs={"innet-learn": _POLICY, "innet-basic-learn": _POLICY},
    topology_seed=0, seed_base=4, workload_seed_base=104,
    link_loss=0.1, link_seed=4,
    # neither failed node is a producer (query1: S.id < 25, T.id > 50)
    phases=({"name": "pre", "fraction": 0.5},
            {"name": "post", "failures": ({"node": 30, "at": 0},
                                          {"node": 41, "at": 5})}),
)
LEARNING_DIGESTS = {
    "innet-learn": "892bbb1656d7f25cc8b2bfd1808bed7af67dba9ebbcdf5b36e429489266592b6",
    "innet-basic-learn": "50a3f9af8fffc98877310310abebdb103159b2c3e7073b5ae2dd2e8e7c32cb62",
}


KEYED_SCALE = ScenarioSpec(
    name="digest/keyed-scale",
    query="query0-keyed",
    query_kwargs={"seed": 1},
    algorithms=("innet-cmg",),
    topology_preset="scale",
    data={"ratio": "1/2:1/2", "sigma_st": 0.2},
    topology_seed=0, seed_base=5, workload_seed_base=105,
)
KEYED_SCALE_DIGESTS = {
    "innet-cmg": "cc838b97cfb4a427b0ac6ead25913deadcd6e1b180ea85b98606a3d02a5320d9",
}

REGION = ScenarioSpec(
    name="digest/region",
    query="query3",
    algorithms=("innet",),
    topology_preset="intel",
    data={"source": "intel-humidity"},
    assumed={"provider": "fig13-measured"},
    topology_seed=0, seed_base=6, workload_seed_base=2,
)
REGION_DIGESTS = {
    "innet": "68ade4aa0a292ebfd843d3207816390ff20e8aed3571183707e6ef026a4b7962",
}


MOBILITY = appg_scenario(num_moves=2).with_overrides(name="digest/appg")
MOBILITY_DIGESTS = {
    "1": "a0fe5c07002bf675e15b97335f1bbd1f5bd7f0de7f3932422306e057e9723385",
    "2": "bb1a346a18496a2af6c06aaae7fc06b3d76515f3e00ccd0ed83742f1f96b03cb",
    "3": "3d591d4d361aff7993df74075560e1078cc6f7a227dd93f4cf96a4ce5a88fed9",
    "4": "1a12888f3fc2f40525561933677e4c919149a4f9c998d88611ecbc8ae7308c51",
    "5": "13fbd259885f2e29d6f7f900da0c3d4c8539a49e81338384e15fd2f34cda6e77",
    "6": "1d7509d09bcb96771a2843d8945e4afff7b254d9596dd5d2fdbba72985bbaa09",
    "7": "7c1bcab4c3bfaed7b4e6f916f57060bf632f229f8ff05cc140d826aa769b0d52",
    "8": "f31337153999347cf50e71642c96744fa522a1d89f6920ce665a8063aec58f86",
}

MOVING_JOIN = ScenarioSpec(
    name="digest/moving-join",
    query="query1",
    algorithms=("base", "ght", "innet", "innet-cmg"),
    topology_preset="medium",
    data={"ratio": "1/2:1/2", "sigma_st": 0.2},
    topology_seed=2, seed_base=7, workload_seed_base=107,
    phases=({"name": "pre", "fraction": 0.5},
            {"name": "post", "moves": ({"node": "leaf"},)}),
)
MOVING_JOIN_DIGESTS = {
    "base": "2f52b62359879c56361a2f8386ebcfb94091777cc46e9f53b63faf06d7b26256",
    "ght": "5a75f3de6e327e0461c6f05381a3d35f901bfb1b503783d18c3cf5088ca0eb75",
    "innet": "a23f899d6d9a8bbd975100286fe61c6d21f753e6646f9a6aba04f048f8c7e8af",
    "innet-cmg": "23a6f932eac44f0dc050b2688da010f503772a5c29f248e2cc494aec6f7d0351",
}

GRID_LOAD = fig05_scenario().with_overrides(
    name="digest/grid-load", topology_preset="grid", seed_base=8,
)
GRID_LOAD_DIGESTS = {
    "naive": "2a57127bc4bf12558ee75fb4ef623679f905d580e8ec61157ac10e72988afa70",
    "base": "4cc6ab2ccfb2a6d2d35b4df55e35bf69f2d708bd2779630ea2caccfcb59cdf1c",
    "innet": "359dfb16e697adb31e536eb486189b7bfdd7342c54803ec7dc7b6e28fa55a56e",
    "innet-cm": "2391adcd6ebc2ef04c7e34adc2bb4519ff0d2fb1ca8ad2d19a4d228f92a84c98",
    "innet-cmg": "8b4a9c42e12c07add714f10f6c67812405c08cf2dfe8ac2408767a5e22e7b198",
    "innet-cmp": "c8a7f6bb4ffaa86efd0dc057a33a7034d5e1cae423974f1a1f0cb56088c3b491",
    "innet-cmpg": "c8245c561426280bed5e08207b03c5ea4898bd74e3b141b00748db8e989dd133",
}


def _digest(report):
    return hashlib.sha256(
        json.dumps(dataclasses.asdict(report), sort_keys=True).encode()
    ).hexdigest()


def report_digests(scenario, cycles, num_nodes=100):
    scale = ExperimentScale(name="digest", runs=1, cycles=cycles,
                            num_nodes=num_nodes, long_cycles=cycles)
    sweep = SweepRunner(jobs=1).run(scenario, scale)
    reports = {
        algorithm: aggregate.runs[0].report
        for group in sweep.groups
        for algorithm, aggregate in group.aggregates.items()
    }
    digests = {algorithm: _digest(report) for algorithm, report in reports.items()}
    return reports, digests


def mobility_digests(cycles=20):
    """Digest of every grid point's report, keyed by topology seed."""
    scale = ExperimentScale(name="digest", runs=1, cycles=cycles,
                            num_nodes=100, long_cycles=cycles)
    sweep = SweepRunner(jobs=1).run(MOBILITY, scale)
    reports = {
        str(group.setting["topology_seed"]): group.aggregates["multi-tree"].runs[0].report
        for group in sweep.groups
    }
    return reports, {seed: _digest(report) for seed, report in reports.items()}


def test_lossy_two_failure_phased_reports_match_the_parent_commit():
    reports, digests = report_digests(DYNAMIC, cycles=40)
    assert digests == DYNAMIC_DIGESTS
    # the scenario is only a gate if it exercises what it claims to
    assert all(r.messages_dropped > 0 for r in reports.values())
    assert reports["innet"].average_result_delay_cycles > 0   # replayed windows
    assert reports["ght"].results_delivered < reports["ght"].results_produced


def test_learning_under_loss_and_failures_matches_the_parent_commit():
    reports, digests = report_digests(LEARNING, cycles=80)
    assert digests == LEARNING_DIGESTS
    assert all(r.reoptimizations > 0 for r in reports.values())
    assert all(r.average_result_delay_cycles > 0 for r in reports.values())
    assert reports["innet-basic-learn"].traffic_by_kind.get("window_xfer", 0) > 0


def test_keyed_content_search_on_a_scale_deployment_matches_the_parent_commit():
    reports, digests = report_digests(KEYED_SCALE, cycles=20, num_nodes=3000)
    assert digests == KEYED_SCALE_DIGESTS
    report = reports["innet-cmg"]
    assert report.traffic_by_kind["explore"] > 0   # searched the Bloom index
    assert report.results_produced > 0


def test_region_routing_matches_the_parent_commit():
    reports, digests = report_digests(REGION, cycles=40)
    assert digests == REGION_DIGESTS
    report = reports["innet"]
    assert report.traffic_by_kind["explore"] > 0   # searched the pos index
    assert report.results_produced > 0


def test_leaf_mobility_sweep_matches_the_parent_commit():
    reports, digests = mobility_digests()
    assert digests == MOBILITY_DIGESTS
    assert sum(r.extra["moved"] for r in reports.values()) >= 2


def test_join_run_with_a_leaf_move_matches_the_parent_commit():
    reports, digests = report_digests(MOVING_JOIN, cycles=40)
    assert digests == MOVING_JOIN_DIGESTS
    assert all(r.extra["phase_post_moves"] == 1.0 for r in reports.values())


def test_grid_load_distribution_matches_the_parent_commit():
    reports, digests = report_digests(GRID_LOAD, cycles=40)
    assert digests == GRID_LOAD_DIGESTS
    assert all(r.top_loaded_nodes for r in reports.values())


if __name__ == "__main__":   # prints the tables above: run at the parent commit
    for spec, cycles, num_nodes in ((DYNAMIC, 40, 100), (LEARNING, 80, 100),
                                    (KEYED_SCALE, 20, 3000), (REGION, 40, 100),
                                    (MOVING_JOIN, 40, 100), (GRID_LOAD, 40, 100)):
        print(spec.name)
        for algorithm, digest in report_digests(spec, cycles, num_nodes)[1].items():
            print(f'    "{algorithm}": "{digest}",')
    print(MOBILITY.name)
    for seed, digest in mobility_digests()[1].items():
        print(f'    "{seed}": "{digest}",')
