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
"""

import dataclasses
import hashlib
import json

import pytest

from repro.engine import FIGURE2_ALGORITHMS, ExperimentScale, SweepRunner
from repro.engine.spec import ScenarioSpec

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


def report_digests(scenario, cycles, num_nodes=100):
    scale = ExperimentScale(name="digest", runs=1, cycles=cycles,
                            num_nodes=num_nodes, long_cycles=cycles)
    sweep = SweepRunner(jobs=1).run(scenario, scale)
    reports = {
        algorithm: aggregate.runs[0].report
        for group in sweep.groups
        for algorithm, aggregate in group.aggregates.items()
    }
    digests = {
        algorithm: hashlib.sha256(
            json.dumps(dataclasses.asdict(report), sort_keys=True).encode()
        ).hexdigest()
        for algorithm, report in reports.items()
    }
    return reports, digests


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


if __name__ == "__main__":   # prints the tables above: run at the parent commit
    for spec, cycles, num_nodes in ((DYNAMIC, 40, 100), (LEARNING, 80, 100),
                                    (KEYED_SCALE, 20, 3000), (REGION, 40, 100)):
        print(spec.name)
        for algorithm, digest in report_digests(spec, cycles, num_nodes)[1].items():
            print(f'    "{algorithm}": "{digest}",')
