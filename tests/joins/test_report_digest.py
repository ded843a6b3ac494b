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

Every digest was re-pinned once when the report lost its retired
``queue_drops`` field: at that parent commit, each digest recomputed with
the field (0 in every run here) popped equals its pin below.

The ``innet``-family digests of the first two scenarios were re-pinned once
more when a failed join node's recovery stopped probing the forwarded
last-``w`` tuples against one another at the base (they had been joined
before the failure): with that probe put back, the new code reproduces the
old pins.
"""

import dataclasses
import hashlib
import json
import sys

import pytest

from repro.engine import FIGURE2_ALGORITHMS, ExperimentScale, SweepRunner
from repro.engine.spec import ScenarioSpec
from repro.experiments.figures_joins import fig05_scenario
from repro.experiments.figures_substrate import appg_scenario
from repro.joins.innet import InnetJoin

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
    "naive": "bf9f851d7252ef8b5f8631c959a285698faf87abc0d2aa4bdb3f8586bba9cdcd",
    "base": "07a4559077c46dcbfac0ef729862950b8475844cd9ce83993d0a3a4974d04c4c",
    "ght": "54cf1be00e61456769046a7b18396747604346f64cc30135f345b2b5c7af9a2d",
    "innet": "cc4e2709b112d680a262165c1fecec3fe57ea168148ada6492d9a0dee77adce9",
    "innet-cmg": "6f31ae9548ee3da63c5703df10b69fad37787758704237e8d473bb7e02f00d9b",
    "innet-cmpg": "51f570ff7c9a045bc18cd69b6f771c49ef4bd70f603111f9222b1de99dacbf3d",
    "innet-learn": "c03fc91756fb3949278c7869d29de34c32f64954e38ed51a65d0c6579221f1f7",
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
    "innet-learn": "2692377906d0e9ab8953b786672a9996e1fdc0b81276a3255cd372157b1419d8",
    "innet-basic-learn": "207717ee05eca46d81d8ab3bea574c41f15350f0e166886e1349f50d2c752ecd",
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
    "innet-cmg": "c6974a0698c34de3daeefcccfd87123a3b5baf0e887937b59489f5b1eb1376a1",
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
    "innet": "6d5f8147f8a52b5650497d7da6e25b4a18a3342c5d135f17699932ede36f8012",
}


MOBILITY = appg_scenario(num_moves=2).with_overrides(name="digest/appg")
MOBILITY_DIGESTS = {
    "1": "724b1fdd5713c5d87670976504cb937c59927834bfe293490ee69fed41b3d07e",
    "2": "8bcb82158315b645524d4191c61f7f868e0d31e3e99b5dee6e85e4c0297629e3",
    "3": "dc7dcf5bc7b0e585682f667ea79d2cb7522c248bed34e2017beda3a63d513ea4",
    "4": "c2f28364ef969322b1bcda2bc45dccab731edfcf12e5fcd2806adf91b886f78c",
    "5": "f559ac26c7541a6e5e3525efbb8a993fafa15166dc5234eaccaa6a5b21040e15",
    "6": "90883364ac5aec08ee24bea48b68fe5b88b23b9d7badbbaa3bc14b516634605c",
    "7": "97d164563eae1114915c370eae74f5fee0492c752043979340ece96c0df4529f",
    "8": "bc63c9c73e079f1a1f72d82cc6e1dd4a87e80a6c3adb77c647a635c3af1c328b",
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
    "base": "35f560c470526f97fd4b9634b988d17370501dac46e80c621c2b7b06d5ec6a74",
    "ght": "e2a77c4030a639de33ebb61353dbebbcc3fce6e3a7df71a206175a14a9f02ecf",
    "innet": "da2576d6bd1041122d3eb185d645d4f1f7118c4eb3479a933c8d4f28c9bac942",
    "innet-cmg": "3adb1e942916415a8dd6bd5712cd63982a397954b225593f43884e5794ab1439",
}

GRID_LOAD = fig05_scenario().with_overrides(
    name="digest/grid-load", topology_preset="grid", seed_base=8,
)
GRID_LOAD_DIGESTS = {
    "naive": "6d6d7d621b42722da421af824f26ba5bdf147356c4e802c1469bd5bf706faab7",
    "base": "52eee72269210da5226ec0270a99700fa12afd1d2bee9f2f88cdfd88730e24f6",
    "innet": "b49f3e1d3f4635e163fdc53dab1b15daa1a44b7536c5c7263f2b3360b300422b",
    "innet-cm": "943ed252787b15bec8af920c1100ba793e0420729deb74cb032a901906137b3b",
    "innet-cmg": "bd8bbb8e2a3c49e4e5dd9f114ce0dff3ddbde0f0b94d932448970a372a109c1f",
    "innet-cmp": "0675a091a44726b2749461a6f1455547b6786528ced554a408ce151539af232e",
    "innet-cmpg": "60836f3f39b0f6b3c577e2d437a4bd57741040c838221dffb21abf04cae99cb7",
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


def test_learning_re_decides_the_groups_built_at_initiation(monkeypatch):
    """Over the learning scenario: each run groups its plan's pairs once,
    at initiation; after every learning check each pair's ``table.assumed``
    entry is its learned estimate (what GROUPOPT re-decides under); and the
    plan's decision list keeps its initiation length."""
    grouped = []
    for name, module in list(sys.modules.items()):
        build = getattr(module, "build_groups", None)
        if name.startswith("repro.") and build is not None:
            def counted(pairs, build=build):
                grouped.append(len(pairs))
                return build(pairs)
            monkeypatch.setattr(module, "build_groups", counted)
    initiated = []
    initiate, learn = InnetJoin.initiate, InnetJoin._learn

    def initiate_and_note(self, ctx):
        initiate(self, ctx)
        initiated.append((self, len(self.plan.group_decisions)))

    def learn_and_check(self, ctx, cycles):
        learn(self, ctx, cycles)
        table = self.plan.table
        for pair, state in self._learning.items():
            assert table.assumed[table.row_of[pair]] is state.current
    monkeypatch.setattr(InnetJoin, "initiate", initiate_and_note)
    monkeypatch.setattr(InnetJoin, "_learn", learn_and_check)
    reports, _ = report_digests(LEARNING, cycles=80)
    grouping = [strategy for strategy, _ in initiated
                if strategy.variant.group_optimization]
    assert len(grouping) == 1 and reports["innet-learn"].reoptimizations > 0
    assert len(grouped) == 1
    for strategy, decisions in initiated:
        assert len(strategy.plan.group_decisions) == decisions


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
