"""A wrong plan in one session shows: a churn trace replayed through
``ServiceEngine`` against digests recorded before admission ran on pair
tables.

After every submit and cancel, each live session's plan digest (per pair its
join node, whether it joins at the base, its two costs and its three paths)
and the engine's ``stats()`` must equal what the scalar placement and
GROUPOPT code produced for the same trace.  The recorded values come from
that code (``python tests/service/test_plan_replay.py`` prints them); the
trace is ``query-churn-smoke``-sized: 8 concurrent queries on 60 nodes,
two of them replaced every 4 cycles over 20 cycles.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Callable, Dict, List, Optional

import numpy as np
import pytest

from repro.core.cost_model import Selectivities
from repro.core.group_opt import build_groups
from repro.service.churn import build_churn_trace, churn_query, events_by_cycle
from repro.service.engine import ServiceConfig, ServiceEngine

NODES, SEED, CYCLES, TARGET = 60, 0, 20, 8


def cell_query(slot: int, seed: int, num_nodes: int):
    """A pool query joining S and T producers of the same grid cell: a
    routable static join (content-routed exploration) whose small groups
    GROUPOPT keeps in the network or sends to the base."""
    rng = np.random.default_rng((seed << 16) ^ slot)
    split = int(rng.integers(num_nodes // 3, 2 * num_nodes // 3))
    window = int(rng.integers(1, 3))
    return f"cell-q{slot}", (
        f"SELECT S.id, T.id FROM S, T [windowsize={window} sampleinterval=100] "
        f"WHERE S.id < {split} AND T.id >= {split - 5} AND S.adc0 < 500 "
        f"AND T.adc0 < 500 AND S.rid = T.rid AND S.cid = T.cid AND S.u = T.u")


#: pool -> (query per slot, assumed sigma_st).  The churn pool (no routable
#: static join) forms one group that joins at the base; in the cell pool
#: groups go both ways, and owners of a shared pair take its lowest-id
#: owner's placement.
POOLS = {"churn": (churn_query, 0.2), "cell": (cell_query, 0.05)}

#: pool -> the digest after each submit or cancel
RECORDED: Dict[str, List[str]] = {
    "churn": [
        "33b587e9b3f2c321", "df57d1eda2f98a67", "e584e530330f3eff", "7a8fc2c277604740",
        "b8defb2b5f948c62", "73ca799931542ebf", "2f13544ee7e9f3ab", "53f0ffdf53925229",
        "468c8db91ea81b3b", "ce6efac9771c041e", "68548a85d9576b4b", "5c848e2488eaf17f",
        "1428b5f10c626378", "0275ac2c257eb2f3", "3f6a085db815f888", "809a2dc018f8c440",
        "ad0a26d018ab4b23", "a931809d70a417c9", "2f00ad116a818077", "1b3606dfc8838623",
        "e1c01d1db367a336", "e017d6d3761a5ba8", "02f6dffc051fe3a1", "314a00968325f5ca",
    ],
    "cell": [
        "99f25e0b4a8aef27", "b2f730d04b0ea337", "b36e88a2ea688064", "e1aa6bd4a658c59d",
        "f9871f0058e583c2", "fe9048971eabd48c", "e449ff112d6516d4", "296b9406b8d0f43e",
        "1666623687566863", "0c4d15d17cc74a41", "6aa4af546c5d1ac1", "9784ab31f257dfed",
        "9146dc8b6d72c1f1", "41486cdc5c383e91", "b5c861d149c0b39f", "1dc13e1b0b8b7e05",
        "ae182c693852b73d", "d9d9ca2f8b860d7b", "76b841e5c0cdcc76", "036ed39ca3ea22f0",
        "c94224f3cfcedfb5", "fa7ddedc31628968", "8bd662f3f47a4407", "b2702cdae57f23af",
    ],
}


def _engine(pool: str) -> ServiceEngine:
    return ServiceEngine(ServiceConfig(
        num_nodes=NODES, topology_seed=SEED, seed=SEED,
        assumed=Selectivities(0.5, 0.5, POOLS[pool][1]),
        default_algorithm="innet-cmg"))


def _digest(engine: ServiceEngine) -> str:
    sessions = []
    for session in engine.shared.sessions(active_only=True):
        plan = getattr(session.strategy, "plan", None)
        rows = []
        for pair in plan.pairs():
            decision = plan.decision_for(pair)
            rows.append([
                list(pair), decision.join_node, decision.at_base,
                repr(decision.expected_cost), repr(decision.base_cost),
                list(decision.source_to_join), list(decision.target_to_join),
                list(decision.join_to_base),
            ])
        sessions.append([session.query_id, rows])
    stats = engine.stats()
    payload = json.dumps([sessions, {k: repr(v) for k, v in sorted(stats.items())}])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def replay(pool: str, check: Optional[Callable[[ServiceEngine], None]] = None
           ) -> List[str]:
    """The digests of one replay, one per submit or cancel (after each,
    *check* sees the engine)."""
    engine = _engine(pool)
    query = POOLS[pool][0]
    trace = events_by_cycle(build_churn_trace(
        SEED, cycles=CYCLES, target=TARGET, churn_interval=4, churn_count=2))
    ids: Dict[int, int] = {}
    digests = []
    for cycle in range(CYCLES):
        for event in trace.get(cycle, ()):
            if event.action == "cancel":
                engine.cancel(ids.pop(event.slot))
            else:
                name, sql = query(event.slot, SEED, NODES)
                ids[event.slot] = engine.submit(sql=sql, name=name)["query_id"]
            if check is not None:
                check(engine)
            digests.append(_digest(engine))
        engine.step(1)
    return digests


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_replay_matches_the_recorded_plans(pool):
    digests = replay(pool)
    assert len(digests) == len(RECORDED[pool])
    for index, (got, want) in enumerate(zip(digests, RECORDED[pool])):
        assert got == want, f"event {index}: plan or stats diverged"


@pytest.mark.parametrize("pool, outcomes", [("churn", {False}), ("cell", {False, True})])
def test_the_pools_decide_groups_as_stated(pool, outcomes):
    engine = _engine(pool)
    for slot in range(TARGET):
        name, sql = POOLS[pool][0](slot, SEED, NODES)
        engine.submit(sql=sql, name=name)
    groups = engine.shared.group_optimizer
    assert {groups.previous_use_innet(group) for group in groups.groups()} == outcomes


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_re_decisions_leave_the_plans_decision_lists_alone(pool):
    """The engine's re-decisions update its optimizer's state: every live
    plan keeps its initiation decisions, one per group of its pairs."""
    reoptimizations = []

    def check(engine):
        for session in engine.shared.sessions(active_only=True):
            plan = session.strategy.plan
            assert len(plan.group_decisions) == len(build_groups(plan.pairs()))
        reoptimizations.append(engine.shared.reoptimizations)
    replay(pool, check)
    assert reoptimizations[-1] > 0   # the engine did re-decide groups

if __name__ == "__main__":
    print(json.dumps({pool: replay(pool) for pool in sys.argv[1:] or sorted(POOLS)},
                     indent=4))
