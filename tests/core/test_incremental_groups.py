"""Satellite: incremental grouping equals from-scratch GROUPOPT.

Property-style coverage over seeded churn traces: any interleaving of
``add_query``/``remove_query`` must leave the incremental optimizer with
exactly the groups (and, given identical inputs, the same decisions) that a
from-scratch :func:`build_groups` derives over the final live query set.
"""

import numpy as np
import pytest

from repro.core.cost_model import Selectivities
from repro.core.group_opt import GroupOptimizer, build_groups
from repro.core.placement import PlacementDecision
from tests.core.placement_oracle import group_placements


def _optimizer() -> GroupOptimizer:
    return GroupOptimizer(
        hops_to_base=lambda node: 1 + node % 7,
        route_between=lambda a, b: [a, b],
    )


def _query_pairs(rng: np.random.Generator, universe: int):
    """A small random bipartite pair set drawn from a shared id universe."""
    count = int(rng.integers(1, 5))
    pairs = []
    for _ in range(count):
        source = int(rng.integers(0, universe))
        target = int(rng.integers(universe, 2 * universe))
        pairs.append((source, target))
    return pairs


def _partition(groups):
    """A group list as a comparable set of pair-sets."""
    return {frozenset(group.pairs) for group in groups}


def _placement_for(pair):
    source, target = pair
    join = min(source, target)
    return PlacementDecision(
        source=source,
        target=target,
        join_node=join,
        at_base=False,
        expected_cost=1.0,
        base_cost=2.0,
        source_to_join=list(range(source, join - 1, -1)) or [source],
        target_to_join=list(range(target, join - 1, -1)) or [target],
        join_to_base=[join, 0],
    )


class TestIncrementalGrouping:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_churn_trace_matches_from_scratch(self, seed):
        rng = np.random.default_rng(seed)
        optimizer = _optimizer()
        live = {}
        next_query = 0
        for _ in range(60):
            if live and rng.random() < 0.4:
                victim = sorted(live)[int(rng.integers(0, len(live)))]
                optimizer.remove_query(victim)
                del live[victim]
            else:
                pairs = _query_pairs(rng, universe=12)
                optimizer.add_query(next_query, pairs)
                live[next_query] = pairs
                next_query += 1
            distinct = list(
                dict.fromkeys(p for pairs in live.values() for p in pairs)
            )
            expected = _partition(build_groups(distinct))
            assert _partition(optimizer.groups()) == expected

    def test_empty_after_all_queries_leave(self):
        optimizer = _optimizer()
        optimizer.add_query("a", [(1, 10), (2, 10)])
        optimizer.add_query("b", [(2, 11)])
        optimizer.remove_query("a")
        optimizer.remove_query("b")
        assert optimizer.groups() == []
        assert optimizer.registered_queries() == []

    def test_merge_and_split(self):
        optimizer = _optimizer()
        changed = optimizer.add_query("a", [(1, 10)])
        assert len(changed) == 1
        # Shares source 1 -> both pairs merge into one group.
        changed = optimizer.add_query("b", [(1, 11)])
        assert len(changed) == 1
        assert _partition(optimizer.groups()) == {
            frozenset({(1, 10), (1, 11)})
        }
        # Removing b splits the group back down to a's pair.
        changed = optimizer.remove_query("b")
        assert _partition(optimizer.groups()) == {frozenset({(1, 10)})}
        assert [g.pairs for g in changed] == [[(1, 10)]]

    def test_untouched_groups_keep_identity_and_decisions(self):
        optimizer = _optimizer()
        optimizer.add_query("stable", [(5, 15)])
        stable_group = optimizer.groups()[0]
        selectivities = Selectivities(0.5, 0.5, 0.2)
        decision = optimizer.decide_group(
            stable_group,
            group_placements(stable_group, {(5, 15): _placement_for((5, 15))}),
            selectivities,
            window_size=2,
        )
        # Disjoint churn must not touch the stable group or its decision.
        optimizer.add_query("other", [(1, 10), (2, 10)])
        optimizer.remove_query("other")
        assert optimizer.groups()[0] is stable_group
        assert optimizer.previous_use_innet(stable_group) is decision.use_innet

    def test_shared_pair_keeps_group_alive(self):
        optimizer = _optimizer()
        optimizer.add_query("a", [(3, 12)])
        changed = optimizer.add_query("b", [(3, 12)])
        assert changed == []  # identical pair set: structure unchanged
        assert optimizer.remove_query("a") == []  # still referenced by b
        assert _partition(optimizer.groups()) == {frozenset({(3, 12)})}
        optimizer.remove_query("b")
        assert optimizer.groups() == []

    @pytest.mark.parametrize("seed", [11, 23])
    def test_decisions_match_from_scratch(self, seed):
        """After churn, per-group decisions equal the from-scratch ones."""
        rng = np.random.default_rng(seed)
        optimizer = _optimizer()
        live = {}
        for index in range(20):
            if live and rng.random() < 0.35:
                victim = sorted(live)[int(rng.integers(0, len(live)))]
                optimizer.remove_query(victim)
                del live[victim]
            else:
                pairs = _query_pairs(rng, universe=10)
                optimizer.add_query(index, pairs)
                live[index] = pairs
        distinct = list(
            dict.fromkeys(p for pairs in live.values() for p in pairs)
        )
        placements = {pair: _placement_for(pair) for pair in distinct}
        selectivities = Selectivities(0.4, 0.6, 0.1)
        scratch = _optimizer()
        expected = {
            frozenset(group.pairs): scratch.decide_group(
                group, group_placements(group, placements), selectivities,
                window_size=2,
            )
            for group in build_groups(distinct)
        }
        for group in optimizer.groups():
            decision = optimizer.decide_group(
                group, group_placements(group, placements), selectivities,
                window_size=2,
            )
            reference = expected[frozenset(group.pairs)]
            assert decision.use_innet == reference.use_innet
            assert decision.total_delta == pytest.approx(reference.total_delta)
            assert decision.per_producer_delta == pytest.approx(
                reference.per_producer_delta
            )
