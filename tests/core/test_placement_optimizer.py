"""Tests for join-node placement, the pairwise optimizer and GROUPOPT."""

import gc
import weakref

import pytest

from repro.core import (
    CandidateRoutes,
    PairwiseOptimizer,
    Selectivities,
    build_groups,
    optimal_pair_placements,
)
from repro.core.group_opt import GroupDecision
from repro.network import NetworkSimulator
from repro.network.message import MessageKind
from repro.network.topology import random_topology
from repro.routing import MultiTreeSubstrate
from repro.routing.multitree import PairPath
from tests.core.placement_oracle import best_placement, place_join_node


@pytest.fixture(scope="module")
def topo():
    return random_topology(num_nodes=60, average_degree=7, seed=21)


@pytest.fixture(scope="module")
def substrate(topo):
    return MultiTreeSubstrate(topo, num_trees=2)


def _pair_path(substrate, source, target):
    path = substrate.best_route(source, target)
    hops = [substrate.hops_to_base(n) for n in path]
    return PairPath(source=source, target=target, path=path, hops_to_base=hops)


def _routes(substrate, candidates):
    """CandidateRoutes of ``{pair: [PairPath, ...]}``."""
    return CandidateRoutes.build(
        list(candidates), [[c.path for c in found] for found in candidates.values()],
        substrate.hops_to_base_array())


def _plan(substrate, pairs, sel, window_size, ship=None):
    """The plan of *pairs* on their best routes, under *sel* (one for all, or
    per pair)."""
    optimizer = PairwiseOptimizer(substrate, window_size=window_size)
    sels = [sel[p] for p in pairs] if isinstance(sel, dict) else [sel] * len(pairs)
    plan = optimizer.optimize_pairs(
        _routes(substrate, {p: [_pair_path(substrate, *p)] for p in pairs}), sels,
        ship=ship)
    return optimizer, plan


def _place(substrate, topo, pair, sel, window_size):
    _, plan = _plan(substrate, [(pair.source, pair.target)], sel, window_size)
    return plan.decision_for((pair.source, pair.target))


class TestPlacement:
    def test_join_node_on_path_or_base(self, topo, substrate):
        pair = _pair_path(substrate, topo.node_ids[3], topo.node_ids[-4])
        decision = _place(substrate, topo, pair, Selectivities(0.5, 0.5, 0.1), 3)
        assert decision.join_node in pair.path or decision.at_base
        assert decision.source_to_join[0] == pair.source
        assert decision.target_to_join[0] == pair.target
        assert decision.source_to_join[-1] == decision.join_node
        assert decision.target_to_join[-1] == decision.join_node
        assert decision.join_to_base[-1] == topo.base_id or decision.at_base

    def test_never_worse_than_base(self, topo, substrate):
        """Explicit minimization: chosen cost <= cost of joining at the base."""
        selectivity_grid = [
            Selectivities(0.1, 1.0, 0.2),
            Selectivities(0.5, 0.5, 0.05),
            Selectivities(1.0, 0.1, 0.2),
            Selectivities(1.0, 1.0, 1.0),
        ]
        ids = topo.node_ids
        for sel in selectivity_grid:
            for offset in range(5):
                pair = _pair_path(substrate, ids[2 + offset], ids[-3 - offset])
                decision = _place(substrate, topo, pair, sel, 3)
                assert decision.expected_cost <= decision.base_cost + 1e-9

    def test_asymmetric_selectivities_pull_join_node(self, topo, substrate):
        """The join node sits nearer the chattier producer's partner:
        with sigma_s tiny and sigma_t high, t's data should travel few hops."""
        pair = _pair_path(substrate, topo.node_ids[4], topo.node_ids[-5])
        skewed_s = _place(substrate, topo, pair, Selectivities(0.05, 1.0, 0.0), 1)
        skewed_t = _place(substrate, topo, pair, Selectivities(1.0, 0.05, 0.0), 1)
        if not skewed_s.at_base and not skewed_t.at_base:
            assert len(skewed_s.target_to_join) <= len(skewed_t.target_to_join)

    def test_the_oracle_rejects_a_missing_annotation(self, topo, substrate):
        path = substrate.best_route(topo.node_ids[1], topo.node_ids[-2])
        bare = PairPath(
            source=path[0], target=path[-1], path=path, hops_to_base=[]
        )
        with pytest.raises(ValueError):
            place_join_node(bare, Selectivities(1, 1, 0), 1,
                            substrate.path_to_base, topo.base_id)

    def test_best_placement_picks_min_over_paths(self, topo, substrate):
        source, target = topo.node_ids[3], topo.node_ids[-4]
        candidates = [
            _pair_path(substrate, source, target),
        ]
        # Add a deliberately longer candidate (via the base).
        long_path = (substrate.path_to_base(source)
                     + list(reversed(substrate.path_to_base(target)))[1:])
        seen = set()
        long_path = [n for n in long_path if not (n in seen or seen.add(n))]
        candidates.append(PairPath(
            source=source, target=target, path=long_path,
            hops_to_base=[substrate.hops_to_base(n) for n in long_path],
        ))
        plan = PairwiseOptimizer(substrate, window_size=1).optimize_pairs(
            _routes(substrate, {(source, target): candidates}),
            [Selectivities(0.5, 0.5, 0.1)])
        individual = [
            place_join_node(c, Selectivities(0.5, 0.5, 0.1), 1,
                            substrate.path_to_base, topo.base_id).expected_cost
            for c in candidates
        ]
        assert plan.decision_for((source, target)).expected_cost == min(individual)

    def test_the_oracle_requires_candidates(self, topo, substrate):
        with pytest.raises(ValueError):
            best_placement([], Selectivities(1, 1, 0), 1,
                           substrate.path_to_base, topo.base_id)

    def test_nomination_traffic_charged(self, topo, substrate):
        sim = NetworkSimulator(topo)
        _plan(substrate, [(topo.node_ids[3], topo.node_ids[-4])],
              Selectivities(0.5, 0.5, 0.1), 3,
              ship=lambda messages: [sim.transfer(*m) for m in messages.each()])
        assert sim.stats.total() > 0


class TestAgainstGlobalOptimum:
    def test_distributed_placement_close_to_optimal(self, topo, substrate):
        """Figure 7: decentralized placement is within a few percent of the
        optimum computed with global knowledge (here: on the same paths the
        cost ordering must agree within a small factor)."""
        sel = Selectivities(1.0, 0.0, 0.0)
        ids = topo.node_ids
        pairs = [(ids[3 + i], ids[-4 - i]) for i in range(10)]
        optimal = optimal_pair_placements(topo, pairs, sel, window_size=1)
        total_optimal = sum(cost for _, cost in optimal.values())
        _, plan = _plan(substrate, pairs, sel, 1)
        total_distributed = sum(plan.table.expected_cost.tolist())
        assert total_distributed >= total_optimal - 1e-9
        # The multi-tree paths are close to shortest paths, so the gap is small.
        assert total_distributed <= total_optimal * 1.25 + 1e-9


class TestGroups:
    def test_build_groups_connected_components(self):
        groups = build_groups([(1, 10), (2, 10), (3, 11), (5, 12)])
        assert len(groups) == 3
        sizes = sorted(len(g.pairs) for g in groups)
        assert sizes == [1, 1, 2]
        big = max(groups, key=lambda g: len(g.pairs))
        assert big.source_members == {1, 2}
        assert big.target_members == {10}
        assert big.coordinator == 1

    def test_group_optimizer_prefers_base_for_shared_heavy_joins(self, topo, substrate):
        """When one s joins many t's with high sigma_st, shipping everything to
        the base once beats producing results at a far-away join node."""
        ids = [n for n in topo.node_ids if n != topo.base_id]
        source = max(ids, key=substrate.hops_to_base)
        targets = sorted(ids, key=substrate.hops_to_base, reverse=True)[1:5]
        pairs = [(source, t) for t in targets]
        optimizer, plan = _plan(substrate, pairs, Selectivities(1.0, 1.0, 1.0), 3)
        plan = optimizer.apply_group_optimization(plan)
        assert plan.group_decisions
        decision = plan.group_decisions[0]
        if not decision.use_innet:
            assert all(plan.decision_for(p).at_base for p in pairs)

    def test_group_optimizer_keeps_innet_for_rare_joins(self, topo, substrate):
        """With sigma_st ~ 0 and producers far from the base, in-network wins."""
        ids = [n for n in topo.node_ids if n != topo.base_id]
        far = sorted(ids, key=substrate.hops_to_base, reverse=True)
        pairs = [(far[0], far[1]), (far[0], far[2])]
        optimizer, plan = _plan(substrate, pairs, Selectivities(1.0, 1.0, 0.0), 1)
        plan = optimizer.apply_group_optimization(plan)
        assert plan.group_decisions[0].use_innet
        assert not all(plan.decision_for(p).at_base for p in pairs)

    def test_group_traffic_charged(self, topo, substrate):
        sim = NetworkSimulator(topo)
        ids = [n for n in topo.node_ids if n != topo.base_id]
        pairs = [(ids[0], ids[10]), (ids[0], ids[11])]
        optimizer, plan = _plan(
            substrate, pairs, Selectivities(0.5, 0.5, 0.2), 1,
            ship=lambda messages: [sim.transfer(*m) for m in messages.each()])
        traffic_after_pairs = sim.stats.total()
        optimizer.apply_group_optimization(plan, ship=sim.transfer)
        assert sim.stats.total() > traffic_after_pairs


class _Sent:
    """A ``ship`` that records each message's (source, destination, kind)."""

    def __init__(self):
        self.messages = []

    def __call__(self, path, size, kind):
        self.messages.append((path[0], path[-1], kind))
        return True

    def of(self, kind):
        return [(src, dst) for src, dst, k in self.messages if k is kind]


class TestDecisionState:
    """GROUPOPT's one decision state: each coordinator's last decision."""

    def test_decision_derives_total_and_choice_from_producer_deltas(self):
        group = build_groups([(1, 10), (2, 10)])[0]
        innet = GroupDecision(group, {1: -2.0, 2: 0.25, 10: 1.5})
        assert innet.total_delta == pytest.approx(-0.25)
        assert innet.use_innet
        assert not GroupDecision(group, {1: 1.0, 2: 0.0, 10: -0.5}).use_innet
        # a tie joins the group at the base
        assert not GroupDecision(group, {1: 1.0, 2: -1.0, 10: 0.0}).use_innet

    def test_decide_group_keeps_each_coordinators_last_decision(self, topo, substrate):
        ids = [n for n in topo.node_ids if n != topo.base_id]
        pairs = [(ids[0], ids[10]), (ids[0], ids[11]), (ids[3], ids[20])]
        optimizer, plan = _plan(substrate, pairs, Selectivities(0.5, 0.5, 0.2), 2)
        groups = optimizer.group_optimizer
        assert all(groups.previous_use_innet(g) is None for g in build_groups(pairs))
        optimizer.apply_group_optimization(plan)
        assert len(plan.group_decisions) == 2
        for decision in plan.group_decisions:
            assert groups.previous_use_innet(decision.group) is decision.use_innet

    def test_initiation_broadcasts_every_groups_decision(self, topo, substrate):
        """A node that is a source in one group and a target in another
        coordinates both; at initiation each group still broadcasts."""
        ids = sorted(n for n in topo.node_ids if n != topo.base_id)
        hub, x, y = ids[0], ids[15], ids[30]
        pairs = [(hub, x), (y, hub)]
        groups = build_groups(pairs)
        assert len(groups) == 2 and {g.coordinator for g in groups} == {hub}
        optimizer, plan = _plan(substrate, pairs, Selectivities(0.5, 0.5, 0.2), 1)
        sent = _Sent()
        optimizer.apply_group_optimization(plan, ship=sent)
        assert sorted(sent.of(MessageKind.DECISION)) == sorted([(hub, x), (hub, y)])
        assert sorted(sent.of(MessageKind.COST_REPORT)) == sorted([(x, hub), (y, hub)])

    def test_redecision_reports_only_from_the_updated_pairs_producers(
            self, topo, substrate):
        ids = sorted(n for n in topo.node_ids if n != topo.base_id)
        source, targets = ids[0], ids[20:24]
        pairs = [(source, t) for t in targets] + [(ids[5], ids[40])]
        optimizer, plan = _plan(substrate, pairs, Selectivities(0.5, 0.5, 0.2), 1)
        optimizer.apply_group_optimization(plan)
        initiation = list(plan.group_decisions)
        sent = _Sent()
        optimizer.apply_group_optimization(plan, ship=sent, updated={(source, targets[2])})
        # the coordinator (the source) does not report to itself, and an
        # unchanged decision is not broadcast
        assert sent.of(MessageKind.COST_REPORT) == [(targets[2], source)]
        assert sent.of(MessageKind.DECISION) == []
        assert plan.group_decisions == initiation

    def test_redecision_broadcasts_only_when_the_choice_flips(self, topo, substrate):
        ids = sorted(n for n in topo.node_ids if n != topo.base_id)
        pairs = [(ids[0], ids[20]), (ids[0], ids[21])]
        optimizer, plan = _plan(substrate, pairs, Selectivities(0.5, 0.5, 0.2), 1)
        optimizer.apply_group_optimization(plan)
        group = plan.group_decisions[0].group
        decided = plan.group_decisions[0].use_innet
        groups = optimizer.group_optimizer
        sent = _Sent()
        optimizer.apply_group_optimization(plan, ship=sent, updated={pairs[0]})
        assert sent.of(MessageKind.DECISION) == []
        # the coordinator last decided otherwise: the re-decision is a flip
        groups.adopt(group, not decided)
        sent = _Sent()
        optimizer.apply_group_optimization(plan, ship=sent, updated={pairs[0]})
        assert sorted(sent.of(MessageKind.DECISION)) == [(ids[0], ids[20]), (ids[0], ids[21])]
        assert groups.previous_use_innet(group) is decided

    def test_a_repaired_substrate_carries_groupopts_messages(self, topo, substrate):
        """After a failure the optimizer places and routes GROUPOPT on the
        repaired copy, and keeping it ties no reference cycle."""
        ids = [n for n in topo.node_ids if n != topo.base_id]
        optimizer, plan = _plan(substrate, [(ids[0], ids[10])],
                                Selectivities(0.5, 0.5, 0.2), 1)
        repaired = substrate.copy()
        optimizer.use_substrate(repaired)
        groups = optimizer.group_optimizer
        assert optimizer.substrate is repaired
        assert groups.route_between == repaired.best_route
        assert groups.hops_to_base == repaired.hops_to_base
        alive = [weakref.ref(optimizer), weakref.ref(groups), weakref.ref(plan)]
        gc.disable()
        try:
            del optimizer, groups, plan
            assert all(ref() is None for ref in alive)
        finally:
            gc.enable()


class TestJoinPlan:
    def test_plan_bookkeeping(self, topo, substrate):
        ids = [n for n in topo.node_ids if n != topo.base_id]
        pairs = [(ids[0], ids[10]), (ids[1], ids[11])]
        _, plan = _plan(substrate, pairs, Selectivities(0.5, 0.5, 0.1), 2)
        table = plan.table
        assert plan.pairs() == sorted(pairs)
        assert table.expected_cost.sum() > 0
        join_nodes = plan.join_nodes()
        assert join_nodes
        listed = [p for j in join_nodes
                  for p, node in zip(table.pairs, table.join.tolist()) if node == j]
        assert sorted(listed) == sorted(pairs)
        assert 0.0 <= (table.join == table.base_id).mean() <= 1.0

    def test_reoptimize_pair_updates_assignment(self, topo, substrate):
        ids = [n for n in topo.node_ids if n != topo.base_id]
        pair = (ids[0], ids[10])
        optimizer, plan = _plan(substrate, [pair], Selectivities(0.1, 1.0, 0.05), 3)
        optimizer.reoptimize_pairs(plan, [pair], [Selectivities(1.0, 0.1, 0.05)])
        after = plan.decision_for(pair)
        assert plan.table.assumed[plan.table.row_of[pair]] == Selectivities(1.0, 0.1, 0.05)
        assert after.expected_cost <= after.base_cost + 1e-9
        # The decision may or may not move, but it must stay on the path/base.
        assert after.join_node in _pair_path(substrate, *pair).path or after.at_base

    def test_optimizer_window_validation(self, substrate):
        with pytest.raises(ValueError):
            PairwiseOptimizer(substrate, window_size=0)
