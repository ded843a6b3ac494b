"""The pair table against the scalar placement and GROUPOPT, to the bit.

Random pair sets on three deployments (two random ones and the grid, where
equal hop counts tie everywhere), random selectivities and window sizes:
every pair's join node, at-base flag, both costs and three paths, every
group's decision, per-producer differences and control messages, and the
charges of the nominations must equal the scalar oracle's
(``tests/core/placement_oracle.py``).  Ties are drawn on purpose:
``sigma_s == sigma_t`` with ``sigma_st = 0`` makes every join node on a path
cost the same, and a hub producer with many targets reaches nine or more
join nodes, where a pairwise sum of its ``Delta C_p`` terms would differ
from the one-after-the-other sum.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import Selectivities
from repro.core.group_opt import GroupOptimizer, GroupPlacements, build_groups
from repro.core.placement import CandidateRoutes, PairTable, PlacementDecision
from repro.joins.base import ExecutionContext
from repro.network.batch import CycleBatcher, PathMessages
from repro.network.links import LinkModel
from repro.network.message import MessageKind, MessageSizes
from repro.network.simulator import NetworkSimulator
from repro.network.topology import grid_topology, random_topology
from repro.routing.multitree import MultiTreeSubstrate, PairPath
from repro.routing.paths import strip_cycles
from tests.core import placement_oracle as oracle

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
NOMINATION_SIZE = MessageSizes().control(num_fields=3)


@lru_cache(maxsize=None)
def deployment(name: str):
    topology = {
        "sparse": lambda: random_topology(num_nodes=50, average_degree=5, seed=3),
        "dense": lambda: random_topology(num_nodes=70, average_degree=10, seed=8),
        "grid": lambda: grid_topology(num_nodes=64),
    }[name]()
    return topology, MultiTreeSubstrate(topology, num_trees=3)


def candidate_paths(substrate, source, target):
    """The pair's best route, then every other distinct tree route."""
    routes = [substrate.best_route(source, target)]
    for tree in substrate.trees:
        route = strip_cycles(tree.route(source, target))
        if route not in routes:
            routes.append(route)
    return [PairPath(source=source, target=target, path=route,
                     hops_to_base=[substrate.hops_to_base(n) for n in route])
            for route in routes]


SIGMAS = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 1.0])
SIGMA_ST = st.sampled_from([0.0, 0.0, 0.01, 0.2, 0.3, 1.0])


@st.composite
def cases(draw):
    name = draw(st.sampled_from(["sparse", "dense", "grid"]))
    topology, substrate = deployment(name)
    nodes = [n for n in topology.node_ids if n != topology.base_id]
    pairs = {}
    for _ in range(draw(st.integers(1, 25))):
        source, target = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2,
                                       unique=True))
        pairs[(source, target)] = None
    if draw(st.booleans()):  # a hub: one source, many targets
        hub = draw(st.sampled_from(nodes))
        for target in draw(st.lists(st.sampled_from(nodes), min_size=9, max_size=16,
                                    unique=True)):
            if target != hub:
                pairs[(hub, target)] = None
    shared = Selectivities(draw(SIGMAS), draw(SIGMAS), draw(SIGMA_ST))
    if draw(st.booleans()):  # the tie case
        shared = Selectivities(shared.sigma_s, shared.sigma_s, 0.0)
    per_pair = draw(st.booleans())
    assumed = [Selectivities(draw(SIGMAS), draw(SIGMAS), draw(SIGMA_ST)) if per_pair
               else shared for _ in pairs]
    return (topology, substrate, list(pairs), assumed, draw(st.integers(1, 4)),
            draw(st.integers(0, 2**31)))


def build(substrate, topology, pairs, assumed, window_size):
    candidates = [candidate_paths(substrate, *pair) for pair in pairs]
    routes = CandidateRoutes.build(pairs, [[c.path for c in found] for found in candidates],
                                   substrate.hops_to_base_array())
    table = PairTable(routes, assumed, substrate.path_to_base, topology.base_id)
    table.place(np.arange(len(pairs)), window_size)
    expected = {
        pair: oracle.best_placement(found, sel, window_size, substrate.path_to_base,
                                    topology.base_id)
        for pair, found, sel in zip(pairs, candidates, assumed)
    }
    return table, expected


def charges(topology, messages):
    """The traffic stats after shipping *messages* through one batch."""
    simulator = NetworkSimulator(topology)
    batcher = CycleBatcher(simulator)
    batcher.ship_paths(messages)
    batcher.flush()
    return simulator.stats


def oracle_charges(topology, sent):
    """The traffic stats after one ``transfer`` per message."""
    simulator = NetworkSimulator(topology)
    for path, size, kind in sent:
        simulator.transfer(path, size, kind)
    return simulator.stats


@SETTINGS
@given(cases())
def test_placement_and_nominations_equal_the_scalar_oracle(case):
    topology, substrate, pairs, assumed, window_size, _ = case
    table, expected = build(substrate, topology, pairs, assumed, window_size)
    for row, pair in enumerate(pairs):
        assert table.decision(row) == expected[pair]
    messages = table.nomination_messages(np.arange(len(pairs)), NOMINATION_SIZE)
    sent = [m for pair in pairs for m in oracle.nominations(expected[pair])]
    assert list(messages.each()) == sent
    ours, theirs = charges(topology, messages), oracle_charges(topology, sent)
    assert ours.transmitted == theirs.transmitted
    assert ours.received == theirs.received
    assert ours.traffic_by_kind() == theirs.traffic_by_kind()


@SETTINGS
@given(cases())
def test_group_decisions_equal_the_scalar_oracle(case):
    topology, substrate, pairs, assumed, window_size, seed = case
    table, expected = build(substrate, topology, pairs, assumed, window_size)
    rng = np.random.default_rng(seed)
    optimizer = GroupOptimizer(substrate.hops_to_base, substrate.best_route)
    placements = dict(expected)
    for group in build_groups(sorted(pairs)):
        rows = np.array([table.row_of[pair] for pair in group.pairs])
        selectivities = assumed[int(rows[0])]
        report_from = (None if rng.random() < 0.5 else
                       {n for n in group.members if rng.random() < 0.5})
        previous = [None, True, False][int(rng.integers(3))]
        shipped, reference = [], []
        decision = optimizer.decide_group(
            group, GroupPlacements.of(table, rows), selectivities, window_size,
            ship=lambda *m: shipped.append(m), report_from=report_from,
            previous_decision=previous)
        use_innet, total, per_producer = oracle.decide_group(
            substrate.hops_to_base, substrate.best_route, group, placements,
            selectivities, window_size, ship=lambda *m: reference.append(m),
            report_from=report_from, previous_decision=previous)
        assert decision.use_innet == use_innet
        assert decision.total_delta == total
        assert list(decision.per_producer_delta.items()) == list(per_producer.items())
        assert shipped == reference
        optimizer.apply_decision(decision, table, rows)
        oracle.apply_decision(use_innet, group, placements, topology.base_id,
                              substrate.path_to_base)
    for row, pair in enumerate(pairs):
        assert table.decision(row) == placements[pair]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 40), min_size=1, max_size=7),
                          st.sampled_from([13, 17, 21]),
                          st.sampled_from([MessageKind.EXPLORE, MessageKind.EXPLORE_REPLY,
                                           MessageKind.NOMINATE])),
                max_size=30),
       st.sampled_from([0.0, 0.3, 0.6]), st.integers(0, 1000))
def test_ship_paths_equals_ship_per_message(messages, loss, seed):
    """A run's ``ship_paths`` through a captured batcher, on lossy links too:
    the same RNG draws, charges and drops as one ``ship`` per message, in
    order."""
    topology, _ = deployment("sparse")
    kinds = (MessageKind.EXPLORE, MessageKind.EXPLORE_REPLY, MessageKind.NOMINATE)
    nodes = np.array([n for path, _, _ in messages for n in path], dtype=np.int64)
    lengths = np.array([len(path) for path, _, _ in messages], dtype=np.int64)
    table = PathMessages.gather(
        nodes, np.cumsum(lengths) - lengths, lengths, np.ones(lengths.size, dtype=np.int64),
        np.array([size for _, size, _ in messages], dtype=np.int64),
        np.array([kinds.index(kind) for _, _, kind in messages], dtype=np.int64), kinds)
    results = []
    for one_call in (True, False):
        simulator = NetworkSimulator(topology, link_model=LinkModel(loss, seed=seed))
        batcher = CycleBatcher(simulator)
        if one_call:
            context = ExecutionContext(query=None, analysis=None, topology=topology,
                                       simulator=simulator, data_source=None,
                                       assumed_selectivities=None)
            with context.captured_shipping(batcher):
                context.ship_paths(table)
        else:
            for path, size, kind in messages:
                batcher.ship(path, size, kind)
        batcher.flush()
        stats = simulator.stats
        results.append((stats.transmitted, stats.received, stats.traffic_by_kind(),
                        stats.messages_dropped, simulator.links._rng.random()))
    assert results[0] == results[1]


def test_a_hub_reaches_nine_join_nodes_in_the_drawn_cases():
    """The hub case exists: some producer's ``Delta C_p`` sums nine or more
    join nodes, so the order of its sum is exercised."""
    topology, substrate = deployment("grid")
    nodes = [n for n in topology.node_ids if n != topology.base_id]
    hub = nodes[0]
    pairs = [(hub, target) for target in nodes[-16:]]
    table, _ = build(substrate, topology, pairs, [Selectivities(0.3, 0.7, 0.01)] * 16, 3)
    assert len(set(table.join.tolist())) >= 9


def test_a_long_delta_sum_adds_one_term_after_another():
    """A producer with twelve join nodes whose terms sum differently pairwise
    than one after the other: ``Delta C_p`` must take the scalar order."""
    rng = np.random.default_rng(0)
    while True:
        d_pj, d_jr = rng.integers(1, 9, 12), rng.integers(1, 9, 12)
        terms = d_pj + 3 * 0.3 * 1 * d_jr.astype(float)
        in_order = 0.0
        for term in terms.tolist():
            in_order += term
        if float(np.add.reduce(terms)) != in_order:
            break
    placements = {
        (0, target): PlacementDecision(
            source=0, target=target, join_node=100 + target, at_base=False,
            expected_cost=0.0, base_cost=0.0,
            source_to_join=[0] * int(distance) + [100 + target],
            target_to_join=[target, 100 + target],
            join_to_base=[100 + target] + [0] * int(to_base))
        for target, distance, to_base in zip(range(1, 13), d_pj, d_jr)
    }
    group = build_groups(list(placements))[0]
    selectivities = Selectivities(0.7, 0.7, 0.3)
    decision = GroupOptimizer(lambda node: 7, lambda a, b: [a, b]).decide_group(
        group, oracle.group_placements(group, placements), selectivities, 3)
    use_innet, total, per_producer = oracle.decide_group(
        lambda node: 7, lambda a, b: [a, b], group, placements, selectivities, 3)
    assert decision.per_producer_delta == per_producer
    assert decision.total_delta == total
