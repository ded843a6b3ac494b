"""The array semantic routing table against the object oracle.

``SemanticRoutingTable`` reduces per-node rows level by level; the oracle
(``semantic_oracle.ObjectSemanticRoutingTable``) merges one summary object
per node and edge.  Over random and grid topologies, roots, tie-break seeds
and value types, every subtree and child-link summary must agree (Bloom bits
and item counts, bounding rectangles), as must the children
a probe selects, the maintenance bytes and the ``TREE_MAINT`` transfers,
including the link model's RNG state after a lossy build.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network import NetworkSimulator
from repro.network.links import lossy_links
from repro.network.topology import grid_topology, random_topology
from repro.routing import MultiTreeSubstrate, RoutingTree, SemanticRoutingTable
from repro.routing.semantic import bloom_masks
from repro.summaries import BloomFilterSummary, RectSummary, Summary
from repro.summaries.bloom import _mask_for
from tests.routing.semantic_oracle import ObjectSemanticRoutingTable

NUM_BITS = (64, 100, 128, 256, 257)
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

ints = st.one_of(st.integers(-50, 50), st.integers(-(1 << 63), (1 << 63) - 1))
bloom_scalars = st.one_of(
    ints, st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.none(), st.integers(-1000, 1000).map(np.int64),
)
bloom_values = st.one_of(
    bloom_scalars,
    st.lists(bloom_scalars, max_size=3),
    st.tuples(bloom_scalars, bloom_scalars, bloom_scalars),
)
coordinates = st.one_of(st.integers(-300, 300), st.floats(-300, 300, allow_nan=False))
points = st.tuples(coordinates, coordinates)
pos_values = st.one_of(points, st.lists(points, min_size=1, max_size=3))


@st.composite
def trees(draw):
    if draw(st.booleans()):
        topology = grid_topology(num_nodes=draw(st.sampled_from((9, 16, 25, 36))))
    else:
        topology = random_topology(num_nodes=draw(st.integers(8, 40)),
                                   average_degree=7, seed=draw(st.integers(0, 50)))
    root = draw(st.sampled_from(topology.node_ids))
    tree = RoutingTree(topology, root=root, tie_break_seed=draw(st.integers(0, 6)))
    return topology, tree


def node_values(draw, topology, values):
    drawn = draw(st.lists(values, min_size=topology.num_nodes,
                          max_size=topology.num_nodes))
    return dict(zip(topology.node_ids, drawn))


def assert_same_summary(array, oracle):
    if isinstance(oracle, BloomFilterSummary):
        assert (array.num_bits, array.num_hashes) == (oracle.num_bits, oracle.num_hashes)
        assert array._bits == oracle._bits
        assert array.approximate_items == oracle.approximate_items
    else:
        assert array.bounding_rect() == oracle.bounding_rect()


def assert_same_rows(array, oracle, tree, attrs):
    for attr in attrs:
        for node in sorted(tree.parent):
            assert_same_summary(array.subtree_summary(node, attr),
                                oracle.subtree_summary(node, attr))
            for child in tree.children_of(node):
                assert_same_summary(array.child_summary(node, child, attr),
                                    oracle.child_summary(node, child, attr))


def assert_same_choices(array, oracle, tree, attr, probes):
    for probe in probes:
        for node in sorted(tree.parent):
            assert (array.children_that_might_match(node, attr, probe)
                    == oracle.children_that_might_match(node, attr, probe))


def both(tree, factories, extractors):
    return (SemanticRoutingTable(tree, factories, extractors),
            ObjectSemanticRoutingTable(tree, factories, extractors))


# ---------------------------------------------------------------------------
# Bloom value masks
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.lists(bloom_scalars, max_size=30),
       st.sampled_from(NUM_BITS + (1, 3, 63, 65, 1000)), st.integers(1, 9))
def test_bloom_masks_equal_the_scalar_mask_bit_for_bit(items, num_bits, num_hashes):
    items += [0, -1, 1, (1 << 63) - 1, -(1 << 63), True, False, 1.0]
    rows = bloom_masks(items, num_bits, num_hashes)
    assert rows.shape == (len(items), math.ceil(num_bits / 64))
    for value, row in zip(items, rows):
        assert int.from_bytes(row.astype("<u8").tobytes(), "little") == _mask_for(
            value, num_bits, num_hashes)


# ---------------------------------------------------------------------------
# the tables
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_bloom_tables_agree_with_the_object_build(data):
    topology, tree = data.draw(trees())
    num_bits = data.draw(st.sampled_from(NUM_BITS))
    num_hashes = data.draw(st.none() | st.integers(1, 6))
    values = node_values(data.draw, topology, bloom_values)
    factories = {"key": lambda: BloomFilterSummary(num_bits=num_bits, num_hashes=num_hashes)}
    array, oracle = both(tree, factories, {"key": values.__getitem__})
    assert_same_rows(array, oracle, tree, ["key"])
    probe_values = data.draw(st.lists(bloom_scalars, max_size=4)) + [
        v for v in values.values() if not isinstance(v, list)][:4]
    assert_same_choices(array, oracle, tree, "key", [
        lambda summary, v=v: summary.might_contain(v) for v in probe_values])
    assert array.total_maintenance_bytes() == oracle.total_maintenance_bytes()


@SETTINGS
@given(st.data())
def test_pos_tables_keep_the_bounding_rectangles(data):
    topology, tree = data.draw(trees())
    if data.draw(st.booleans()):
        extractor = lambda node: topology.nodes[node].position   # noqa: E731
    else:
        extractor = node_values(data.draw, topology, pos_values).__getitem__
    factories = {"pos": RectSummary}
    array, oracle = both(tree, factories, {"pos": extractor})
    assert_same_rows(array, oracle, tree, ["pos"])
    probes = data.draw(st.lists(st.tuples(points, st.floats(0, 200)), max_size=4))
    assert_same_choices(array, oracle, tree, "pos", [
        lambda summary, c=c, r=r: summary.intersects_radius(c, r) for c, r in probes])
    # a pos report is one rectangle per tree edge
    assert array.total_maintenance_bytes() == oracle.total_maintenance_bytes()
    assert array.total_maintenance_bytes() == 8 * (len(tree.parent) - 1)


def recorded_build(build, topology, seed):
    simulator = NetworkSimulator(topology, link_model=lossy_links(0.3, seed=seed))
    calls = []
    transfer = simulator.transfer

    def recording(path, size, kind, *args, **kwargs):
        calls.append((tuple(path), size, kind))
        return transfer(path, size, kind, *args, **kwargs)

    simulator.transfer = recording
    table = build(simulator)
    return table, calls, simulator


@SETTINGS
@given(st.data())
def test_tree_maint_charges_match_the_object_build(data):
    topology, tree = data.draw(trees())
    num_bits = data.draw(st.sampled_from(NUM_BITS))
    factories = {"key": lambda: BloomFilterSummary(num_bits=num_bits),
                 "pos": RectSummary}
    keys = node_values(data.draw, topology, bloom_values)
    positions = node_values(data.draw, topology, pos_values)
    extractors = {"key": keys.__getitem__, "pos": positions.__getitem__}
    seed = data.draw(st.integers(0, 100))

    def oracle_build(simulator):
        table = ObjectSemanticRoutingTable(tree, factories, extractors)
        table.build(simulator)
        return table

    array, array_calls, array_sim = recorded_build(
        lambda sim: SemanticRoutingTable(tree, factories, extractors, simulator=sim),
        topology, seed)
    oracle, oracle_calls, oracle_sim = recorded_build(oracle_build, topology, seed)
    assert array_calls == oracle_calls
    assert array_sim.stats.total() == oracle_sim.stats.total()
    assert array_sim.stats.messages_dropped == oracle_sim.stats.messages_dropped
    assert (array_sim.links._rng.bit_generator.state
            == oracle_sim.links._rng.bit_generator.state)
    assert array.total_maintenance_bytes() == oracle.total_maintenance_bytes()
    assert_same_rows(array, oracle, tree, ["key", "pos"])


# ---------------------------------------------------------------------------
# through the substrate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("num_trees", [2, 3])
def test_substrate_tables_after_repair_agree_and_read_live_values(num_trees):
    topology = grid_topology(num_nodes=49)
    for node_id, node in topology.nodes.items():
        node.set_static("group", node_id % 4)
    factories = {"group": lambda: BloomFilterSummary(num_bits=100),
                 "id": lambda: BloomFilterSummary(num_bits=128),
                 "pos": RectSummary}
    extractors = {"group": lambda n: topology.nodes[n].get_attribute("group"),
                  "id": lambda n: n,
                  "pos": lambda n: topology.nodes[n].position}
    substrate = MultiTreeSubstrate(topology, num_trees=num_trees,
                                   indexed_attributes=factories,
                                   value_extractors=extractors)
    for tree, table in zip(substrate.trees, substrate.tables):
        assert_same_rows(table, ObjectSemanticRoutingTable(tree, factories, extractors),
                         tree, factories)
    victim = next(
        n for n in topology.node_ids
        if n != topology.base_id
        and n not in {t.root for t in substrate.trees}
        and substrate.primary_tree.children_of(n)
    )
    topology.nodes[victim].fail()
    topology.nodes[0].set_static("group", 99)   # repair re-extracts values
    assert substrate.repair_after_failure(victim) == {}
    for tree, table in zip(substrate.trees, substrate.tables):
        assert victim not in tree.parent
        assert_same_rows(table, ObjectSemanticRoutingTable(tree, factories, extractors),
                         tree, factories)
        assert table.subtree_summary(tree.root, "group").might_contain(99)


def test_indexing_with_a_simulator_builds_and_charges_each_table_once():
    topology = random_topology(num_nodes=40, average_degree=7, seed=4)
    calls = []

    def factory():
        calls.append(1)
        return BloomFilterSummary(num_bits=128)

    extractors = {"id": lambda n: n}
    substrate = MultiTreeSubstrate(topology, num_trees=3)
    sim = NetworkSimulator(topology)
    substrate.index_attributes({"id": factory}, extractors, simulator=sim)
    assert len(calls) == 3   # one prototype per tree, nothing per node
    reference = NetworkSimulator(topology)
    for tree in substrate.trees:
        ObjectSemanticRoutingTable(tree, {"id": factory}, extractors).build(reference)
    assert sim.stats.total() == reference.stats.total()


class _OtherSummary(Summary):
    """A summary type the array table has no layout for."""

    def add(self, value):
        pass

    def might_contain(self, value):
        return True

    def merge(self, other):
        return self

    def size_bytes(self):
        return 0

    def copy(self):
        return self


def test_unsupported_summary_types_are_refused_by_name():
    topology = grid_topology(num_nodes=9)
    with pytest.raises(TypeError, match="BloomFilterSummary, RectSummary"):
        SemanticRoutingTable(RoutingTree(topology), {"id": _OtherSummary},
                             {"id": lambda n: n})


def test_lookups_of_uncovered_nodes_and_unindexed_attributes():
    topology = grid_topology(num_nodes=16)
    tree = RoutingTree(topology)
    table = SemanticRoutingTable(tree, {"id": lambda: BloomFilterSummary(num_bits=128)},
                                 {"id": lambda n: n})
    with pytest.raises(KeyError):
        table.subtree_summary(999, "id")
    with pytest.raises(KeyError):
        table.child_summary(tree.root, tree.root, "id")
    assert table.children_that_might_match(tree.root, "other", lambda s: True) == []
    assert not table.subtree_might_match(999, "id", lambda s: True)
    assert table.subtree_might_match(tree.root, "id", lambda s: s.might_contain(15))
