"""Result oracle: every strategy against a nested-loop windowed join.

The repo's fast paths are gated on equality with each other; this gates all
of them on ground truth.  On lossless links a strategy's results are fully
determined by the query and the data: each (s, t) pair that joins statically
keeps the last ``w`` tuples sent by each side, and a newly arrived tuple
joins the opposite side's window as it stands.  The oracle below computes
that from ``data_source.sample``, ``analysis.producer_sends`` and
``analysis.tuples_join`` alone -- no window class, no strategy code -- in
the order the strategy lets a cycle's tuples arrive.
"""

from collections import deque

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Selectivities
from repro.engine.registry import available_algorithms, make_strategy
from repro.joins import JoinExecutor
from repro.network.topology import random_topology
from repro.query.analysis import analyze_query
from repro.workloads import (
    SyntheticDataSource,
    assign_table1_attributes,
    build_query1,
    build_query2,
    build_send_probability_map,
)

#: Strategies whose target readings are buffered before the cycle's source
#: readings reach them (they stay at their own node); everywhere else the
#: source relation is shipped and joined first.
TARGET_FIRST = {"yang07"}


def nested_loop_join(query, topology, data_source, cycles, target_first):
    """How many results the windowed join has, by definition."""
    analysis = analyze_query(query)
    source_alias, target_alias = query.aliases
    static = {n: topology.nodes[n].static_attributes for n in topology.node_ids}
    eligible = {
        alias: [n for n in topology.node_ids
                if n != topology.base_id and analysis.node_eligible(alias, static[n])]
        for alias in query.aliases
    }
    pairs = [
        (s, t) for s in eligible[source_alias] for t in eligible[target_alias]
        if s != t and analysis.pair_joins_statically(static[s], static[t])
    ]
    windows = {pair: (deque(maxlen=query.window_size), deque(maxlen=query.window_size))
               for pair in pairs}
    results = 0
    for cycle in range(cycles):
        sent = {}
        for alias in query.aliases:
            for node in eligible[alias]:
                values = {**static[node], **data_source.sample(node, cycle)}
                if analysis.producer_sends(alias, values):
                    sent[alias, node] = values
        order = (target_alias, source_alias) if target_first else query.aliases
        for alias in order:
            for pair in pairs:
                s_window, t_window = windows[pair]
                if alias == source_alias and (alias, pair[0]) in sent:
                    new = sent[alias, pair[0]]
                    results += sum(analysis.tuples_join(new, old) for old in t_window)
                    s_window.append(new)
                elif alias == target_alias and (alias, pair[1]) in sent:
                    new = sent[alias, pair[1]]
                    results += sum(analysis.tuples_join(old, new) for old in s_window)
                    t_window.append(new)
    return results


def workload(topology, query, selectivities, seed):
    analysis = analyze_query(query)
    eligible = [
        [n for n in topology.node_ids
         if analysis.node_eligible(alias, topology.nodes[n].static_attributes)]
        for alias in query.aliases
    ]
    return SyntheticDataSource(
        sigma_st=selectivities.sigma_st, send_probability=0.0, seed=seed,
        per_node_send_probability=build_send_probability_map(
            *eligible, selectivities.sigma_s, selectivities.sigma_t),
    )


@st.composite
def settings_(draw):
    return {
        "nodes": draw(st.integers(60, 90)),
        "topology_seed": draw(st.integers(0, 50)),
        "query": draw(st.sampled_from(["query1", "query2"])),
        "window": draw(st.integers(1, 4)),
        "sigma_s": draw(st.sampled_from([0.1, 0.5, 1.0])),
        "sigma_t": draw(st.sampled_from([0.1, 0.5, 1.0])),
        "sigma_st": draw(st.sampled_from([0.05, 0.2, 1.0])),
        "data_seed": draw(st.integers(0, 1000)),
    }


@given(settings_())
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_every_strategy_equals_the_nested_loop_join(setting):
    topology = random_topology(num_nodes=setting["nodes"], average_degree=7,
                               seed=setting["topology_seed"])
    assign_table1_attributes(topology, seed=setting["topology_seed"])
    build = build_query1 if setting["query"] == "query1" else build_query2
    query = build(window_size=setting["window"])
    selectivities = Selectivities(
        setting["sigma_s"], setting["sigma_t"], setting["sigma_st"])
    data_source = workload(topology, query, selectivities, setting["data_seed"])
    cycles = 12
    expected = {
        first: nested_loop_join(query, topology, data_source, cycles, first)
        for first in (False, True)
    }
    for algorithm in available_algorithms():
        report = JoinExecutor(
            query, topology.copy(), data_source, make_strategy(algorithm),
            selectivities, seed=setting["data_seed"],
        ).run(cycles)
        want = expected[algorithm in TARGET_FIRST]
        assert report.results_produced == want, algorithm
        assert report.results_delivered == want, algorithm


def test_the_oracle_sees_results():
    """A fixed dense setting, so the property above is not vacuous."""
    topology = random_topology(num_nodes=80, average_degree=7, seed=2)
    assign_table1_attributes(topology, seed=2)
    query = build_query1(window_size=3)
    data_source = workload(topology, query, Selectivities(1.0, 1.0, 0.2), seed=9)
    source_first = nested_loop_join(query, topology, data_source, 10, False)
    target_first = nested_loop_join(query, topology, data_source, 10, True)
    assert source_first > 100
    # Which relation arrives first decides whose window already holds the
    # cycle's tuple and who evicts before the probe: the totals differ, so
    # the arrival order is part of what the oracle pins.
    assert source_first != target_first
    for algorithm, want in (("naive", source_first), ("innet-cmpg", source_first),
                            ("yang07", target_first)):
        report = JoinExecutor(query, topology.copy(), data_source,
                              make_strategy(algorithm),
                              Selectivities(1.0, 1.0, 0.2)).run(10)
        assert report.results_produced == want


class TupleSource:
    """A row-only data source (``sample`` and nothing else) whose join
    attribute is a tuple: every reading takes the scalar kernels."""

    def sample(self, node_id, cycle):
        draw = (node_id * 7919 + cycle * 104729) % 1000
        return {"u": (draw % 3, "reading"), "adc0": draw}


def test_values_numpy_cannot_hold_take_the_scalar_kernels_to_the_same_results():
    from repro.query import parse_query

    topology = random_topology(num_nodes=80, average_degree=7, seed=2)
    assign_table1_attributes(topology, seed=2)
    query = parse_query(
        "SELECT S.id, T.id FROM S, T [windowsize=2 sampleinterval=100] "
        "WHERE S.id < 25 AND T.id > 50 AND hash(S.adc0) % 2 = 0 AND T.adc0 < 600 "
        "AND S.x = T.y + 5 AND S.u = T.u",
        name="tuple-join",
    )
    analysis = analyze_query(query)
    assert analysis.selection_kernel("S").array is None      # hash(): closure only
    assert analysis.selection_kernel("T").array is not None
    data_source = TupleSource()
    expected = {
        first: nested_loop_join(query, topology, data_source, 12, first)
        for first in (False, True)
    }
    assert expected[False] > 20
    for algorithm in available_algorithms():
        report = JoinExecutor(query, topology.copy(), data_source,
                              make_strategy(algorithm),
                              Selectivities(0.5, 0.6, 0.3)).run(12)
        assert report.results_produced == expected[algorithm in TARGET_FIRST], algorithm
        assert report.results_delivered == report.results_produced
