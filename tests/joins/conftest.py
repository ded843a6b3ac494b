"""Shared fixtures for join-strategy tests."""

import pytest

from repro.core import Selectivities
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


@pytest.fixture(scope="session")
def topo100():
    topo = random_topology(num_nodes=100, average_degree=7, seed=1)
    assign_table1_attributes(topo, seed=1)
    return topo


@pytest.fixture(scope="session")
def topo_small():
    topo = random_topology(num_nodes=80, average_degree=7, seed=2)
    assign_table1_attributes(topo, seed=2)
    return topo


def in_network_pair(topo):
    """The node farthest from the base and a node two hops from it: a
    query-0 pair that joins in-network."""
    base = topo.base_id
    ids = sorted(n for n in topo.node_ids if n != base)
    far = max(ids, key=lambda n: (len(topo.shortest_path(n, base)), -n))
    near = next(n for n in ids if len(topo.shortest_path(far, n)) == 3)
    return far, near


def make_workload(topo, query, selectivities, seed=3):
    """Build the data source realizing the requested selectivities."""
    analysis = analyze_query(query)
    eligible_s = [
        n for n in topo.node_ids
        if analysis.node_eligible("S", topo.nodes[n].static_attributes)
    ]
    eligible_t = [
        n for n in topo.node_ids
        if analysis.node_eligible("T", topo.nodes[n].static_attributes)
    ]
    send_map = build_send_probability_map(
        eligible_s, eligible_t, selectivities.sigma_s, selectivities.sigma_t
    )
    return SyntheticDataSource(
        sigma_st=selectivities.sigma_st,
        send_probability=0.0,
        seed=seed,
        per_node_send_probability=send_map,
    )


def run_strategy(topo, query, strategy, selectivities, cycles=20, seed=3,
                 data_selectivities=None, **kwargs):
    """Run one strategy on a fresh topology copy and return the report.

    ``selectivities`` are what the optimizer assumes; ``data_selectivities``
    (defaulting to the same) are what the generated data actually follows --
    pass different values to reproduce the wrong-estimate experiments.
    """
    data_source = make_workload(
        topo, query, data_selectivities or selectivities, seed=seed
    )
    executor = JoinExecutor(
        query, topo.copy(), data_source, strategy, selectivities, seed=seed, **kwargs
    )
    return executor.run(cycles)


@pytest.fixture(scope="session")
def default_selectivities():
    return Selectivities(0.5, 0.5, 0.2)


@pytest.fixture(scope="session")
def query1():
    return build_query1()


@pytest.fixture(scope="session")
def query2():
    return build_query2()
