#!/usr/bin/env python
"""Quickstart: run one windowed sensor join under four strategies.

This example builds a 100-node multi-hop sensor deployment, poses the paper's
Query 1 (a non-1:1 equijoin between two groups of sensors), and executes it
with the Naive, Base, GHT and Innet-cmpg strategies, printing the traffic
metrics the paper's evaluation is built around.

Run it with::

    python examples/quickstart.py
"""

from repro.core import Selectivities
from repro.engine import SCALES, build_topology, build_workload, make_strategy
from repro.experiments import format_table
from repro.joins import JoinExecutor
from repro.workloads.queries import PAPER_QUERY_SQL, build_query1


def main() -> None:
    scale = SCALES["default"]

    # 1. A 100-node random deployment with ~7 neighbours per node, carrying
    #    the static attributes of Table 1 (id, x, y, cid, rid, pos).
    topology = build_topology(scale, preset="moderate", seed=7)
    print(f"Topology: {topology.num_nodes} nodes, "
          f"average degree {topology.average_degree():.1f}, "
          f"base station at node {topology.base_id}")

    # 2. The query.  The paper's own SQL dialect is supported too:
    print("\nPaper-style StreamSQL for Query 1:")
    print(PAPER_QUERY_SQL["query1"].strip())
    query = build_query1()

    # 3. A synthetic workload: producers send in half the cycles
    #    (sigma_s = sigma_t = 0.5) and two sent values join 20 % of the time.
    selectivities = Selectivities(sigma_s=0.5, sigma_t=0.5, sigma_st=0.2)
    data_source = build_workload(topology, query, selectivities, seed=7)

    # 4. Execute the same query under four join strategies and compare.
    rows = []
    for algorithm in ("naive", "base", "ght", "innet-cmpg"):
        strategy = make_strategy(algorithm)
        executor = JoinExecutor(
            query=query,
            topology=topology.copy(),
            data_source=data_source,
            strategy=strategy,
            assumed_selectivities=selectivities,
        )
        report = executor.run(cycles=100)
        rows.append({
            "algorithm": algorithm,
            "total_traffic_kb": report.total_traffic / 1000.0,
            "base_station_kb": report.base_traffic / 1000.0,
            "max_node_load_kb": report.max_node_load / 1000.0,
            "join_results": report.results_produced,
        })

    print()
    print(format_table(rows, title="Query 1, 100 sampling cycles, 100 nodes"))
    print("\nExpected shape: Naive is the most expensive, GHT routes over long"
          "\nhash paths, and the dynamically optimized Innet-cmpg matches or"
          "\nbeats Base while keeping the base station less loaded.")


if __name__ == "__main__":
    main()
