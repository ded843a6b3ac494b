#!/usr/bin/env python
"""From StreamSQL text to a validated cost model.

This example walks through the pieces a downstream user of the library deals
with directly:

1. parse the paper's StreamSQL dialect into a :class:`JoinQuery`,
2. let the query preprocessor classify clauses (static/dynamic selections and
   joins) and pick the primary routing predicate (Appendix B),
3. evaluate the Appendix D cost model for the candidate strategies,
4. run the strategies on the simulator and compare measured traffic against
   the analytic prediction.

Run it with::

    python examples/streamsql_and_cost_model.py
"""

from repro.core import Selectivities, grouped_base_cost, naive_cost
from repro.engine import SCALES, build_topology, build_workload, make_strategy
from repro.experiments import format_table
from repro.joins import JoinExecutor
from repro.network.message import MessageSizes
from repro.query import analyze_query, parse_query
from repro.routing import RoutingTree

QUERY_TEXT = """
SELECT S.id, T.id, S.localtime
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 25 AND S.adc0 < 500
  AND T.id > 50 AND T.adc0 < 500
  AND S.x = T.y + 5 AND S.u = T.u
"""

CYCLES = 80


def main() -> None:
    # 1. Parse.
    query = parse_query(QUERY_TEXT, name="query1")
    print(f"Parsed {query.name}: window={query.window_size}, "
          f"relations={query.aliases}")

    # 2. Analyze.
    analysis = analyze_query(query)
    print("\nClause classification:")
    for alias in query.aliases:
        print(f"  static selections on {alias}: "
              f"{[str(c) for c in analysis.static_selections[alias]]}")
        print(f"  dynamic selections on {alias}: "
              f"{[str(c) for c in analysis.dynamic_selections[alias]]}")
    print(f"  static join clauses: {[str(c) for c in analysis.static_join_clauses]}")
    print(f"  dynamic join clauses: {[str(c) for c in analysis.dynamic_join_clauses]}")
    routing = analysis.routing_predicate
    print(f"  routing predicate: search {routing.search_alias} -> indexed "
          f"{routing.indexed_alias}.{routing.indexed_attribute}")

    # 3. Analytic cost model (Table 3) for the grouped strategies.
    scale = SCALES["default"]
    topology = build_topology(scale, preset="moderate", seed=5)
    selectivities = Selectivities(0.5, 0.5, 0.2)
    tree = RoutingTree(topology)
    eligible_s = [n for n in topology.node_ids
                  if analysis.node_eligible("S", topology.nodes[n].static_attributes)]
    eligible_t = [n for n in topology.node_ids
                  if analysis.node_eligible("T", topology.nodes[n].static_attributes)]
    s_hops = [float(tree.depth_of(n)) for n in eligible_s]
    t_hops = [float(tree.depth_of(n)) for n in eligible_t]
    sizes = MessageSizes()
    analytic = {
        "naive": naive_cost(selectivities, s_hops, t_hops, query.window_size),
        "base": grouped_base_cost(selectivities, s_hops, t_hops, query.window_size,
                                  phi_s_t=0.5, phi_t_s=0.5),
    }

    # 4. Measure on the simulator and compare.
    data_source = build_workload(topology, query, selectivities, seed=5)
    rows = []
    for algorithm in ("naive", "base", "innet-cmpg"):
        strategy = make_strategy(algorithm)
        executor = JoinExecutor(query, topology.copy(), data_source, strategy, selectivities)
        report = executor.run(CYCLES)
        predicted = analytic.get(algorithm)
        rows.append({
            "algorithm": algorithm,
            "predicted_kb": (predicted.computation_per_cycle * CYCLES * sizes.data_tuple(1)
                             / 1000.0) if predicted else float("nan"),
            "measured_computation_kb": report.computation_traffic / 1000.0,
            "measured_total_kb": report.total_traffic / 1000.0,
            "results": report.results_produced,
        })
    print()
    print(format_table(rows, title=f"Cost model vs simulation ({CYCLES} cycles)"))
    print("\nThe Naive prediction has no free parameters and lands close to the"
          "\nmeasurement; Base depends on the pre-filter fraction; the optimized"
          "\nIn-net plan is the one the cost model picked as cheapest.")


if __name__ == "__main__":
    main()
