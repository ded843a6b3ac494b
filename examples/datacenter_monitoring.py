#!/usr/bin/env python
"""Data-centre monitoring: the paper's motivating "Query R" scenario.

An instrumented machine room has a wireless temperature/energy sensor next to
every rack position.  When readings of two *nearby* sensors diverge sharply
(one rack running hot while its neighbour is cool), adjacent readings should
be paired up and reported to the base station with low latency so the
operator can shift load away from the overheating machines.

That is a region-based join: ``dist(S.pos, T.pos) < r AND abs(S.v - T.v) > d``.
This example runs it on a machine-room-shaped grid, compares joining at the
base station against the dynamically optimized in-network join, and then
fails the most loaded join node mid-run to show the best-effort recovery of
Section 7 (the computation falls back to the base station and keeps going).

Run it with::

    python examples/datacenter_monitoring.py
"""

from repro.core import Selectivities
from repro.engine import make_strategy
from repro.experiments import format_table
from repro.joins import InnetJoin, InnetVariant, JoinExecutor
from repro.network.failures import FailureInjector
from repro.network.topology import grid_topology
from repro.workloads import assign_table1_attributes
from repro.workloads.intel import IntelDataSource
from repro.workloads.queries import build_query3

CYCLES = 150


def build_machine_room():
    """An 8x8 grid of rack-mounted sensors, 4 m apart."""
    topology = grid_topology(num_nodes=64, area_size=28.0, name="machine-room")
    assign_table1_attributes(topology, seed=11)
    return topology


def main() -> None:
    topology = build_machine_room()
    # Temperature behaves like the humidity trace: a shared baseline, a smooth
    # spatial gradient (hot and cold aisles) and per-sensor noise.
    readings = IntelDataSource(topology=topology, seed=11, spatial_scale=2500.0)
    query = build_query3(radius_m=5.0, difference_threshold=1200, window_size=1)
    assumed = Selectivities(sigma_s=1.0, sigma_t=1.0, sigma_st=0.2)

    print(f"Machine room: {topology.num_nodes} sensors, "
          f"radio range {topology.radio_range:.1f} m, query: {query.name}")

    rows = []
    for algorithm in ("naive", "base", "innet-cmg", "innet-learn"):
        strategy = make_strategy(algorithm)
        executor = JoinExecutor(query, topology.copy(), readings, strategy, assumed)
        report = executor.run(CYCLES)
        rows.append({
            "algorithm": algorithm,
            "total_traffic_kb": report.total_traffic / 1000.0,
            "base_station_kb": report.base_traffic / 1000.0,
            "events_reported": report.results_produced,
            "avg_report_hops": report.average_result_path_hops,
        })
    print()
    print(format_table(rows, title=f"Hot-spot detection, {CYCLES} sampling cycles"))

    # --- failure drill: take out the busiest in-network join node ------------
    scout = InnetJoin(InnetVariant.cmg())
    JoinExecutor(query, topology.copy(), readings, scout, assumed).initiate()
    in_network_nodes = [n for n in scout.plan.join_nodes() if n != topology.base_id]
    if not in_network_nodes:
        print("\nAll join nodes already sit at the base station; no failure drill.")
        return
    victim = in_network_nodes[0]
    injector = FailureInjector()
    injector.schedule_fraction_of_run(victim, CYCLES, 0.5)

    healthy = JoinExecutor(
        query, topology.copy(), readings, InnetJoin(InnetVariant.cmg()), assumed
    ).run(CYCLES)
    failed = JoinExecutor(
        query, topology.copy(), readings, InnetJoin(InnetVariant.cmg()), assumed,
        failure_injector=injector,
    ).run(CYCLES)

    print()
    print(format_table(
        [
            {"run": "no failure", "events": healthy.results_produced,
             "avg_delay_cycles": healthy.average_result_delay_cycles,
             "traffic_kb": healthy.total_traffic / 1000.0},
            {"run": f"join node {victim} fails", "events": failed.results_produced,
             "avg_delay_cycles": failed.average_result_delay_cycles,
             "traffic_kb": failed.total_traffic / 1000.0},
        ],
        title="Failure drill (Section 7): the join falls back to the base station",
    ))
    print("\nThe failed run keeps reporting events: the affected pairs fall back"
          "\nto joining at the base station (best-effort recovery, Section 7),"
          "\nat the cost of slightly more traffic and, for the affected pairs,"
          "\na few cycles of extra delay (Figure 14).")


if __name__ == "__main__":
    main()
