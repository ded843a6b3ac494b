"""Strategy-crossover sweeps: where in-network joins start paying off.

Section 4.3 argues the in-network strategies win once the deployment is
large enough that shipping raw streams to the base costs more than placing
the join near the producers.  This module turns that argument into a
city-scale figure: a ``strategy-crossover`` scenario family sweeps
deployment size x producer ratio x join selectivity over the sparse
``scale`` substrate and the row shapers locate, per (ratio, selectivity)
cell, the smallest rung where an in-network variant's total traffic
undercuts the through-the-base baseline.

The workload is ``query0-near``: a 1:1 join between a deep node and its
deepest neighbor, deployment-relative like ``query0-random`` but with
*correlated* endpoints, so the in-network join sits next to both producers
while the baseline pays the full depth of the routing tree every cycle.
Without a static join key the exploration phase stays a single cheap
probe per pair (the bloom summaries of the keyed workloads saturate into
a network flood past 10k nodes, which would bury the crossover signal
under initiation cost).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import ScenarioSpec

#: Node-count rungs of the crossover sweep (1M-node crossover points
#: extrapolate from the 100k top rung).
CROSSOVER_RUNGS: Tuple[int, ...] = (1_000, 10_000, 100_000)

#: The through-the-base reference the in-network variants must undercut.
CROSSOVER_BASELINE = "base"


def strategy_crossover_scenario(
    rungs: Sequence[int] = CROSSOVER_RUNGS,
    ratios: Sequence[str] = ("1/2:1/2", "1:1/10"),
    join_selectivities: Sequence[float] = (0.05, 0.20, 0.80),
    algorithms: Sequence[str] = (CROSSOVER_BASELINE, "innet", "innet-cmpg"),
    name: str = "strategy-crossover",
) -> ScenarioSpec:
    """The N x ratio x selectivity crossover sweep (see module docstring).

    Cycles are pinned (not scale-relative) so per-cycle computation traffic
    dominates one-off initiation at every rung the same way; the hotspots
    sink feeds both the ``hotspot_gini`` metric column and the per-node
    load table.
    """
    return ScenarioSpec(
        name=name,
        description="smallest deployment where in-network joins undercut "
                    "the base strategy, over N x ratio x selectivity "
                    "(query0-near on the sparse scale substrate)",
        query="query0-near",
        query_kwargs={"seed": 1},
        algorithms=tuple(algorithms),
        topology_preset="scale",
        data={"sigma_st": 0.2},
        grid={
            "num_nodes": list(rungs),
            "ratio": list(ratios),
            "sigma_st": list(join_selectivities),
        },
        sinks=("hotspots",),
        runs=1,
        cycles=25,
        metrics=("total_traffic", "initiation_traffic",
                 "computation_traffic", "max_node_load", "hotspot_gini"),
    )


def strategy_crossover_smoke_scenario() -> ScenarioSpec:
    """CI-sized crossover sweep: 2 rungs x 3 strategies, one workload cell."""
    return strategy_crossover_scenario(
        rungs=(1_000, 10_000),
        ratios=("1/2:1/2",),
        join_selectivities=(0.20,),
        name="strategy-crossover-smoke",
    )


# ---------------------------------------------------------------------------
# Row shaping
# ---------------------------------------------------------------------------

def _cells_by_rung(sweep) -> Dict[Tuple, Dict[int, dict]]:
    """Group the sweep's grid points into (workload cell) -> rung -> aggregates.

    A *cell* is every grid axis except ``num_nodes`` (ratio, sigma_st, ...);
    the rung axis is what the crossover search walks.
    """
    cells: Dict[Tuple, Dict[int, dict]] = {}
    for group in sweep.groups:
        setting = dict(group.setting)
        num_nodes = int(setting.pop("num_nodes", 0))
        key = tuple(sorted(setting.items()))
        cells.setdefault(key, {})[num_nodes] = group.aggregates
    return cells


def crossover_rows(sweep, baseline: str = CROSSOVER_BASELINE
                   ) -> List[Dict[str, object]]:
    """The crossover table: one row per (workload cell, in-network variant).

    ``crossover_n`` is the smallest swept node count where the variant's
    mean total traffic undercuts the baseline's; when the variant already
    wins at the smallest rung that rung *is* the crossover point, and when
    it never wins the row says so (``none``) instead of disappearing --
    the table always reports every cell faithfully.  The traffic columns
    quote both sides at the crossover rung (kB).
    """
    rows: List[Dict[str, object]] = []
    for key, by_rung in sorted(_cells_by_rung(sweep).items()):
        rungs = sorted(by_rung)
        variants = [alg for alg in by_rung[rungs[0]] if alg != baseline]
        for algorithm in variants:
            crossover_n: Optional[int] = None
            for num_nodes in rungs:
                aggregates = by_rung[num_nodes]
                if baseline not in aggregates or algorithm not in aggregates:
                    continue
                if (aggregates[algorithm].mean("total_traffic")
                        < aggregates[baseline].mean("total_traffic")):
                    crossover_n = num_nodes
                    break
            row: Dict[str, object] = dict(key)
            row["algorithm"] = algorithm
            row["crossover_n"] = crossover_n if crossover_n is not None else "none"
            if crossover_n is not None:
                base_kb = by_rung[crossover_n][baseline].mean("total_traffic") / 1000.0
                innet_kb = by_rung[crossover_n][algorithm].mean("total_traffic") / 1000.0
                row[f"{baseline}_kb"] = base_kb
                row["innet_kb"] = innet_kb
                row["savings_pct"] = (
                    100.0 * (1.0 - innet_kb / base_kb) if base_kb else 0.0
                )
            rows.append(row)
    return rows
