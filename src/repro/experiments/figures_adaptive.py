"""Figures 10-14: adaptive re-optimization, real-life data and node failure.

These experiments exercise Section 6 (learning selectivities and
re-optimizing) and Section 7 (join-node failure).  Every figure is a
declarative :class:`~repro.engine.spec.ScenarioSpec` factory plus a row
shaper that turns the finished sweep into the figure's rows, so every figure
runs in parallel and resumes from the result store like any other scenario.
The temporal-drift and failure experiments are multi-phase scenarios
(:class:`PhaseSpec`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cost_model import Selectivities
from repro.engine import (
    ScenarioSpec,
    register_assumed_provider,
    register_query_builder,
    register_workload_source,
)
from repro.query.analysis import analyze_query
from repro.workloads.datasource import SyntheticDataSource
from repro.workloads.intel import IntelDataSource, measure_dynamic_join_selectivity
from repro.workloads.queries import build_query0
from repro.workloads.selectivity import SEL1, SEL2

__all__ = [
    "drift_rows", "failure_rows", "intel_rows", "learning_gain_rows",
    "skew_rows",
    "fig10_scenario", "fig11_scenario", "fig12a_scenario", "fig12b_scenario",
    "fig13_scenario", "fig14_scenario",
]


def _sigma_dict(selectivities: Selectivities) -> Dict[str, float]:
    return {"sigma_s": selectivities.sigma_s, "sigma_t": selectivities.sigma_t,
            "sigma_st": selectivities.sigma_st}


#: Section 6's learning configuration, as declarative strategy kwargs.
_LEARNING_POLICY = {"check_interval": 10, "min_cycles": 10}

#: The composite query axis of the learning sweeps: each query with its
#: paper join selectivity (Table 2 / Section 6.1).
_LEARNING_WORKLOADS = [
    {"query": "query0-random", "sigma_st": 0.20},
    {"query": "query1", "sigma_st": 0.05},
    {"query": "query2", "sigma_st": 0.10},
]

#: Engine query names -> the paper's figure labels.
_QUERY_LABELS = {"query0-random": "query0"}


def _query_label(name: str) -> str:
    return _QUERY_LABELS.get(name, name)


@register_query_builder("query0-span")
def _build_query0_span(topology, low: int = 2, high: int = 3,
                       window_size: int = 3):
    """Query 0 with rank-derived endpoints (Figure 14's fixed join pair).

    Topology-aware: the endpoints are the ``low``-th smallest and ``high``-th
    largest non-base node ids of the run's deployment.
    """
    ids = sorted(n for n in topology.node_ids if n != topology.base_id)
    return build_query0(source_id=ids[low], target_id=ids[-high],
                        window_size=window_size)


# ---------------------------------------------------------------------------
# Figures 10 and 11: learning under wrong initial estimates
# ---------------------------------------------------------------------------

def _learning_scenario(name: str, description: str,
                       workloads: Sequence[Dict[str, object]],
                       true_ratios: Sequence[str],
                       estimated_ratios: Sequence[str],
                       duration_grid: Optional[Dict[str, Sequence[object]]] = None,
                       ) -> ScenarioSpec:
    grid: Dict[str, Sequence[object]] = {}
    if duration_grid:
        grid.update(duration_grid)
    grid["workload"] = list(workloads)
    grid["true_ratio"] = list(true_ratios)
    grid["assumed_ratio"] = list(estimated_ratios)
    return ScenarioSpec(
        name=name,
        description=description,
        variants=(
            {"label": "no_learning", "algorithm": "innet-cmpg"},
            {"label": "learning", "algorithm": "innet-learn",
             "strategy_kwargs": {"adaptive_policy": dict(_LEARNING_POLICY)}},
        ),
        data={"ratio": true_ratios[0], "sigma_st": 0.20},
        grid=grid,
        use_long_cycles=True,
        runs=1,
        workload_seed_base=500,
    )


def fig10_scenario(queries: Optional[Sequence[str]] = None,
                   true_ratios: Optional[Sequence[str]] = None,
                   estimated_ratios: Optional[Sequence[str]] = None,
                   ) -> ScenarioSpec:
    """The declarative Figure 10 sweep: learning gain per query and ratio.

    Traffic with and without learning when initial estimates are wrong
    (Queries 0-2, 200 sampling cycles in the paper).
    """
    default_ratios = ["1/10:1", "1/2:1/2", "1:1/10"]
    queries = list(queries or ["query0", "query1", "query2"])
    workloads = [w for w in _LEARNING_WORKLOADS
                 if _query_label(str(w["query"])) in queries]
    return _learning_scenario(
        "fig10",
        "traffic with and without learning under wrong initial estimates",
        workloads,
        list(true_ratios or default_ratios),
        list(estimated_ratios or default_ratios),
    )


def fig11_scenario(durations: Optional[Sequence[int]] = None) -> ScenarioSpec:
    """The declarative Figure 11 sweep: learning gain vs run duration.

    The longer the run, the closer wrong-estimate + learning gets to
    correct-estimate performance (Query 0, sigma_st = 20 %).  Without
    explicit *durations*, the scale-relative ``cycles_factor`` axis sweeps
    1x/2x/4x the scale's long-cycle count.
    """
    duration_grid: Dict[str, Sequence[object]] = (
        {"cycles": list(durations)} if durations is not None
        else {"cycles_factor": [1, 2, 4]}
    )
    scenario = _learning_scenario(
        "fig11",
        "learning approaches correct-estimate performance as runs lengthen",
        [_LEARNING_WORKLOADS[0]],
        ["1/10:1", "1:1/10"],
        ["1/10:1", "1:1/10"],
        duration_grid=duration_grid,
    )
    return scenario


def learning_gain_rows(sweep) -> List[Dict[str, object]]:
    """Figures 10 and 11: traffic with and without learning per setting."""
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        setting = group.setting
        without = group.aggregates["no_learning"]
        learning = group.aggregates["learning"]
        no_learning = without.mean("total_traffic")
        with_learning = learning.mean("total_traffic")
        rows.append({
            "query": _query_label(setting["query"]),
            "true_ratio": setting["true_ratio"],
            "estimated_ratio": setting["assumed_ratio"],
            "correct_estimate": setting["assumed_ratio"] == setting["true_ratio"],
            "no_learning_kb": no_learning / 1000.0,
            "learning_kb": with_learning / 1000.0,
            "gain_kb": (no_learning - with_learning) / 1000.0,
            "reoptimizations": int(learning.mean("reoptimizations")),
            "cycles": learning.runs[0].report.cycles,
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 12: spatial skew and temporal drift
# ---------------------------------------------------------------------------

def _split_eligible(topology, query) -> Tuple[List[int], List[int], List[int], List[int]]:
    analysis = analyze_query(query)
    eligible_s = [n for n in topology.node_ids
                  if analysis.node_eligible("S", topology.nodes[n].static_attributes)]
    eligible_t = [n for n in topology.node_ids
                  if analysis.node_eligible("T", topology.nodes[n].static_attributes)]
    half_s = len(eligible_s) // 2
    half_t = len(eligible_t) // 2
    return (eligible_s[:half_s], eligible_s[half_s:],
            eligible_t[:half_t], eligible_t[half_t:])


def _node_regimes(topology, query) -> Dict[int, Selectivities]:
    """Which regime (Sel1/Sel2) each eligible producer follows (Figure 12a)."""
    sel1_s, sel2_s, sel1_t, sel2_t = _split_eligible(topology, query)
    regimes: Dict[int, Selectivities] = {}
    for nodes, regime in ((sel1_s, SEL1), (sel2_s, SEL2),
                          (sel1_t, SEL1), (sel2_t, SEL2)):
        for node in nodes:
            regimes[node] = regime
    return regimes


def _skewed_source(topology, query, seed: int) -> Tuple[SyntheticDataSource, Dict[int, Selectivities]]:
    """Half the producers follow Sel1, the other half Sel2 (Figure 12a)."""
    import math

    sel1_s, sel2_s, sel1_t, sel2_t = _split_eligible(topology, query)
    regimes: Dict[int, Selectivities] = {}
    send_map: Dict[int, float] = {}
    u_map: Dict[int, int] = {}
    for nodes, regime, is_source in (
        (sel1_s, SEL1, True), (sel2_s, SEL2, True),
        (sel1_t, SEL1, False), (sel2_t, SEL2, False),
    ):
        for node in nodes:
            regimes[node] = regime
            send_map[node] = regime.sigma_s if is_source else regime.sigma_t
            u_map[node] = max(1, math.ceil(1.0 / regime.sigma_st))
    source = SyntheticDataSource(
        sigma_st=SEL2.sigma_st, send_probability=0.0, seed=seed,
        per_node_send_probability=send_map, per_node_u_range=u_map,
    )
    return source, regimes


@register_workload_source("fig12a-skewed")
def _build_skewed_source(topology, query, seed: int = 600, **_):
    return _skewed_source(topology, query, seed=seed)[0]


@register_assumed_provider("fig12a-full-knowledge")
def _full_knowledge_provider(topology, query, **_):
    """The per-pair oracle of Figure 12a: each endpoint's true regime."""
    regimes = _node_regimes(topology, query)

    def full_knowledge(pair):
        source_regime = regimes.get(pair[0], SEL1)
        target_regime = regimes.get(pair[1], SEL1)
        return Selectivities(
            sigma_s=source_regime.sigma_s,
            sigma_t=target_regime.sigma_t,
            sigma_st=min(source_regime.sigma_st, target_regime.sigma_st),
        )

    return full_knowledge


def fig12a_scenario(queries: Optional[Sequence[str]] = None) -> ScenarioSpec:
    """The declarative Figure 12a sweep: Sel1/Sel2 spatial skew."""
    queries = list(queries or ["query1", "query2"])
    return ScenarioSpec(
        name="fig12a",
        description="per-node Sel1/Sel2 regimes; learning approaches the "
                    "full-knowledge oracle",
        variants=(
            {"label": "Sel1", "algorithm": "innet-cmpg",
             "assumed": _sigma_dict(SEL1)},
            {"label": "Sel2", "algorithm": "innet-cmpg",
             "assumed": _sigma_dict(SEL2)},
            {"label": "Full knowledge", "algorithm": "innet-cmpg",
             "assumed": {"provider": "fig12a-full-knowledge"}},
            {"label": "Sel1 learn", "algorithm": "innet-learn",
             "assumed": _sigma_dict(SEL1),
             "strategy_kwargs": {"adaptive_policy": dict(_LEARNING_POLICY)}},
            {"label": "Sel2 learn", "algorithm": "innet-learn",
             "assumed": _sigma_dict(SEL2),
             "strategy_kwargs": {"adaptive_policy": dict(_LEARNING_POLICY)}},
        ),
        data={"source": "fig12a-skewed"},
        grid={"query": queries},
        use_long_cycles=True,
        runs=1,
        workload_seed_base=600,
    )


def skew_rows(sweep) -> List[Dict[str, object]]:
    """Figure 12a: per-node regimes (Sel1/Sel2); learning approaches the
    full-knowledge oracle."""
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        for label, aggregate in group.aggregates.items():
            rows.append({
                "query": group.setting["query"],
                "setting": label,
                "total_traffic_kb": aggregate.mean("total_traffic") / 1000.0,
                "reoptimizations": int(aggregate.mean("reoptimizations")),
            })
    return rows


def fig12b_scenario(queries: Optional[Sequence[str]] = None) -> ScenarioSpec:
    """The declarative Figure 12b sweep: temporal drift, as a two-phase run.

    The workload follows Sel1 for the first half of the run and drifts to
    Sel2 for the second half (a ``PhaseSpec`` data override).  The
    full-knowledge oracle is split into two half-runs via ``cycles_span`` --
    the first optimized for Sel1, the second freshly initiated for Sel2 (on
    a re-seeded workload, as in the paper's setup).
    """
    queries = list(queries or ["query1", "query2"])
    drift_phases = (
        {"name": "sel1", "fraction": 0.5},
        {"name": "sel2", "data": _sigma_dict(SEL2)},
    )
    policy = {"adaptive_policy": dict(_LEARNING_POLICY)}
    return ScenarioSpec(
        name="fig12b",
        description="Sel1 -> Sel2 temporal drift; learning recovers most of "
                    "the oracle's gain",
        variants=(
            {"label": "Sel1", "algorithm": "innet-cmpg",
             "assumed": _sigma_dict(SEL1), "phases": drift_phases},
            {"label": "Sel2", "algorithm": "innet-cmpg",
             "assumed": _sigma_dict(SEL2), "phases": drift_phases},
            {"label": "Sel1 learn", "algorithm": "innet-learn",
             "assumed": _sigma_dict(SEL1), "phases": drift_phases,
             "strategy_kwargs": policy},
            {"label": "Sel2 learn", "algorithm": "innet-learn",
             "assumed": _sigma_dict(SEL2), "phases": drift_phases,
             "strategy_kwargs": policy},
            # the anticipating oracle: Sel1-optimized first half, freshly
            # re-initiated Sel2 second half on a re-seeded workload
            {"label": "oracle_first_half", "algorithm": "innet-cmpg",
             "assumed": _sigma_dict(SEL1), "cycles_span": (0.0, 0.5)},
            {"label": "oracle_second_half", "algorithm": "innet-cmpg",
             "assumed": _sigma_dict(SEL2), "data": _sigma_dict(SEL2),
             "cycles_span": (0.5, 1.0), "workload_seed_offset": 1},
        ),
        data=_sigma_dict(SEL1),
        grid={"query": queries},
        use_long_cycles=True,
        runs=1,
        workload_seed_base=700,
    )


def drift_rows(sweep) -> List[Dict[str, object]]:
    """Figure 12b: the workload follows Sel1 for the first half of the run and
    Sel2 for the second half; learning recovers most of the oracle's gain."""
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        aggregates = group.aggregates
        for label in ("Sel1", "Sel2", "Sel1 learn", "Sel2 learn"):
            rows.append({
                "query": group.setting["query"],
                "setting": label,
                "total_traffic_kb": aggregates[label].mean("total_traffic") / 1000.0,
            })
        oracle_total = (aggregates["oracle_first_half"].mean("total_traffic")
                        + aggregates["oracle_second_half"].mean("total_traffic"))
        rows.append({
            "query": group.setting["query"],
            "setting": "Full knowledge",
            "total_traffic_kb": oracle_total / 1000.0,
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 13: learning on the Intel-lab workload (Query 3)
# ---------------------------------------------------------------------------

@register_workload_source("intel-humidity")
def _build_intel_source(topology, query, seed: int = 2, **_):
    """The Intel-Research-Berkeley-like humidity trace (Section 6.3)."""
    return IntelDataSource(topology=topology, seed=seed)


@register_assumed_provider("fig13-measured")
def _measured_selectivity_provider(topology, query, data_source, spec, **_):
    """Full knowledge for Query 3: the trace's empirical join selectivity."""
    measured_sigma = measure_dynamic_join_selectivity(
        data_source, topology, cycles=min(spec.cycles, 50)
    )
    return Selectivities(1.0, 1.0, max(0.01, measured_sigma))


def fig13_scenario(cycles: Optional[int] = None) -> ScenarioSpec:
    """The declarative Figure 13 run set: Query 3 on the Intel trace."""
    measured = {"provider": "fig13-measured"}
    return ScenarioSpec(
        name="fig13",
        description="Query 3 on the Intel-like dataset; learning starts "
                    "pessimistic and migrates join nodes in-network",
        query="query3",
        topology_preset="intel",
        variants=(
            {"label": "yang07", "algorithm": "yang07", "assumed": measured},
            {"label": "ght_gpsr", "algorithm": "ght", "assumed": measured},
            {"label": "naive_base", "algorithm": "base", "assumed": measured},
            {"label": "innet_full_knowledge", "algorithm": "innet-cmg",
             "assumed": measured},
            {"label": "innet_learn", "algorithm": "innet-learn",
             "assumed": {"sigma_s": 1.0, "sigma_t": 1.0, "sigma_st": 1.0},
             "strategy_kwargs": {"adaptive_policy": dict(_LEARNING_POLICY)}},
        ),
        data={"source": "intel-humidity"},
        cycles=cycles,
        use_long_cycles=True,
        runs=1,
        workload_seed_base=2,
    )


def intel_rows(sweep) -> List[Dict[str, object]]:
    """Figure 13: Query 3 on the Intel-like dataset.

    ``In-net learn`` starts optimized for sigma_s = sigma_t = sigma_st = 100 %
    (which puts every join node at the base station) and migrates join nodes
    in-network as estimates become available, approaching the full-knowledge
    Innet run while keeping a Naive/Base-like load profile.
    """
    rows: List[Dict[str, object]] = []
    for label, aggregate in sweep.only().items():
        report = aggregate.runs[0].report
        rows.append({
            "setting": label,
            "total_traffic_kb": report.total_traffic / 1000.0,
            "base_traffic_kb": report.base_traffic / 1000.0,
            "max_node_traffic_kb": report.max_node_load / 1000.0,
            "results": report.results_produced,
            "reoptimizations": report.reoptimizations,
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 14: join-node failure (a two-phase run)
# ---------------------------------------------------------------------------

def fig14_scenario(join_selectivities: Sequence[float] = (0.10, 0.20)) -> ScenarioSpec:
    """The declarative Figure 14 comparison: fail the join node mid-run.

    The ``with_failure`` variant is a two-phase run whose second phase starts
    halfway into the run and kills the symbolic ``"join"`` node
    -- resolved at execution time by scouting where the run's own strategy
    places the pair's join node (no failure is scheduled when that is the
    base station, which cannot die).
    """
    sweep = list(join_selectivities)
    return ScenarioSpec(
        name="fig14",
        description="result delay and traffic with and without a join-node "
                    "failure halfway through the run",
        query="query0-span",
        query_kwargs={"low": 2, "high": 3},
        variants=(
            {"label": "no_failure", "algorithm": "innet"},
            {"label": "with_failure", "algorithm": "innet",
             "phases": (
                 {"name": "pre_failure", "fraction": 0.5},
                 {"name": "after_failure", "failures": ({"node": "join"},)},
             )},
        ),
        data={"sigma_s": 1.0, "sigma_t": 1.0, "sigma_st": sweep[0]},
        grid={"sigma_st": sweep},
        min_cycles=20,
        runs=1,
        workload_seed_base=800,
        metrics=("total_traffic", "average_result_delay_cycles",
                 "results_produced"),
    )


def failure_rows(sweep) -> List[Dict[str, object]]:
    """Figure 14: result delay and total traffic with and without a join-node
    failure halfway through the run (single join pair)."""
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        for label, aggregate in group.aggregates.items():
            report = aggregate.runs[0].report
            rows.append({
                "sigma_st": group.setting["sigma_st"],
                "setting": label,
                "delay_cycles": report.average_result_delay_cycles,
                "total_traffic_kb": report.total_traffic / 1000.0,
                "results": report.results_produced,
            })
    return rows
