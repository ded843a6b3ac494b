"""Named built-in scenarios and scenario-file discovery.

``python -m repro.experiments list-scenarios`` shows everything registered
here plus any ``*.json`` / ``*.toml`` files in the scenario directory
(``examples/scenarios`` by default); ``run-scenario`` accepts either a
built-in name or a path to a scenario file.

A paper figure is a built-in scenario plus a row shaper registered under
the same name in :data:`SCENARIO_TABLE_SHAPERS`; :func:`figure_rows` runs
the scenario and shapes the finished sweep into the figure's rows.

Built-ins are factories (zero-argument callables returning a
:class:`~repro.engine.spec.ScenarioSpec`) so a scenario's run counts and
cycle lengths stay scale-relative: the runner resolves them against the
``--scale`` / ``REPRO_SCALE`` preset at expansion time.

Importing this module also registers the figure modules' run kinds, query
builders, workload sources and assumed-selectivity providers -- the engine
lazily imports it (``repro.engine.registry.load_experiment_registrations``)
whenever a registry lookup misses, so worker processes resolve everything no
matter which package they imported first.
"""

from __future__ import annotations

from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine import (
    ExperimentScale,
    ScenarioSpec,
    SweepRunner,
    load_scenario_file,
)
from repro.experiments.figures_crossover import (
    crossover_rows,
    strategy_crossover_scenario,
    strategy_crossover_smoke_scenario,
)
from repro.experiments.figures_adaptive import (
    drift_rows,
    failure_rows,
    fig10_scenario,
    fig11_scenario,
    fig12a_scenario,
    fig12b_scenario,
    fig13_scenario,
    fig14_scenario,
    intel_rows,
    learning_gain_rows,
    skew_rows,
)
from repro.experiments.figures_joins import (
    duration_rows,
    estimate_sensitivity_rows,
    fig04_scenario,
    fig05_scenario,
    fig06_scenario,
    fig07_scenario,
    fig08_scenario,
    fig09a_scenario,
    fig09b_scenario,
    initiation_rows,
    join_selectivity_rows,
    load_distribution_rows,
    placement_quality_rows,
    query_traffic_rows,
    query_traffic_scenario,
)
from repro.experiments.figures_service import (
    query_churn_scenario,
    query_churn_smoke_scenario,
)
from repro.experiments.figures_substrate import (
    appg_scenario,
    cost_validation_rows,
    fig18_scenario,
    mesh_query_rows,
    mesh_query_scenario,
    mobility_rows,
    path_quality_rows,
    path_quality_scenario,
    scaleup_rows,
    table3_scenario,
)

#: Default location of file-based scenarios, relative to the working tree.
DEFAULT_SCENARIO_DIR = Path("examples/scenarios")

_SMOKE_RATIOS = ["1/10:1", "1/2:1/2", "1:1/10"]
_SMOKE_JOIN_SELECTIVITIES = [0.20, 0.05]


def _ablation_threshold_scenario() -> ScenarioSpec:
    """Ablation: the adaptive re-optimization divergence threshold.

    Section 6 fixes the threshold at 33 %; this sweeps it under wrong initial
    estimates (actual 0.1:1.0 while the optimizer assumes 1.0:0.1).
    """
    assumed = {"sigma_s": 1.0, "sigma_t": 0.1, "sigma_st": 0.05}
    variants = [{"label": "no learning", "algorithm": "innet-cmpg"}]
    for threshold in (0.10, 0.33, 1.00):
        variants.append({
            "label": f"{threshold:.2f}",
            "algorithm": "innet-learn",
            "strategy_kwargs": {"adaptive_policy": {
                "divergence_threshold": threshold,
                "check_interval": 10, "min_cycles": 10,
            }},
        })
    return ScenarioSpec(
        name="ablation-threshold",
        description="adaptive divergence-threshold ablation (Query 1, "
                    "wrong estimates)",
        query="query1",
        variants=tuple(variants),
        data={"sigma_s": 0.1, "sigma_t": 1.0, "sigma_st": 0.05},
        assumed=assumed,
        use_long_cycles=True,
        runs=1,
        workload_seed_base=17,
        metrics=("total_traffic", "reoptimizations"),
    )


def _ablation_trees_scenario() -> ScenarioSpec:
    """Ablation: how many routing trees the Innet substrate maintains."""
    return ScenarioSpec(
        name="ablation-trees",
        description="routing-tree count ablation for the Innet substrate "
                    "(Query 2)",
        query="query2",
        variants=tuple(
            {"label": f"{num_trees}-trees", "algorithm": "innet-cmg",
             "strategy_kwargs": {"num_trees": num_trees}}
            for num_trees in (1, 2, 3)
        ),
        data={"sigma_s": 0.5, "sigma_t": 0.5, "sigma_st": 0.05},
        runs=1,
        workload_seed_base=42,
        metrics=("total_traffic", "initiation_traffic", "computation_traffic",
                 "results_produced"),
    )


def _energy_budget_scenario() -> ScenarioSpec:
    """Energy-budget sweep: radio energy per strategy across the ratio ladder.

    The paper argues communication cost *is* the energy budget; this scenario
    makes that explicit by running the Figure 2 workload sweep with the
    energy and hotspot sinks attached -- per-node tx/rx/idle energy, total
    and peak spend, and the Gini load-balance coefficient per strategy.
    """
    return ScenarioSpec(
        name="energy-budget",
        description="per-node radio energy and load balance across "
                    "strategies and selectivity ratios (Query 1)",
        query="query1",
        algorithms=("naive", "base", "innet-cmpg"),
        data={"sigma_st": 0.2},
        grid={"ratio": ["1/10:1", "1/2:1/2", "1:1/10"]},
        sinks=("energy", "hotspots"),
        metrics=("total_traffic", "energy_total_uj", "energy_max_uj",
                 "hotspot_gini"),
    )


def _lifetime_under_load_scenario() -> ScenarioSpec:
    """Network lifetime: first battery death as the sampling load climbs.

    Every node starts with the same small battery; the energy sink records
    the cycle at which the first non-base node exhausts it
    (``energy_lifetime_cycles``; -1 = everyone survived the run).  Strategies
    that balance relay load keep the network alive longer even at equal
    total traffic -- the load-balance story of Figure 5 expressed as an
    energy metric.
    """
    return ScenarioSpec(
        name="lifetime-under-load",
        description="first-node-death network lifetime under increasing "
                    "producer load (Query 1, small batteries)",
        query="query1",
        algorithms=("base", "innet-cmpg"),
        data={"sigma_st": 0.2},
        grid={"ratio": ["1/10:1", "1/2:1/2", "1:1/10"]},
        sinks=({"sink": "energy", "capacity_uj": 25_000.0},
               "hotspots", "latency"),
        use_long_cycles=True,
        metrics=("total_traffic", "energy_lifetime_cycles",
                 "energy_dead_nodes", "hotspot_max_load"),
    )


#: The massive-topology node ladder (see ROADMAP "scale ladder"): mote scale
#: up to the 1M-node rung.
SCALE_LADDER_RUNGS: Tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000)

#: Every join strategy the scale ladder exercises: the through-the-base
#: references, the hash-keyed pair and the full in-network family.
SCALE_LADDER_ROSTER: Tuple[str, ...] = (
    "naive", "base", "ght", "dht",
    "innet", "innet-cm", "innet-cmg", "innet-cmp", "innet-cmpg",
)


def _scale_ladder_scenario(rungs: Sequence[int] = SCALE_LADDER_RUNGS,
                           name: str = "scale-ladder") -> ScenarioSpec:
    """Full-roster strategy x ratio sweep up the scale node ladder.

    The ``scale`` preset grows the target degree logarithmically so random
    deployments stay connected at every rung.  The workload is ``query0-keyed``
    (the ``query0-random`` endpoint draw plus a routable static join key) so
    the hash-keyed ght/dht strategies can climb the same ladder; the innet
    variants pay their keyed exploration flood at initiation, which is part
    of what the ladder measures.  Cycles are pinned (not scale-relative)
    because the ladder measures substrate cost per cycle, not steady-state
    join behavior; reports auto-bound their per-node series from the 10k
    rung up (see ``JoinExecutor``).  Wall-clock/RSS per rung is recorded
    separately by ``repro.experiments.scale_bench``.
    """
    return ScenarioSpec(
        name=name,
        description="full-roster strategy x ratio sweep from mote scale "
                    "toward 1M nodes on the sparse topology substrate "
                    "(keyed Query 0)",
        query="query0-keyed",
        query_kwargs={"seed": 1},
        algorithms=SCALE_LADDER_ROSTER,
        topology_preset="scale",
        data={"sigma_st": 0.2},
        grid={"num_nodes": list(rungs),
              "ratio": ["1/2:1/2", "1:1/10"]},
        runs=1,
        cycles=5,
        metrics=("total_traffic", "base_traffic", "max_node_load"),
    )


BUILTIN_SCENARIOS: Dict[str, Callable[[], ScenarioSpec]] = {
    "fig02": lambda: query_traffic_scenario("query1", "fig02"),
    "fig02-smoke": lambda: query_traffic_scenario(
        "query1", "fig02-smoke", ratios=_SMOKE_RATIOS,
        join_selectivities=_SMOKE_JOIN_SELECTIVITIES,
    ),
    "fig03": lambda: query_traffic_scenario("query2", "fig03"),
    "fig04": fig04_scenario,
    "fig05": fig05_scenario,
    "fig06": fig06_scenario,
    "fig07": fig07_scenario,
    "fig08": fig08_scenario,
    "fig09a": fig09a_scenario,
    "fig09b": lambda: fig09b_scenario(),
    "fig10": fig10_scenario,
    "fig11": fig11_scenario,
    "fig12a": fig12a_scenario,
    "fig12b": fig12b_scenario,
    "fig13": lambda: fig13_scenario(),
    "fig14": fig14_scenario,
    "fig14-smoke": lambda: fig14_scenario().with_overrides(name="fig14-smoke"),
    "fig16": lambda: path_quality_scenario("fig16", "gpsr"),
    "fig17": lambda: path_quality_scenario("fig17", "dht"),
    "fig18": fig18_scenario,
    "fig19": lambda: mesh_query_scenario("query1", "fig19"),
    "fig20": lambda: mesh_query_scenario("query2", "fig20"),
    "table3": lambda: table3_scenario(),
    "appg": appg_scenario,
    "appg-smoke": lambda: appg_scenario(num_moves=2).with_overrides(name="appg-smoke"),
    "scale-ladder": _scale_ladder_scenario,
    "scale-ladder-smoke": lambda: _scale_ladder_scenario(
        rungs=(1_000, 10_000), name="scale-ladder-smoke",
    ),
    "strategy-crossover": strategy_crossover_scenario,
    "strategy-crossover-smoke": strategy_crossover_smoke_scenario,
    "query-churn": query_churn_scenario,
    "query-churn-smoke": query_churn_smoke_scenario,
    "ablation-threshold": _ablation_threshold_scenario,
    "ablation-trees": _ablation_trees_scenario,
    "energy-budget": _energy_budget_scenario,
    "lifetime-under-load": _lifetime_under_load_scenario,
}


def register_scenario(name: str, factory: Callable[[], ScenarioSpec]) -> None:
    """Entry-point-style hook: make a scenario available to the CLI by name."""
    BUILTIN_SCENARIOS[name] = factory


#: Scenario name -> row shaper: a function turning the scenario's finished
#: sweep into its figure's table rows.  ``--figure`` runs exactly these.
SCENARIO_TABLE_SHAPERS: Dict[str, Callable[..., List[dict]]] = {
    "fig02": query_traffic_rows,
    "fig02-smoke": query_traffic_rows,
    "fig03": query_traffic_rows,
    "fig04": estimate_sensitivity_rows,
    "fig05": load_distribution_rows,
    "fig06": initiation_rows,
    "fig07": placement_quality_rows,
    "fig08": estimate_sensitivity_rows,
    "fig09a": duration_rows,
    "fig09b": join_selectivity_rows,
    "fig10": learning_gain_rows,
    "fig11": learning_gain_rows,
    "fig12a": skew_rows,
    "fig12b": drift_rows,
    "fig13": intel_rows,
    "fig14": failure_rows,
    "fig14-smoke": failure_rows,
    "fig16": path_quality_rows,
    "fig17": path_quality_rows,
    "fig18": scaleup_rows,
    "fig19": mesh_query_rows,
    "fig20": mesh_query_rows,
    "table3": cost_validation_rows,
    "appg": mobility_rows,
    "appg-smoke": mobility_rows,
    "strategy-crossover": crossover_rows,
    "strategy-crossover-smoke": crossover_rows,
}


def figure_names() -> List[str]:
    """The built-in scenarios that have a row shaper (``--figure`` ids)."""
    return sorted(name for name in BUILTIN_SCENARIOS
                  if name in SCENARIO_TABLE_SHAPERS)


def figure_rows(scenario: Union[str, ScenarioSpec], scale: ExperimentScale,
                runner: Optional[SweepRunner] = None) -> List[dict]:
    """Run a scenario (name, file path or spec) and shape its figure rows.

    *runner* carries parallelism and a result store; without one the sweep
    runs serially in-process.  A scenario without a registered shaper raises
    ``KeyError`` before anything runs.
    """
    if isinstance(scenario, str):
        scenario = resolve_scenario(scenario)
    shaper = SCENARIO_TABLE_SHAPERS.get(scenario.name)
    if shaper is None:
        raise KeyError(
            f"scenario {scenario.name!r} has no figure table; expected one "
            f"of {figure_names()}"
        )
    return shaper((runner or SweepRunner()).run(scenario, scale))


def scenario_files(directory: Union[str, Path, None] = None) -> List[Path]:
    directory = Path(directory) if directory is not None else DEFAULT_SCENARIO_DIR
    if not directory.is_dir():
        return []
    return sorted(
        path for path in directory.iterdir()
        if path.suffix.lower() in (".json", ".toml")
    )


def available_scenarios(directory: Union[str, Path, None] = None
                        ) -> List[Tuple[str, str]]:
    """(name, origin) pairs of every runnable scenario."""
    entries = [(name, "built-in") for name in sorted(BUILTIN_SCENARIOS)]
    entries.extend((str(path), "file") for path in scenario_files(directory))
    return entries


def match_scenarios(patterns: Sequence[str],
                    directory: Union[str, Path, None] = None,
                    include_all: bool = False) -> List[str]:
    """Expand campaign patterns into a deduplicated, ordered scenario list.

    Each pattern is a shell-style glob (``fig*``, ``*-smoke``) matched
    against the built-in scenario names and the stems of scenario files in
    *directory*; a pattern that is an existing file path is kept verbatim.
    ``include_all`` selects every built-in scenario instead and must not be
    combined with patterns (the CLI rejects the combination).  A pattern
    matching nothing raises ``KeyError`` -- a campaign should fail loudly
    rather than silently skip a misspelled figure.
    """
    builtins = sorted(BUILTIN_SCENARIOS)
    files = {path.stem: path for path in scenario_files(directory)}
    if include_all:
        return list(builtins)
    selected: List[str] = []

    def _add(name: str) -> None:
        if name not in selected:
            selected.append(name)

    for pattern in patterns:
        matched = [name for name in builtins if fnmatch(name, pattern)]
        for stem, path in sorted(files.items()):
            if stem not in BUILTIN_SCENARIOS and fnmatch(stem, pattern):
                matched.append(str(path))
        if not matched and Path(pattern).exists():
            matched = [pattern]
        if not matched:
            raise KeyError(
                f"pattern {pattern!r} matches no scenario; known scenarios: "
                f"{builtins + sorted(str(path) for path in files.values())}"
            )
        for name in matched:
            _add(name)
    return selected


def resolve_scenario(name_or_path: str,
                     directory: Union[str, Path, None] = None) -> ScenarioSpec:
    """A ScenarioSpec from a built-in name or a JSON/TOML file path."""
    if name_or_path in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name_or_path]()
    path = Path(name_or_path)
    if path.exists():
        return load_scenario_file(path)
    directory = Path(directory) if directory is not None else DEFAULT_SCENARIO_DIR
    for suffix in (".json", ".toml"):
        candidate = directory / f"{name_or_path}{suffix}"
        if candidate.exists():
            return load_scenario_file(candidate)
    known = [name for name, _ in available_scenarios(directory)]
    raise KeyError(
        f"unknown scenario {name_or_path!r}; expected a file path or one of {known}"
    )
