"""Worker-local workload construction with bounded memo caches.

Topology generation (and warming the topology's PathCache) is by far the most
expensive part of a figure sweep, and every figure rebuilds the same
deployment, so generated Table-1-attributed topologies are memoized and
shared (treat them as read-only; the execution layer copies before any
mutating experiment).  Queries and data sources are likewise deterministic in
their parameters and are memoized so every algorithm run against the same
workload shares one instance -- and therefore its per-cycle sample memos.

These caches are **bounded** (FIFO eviction) and expose
:func:`reset_workload_caches`, so a long multi-scenario process cannot grow
memory without limit.  Each
multiprocessing worker holds its own copies -- the caches are plain module
globals, private to the process.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.cost_model import Selectivities
from repro.network.topology import Topology, topology_from_preset
from repro.query.analysis import analyze_query
from repro.query.query import JoinQuery
from repro.workloads import (
    SyntheticDataSource,
    assign_table1_attributes,
    build_send_probability_map,
)

#: FIFO bounds; a full paper sweep touches only a handful of distinct keys.
TOPOLOGY_CACHE_MAX = 16
QUERY_CACHE_MAX = 32
DATA_SOURCE_CACHE_MAX = 64
PROVIDER_CACHE_MAX = 32

#: Memoized Table-1-attributed topologies, keyed (preset, seed, num_nodes).
_TOPOLOGY_CACHE: Dict[Tuple[str, int, int], Topology] = {}
_QUERY_CACHE: Dict[Tuple[str, Any], JoinQuery] = {}
_DATA_SOURCE_CACHE: Dict[Tuple, Any] = {}
_PROVIDER_CACHE: Dict[Tuple, Any] = {}


def _evict_to(cache: Dict, limit: int) -> None:
    while len(cache) >= limit:
        cache.pop(next(iter(cache)))


def reset_workload_caches() -> None:
    """Drop every memoized topology, query and data source.

    Long-lived multi-scenario processes can call this between scenarios to
    release the retained deployments (and, transitively, the per-cycle
    producer-sample memos attached to the cached data sources).
    """
    _TOPOLOGY_CACHE.clear()
    _QUERY_CACHE.clear()
    _DATA_SOURCE_CACHE.clear()
    _PROVIDER_CACHE.clear()


def build_topology(scale, preset: str = "moderate", seed: int = 0,
                   num_nodes: Optional[int] = None,
                   fresh: bool = False) -> Topology:
    """A Table-1-attributed topology of the requested density.

    Returns a memoized shared instance (treat it as read-only) unless
    ``fresh`` is set.  Topology generation and attribute assignment are
    deterministic in (preset, seed, num_nodes), so sharing does not change
    any experiment's results.
    """
    key = (preset, seed, num_nodes if num_nodes is not None else scale.num_nodes)
    if not fresh:
        cached = _TOPOLOGY_CACHE.get(key)
        if cached is not None:
            return cached
    topo = topology_from_preset(preset, num_nodes=key[2], seed=seed)
    assign_table1_attributes(topo, seed=seed)
    if not fresh:
        _evict_to(_TOPOLOGY_CACHE, TOPOLOGY_CACHE_MAX)
        _TOPOLOGY_CACHE[key] = topo
    return topo


def _builder_wants_topology(builder) -> bool:
    """Whether a registered query builder declares a ``topology`` parameter.

    Topology-aware builders (e.g. Query 0 with rank-derived endpoints, Figure
    14) receive the run's topology injected by :func:`build_query`, so their
    scenarios stay pure data while the endpoints follow the deployment.
    """
    cached = getattr(builder, "_wants_topology", None)
    if cached is None:
        try:
            cached = "topology" in inspect.signature(builder).parameters
        except (TypeError, ValueError):  # builtins / exotic callables
            cached = False
        try:
            builder._wants_topology = cached
        except AttributeError:
            pass
    return cached


def build_query(name: str, frozen_kwargs: Tuple = (),
                topology: Optional[Topology] = None,
                topology_key: Optional[Tuple] = None) -> JoinQuery:
    """A memoized query instance for a registered builder name.

    Queries are read-only after construction, so every run of a workload
    shares one instance.  Builders declaring a
    ``topology`` parameter get the run's topology injected (and are memoized
    per topology).
    """
    from repro.engine.registry import QUERIES
    from repro.engine.spec import thaw

    builder = QUERIES.get(name)
    kwargs = thaw(frozen_kwargs) or {}
    wants_topology = topology is not None and _builder_wants_topology(builder)
    key = (name, frozen_kwargs, topology_key if wants_topology else None)
    cached = _QUERY_CACHE.get(key)
    if cached is not None:
        return cached
    if wants_topology:
        kwargs["topology"] = topology
    query = builder(**kwargs)
    _evict_to(_QUERY_CACHE, QUERY_CACHE_MAX)
    _QUERY_CACHE[key] = query
    return query


def build_phased_workload(
    topology: Topology,
    query: JoinQuery,
    schedule: Sequence[Tuple[int, Selectivities]],
    seed: int = 0,
) -> SyntheticDataSource:
    """A data source whose selectivities change at scheduled cycles.

    *schedule* is ``[(start_cycle, selectivities), ...]`` with the first
    entry starting at cycle 0.  Each later regime becomes a chained
    ``switched`` source seeded ``seed + k``; the paper's temporal-drift
    experiment (Figure 12b) is a two-entry schedule.
    """
    if not schedule or schedule[0][0] != 0:
        raise ValueError("the first schedule entry must start at cycle 0")
    analysis = analyze_query(query)
    eligible_s = [
        n for n in topology.node_ids
        if analysis.node_eligible("S", topology.nodes[n].static_attributes)
    ]
    eligible_t = [
        n for n in topology.node_ids
        if analysis.node_eligible("T", topology.nodes[n].static_attributes)
    ]
    source: Optional[SyntheticDataSource] = None
    for offset, (start_cycle, selectivities) in reversed(list(enumerate(schedule))):
        send_map = build_send_probability_map(
            eligible_s, eligible_t,
            selectivities.sigma_s, selectivities.sigma_t,
        )
        source = SyntheticDataSource(
            sigma_st=selectivities.sigma_st,
            send_probability=0.0,
            seed=seed + offset,
            per_node_send_probability=send_map,
            switch_cycle=None if source is None else schedule[offset + 1][0],
            switched=source,
        )
    return source


def build_workload(
    topology: Topology,
    query: JoinQuery,
    data_selectivities: Selectivities,
    seed: int = 0,
) -> SyntheticDataSource:
    """A data source whose realized selectivities match ``data_selectivities``
    (:func:`build_phased_workload`'s one-entry schedule)."""
    return build_phased_workload(topology, query, [(0, data_selectivities)], seed=seed)


def memoized_workload(
    topology_key: Tuple[str, int, int],
    topology: Topology,
    query_key: Tuple[str, Any],
    query: JoinQuery,
    data_selectivities: Selectivities,
    seed: int,
    schedule: Sequence[Tuple[int, Selectivities]] = (),
) -> SyntheticDataSource:
    """A shared data source for one (topology, query, selectivities, seed).

    Data sources are pure functions of their parameters; sharing one
    instance lets every algorithm run against the same workload reuse the
    per-cycle producer-sample memos, exactly as the serial harness always
    did by constructing the source once per run index.  A non-empty
    *schedule* (multi-phase drift) keys additional regimes into the memo.
    """
    key = (
        topology_key, query_key, seed,
        data_selectivities.sigma_s, data_selectivities.sigma_t,
        data_selectivities.sigma_st,
        tuple((cycle, sel.sigma_s, sel.sigma_t, sel.sigma_st)
              for cycle, sel in schedule),
    )
    cached = _DATA_SOURCE_CACHE.get(key)
    if cached is not None:
        return cached
    if schedule:
        source = build_phased_workload(topology, query, schedule, seed=seed)
    else:
        source = build_workload(topology, query, data_selectivities, seed=seed)
    _evict_to(_DATA_SOURCE_CACHE, DATA_SOURCE_CACHE_MAX)
    _DATA_SOURCE_CACHE[key] = source
    return source


def memoized_workload_source(
    name: str,
    topology_key: Tuple[str, int, int],
    topology: Topology,
    query_key: Tuple[str, Any],
    query: JoinQuery,
    seed: int,
    frozen_kwargs: Tuple = (),
):
    """A shared instance of a registered custom data source.

    Custom sources (the Intel humidity trace, the Sel1/Sel2 skewed source)
    are deterministic in (topology, query, seed, kwargs), so sharing one
    instance across the runs of a sweep keeps the per-cycle sample memos
    shared exactly like the synthetic default.
    """
    from repro.engine.registry import WORKLOAD_SOURCES
    from repro.engine.spec import thaw

    key = ("source", name, topology_key, query_key, seed, frozen_kwargs)
    cached = _DATA_SOURCE_CACHE.get(key)
    if cached is not None:
        return cached
    builder = WORKLOAD_SOURCES.get(name)
    source = builder(topology, query, seed=seed, **(thaw(frozen_kwargs) or {}))
    _evict_to(_DATA_SOURCE_CACHE, DATA_SOURCE_CACHE_MAX)
    _DATA_SOURCE_CACHE[key] = source
    return source


def memoized_assumed_provider(
    name: str,
    topology_key: Tuple[str, int, int],
    topology: Topology,
    query_key: Tuple[str, Any],
    query: JoinQuery,
    data_source,
    spec,
    frozen_kwargs: Tuple = (),
):
    """A shared assumed-selectivity provider instance.

    Providers can be expensive (e.g. measuring the empirical join
    selectivity of the Intel trace, Figure 13); they are deterministic in
    the workload, so one instance is shared by every variant of a sweep.
    The key therefore covers the full workload identity -- custom source
    name/kwargs or the data selectivities -- so grid points with different
    workloads never share a measured provider.
    """
    from repro.engine.registry import ASSUMED_PROVIDERS
    from repro.engine.spec import thaw

    key = (name, topology_key, query_key, spec.workload_seed, spec.cycles,
           frozen_kwargs, spec.workload_source, spec.workload_kwargs,
           spec.sigma_s, spec.sigma_t, spec.sigma_st)
    cached = _PROVIDER_CACHE.get(key)
    if cached is not None:
        return cached
    builder = ASSUMED_PROVIDERS.get(name)
    provider = builder(
        topology=topology, query=query, data_source=data_source, spec=spec,
        **(thaw(frozen_kwargs) or {}),
    )
    _evict_to(_PROVIDER_CACHE, PROVIDER_CACHE_MAX)
    _PROVIDER_CACHE[key] = provider
    return provider
