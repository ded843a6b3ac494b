"""Strategy and query-builder registries.

The scenario layer refers to join algorithms and queries *by name* so a
:class:`~repro.engine.spec.RunSpec` stays pure data (JSON-able, hashable,
picklable).  This module owns the name -> builder mappings and exposes
entry-point-style registration hooks so external code (plugins, notebooks,
future workloads) can add algorithms or query builders without touching the
engine:

    from repro.engine import register_strategy

    @register_strategy("my-join")
    def _build(**kwargs):
        return MyJoin(**kwargs)

Every registry is a plain process-global dictionary, and every lookup goes
through :meth:`Registry.get`: a miss imports the experiment layer's
registrations once (:func:`load_experiment_registrations`) before it raises
``KeyError``.  Only names are looked up, so a scenario always names its query;
an unregistered callable is not a query.  Under the multiprocessing executor
each worker process re-imports this module and gets the built-in entries
(fork-started workers additionally inherit any runtime registrations made
before the pool was created).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.joins import (
    BaseJoin,
    GHTJoin,
    InnetJoin,
    InnetVariant,
    NaiveJoin,
    ThroughBaseJoin,
)
from repro.joins.base import JoinStrategy
from repro.query.query import JoinQuery


#: Bumped on every registration.  Long-lived worker pools compare it against
#: the generation they forked at and restart their workers when it moved, so
#: late runtime registrations reach workers too.
_REGISTRY_GENERATION = 0


def registry_generation() -> int:
    """Monotonic counter of registrations across all registries."""
    return _REGISTRY_GENERATION


class Registry:
    """A name -> builder mapping with a decorator-style registration hook."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._builders: Dict[str, Callable] = {}

    def register(self, name: str, builder: Optional[Callable] = None):
        """Register *builder* under *name*; usable directly or as a decorator."""

        def _register(fn: Callable) -> Callable:
            global _REGISTRY_GENERATION
            self._builders[name] = fn
            _REGISTRY_GENERATION += 1
            return fn

        if builder is not None:
            return _register(builder)
        return _register

    def get(self, name: str) -> Callable:
        """The builder registered under *name*.

        A miss loads the experiment layer's registrations once and looks
        again before raising ``KeyError``.
        """
        builder = self._builders.get(name)
        if builder is None:
            load_experiment_registrations()
            builder = self._builders.get(name)
            if builder is None:
                raise KeyError(
                    f"unknown {self.kind} {name!r}; expected one of {self.names()}"
                )
        return builder

    def create(self, name: str, **kwargs):
        return self.get(name)(**kwargs)

    def names(self) -> List[str]:
        return sorted(self._builders)

    @property
    def builders(self) -> Dict[str, Callable]:
        """The live name -> builder mapping (mutate via :meth:`register`)."""
        return self._builders


# ---------------------------------------------------------------------------
# join strategies (the figure labels of the paper's evaluation)
# ---------------------------------------------------------------------------

STRATEGIES = Registry("algorithm")
register_strategy = STRATEGIES.register

register_strategy("naive", lambda **kw: NaiveJoin())
register_strategy("base", lambda **kw: BaseJoin())
register_strategy("ght", lambda **kw: GHTJoin())
register_strategy("dht", lambda **kw: GHTJoin(use_dht=True))
register_strategy("yang07", lambda **kw: ThroughBaseJoin())
register_strategy("innet", lambda **kw: InnetJoin(InnetVariant.basic(), **kw))
register_strategy("innet-cm", lambda **kw: InnetJoin(InnetVariant.cm(), **kw))
register_strategy("innet-cmg", lambda **kw: InnetJoin(InnetVariant.cmg(), **kw))
register_strategy("innet-cmp", lambda **kw: InnetJoin(InnetVariant.cmp(), **kw))
register_strategy("innet-cmpg", lambda **kw: InnetJoin(InnetVariant.cmpg(), **kw))
register_strategy("innet-learn", lambda **kw: InnetJoin(InnetVariant.learn(), **kw))
register_strategy(
    "innet-basic-learn",
    lambda **kw: InnetJoin(InnetVariant.learn(InnetVariant.basic()), **kw),
)

_EXPERIMENT_REGISTRATIONS_LOADED = False


def load_experiment_registrations() -> None:
    """Import the experiment layer's registrations on demand.

    The figure modules register their run kinds, scenario queries, workload
    sources and assumed-selectivity providers when
    ``repro.experiments.scenarios`` is imported.  Worker processes started
    with ``spawn`` re-import only the engine, so a registry miss triggers
    this lazy import before giving up -- making scenario execution
    independent of which process imported the experiments package first.
    """
    global _EXPERIMENT_REGISTRATIONS_LOADED
    if _EXPERIMENT_REGISTRATIONS_LOADED:
        return
    _EXPERIMENT_REGISTRATIONS_LOADED = True
    try:
        import repro.experiments.scenarios  # noqa: F401  (imported for side effects)
    except ImportError:  # pragma: no cover - experiments layer absent
        pass


def make_strategy(name: str, **kwargs) -> JoinStrategy:
    """Instantiate a join strategy by its figure label."""
    return STRATEGIES.create(name, **kwargs)


def available_algorithms() -> List[str]:
    return STRATEGIES.names()


#: The six algorithms shown in Figures 2 and 3.
FIGURE2_ALGORITHMS = ["naive", "base", "ght", "innet", "innet-cmg", "innet-cmpg"]
#: The four algorithms shown in the mesh-network Figures 19 and 20.
MESH_ALGORITHMS = ["naive", "base", "dht", "innet-cmg"]


# ---------------------------------------------------------------------------
# query builders (Table 2)
# ---------------------------------------------------------------------------

QUERIES = Registry("query")
register_query_builder = QUERIES.register


def _register_builtin_queries() -> None:
    from repro.workloads.queries import (
        build_query0,
        build_query1,
        build_query2,
        build_query3,
    )

    QUERIES.register("query0", build_query0)
    QUERIES.register("query1", build_query1)
    QUERIES.register("query2", build_query2)
    QUERIES.register("query3", build_query3)


_register_builtin_queries()


def make_query(name: str, **kwargs) -> JoinQuery:
    """Build a query by its registered name."""
    return QUERIES.create(name, **kwargs)


# ---------------------------------------------------------------------------
# run kinds, workload sources and assumed-selectivity providers
# ---------------------------------------------------------------------------

#: Run-kind executors: ``name -> fn(spec: RunSpec) -> ExecutionReport``.  The
#: default ``join`` kind is built into :mod:`repro.engine.execution`; figure
#: modules register measurement kinds (path quality, initiation, mobility...)
#: so every figure of the paper can be expressed as a ScenarioSpec.
RUN_KINDS = Registry("run kind")
register_run_kind = RUN_KINDS.register

#: Data-source builders beyond the synthetic sigma-controlled default:
#: ``name -> fn(topology, query, seed, **kwargs) -> DataSource`` (the Intel
#: humidity trace, the Sel1/Sel2 spatial-skew source, ...).
WORKLOAD_SOURCES = Registry("workload source")
register_workload_source = WORKLOAD_SOURCES.register

#: Assumed-selectivity providers: ``name -> fn(topology=..., query=...,
#: data_source=..., spec=...) -> SelectivityProvider`` for estimates that are
#: functions of the workload (per-pair oracles, measured selectivities).
ASSUMED_PROVIDERS = Registry("assumed-selectivity provider")
register_assumed_provider = ASSUMED_PROVIDERS.register
