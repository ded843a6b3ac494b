"""Declarative scenario and run specifications.

A :class:`ScenarioSpec` describes a whole experiment sweep as *data*: the
topology preset, the query, the workload selectivities, the algorithms, the
link/failure configuration and an optional parameter ``grid`` whose cartesian
product is expanded -- one grid point per figure series point -- into frozen,
hashable :class:`RunSpec` units.  A ``RunSpec`` is one seeded run of one
algorithm at one grid point; it is pure data (picklable, JSON-able), which is
what lets the execution layer schedule runs across worker processes and the
result store key completed runs by content hash.

Multi-phase runs (Sections 6/7 and Appendix G of the paper) are declared with
:class:`PhaseSpec`: an ordered list of execution phases, each with its own
cycle budget, data-source override (temporal drift), failure injection and
leaf-mobility injection.  Phases are resolved to explicit cycle counts at
expansion time so a phased ``RunSpec`` stays pure data and flows through the
parallel executor and the result store unchanged.

Scenarios round-trip through plain dictionaries, JSON and TOML, so they can
be authored as files (see ``examples/scenarios/``) and run from the CLI with
``python -m repro.experiments run-scenario``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.core.cost_model import Selectivities
from repro.workloads.selectivity import selectivities_for_ratio

# ---------------------------------------------------------------------------
# scale presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentScale:
    """How big an experiment run should be.

    ``paper`` matches the evaluation section (9 runs, 100-800 cycles,
    100 nodes); ``default`` keeps the same structure at a laptop-friendly
    size; ``smoke`` is for unit tests of the harness itself.
    """

    name: str
    runs: int
    cycles: int
    num_nodes: int
    long_cycles: int

SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(name="smoke", runs=1, cycles=10, num_nodes=60, long_cycles=30),
    "default": ExperimentScale(name="default", runs=2, cycles=40, num_nodes=100, long_cycles=120),
    "paper": ExperimentScale(name="paper", runs=9, cycles=100, num_nodes=100, long_cycles=800),
}


def resolve_scale(name: str) -> ExperimentScale:
    """Look up a scale preset by name, rejecting unknown values loudly."""
    key = name.strip().lower()
    if key not in SCALES:
        raise KeyError(
            f"unknown scale preset {name!r}; expected one of {sorted(SCALES)}"
        )
    return SCALES[key]


def scale_from_env(default: str = "default") -> ExperimentScale:
    """Pick the scale from the ``REPRO_SCALE`` environment variable.

    Unknown values are rejected with the list of valid presets (never a
    silent fallback); an unset or empty variable means *default*.
    """
    name = os.environ.get("REPRO_SCALE", "").strip() or default
    try:
        return resolve_scale(name)
    except KeyError:
        raise KeyError(
            f"unknown REPRO_SCALE {name!r}; expected one of {sorted(SCALES)}"
        ) from None


# ---------------------------------------------------------------------------
# freezing helpers: RunSpec fields must be hashable and deterministic
# ---------------------------------------------------------------------------

FrozenMapping = Tuple[Tuple[str, Any], ...]


def freeze(value: Any) -> Any:
    """Recursively convert mappings/sequences into hashable tuples."""
    if isinstance(value, Mapping):
        return tuple((str(k), freeze(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return tuple(freeze(v) for v in items)
    return value


def thaw(value: Any) -> Any:
    """Invert :func:`freeze`: nested (key, value) tuples back into dicts."""
    if isinstance(value, tuple):
        if all(
            isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
            for item in value
        ):
            return {key: thaw(item) for key, item in value}
        return [thaw(item) for item in value]
    return value


def _jsonable(value: Any) -> Any:
    """Frozen tuples -> plain lists/dicts so json.dumps stays canonical."""
    thawed = thaw(value) if isinstance(value, tuple) else value
    if isinstance(thawed, Mapping):
        return {str(k): _jsonable(v) for k, v in thawed.items()}
    if isinstance(thawed, (list, tuple)):
        return [_jsonable(v) for v in thawed]
    return thawed


def canonical_json(payload: Any) -> str:
    """Deterministic JSON used for content hashing."""
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))


def content_hash(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# execution phases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseSpec:
    """One ordered execution phase of a (join-kind) run.

    Parameters
    ----------
    name:
        Phase label; per-phase traffic shows up in the execution report as
        ``phase_<name>_traffic`` / ``phase_<name>_cycles``.
    cycles / fraction:
        The phase's cycle budget: an explicit count, or a fraction of the
        run's total cycles (resolved at expansion time).  At most one phase
        per run may leave both unset -- it absorbs the remaining cycles.
    data:
        Optional selectivity override (``sigma_s``/``sigma_t``/``sigma_st``
        or ``ratio``/``sigma_st``) taking effect from this phase's first
        cycle on -- the paper's temporal-drift experiments (Section 6.2).
    failures:
        Failure events injected during this phase: ``{"node": <id>, "at":
        <offset>}`` with ``at`` counted from the phase start (default 0).
        ``"node": "join"`` resolves, at execution time, to the join node the
        run's own strategy places for the query's first pair (Section 7).
    moves:
        Leaf-mobility events applied at the phase start: ``{"node": <id>}``
        or ``{"node": "leaf"}`` (the last leaf in node-id order, as in
        Appendix G), with an optional ``radius`` in metres (default: the
        topology's radio range).
    """

    name: str
    cycles: Optional[int] = None
    fraction: Optional[float] = None
    data: Optional[FrozenMapping] = None
    failures: Tuple[FrozenMapping, ...] = ()
    moves: Tuple[FrozenMapping, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("phase name must be non-empty")
        if self.cycles is not None and self.fraction is not None:
            raise ValueError(f"phase {self.name!r}: give cycles or fraction, not both")
        if self.cycles is not None and self.cycles < 1:
            raise ValueError(f"phase {self.name!r}: cycles must be positive")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"phase {self.name!r}: fraction must be in (0, 1]")
        object.__setattr__(
            self, "data", freeze(self.data) if self.data is not None else None
        )
        object.__setattr__(self, "failures", tuple(freeze(f) for f in self.failures))
        object.__setattr__(self, "moves", tuple(freeze(m) for m in self.moves))

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cycles": self.cycles,
            "fraction": self.fraction,
            "data": _jsonable(self.data) if self.data is not None else None,
            "failures": [_jsonable(event) for event in self.failures],
            "moves": [_jsonable(event) for event in self.moves],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PhaseSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown phase field(s) {sorted(unknown)}; expected a subset "
                f"of {sorted(known)}"
            )
        data = dict(payload)
        data["failures"] = tuple(data.get("failures") or ())
        data["moves"] = tuple(data.get("moves") or ())
        return cls(**data)

    def data_dict(self) -> Optional[Dict[str, Any]]:
        return thaw(self.data) if self.data is not None else None

    def failure_events(self) -> List[Dict[str, Any]]:
        return [thaw(event) for event in self.failures]

    def move_events(self) -> List[Dict[str, Any]]:
        return [thaw(event) for event in self.moves]


def _coerce_phase(phase: Union[PhaseSpec, Mapping[str, Any]]) -> PhaseSpec:
    if isinstance(phase, PhaseSpec):
        return phase
    return PhaseSpec.from_dict(phase)


def resolve_phases(
    phases: Sequence[PhaseSpec], total_cycles: int
) -> Tuple[PhaseSpec, ...]:
    """Resolve fraction/remainder phases to explicit cycle counts.

    The resolved phases partition ``total_cycles`` exactly: fractions become
    ``int(total * fraction)`` (matching
    :meth:`~repro.network.failures.FailureInjector.schedule_fraction_of_run`),
    and the single allowed open phase absorbs whatever is left.
    """
    names = [p.name for p in phases]
    if len(set(names)) != len(names):
        raise ValueError(
            f"phase names must be unique (got {names}); duplicate names would "
            "overwrite each other's per-phase report metrics"
        )
    open_phases = [p for p in phases if p.cycles is None and p.fraction is None]
    if len(open_phases) > 1:
        raise ValueError(
            "at most one phase may omit both cycles and fraction "
            f"(got {[p.name for p in open_phases]})"
        )
    budgets: List[Optional[int]] = []
    for phase in phases:
        if phase.cycles is not None:
            budgets.append(phase.cycles)
        elif phase.fraction is not None:
            budgets.append(int(total_cycles * phase.fraction))
        else:
            budgets.append(None)
    fixed = sum(b for b in budgets if b is not None)
    remainder = total_cycles - fixed
    if open_phases:
        if remainder <= 0:
            raise ValueError(
                f"phases over-allocate the run: {fixed} fixed cycles leave "
                f"{remainder} for the open phase (total {total_cycles})"
            )
        budgets = [b if b is not None else remainder for b in budgets]
    elif fixed != total_cycles:
        raise ValueError(
            f"phase cycles sum to {fixed}, but the run has {total_cycles}"
        )
    return tuple(
        replace(phase, cycles=budget, fraction=None)
        for phase, budget in zip(phases, budgets)
    )


# ---------------------------------------------------------------------------
# run specification: one schedulable unit
# ---------------------------------------------------------------------------

#: Bump when the execution semantics change in a way that invalidates stored
#: results (the hash of every RunSpec includes this salt).
ENGINE_VERSION = 2


@dataclass(frozen=True)
class RunSpec:
    """One seeded run of one algorithm at one grid point.  Pure data."""

    scenario: str
    setting: FrozenMapping          # grid-point values, e.g. (("ratio", "1/2:1/2"), ...)
    query: str
    query_kwargs: FrozenMapping
    algorithm: str
    run_index: int
    seed: int
    workload_seed: int
    cycles: int
    topology_preset: str
    topology_seed: int
    num_nodes: int
    sigma_s: float
    sigma_t: float
    sigma_st: float
    assumed_sigma_s: float
    assumed_sigma_t: float
    assumed_sigma_st: float
    accounting: str = "bytes"
    link_loss: Optional[float] = None
    link_seed: int = 0
    failures: Tuple[Tuple[int, int], ...] = ()   # (node_id, sampling_cycle)
    strategy_kwargs: FrozenMapping = ()
    kind: str = "join"                           # executor (see registry.RUN_KINDS)
    label: str = ""                              # figure-legend label; '' = algorithm
    params: FrozenMapping = ()                   # kind-specific parameters
    phases: Tuple[PhaseSpec, ...] = ()           # resolved: every phase has cycles
    workload_source: Optional[str] = None        # registered data-source builder
    workload_kwargs: FrozenMapping = ()
    assumed_source: Optional[str] = None         # registered selectivity provider
    assumed_kwargs: FrozenMapping = ()
    #: Instrumentation sink presets (see repro.metrics): names or frozen
    #: mappings with a "sink" key.  Excluded from the run key when empty, so
    #: default-instrumented runs keep their pre-metrics content hash.
    sinks: Tuple[Any, ...] = ()
    #: Per-node series bound in the report (see
    #: :func:`repro.metrics.pipeline.bound_node_series`).  ``None`` (the
    #: default, excluded from the run key) keeps the executor's behavior:
    #: full series at paper scale, auto-bounded above 10k nodes.
    node_series_cap: Optional[int] = None

    @property
    def data_selectivities(self) -> Selectivities:
        return Selectivities(self.sigma_s, self.sigma_t, self.sigma_st)

    @property
    def assumed_selectivities(self) -> Selectivities:
        return Selectivities(
            self.assumed_sigma_s, self.assumed_sigma_t, self.assumed_sigma_st
        )

    @property
    def display_label(self) -> str:
        """How this run is keyed in aggregates (figure-legend label)."""
        return self.label or self.algorithm

    def setting_dict(self) -> Dict[str, Any]:
        return thaw(self.setting) if self.setting else {}

    def params_dict(self) -> Dict[str, Any]:
        return thaw(self.params) if self.params else {}

    def sink_entries(self) -> List[Any]:
        """Thawed sink entries (names or kwargs mappings) for the builder."""
        return [entry if isinstance(entry, str) else thaw(entry)
                for entry in self.sinks]

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        for key in ("setting", "query_kwargs", "strategy_kwargs", "params",
                    "workload_kwargs", "assumed_kwargs"):
            payload[key] = _jsonable(payload[key])
        payload["failures"] = [list(event) for event in self.failures]
        payload["phases"] = [phase.to_dict() for phase in self.phases]
        payload["sinks"] = [entry if isinstance(entry, str) else _jsonable(entry)
                            for entry in self.sinks]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunSpec":
        data = dict(payload)
        # a spec stored before a field was retired carries it at its default
        _reject_retired([name for name in RETIRED_FIELDS
                         if data.pop(name, None) is not None], "run field")
        for key in ("setting", "query_kwargs", "strategy_kwargs", "params",
                    "workload_kwargs", "assumed_kwargs"):
            data[key] = freeze(data.get(key) or {})
        data["failures"] = tuple(
            (int(node), int(cycle)) for node, cycle in data.get("failures") or ()
        )
        data["phases"] = tuple(
            PhaseSpec.from_dict(phase) for phase in data.get("phases") or ()
        )
        data["sinks"] = tuple(
            entry if isinstance(entry, str) else freeze(entry)
            for entry in data.get("sinks") or ()
        )
        return cls(**data)

    def run_key(self) -> str:
        """Content hash identifying this run in the result store."""
        payload = self.to_dict()
        if not payload["sinks"]:
            # instrumentation is off by default: leaving the empty knob out
            # of the hash keeps every pre-metrics stored result addressable
            del payload["sinks"]
        if payload["node_series_cap"] is None:
            # reporting knob only (traffic metrics are unaffected); leaving
            # the default out keeps every pre-cap stored result addressable
            del payload["node_series_cap"]
        # retired fields hash at their old default, so results stored
        # before their removal stay addressable
        payload.update(dict.fromkeys(RETIRED_FIELDS))
        payload["engine_version"] = ENGINE_VERSION
        return content_hash(payload)

    def __hash__(self) -> int:  # dict-free fields only, all hashable
        return hash((self.scenario, self.setting, self.query, self.query_kwargs,
                     self.algorithm, self.run_index, self.seed, self.kind,
                     self.label, self.phases, self.sinks))


# ---------------------------------------------------------------------------
# scenario specification
# ---------------------------------------------------------------------------

#: Grid axes that override a ScenarioSpec field directly.
_FIELD_AXES = {
    "query", "query_kwargs", "cycles", "cycles_factor", "num_nodes",
    "topology_preset", "topology_seed", "link_loss",
    "accounting", "sinks", "node_series_cap",
}
#: Grid axes with workload-specific handling.  ``ratio`` applies to both the
#: data and the assumed selectivities; ``true_ratio`` to the data only and
#: ``assumed_ratio`` to the estimates only (the Figure 4/8/10 sweeps, where
#: the workload follows one ratio while the optimizer assumes another).
_WORKLOAD_AXES = {"ratio", "true_ratio", "assumed_ratio",
                  "sigma_st", "sigma_s", "sigma_t"}

#: Keys a variant mapping may carry.
_VARIANT_KEYS = {"label", "algorithm", "assumed", "strategy_kwargs", "phases",
                 "data", "workload_seed_offset", "cycles_span"}

#: Settings the engine no longer models, with why.  Setting one, as a
#: scenario field or a grid axis, fails at load; :meth:`RunSpec.run_key`
#: still hashes each at its old default (``None``).
RETIRED_FIELDS: Dict[str, str] = {
    "queue_capacity": "the per-node forwarding-queue bound was removed; "
                      "routing-queue overflow is not modelled",
}


def _reject_retired(names: Iterable[str], where: str) -> None:
    for name in names:
        if name in RETIRED_FIELDS:
            raise ValueError(f"{where} {name!r}: {RETIRED_FIELDS[name]}")


def _normalize_sink_entries(entries: Sequence[Any]) -> Tuple[Any, ...]:
    """Sink entries as plain strings / dicts, shape-validated.

    Preset *names* resolve at execution time (the data layer stays
    import-light); the entry shape -- a string, or a mapping carrying a
    ``sink`` key -- is checked here so malformed scenarios fail at authoring
    time.
    """
    normalized: List[Any] = []
    for entry in entries:
        if isinstance(entry, str):
            normalized.append(entry)
        elif isinstance(entry, Mapping):
            if "sink" not in entry:
                raise ValueError(
                    f"sink entry {dict(entry)!r} needs a 'sink' key naming "
                    "a preset"
                )
            normalized.append(dict(entry))
        else:
            raise TypeError(
                f"sink entry must be a preset name or a mapping, got {entry!r}"
            )
    return tuple(normalized)


def _selectivity_config(config: Mapping[str, Any]) -> Dict[str, float]:
    """Normalize a data/assumed block into {sigma_s, sigma_t, sigma_st}.

    Accepts either explicit sigmas or a Figure 2-style ``ratio`` ladder label
    plus ``sigma_st``; when both are present the ratio wins.
    """
    config = dict(config)
    sigma_st = float(config.pop("sigma_st", 0.2))
    if "ratio" in config:
        sel = selectivities_for_ratio(str(config.pop("ratio")), sigma_st)
        config.pop("sigma_s", None)
        config.pop("sigma_t", None)
        out = {"sigma_s": sel.sigma_s, "sigma_t": sel.sigma_t, "sigma_st": sel.sigma_st}
    else:
        out = {"sigma_s": float(config.pop("sigma_s", 0.5)),
               "sigma_t": float(config.pop("sigma_t", 0.5)),
               "sigma_st": sigma_st}
    if config:
        raise ValueError(
            f"unknown selectivity field(s) {sorted(config)}; expected "
            "sigma_s/sigma_t/sigma_st or ratio/sigma_st"
        )
    return out


def _apply_workload_overrides(data: Dict[str, float],
                              overrides: Mapping[str, Any],
                              ratio_axes: Sequence[str] = ("ratio",),
                              ) -> Dict[str, float]:
    """Apply grid-axis workload overrides onto resolved selectivities.

    A ratio override (any axis named in *ratio_axes*) resolves sigma_s/sigma_t
    from the ladder; explicit ``sigma_*`` overrides win over anything
    ratio-derived.
    """
    data = dict(data)
    for axis in ratio_axes:
        if axis in overrides:
            sel = selectivities_for_ratio(str(overrides[axis]), data["sigma_st"])
            data["sigma_s"], data["sigma_t"] = sel.sigma_s, sel.sigma_t
    for key in ("sigma_s", "sigma_t", "sigma_st"):
        if key in overrides:
            data[key] = float(overrides[key])
    return data


def _split_workload_block(config: Mapping[str, Any]
                          ) -> Tuple[Optional[str], Dict[str, Any], Dict[str, Any]]:
    """Split a ``data`` block into (source name, builder kwargs, sigma block).

    A block with a ``source`` key names a registered data-source builder (see
    ``repro.engine.registry.WORKLOAD_SOURCES``); the remaining keys are passed
    to the builder, except sigma fields which stay nominal selectivities.
    """
    config = dict(config)
    source = config.pop("source", None)
    sigmas = {k: config.pop(k) for k in ("sigma_s", "sigma_t", "sigma_st", "ratio")
              if k in config}
    if source is None and config:
        # no custom source: every remaining key must be a sigma field, which
        # _selectivity_config validates
        return None, {}, {**sigmas, **config}
    return (str(source) if source is not None else None), config, sigmas


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative description of an experiment sweep."""

    name: str
    kind: str = "join"
    query: str = "query1"
    query_kwargs: Mapping[str, Any] = field(default_factory=dict)
    algorithms: Tuple[str, ...] = ("naive", "base")
    #: Figure-legend variants.  Each entry is a mapping with a ``label`` and
    #: optional per-variant overrides (``algorithm``, ``assumed``,
    #: ``strategy_kwargs``, ``phases``, ``data``, ``workload_seed_offset``,
    #: ``cycles_span``).  When set, variants replace the plain ``algorithms``
    #: expansion -- one run per variant per grid point per run index.
    variants: Tuple[Mapping[str, Any], ...] = ()
    data: Mapping[str, Any] = field(default_factory=lambda: {"sigma_s": 0.5, "sigma_t": 0.5, "sigma_st": 0.2})
    assumed: Optional[Mapping[str, Any]] = None
    topology_preset: str = "moderate"
    topology_seed: int = 0
    num_nodes: Optional[int] = None
    runs: Optional[int] = None
    cycles: Optional[int] = None
    #: With cycles=None, resolve against the scale's long_cycles (the paper's
    #: long-duration experiments) instead of its standard cycles.
    use_long_cycles: bool = False
    #: Floor applied after scale resolution (Figure 14 needs >= 20 cycles for
    #: a mid-run failure to have observable aftermath even at smoke scale).
    min_cycles: Optional[int] = None
    accounting: str = "bytes"
    link_loss: Optional[float] = None
    link_seed: int = 0
    failures: Tuple[Mapping[str, Any], ...] = ()
    #: Ordered execution phases (see :class:`PhaseSpec`); resolved to explicit
    #: cycle counts at expansion time.  Variants may override per variant.
    phases: Tuple[Union[PhaseSpec, Mapping[str, Any]], ...] = ()
    strategy_kwargs: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    #: Kind-specific parameters passed through to the run-kind executor.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Instrumentation sink presets attached to every run's simulator (see
    #: :mod:`repro.metrics`): names (``"energy"``) or mappings with a
    #: ``sink`` key plus builder kwargs (``{"sink": "energy",
    #: "capacity_uj": 40000}``).  Empty = traffic accounting only; sinks are
    #: observers, so traffic results are identical either way.  Only the
    #: ``join`` run kind instruments its simulator; measurement kinds ignore
    #: the knob.  Sweepable via a ``sinks`` grid axis.
    sinks: Tuple[Any, ...] = ()
    #: Per-node series bound applied to every run's report (``None`` =
    #: executor default: full series, auto-bounded above 10k nodes).  A
    #: reporting knob only; omitted from :meth:`to_dict` when unset so spec
    #: hashes stay stable.  Sweepable via a ``node_series_cap`` grid axis.
    node_series_cap: Optional[int] = None
    metrics: Tuple[str, ...] = ("total_traffic", "base_traffic", "max_node_load")
    seed_base: int = 0
    workload_seed_base: int = 100
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "sinks", _normalize_sink_entries(self.sinks))
        object.__setattr__(self, "failures", tuple(dict(f) for f in self.failures))
        object.__setattr__(self, "phases",
                           tuple(_coerce_phase(p) for p in self.phases))
        object.__setattr__(self, "variants", tuple(dict(v) for v in self.variants))
        for variant in self.variants:
            unknown = set(variant) - _VARIANT_KEYS
            if unknown:
                raise ValueError(
                    f"unknown variant field(s) {sorted(unknown)}; expected a "
                    f"subset of {sorted(_VARIANT_KEYS)}"
                )
            if "label" not in variant and "algorithm" not in variant:
                raise ValueError("a variant needs a label or an algorithm")
        for axis, values in self.grid.items():
            self._validate_axis(axis, values)
        if self.accounting not in ("bytes", "messages"):
            raise ValueError("accounting must be 'bytes' or 'messages'")

    def _validate_axis(self, axis: str, values: Sequence[Any]) -> None:
        _reject_retired([axis], "grid axis")
        known = _FIELD_AXES | _WORKLOAD_AXES
        composite = [v for v in values if isinstance(v, Mapping)]
        if composite:
            # a composite axis: each value is a mapping of joint overrides
            # (e.g. query + its sigma_st), flattened into the grid point
            for value in composite:
                _reject_retired(value, f"composite grid axis {axis!r} key")
                bad = set(value) - known
                if bad and self.kind == "join":
                    raise ValueError(
                        f"composite grid axis {axis!r} sets unknown key(s) "
                        f"{sorted(bad)}; expected a subset of {sorted(known)}"
                    )
            return
        if axis not in known and self.kind == "join":
            raise ValueError(
                f"unknown grid axis {axis!r}; expected one of {sorted(known)}"
            )

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["query_kwargs"] = _jsonable(dict(self.query_kwargs))
        payload["data"] = _jsonable(dict(self.data))
        payload["assumed"] = _jsonable(dict(self.assumed)) if self.assumed is not None else None
        payload["strategy_kwargs"] = _jsonable({k: dict(v) for k, v in self.strategy_kwargs.items()})
        payload["grid"] = _jsonable({k: list(v) for k, v in self.grid.items()})
        payload["params"] = _jsonable(dict(self.params))
        payload["algorithms"] = list(self.algorithms)
        payload["variants"] = [_jsonable(dict(v)) for v in self.variants]
        payload["metrics"] = list(self.metrics)
        payload["sinks"] = [
            _jsonable(dict(entry)) if isinstance(entry, Mapping) else entry
            for entry in self.sinks
        ]
        payload["failures"] = [dict(f) for f in self.failures]
        payload["phases"] = [phase.to_dict() for phase in self.phases]
        if payload["node_series_cap"] is None:
            del payload["node_series_cap"]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        _reject_retired(payload, "scenario field")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {sorted(unknown)}; expected a subset "
                f"of {sorted(known)}"
            )
        data = dict(payload)
        for key in ("algorithms", "metrics"):
            if key in data and data[key] is not None:
                data[key] = tuple(data[key])
        for key in ("failures", "variants", "phases", "sinks"):
            if key in data and data[key] is not None:
                data[key] = tuple(data[key])
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        """Stable content hash of the scenario definition."""
        return content_hash(self.to_dict())

    def __hash__(self) -> int:
        return hash(self.spec_hash())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def with_overrides(self, **overrides) -> "ScenarioSpec":
        return replace(self, **overrides)

    # -- expansion ----------------------------------------------------------
    def grid_points(self) -> List[Dict[str, Any]]:
        """The cartesian product of the grid axes, in declaration order.

        Mapping-valued axis entries are composite points: their keys are
        flattened into the grid point (joint overrides that would otherwise
        need correlated axes, e.g. each query with its own sigma_st).
        """
        points: List[Dict[str, Any]] = [{}]
        for axis, values in self.grid.items():
            expanded = []
            for point in points:
                for value in values:
                    if isinstance(value, Mapping):
                        expanded.append(dict(point, **value))
                    else:
                        expanded.append(dict(point, **{axis: value}))
            points = expanded
        return points

    def _variants(self) -> List[Dict[str, Any]]:
        if self.variants:
            return [dict(v) for v in self.variants]
        return [{"label": algorithm, "algorithm": algorithm}
                for algorithm in self.algorithms]

    def expand(self, scale: Optional[ExperimentScale] = None) -> List[RunSpec]:
        """Expand into frozen RunSpecs: grid points x variants x run indices."""
        scale = scale or scale_from_env()
        runs = self.runs if self.runs is not None else scale.runs
        default_cycles = (
            self.cycles if self.cycles is not None
            else (scale.long_cycles if self.use_long_cycles else scale.cycles)
        )
        if self.min_cycles is not None:
            default_cycles = max(default_cycles, self.min_cycles)
        specs: List[RunSpec] = []
        for setting in self.grid_points():
            field_overrides = {k: v for k, v in setting.items() if k in _FIELD_AXES}
            workload_overrides = {k: v for k, v in setting.items() if k in _WORKLOAD_AXES}

            query = str(field_overrides.get("query", self.query))
            query_kwargs = field_overrides.get("query_kwargs", self.query_kwargs)
            cycles = int(field_overrides.get("cycles", default_cycles))
            if "cycles_factor" in field_overrides:
                cycles = int(cycles * float(field_overrides["cycles_factor"]))
            num_nodes = int(field_overrides.get(
                "num_nodes", self.num_nodes if self.num_nodes is not None else scale.num_nodes
            ))
            for run_index in range(runs):
                for variant in self._variants():
                    specs.append(self._expand_one(
                        setting, field_overrides, workload_overrides,
                        variant, run_index,
                        query=query, query_kwargs=query_kwargs,
                        cycles=cycles, num_nodes=num_nodes,
                    ))
        return specs

    def _expand_one(self, setting, field_overrides, workload_overrides,
                    variant, run_index, *, query, query_kwargs,
                    cycles, num_nodes) -> RunSpec:
        algorithm = str(variant.get("algorithm", variant.get("label")))
        label = str(variant.get("label", algorithm))

        # -- workload: custom source or sigma block, plus grid overrides ----
        data_block = variant.get("data", self.data)
        source, source_kwargs, sigma_block = _split_workload_block(data_block)
        data = _apply_workload_overrides(
            _selectivity_config(sigma_block), workload_overrides,
            ratio_axes=("ratio", "true_ratio"),
        )

        # -- assumed: provider, explicit block, or the data selectivities ---
        assumed_block = variant.get("assumed", self.assumed)
        assumed_source: Optional[str] = None
        assumed_kwargs: Dict[str, Any] = {}
        if isinstance(assumed_block, Mapping) and "provider" in assumed_block:
            assumed_kwargs = dict(assumed_block)
            assumed_source = str(assumed_kwargs.pop("provider"))
            assumed = dict(data)
        elif assumed_block is not None:
            assumed = _selectivity_config(assumed_block)
        else:
            assumed = dict(data)
        assumed = _apply_workload_overrides(
            assumed, workload_overrides, ratio_axes=("ratio", "assumed_ratio"),
        )

        # -- per-variant cycle span (e.g. the oracle that runs each half of a
        # drift experiment separately: spans [0, 0.5] and [0.5, 1]) ----------
        variant_cycles = cycles
        if "cycles_span" in variant:
            start_fraction, end_fraction = variant["cycles_span"]
            variant_cycles = int(cycles * float(end_fraction)) - int(cycles * float(start_fraction))

        # -- phases, resolved to explicit per-phase cycle counts ------------
        phases = tuple(_coerce_phase(p) for p in variant.get("phases", self.phases))
        resolved_phases = resolve_phases(phases, variant_cycles) if phases else ()

        failures = tuple(sorted(
            (int(event["node"]),
             int(event["cycle"]) if "cycle" in event
             else int(variant_cycles * float(event["at_fraction"])))
            for event in self.failures
        ))
        strategy_kwargs = variant.get(
            "strategy_kwargs", self.strategy_kwargs.get(algorithm, {})
        )
        workload_seed = (self.workload_seed_base + run_index
                         + int(variant.get("workload_seed_offset", 0)))
        sink_entries = _normalize_sink_entries(
            field_overrides.get("sinks", self.sinks)
        )
        return RunSpec(
            scenario=self.name,
            setting=freeze(setting),
            query=query,
            query_kwargs=freeze(dict(query_kwargs)),
            algorithm=algorithm,
            run_index=run_index,
            seed=self.seed_base + run_index,
            workload_seed=workload_seed,
            cycles=variant_cycles,
            topology_preset=str(field_overrides.get("topology_preset", self.topology_preset)),
            topology_seed=int(field_overrides.get("topology_seed", self.topology_seed)),
            num_nodes=num_nodes,
            sigma_s=data["sigma_s"],
            sigma_t=data["sigma_t"],
            sigma_st=data["sigma_st"],
            assumed_sigma_s=assumed["sigma_s"],
            assumed_sigma_t=assumed["sigma_t"],
            assumed_sigma_st=assumed["sigma_st"],
            accounting=str(field_overrides.get("accounting", self.accounting)),
            link_loss=field_overrides.get("link_loss", self.link_loss),
            link_seed=self.link_seed,
            failures=failures,
            strategy_kwargs=freeze(dict(strategy_kwargs)),
            kind=self.kind,
            label=label,
            params=freeze(dict(self.params)),
            phases=resolved_phases,
            workload_source=source,
            workload_kwargs=freeze(source_kwargs),
            assumed_source=assumed_source,
            assumed_kwargs=freeze(assumed_kwargs),
            sinks=tuple(
                entry if isinstance(entry, str) else freeze(entry)
                for entry in sink_entries
            ),
            node_series_cap=field_overrides.get(
                "node_series_cap", self.node_series_cap
            ),
        )


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------


def load_scenario_file(path: Union[str, Path]) -> ScenarioSpec:
    """Load a scenario authored as a JSON or TOML file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".toml":
        import tomllib

        payload = tomllib.loads(text)
    elif path.suffix.lower() == ".json":
        payload = json.loads(text)
    else:
        raise ValueError(f"unsupported scenario file type {path.suffix!r} "
                         "(expected .json or .toml)")
    payload.setdefault("name", path.stem)
    return ScenarioSpec.from_dict(payload)
