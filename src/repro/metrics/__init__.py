"""Pluggable instrumentation: the event-sink metrics pipeline.

Every accounting charge point of the network layer emits events through a
:class:`~repro.metrics.pipeline.MetricsPipeline`;
:class:`~repro.network.traffic.TrafficStats` is the always-on default sink
(bit-identical totals, zero added dispatch when it is the only listener), and
scenarios opt into additional observational sinks by preset name:

* ``energy`` -- :class:`~repro.metrics.energy.EnergySink`: per-node radio
  energy (per-byte tx/rx + per-cycle idle) and first-node-death lifetime.
* ``hotspots`` -- :class:`~repro.metrics.hotspot.HotspotSink`: streaming
  per-node load with top-k / max-load / Gini load-balance summaries.
* ``all`` -- both.

Presets are plain names (``"energy"``) or mappings with builder kwargs
(``{"sink": "energy", "capacity_uj": 40000}``) -- the form
``ScenarioSpec.sinks`` accepts and :func:`build_sinks` resolves.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.metrics.energy import EnergyModel, EnergySink
from repro.metrics.hotspot import HotspotSink, gini_coefficient
from repro.metrics.latency import LatencySink, StreamingQuantile
from repro.metrics.pipeline import MetricsPipeline, MetricsSink

#: Sink builders by preset name; kwargs come from mapping-form entries.
SINK_BUILDERS: Dict[str, Any] = {
    "energy": lambda **kwargs: EnergySink(**kwargs),
    "hotspots": lambda **kwargs: HotspotSink(**kwargs),
}

#: Preset groups expanding to several sinks (no kwargs allowed).
PRESET_GROUPS: Dict[str, Tuple[str, ...]] = {
    "all": ("energy", "hotspots"),
}


def available_sink_presets() -> List[str]:
    return sorted(set(SINK_BUILDERS) | set(PRESET_GROUPS))


def _split_entry(entry: Any) -> Tuple[str, Dict[str, Any]]:
    if isinstance(entry, str):
        return entry, {}
    if isinstance(entry, Mapping):
        kwargs = dict(entry)
        try:
            name = str(kwargs.pop("sink"))
        except KeyError:
            raise ValueError(
                f"sink entry {dict(entry)!r} needs a 'sink' key naming a "
                f"preset (one of {available_sink_presets()})"
            ) from None
        return name, kwargs
    raise TypeError(
        f"sink entry must be a preset name or a mapping, got {entry!r}"
    )


def validate_sink_entries(entries: Sequence[Any]) -> None:
    """Raise early on unknown presets or malformed entries."""
    for entry in entries:
        name, kwargs = _split_entry(entry)
        if name in PRESET_GROUPS:
            if kwargs:
                raise ValueError(
                    f"sink group {name!r} takes no kwargs (got {sorted(kwargs)})"
                )
        elif name not in SINK_BUILDERS:
            raise KeyError(
                f"unknown sink preset {name!r}; expected one of "
                f"{available_sink_presets()}"
            )


def expand_sink_entries(entries: Sequence[Any]) -> List[Any]:
    """Flatten group presets (``all``) into their member sink entries."""
    validate_sink_entries(entries)
    flat: List[Any] = []
    for entry in entries:
        name, _ = _split_entry(entry)
        if name in PRESET_GROUPS:
            flat.extend(PRESET_GROUPS[name])
        else:
            flat.append(entry)
    return flat


def build_sinks(entries: Sequence[Any]) -> List[MetricsSink]:
    """Instantiate the sinks a scenario's ``sinks`` entries describe."""
    sinks: List[MetricsSink] = []
    for entry in expand_sink_entries(entries):
        name, kwargs = _split_entry(entry)
        sinks.append(SINK_BUILDERS[name](**kwargs))
    return sinks


def summary_prefixes(entries: Sequence[Any]) -> Tuple[str, ...]:
    """Summary-key prefixes the given sink entries will report under."""
    names: List[str] = []
    for entry in entries:
        name, _ = _split_entry(entry)
        for member in PRESET_GROUPS.get(name, (name,)):
            prefix = {"hotspots": "hotspot"}.get(member, member) + "_"
            if prefix not in names:
                names.append(prefix)
    return tuple(names)


def known_summary_prefixes() -> Tuple[str, ...]:
    """Summary-key prefixes of every registered sink.

    Lets report consumers recognize sink summaries in a run's ``extra`` no
    matter how the sinks were configured -- scenario field, CLI ``--metrics``
    or a ``sinks`` grid axis (where the scenario-level field stays empty).
    """
    return summary_prefixes(sorted(SINK_BUILDERS))


__all__ = [
    "EnergyModel",
    "EnergySink",
    "HotspotSink",
    "LatencySink",
    "MetricsPipeline",
    "MetricsSink",
    "PRESET_GROUPS",
    "SINK_BUILDERS",
    "StreamingQuantile",
    "available_sink_presets",
    "build_sinks",
    "expand_sink_entries",
    "gini_coefficient",
    "known_summary_prefixes",
    "summary_prefixes",
    "validate_sink_entries",
]
