"""The event-sink metrics pipeline behind every accounting charge point.

The simulator's charge points (``charge_path`` / ``charge_transmission`` /
``charge_broadcast`` / ``charge_drop``) and its sampling-cycle ticks all flow
through one :class:`MetricsPipeline`.  A sink is any object implementing a
subset of the :class:`MetricsSink` event methods --
:class:`~repro.network.traffic.TrafficStats` is itself a sink (its charge
methods *are* the event signatures), joined by the observational sinks in
this package (energy, hotspots).

Dispatch is built for the accounting fast path: for every event the pipeline
precomputes the tuple of interested handlers (a sink only receives events its
class actually implements), and when exactly one sink listens -- the default
configuration, where only ``TrafficStats`` consumes charges -- the pipeline's
event attribute *is* that sink's bound method, so charging through the
pipeline costs the same attribute-load-plus-call as charging the stats object
directly.  The flyweight invariant holds end to end: one
``NetworkSimulator.transfer`` fast-path call emits exactly one ``charge_path``
event no matter how many sinks listen.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Event methods fanned out to sinks.  The charge events mirror the
#: TrafficStats signatures exactly; on_sampling_cycle is pipeline-only.
EVENTS = (
    "charge_transmission",
    "charge_path",
    "charge_paths_batch",
    "charge_broadcast",
    "charge_drop",
    "on_sampling_cycle",
)


class MetricsSink:
    """Base class for pipeline sinks: every event defaults to a no-op.

    Subclasses override only the events they care about -- the pipeline skips
    a sink entirely for events it left at the base implementation, so an
    idle-only sink adds zero overhead to the per-transfer charge path.
    Sinks may also duck-type (``TrafficStats`` does): any object whose class
    defines an event method with the matching signature participates.
    """

    #: Short identifier used to prefix summary keys and per-node series.
    name: str = "sink"

    # -- charge events (signatures mirror TrafficStats) ---------------------
    def charge_transmission(self, node_id, size_bytes, kind,
                            attempts=1, receiver=None) -> None:
        """One node transmitted a message *attempts* times."""

    def charge_path(self, path, size_bytes, kind,
                    attempts=None, num_hops=None) -> None:
        """A message crossed consecutive hops of *path* (flyweight charge)."""

    def charge_paths_batch(self, batch) -> None:
        """A whole block's charged hops, as one array-level
        :class:`~repro.network.batch.PathBatch` (batch-cycle kernel).

        The kernel's only charge event: a batch carries hop arrays with
        per-hop message counts and attempts, not the per-path calls it
        replaces, so a sink that implements ``charge_path`` or
        ``charge_drop`` must implement this too --
        :meth:`MetricsPipeline.add_sink` rejects one that does not.
        """

    def charge_broadcast(self, node_id, size_bytes, kind, receivers) -> None:
        """One local broadcast heard by *receivers*."""

    def charge_drop(self) -> None:
        """A message was dropped (link loss or a dead node)."""

    # -- pipeline-only events ----------------------------------------------
    def on_sampling_cycle(self, cycle: int) -> None:
        """A sampling cycle completed (idle costs, death checks)."""

    # -- lifecycle ----------------------------------------------------------
    def attach(self, simulator) -> None:
        """Bind to the owning simulator (topology, accounting mode)."""

    def reset(self) -> None:
        """Drop accumulated state."""

    # -- results ------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Flat scalar metrics, keys prefixed with the sink name."""
        return {}

    def node_series(self) -> Dict[str, Dict[int, float]]:
        """Per-node series ``{series_name: {node_id: value}}``."""
        return {}


def _noop(*args, **kwargs) -> None:
    return None


def _implements(sink: Any, event: str) -> bool:
    """Whether *sink*'s class defines *event* beyond the no-op default."""
    impl = getattr(type(sink), event, None)
    return impl is not None and impl is not getattr(MetricsSink, event)


def _fanout(handlers: Tuple[Callable, ...]) -> Callable:
    if len(handlers) == 2:
        first, second = handlers

        def emit(*args, **kwargs):
            first(*args, **kwargs)
            second(*args, **kwargs)
        return emit
    if len(handlers) == 3:
        first, second, third = handlers

        def emit(*args, **kwargs):
            first(*args, **kwargs)
            second(*args, **kwargs)
            third(*args, **kwargs)
        return emit

    def emit(*args, **kwargs):
        for handler in handlers:
            handler(*args, **kwargs)
    return emit


def _fanout_charge_path(handlers: Tuple[Callable, ...]) -> Callable:
    """Signature-specialized fan-out for the hottest event.

    ``charge_path`` fires once per transferred tuple; packing/unpacking
    ``*args``/``**kwargs`` per listener is measurable there, so the
    multi-sink dispatcher forwards the five known parameters positionally.
    """
    if len(handlers) == 2:
        first, second = handlers

        def emit(path, size_bytes, kind, attempts=None, num_hops=None):
            first(path, size_bytes, kind, attempts, num_hops)
            second(path, size_bytes, kind, attempts, num_hops)
        return emit
    if len(handlers) == 3:
        first, second, third = handlers

        def emit(path, size_bytes, kind, attempts=None, num_hops=None):
            first(path, size_bytes, kind, attempts, num_hops)
            second(path, size_bytes, kind, attempts, num_hops)
            third(path, size_bytes, kind, attempts, num_hops)
        return emit

    def emit(path, size_bytes, kind, attempts=None, num_hops=None):
        for handler in handlers:
            handler(path, size_bytes, kind, attempts, num_hops)
    return emit


class MetricsPipeline:
    """Fans accounting events out to registered sinks.

    Event dispatchers are instance attributes rebuilt on every sink change:
    zero listeners -> a shared no-op, one listener -> that sink's bound
    method itself (the hot default: ``pipeline.charge_path`` *is*
    ``TrafficStats.charge_path``), several -> a fan-out closure.
    """

    def __init__(self, sinks: Sequence[Any] = ()) -> None:
        self._entries: List[Tuple[Any, bool]] = []
        self._rebuild()  # a sink-less pipeline dispatches every event to no-ops
        for sink in sinks:
            self.add_sink(sink)

    # -- registration -------------------------------------------------------
    def add_sink(self, sink: Any, reporting: bool = True) -> Any:
        """Register *sink*; non-``reporting`` sinks are excluded from
        :meth:`summaries` / :meth:`node_series` (the simulator's built-in
        traffic accounting, which the execution report already covers).

        Raises ``TypeError`` for a sink that takes per-path charges
        (``charge_path`` / ``charge_drop``) but not the batch kernel's
        ``charge_paths_batch``: it would silently miss every kernel charge.
        """
        if (not _implements(sink, "charge_paths_batch")
                and (_implements(sink, "charge_path")
                     or _implements(sink, "charge_drop"))):
            raise TypeError(
                f"sink {type(sink).__name__} implements charge_path / "
                "charge_drop but not charge_paths_batch, so it would miss "
                "every batch-kernel charge"
            )
        self._entries.append((sink, reporting))
        self._rebuild()
        return sink

    @property
    def sinks(self) -> List[Any]:
        return [sink for sink, _ in self._entries]

    @property
    def reporting_sinks(self) -> List[Any]:
        return [sink for sink, reporting in self._entries if reporting]

    def _rebuild(self) -> None:
        for event in EVENTS:
            handlers = [getattr(sink, event) for sink, _ in self._entries
                        if _implements(sink, event)]
            if not handlers:
                dispatcher: Callable = _noop
            elif len(handlers) == 1:
                dispatcher = handlers[0]
            elif event == "charge_path":
                dispatcher = _fanout_charge_path(tuple(handlers))
            else:
                dispatcher = _fanout(tuple(handlers))
            setattr(self, event, dispatcher)

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> None:
        """Reset every sink that supports it."""
        for sink, _ in self._entries:
            reset = getattr(sink, "reset", None)
            if reset is not None:
                reset()

    # -- results ------------------------------------------------------------
    def summaries(self) -> Dict[str, float]:
        """Merged scalar summaries of every reporting sink."""
        merged: Dict[str, float] = {}
        for sink in self.reporting_sinks:
            summary = getattr(sink, "summary", None)
            if summary is not None:
                merged.update(summary())
        return merged

    def node_series(self) -> Dict[str, Dict[int, float]]:
        """Per-node series of every reporting sink, keyed ``sink.series``."""
        merged: Dict[str, Dict[int, float]] = {}
        for sink in self.reporting_sinks:
            series_fn = getattr(sink, "node_series", None)
            if series_fn is None:
                continue
            name = getattr(sink, "name", type(sink).__name__.lower())
            for series, values in series_fn().items():
                merged[f"{name}.{series}"] = dict(values)
        return merged


def bound_node_series(values: Dict[int, float], cap: int
                      ) -> Tuple[Dict[int, float], Optional[Dict[str, float]]]:
    """Bound one per-node series to its *cap* heaviest entries.

    At 10k-1M nodes a full per-node series dominates the report's memory, so
    large-scale runs keep only the top-*cap* nodes by value (ties broken
    toward the lower node id, entries re-sorted by node id) plus
    whole-population summary statistics.  Returns ``(bounded, summary)``;
    ``summary`` is ``None`` when the series already fits, so bounded reports
    at paper scale stay byte-identical to unbounded ones.
    """
    if cap < 0:
        raise ValueError("node-series cap must be non-negative")
    if len(values) <= cap:
        return dict(values), None
    ranked = sorted(values.items(), key=lambda item: (-item[1], item[0]))
    bounded = dict(sorted(ranked[:cap]))
    population = list(values.values())
    total = float(sum(population))
    summary = {
        "nodes": float(len(population)),
        "kept": float(cap),
        "sum": total,
        "mean": total / len(population),
        "max": float(max(population)),
        "min": float(min(population)),
    }
    return bounded, summary
