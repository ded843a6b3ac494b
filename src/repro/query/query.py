"""The windowed join query container.

A :class:`JoinQuery` is the unit of work handed to the sensor query subsystem
by the federated optimizer: a windowed join ``S JOIN T ON theta`` with
selection predicates over each relation, a tuple window size ``w`` and a
sampling interval (Section 2, Appendix B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.query.expressions import AttributeRef, Predicate, TRUE
from repro.query.schema import RelationSchema, SENSOR_SCHEMA


@dataclass(frozen=True)
class RelationSpec:
    """One side of the join: an alias over the sensor schema."""

    alias: str
    schema: RelationSchema = field(default_factory=lambda: SENSOR_SCHEMA)

    def __post_init__(self) -> None:
        if not self.alias:
            raise ValueError("relation alias must be non-empty")


@dataclass
class JoinQuery:
    """A select-project-single-join query over two sensor relations.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. ``"query1"``).
    source / target:
        The two relation specs; by convention source nodes *search* for
        target nodes during initiation (Section 2.2).
    where:
        The full WHERE predicate (selections plus join conditions).  It is
        converted to CNF and classified by :func:`repro.query.analysis.analyze_query`.
    window_size:
        Tuple-based window size ``w`` maintained per producer pair.
    sample_interval:
        The query's ``sampleinterval`` (transmission cycles per sampling
        cycle; the paper uses 100).  Parsed and validated; the simulator
        counts sampling cycles only, so execution does not read it.
    projection:
        Attributes included in join results (affects result message size).
    """

    name: str
    source: RelationSpec
    target: RelationSpec
    where: Predicate = TRUE
    window_size: int = 1
    sample_interval: int = 100
    projection: List[AttributeRef] = field(default_factory=list)
    start_cycle: int = 0
    end_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be at least 1")
        if self.sample_interval < 1:
            raise ValueError("sample_interval must be at least 1")
        if self.source.alias == self.target.alias:
            raise ValueError("source and target aliases must differ")

    @property
    def aliases(self) -> Tuple[str, str]:
        return (self.source.alias, self.target.alias)

    def alias_for(self, relation: str) -> RelationSpec:
        if relation == self.source.alias:
            return self.source
        if relation == self.target.alias:
            return self.target
        raise KeyError(f"query {self.name!r} has no relation {relation!r}")

    def opposite_alias(self, alias: str) -> str:
        source_alias, target_alias = self.aliases
        if alias == source_alias:
            return target_alias
        if alias == target_alias:
            return source_alias
        raise KeyError(f"query {self.name!r} has no relation {alias!r}")

    def result_width(self) -> int:
        """Number of projected attributes (for result-message sizing)."""
        return max(2, len(self.projection))
