"""The windowed join query container.

A :class:`JoinQuery` is the unit of work handed to the sensor query subsystem
by the federated optimizer: a windowed join ``S JOIN T ON theta`` with
selection predicates over each relation, a tuple window size ``w`` and a
sampling interval (Section 2, Appendix B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

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
    projection:
        Attributes included in join results (affects result message size).
    """

    name: str
    source: RelationSpec
    target: RelationSpec
    where: Predicate = TRUE
    window_size: int = 1
    projection: List[AttributeRef] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be at least 1")
        if self.source.alias == self.target.alias:
            raise ValueError("source and target aliases must differ")

    @property
    def aliases(self) -> Tuple[str, str]:
        return (self.source.alias, self.target.alias)

    def result_width(self) -> int:
        """Number of projected attributes (for result-message sizing)."""
        return max(2, len(self.projection))
