"""Query model: StreamSQL-style select-project-join queries over sensor relations.

The sensor subsystem supports queries consisting of selection and join
predicates over two sensor relations (Appendix B).  This package provides:

* :mod:`repro.query.schema` -- the 28-attribute sensor relation schema, split
  into static and dynamic attributes.
* :mod:`repro.query.expressions` -- the predicate/expression AST and its
  evaluator (comparisons, Boolean and arithmetic operators, ``hash``/``abs``/
  ``dist`` utility functions).
* :mod:`repro.query.parser` -- a small StreamSQL-style parser producing
  :class:`~repro.query.query.JoinQuery` objects.
* :mod:`repro.query.cnf` -- conversion of predicates to conjunctive normal
  form (Section 2).
* :mod:`repro.query.analysis` -- the query preprocessor: separates selections
  from joins, static from dynamic clauses, and pattern-matches the primary
  join predicate usable for content routing (Appendix B).
* :mod:`repro.query.window` -- tuple-based join windows partitioned per
  producer (Section 2).
* :mod:`repro.query.query` -- the :class:`JoinQuery` container binding all of
  the above together.
"""

from repro.query.analysis import QueryAnalysis, analyze_query
from repro.query.cnf import to_cnf
from repro.query.expressions import (
    And,
    AttributeRef,
    BinaryOp,
    Comparison,
    FunctionCall,
    Literal,
    Not,
    Or,
    Predicate,
    evaluate,
    hash16,
)
from repro.query.parser import parse_query
from repro.query.query import JoinQuery, RelationSpec
from repro.query.schema import Attribute, RelationSchema, SENSOR_SCHEMA
from repro.query.window import JoinState, TupleWindow, WindowStore, WindowedTuple

__all__ = [
    "Attribute",
    "RelationSchema",
    "SENSOR_SCHEMA",
    "AttributeRef",
    "Literal",
    "BinaryOp",
    "FunctionCall",
    "Comparison",
    "And",
    "Or",
    "Not",
    "Predicate",
    "evaluate",
    "hash16",
    "to_cnf",
    "parse_query",
    "JoinQuery",
    "RelationSpec",
    "QueryAnalysis",
    "analyze_query",
    "TupleWindow",
    "WindowedTuple",
    "JoinState",
    "WindowStore",
]
