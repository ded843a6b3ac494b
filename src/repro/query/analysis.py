"""Query preprocessing: CNF classification and routing-predicate matching.

When a query is posed at the base station, the preprocessor separates the
predicates into selections and joins, then each group into static and dynamic
subgroups.  Each static join predicate is fed into a pattern matcher which,
given the collection of summaries built on static attributes, decides whether
the predicate is suitable for content routing; the remaining ("secondary")
join predicates are evaluated after the routing stage (Appendix B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.query.cnf import to_cnf
from repro.query.expressions import (
    _COMPARISONS as _COMPARISON_OPS,
    AttributeRef,
    BinaryOp,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    NotVectorizable,
    Predicate,
    conjunction,
)
from repro.query.query import JoinQuery
from repro.query.schema import RelationSchema


# ---------------------------------------------------------------------------
# routing predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EqualityRouting:
    """A static equijoin clause usable for value-indexed content routing.

    ``search_alias`` nodes compute ``required_value_expr`` over their own
    static attributes and search for ``indexed_alias`` nodes whose
    ``indexed_attribute`` equals that value.
    """

    search_alias: str
    indexed_alias: str
    indexed_attribute: str
    required_value_expr: Expression

    @cached_property
    def _required_value(self) -> Callable[[Dict[str, Any]], Any]:
        return self.required_value_expr.compile_single(self.search_alias)

    def required_value(self, search_attrs: Dict[str, Any]) -> Any:
        return self._required_value(search_attrs)


@dataclass(frozen=True)
class RegionRouting:
    """A static region clause: targets within *radius* of the searcher."""

    search_alias: str
    indexed_alias: str
    radius: float


RoutingPredicate = Any  # EqualityRouting | RegionRouting (kept simple for 3.9)


# ---------------------------------------------------------------------------
# compiled kernels
# ---------------------------------------------------------------------------

Columns = Dict[str, np.ndarray]


@dataclass(frozen=True)
class SelectionKernel:
    """One relation's dynamic selection clauses, compiled twice.

    ``scalar`` is the fused closure over one attribute dict; ``array`` the
    same conjunction over columns (one sender mask per call), or ``None``
    when some clause has no array form.  Either reads only ``attributes``.
    """

    attributes: Tuple[str, ...]
    scalar: Callable[[Dict[str, Any]], Any]
    array: Optional[Callable[[Columns], Any]]


@dataclass(frozen=True)
class JoinKernel:
    """The dynamic join clauses, compiled twice.

    ``scalar(source_attrs, target_attrs)`` is the closure windowed-join
    probes have always run; ``array(source_columns, target_columns)`` the
    same conjunction over columns that broadcast against each other, or
    ``None`` when some clause has no array form.  The two attribute tuples
    are what each side's tuples must carry for either to run.
    """

    source_attributes: Tuple[str, ...]
    target_attributes: Tuple[str, ...]
    scalar: Callable[[Dict[str, Any], Dict[str, Any]], bool]
    array: Optional[Callable[[Columns, Columns], Any]]


def _attributes_of(clauses: List[Predicate], alias: str) -> Tuple[str, ...]:
    return tuple(sorted({
        attribute
        for clause in clauses
        for relation, attribute in clause.referenced_attributes()
        if relation == alias
    }))


def _array_conjunction(clauses: List[Predicate]):
    try:
        return conjunction([clause.compile_array() for clause in clauses])
    except NotVectorizable:
        return None


# ---------------------------------------------------------------------------
# analysis result
# ---------------------------------------------------------------------------

@dataclass
class QueryAnalysis:
    """The classified clauses of one query."""

    query: JoinQuery
    static_selections: Dict[str, List[Predicate]] = field(default_factory=dict)
    dynamic_selections: Dict[str, List[Predicate]] = field(default_factory=dict)
    static_join_clauses: List[Predicate] = field(default_factory=list)
    dynamic_join_clauses: List[Predicate] = field(default_factory=list)
    routing_predicate: Optional[RoutingPredicate] = None
    secondary_static_join_clauses: List[Predicate] = field(default_factory=list)

    # -- compiled evaluators ------------------------------------------------
    # Clause lists are fixed once analysis is done, so each evaluator is
    # compiled into a fused closure on first use.  Selections compile against
    # the single relation's attribute dict (no per-call bindings dict); join
    # clauses whose two sides each read one relation compile into direct
    # two-argument comparisons.  Results are identical to interpreting the
    # expression trees -- this only removes the per-call tree walk, which
    # dominates the per-cycle selection and windowed-join hot paths.
    def _compiled_selection(self, cache_name: str, alias: str, clauses: List[Predicate]):
        cache = self.__dict__.setdefault(cache_name, {})
        fn = cache.get(alias)
        if fn is None:
            compiled = tuple(clause.compile_single(alias) for clause in clauses)
            if not compiled:
                fn = lambda attrs: True  # noqa: E731
            elif len(compiled) == 1:
                fn = compiled[0]
            else:
                fn = lambda attrs: all(c(attrs) for c in compiled)  # noqa: E731
            cache[alias] = fn
        return fn

    def _compile_pair_clause(self, clause: Predicate):
        """Compile one join clause to ``fn(source_attrs, target_attrs)``."""
        source_alias = self.query.source.alias
        target_alias = self.query.target.alias
        if isinstance(clause, Comparison):
            left_rels = clause.left.relations()
            right_rels = clause.right.relations()
            operator = _COMPARISON_OPS[clause.op]
            plain_refs = isinstance(clause.left, AttributeRef) and isinstance(
                clause.right, AttributeRef
            )
            if left_rels <= {source_alias} and right_rels <= {target_alias}:
                if plain_refs:  # e.g. "S.u = T.u": direct dict lookups
                    la, ra = clause.left.attribute, clause.right.attribute
                    return lambda s, t: bool(operator(s[la], t[ra]))
                left = clause.left.compile_single(source_alias)
                right = clause.right.compile_single(target_alias)
                return lambda s, t: bool(operator(left(s), right(t)))
            if left_rels <= {target_alias} and right_rels <= {source_alias}:
                if plain_refs:
                    la, ra = clause.left.attribute, clause.right.attribute
                    return lambda s, t: bool(operator(t[la], s[ra]))
                left = clause.left.compile_single(target_alias)
                right = clause.right.compile_single(source_alias)
                return lambda s, t: bool(operator(left(t), right(s)))
        compiled = clause.compile()
        return lambda s, t: bool(compiled({source_alias: s, target_alias: t}))

    def _compiled_pair(self, cache_name: str, clauses: List[Predicate]):
        fn = self.__dict__.get(cache_name)
        if fn is None:
            compiled = tuple(self._compile_pair_clause(c) for c in clauses)
            if not compiled:
                fn = lambda s, t: True  # noqa: E731
            elif len(compiled) == 1:
                fn = compiled[0]
            else:
                fn = lambda s, t: all(c(s, t) for c in compiled)  # noqa: E731
            self.__dict__[cache_name] = fn
        return fn

    def selection_kernel(self, alias: str) -> SelectionKernel:
        """The dynamic selections of *alias* as scalar and array kernels."""
        cache = self.__dict__.setdefault("_c_selection_kernels", {})
        kernel = cache.get(alias)
        if kernel is None:
            clauses = self.dynamic_selections.get(alias, [])
            array = _array_conjunction(clauses)
            kernel = cache[alias] = SelectionKernel(
                attributes=_attributes_of(clauses, alias),
                scalar=self._compiled_selection("_c_dynamic_sel", alias, clauses),
                array=None if array is None
                else (lambda columns: array({alias: columns})),
            )
        return kernel

    def join_kernel(self) -> JoinKernel:
        """The dynamic join clauses as scalar and array kernels."""
        kernel = self.__dict__.get("_c_join_kernel")
        if kernel is None:
            source_alias, target_alias = self.query.aliases
            clauses = self.dynamic_join_clauses
            array = _array_conjunction(clauses)
            kernel = self.__dict__["_c_join_kernel"] = JoinKernel(
                source_attributes=_attributes_of(clauses, source_alias),
                target_attributes=_attributes_of(clauses, target_alias),
                scalar=self.compiled_tuples_join(),
                array=None if array is None else (
                    lambda source, target: array(
                        {source_alias: source, target_alias: target}
                    )
                ),
            )
        return kernel

    # -- evaluation helpers -------------------------------------------------
    def static_selection(self, alias: str) -> Callable[[Dict[str, Any]], bool]:
        """:meth:`node_eligible` for *alias* with the clauses resolved once,
        for loops over every node of a deployment."""
        fn = self._compiled_selection(
            "_c_static_sel", alias, self.static_selections.get(alias, [])
        )

        def eligible(static_attrs: Dict[str, Any]) -> bool:
            try:
                return bool(fn(static_attrs))
            except KeyError:
                return False

        return eligible

    def node_eligible(self, alias: str, static_attrs: Dict[str, Any]) -> bool:
        """Pre-evaluate static selections: may this node produce for *alias*?"""
        fn = self._compiled_selection(
            "_c_static_sel", alias, self.static_selections.get(alias, [])
        )
        try:
            return bool(fn(static_attrs))
        except KeyError:
            return False

    def pair_joins_statically(
        self, source_attrs: Dict[str, Any], target_attrs: Dict[str, Any]
    ) -> bool:
        """Pre-evaluate every static join clause for an (s, t) pair."""
        fn = self._compiled_pair("_c_static_join", self.static_join_clauses)
        return fn(source_attrs, target_attrs)

    def compiled_tuples_join(self):
        """The dynamic join clauses as one fused ``fn(source_attrs,
        target_attrs)`` closure: does a pair of tuples join?

        Join probes run this hundreds of thousands of times per experiment,
        so callers bind the closure once.
        """
        return self._compiled_pair("_c_dynamic_join", self.dynamic_join_clauses)

# ---------------------------------------------------------------------------
# clause classification
# ---------------------------------------------------------------------------

def _clause_is_static(clause: Predicate, schemas: Dict[str, RelationSchema]) -> bool:
    for relation, attribute in clause.referenced_attributes():
        schema = schemas.get(relation)
        if schema is None or not schema.has_attribute(attribute):
            return False
        if not schema.is_static(attribute):
            return False
    return True


def _single_relation(clause: Predicate) -> Optional[str]:
    relations = clause.relations()
    if len(relations) == 1:
        return next(iter(relations))
    return None


def _invert_to_attribute(
    expr: Expression, alias: str
) -> Optional[Tuple[str, Expression]]:
    """If *expr* is ``alias.attr`` possibly offset by a literal, invert it.

    Returns ``(attribute, inverse)`` such that ``alias.attr == inverse(other
    side)`` -- i.e. the expression the *other* side must equal, rewritten so
    it can be computed without alias's attributes.  ``inverse`` is returned as
    a transformation applied later; here we only support the identity and
    ``attr +/- literal`` forms, which cover the paper's workload
    (e.g. ``S.x = T.y + 5``).
    """
    if isinstance(expr, AttributeRef) and expr.relation == alias:
        return expr.attribute, Literal(0)
    if isinstance(expr, BinaryOp) and expr.op in {"+", "-"}:
        left, right = expr.left, expr.right
        if (
            isinstance(left, AttributeRef)
            and left.relation == alias
            and isinstance(right, Literal)
        ):
            # alias.attr + c  ->  offset = -c for '+', +c for '-'
            offset = -right.value if expr.op == "+" else right.value
            return left.attribute, Literal(offset)
        if (
            expr.op == "+"
            and isinstance(right, AttributeRef)
            and right.relation == alias
            and isinstance(left, Literal)
        ):
            return right.attribute, Literal(-left.value)
    return None


def _match_equality_routing(
    clause: Comparison, source_alias: str, target_alias: str
) -> Optional[EqualityRouting]:
    """Try to use an equality clause for value-indexed routing."""
    if clause.op != "=":
        return None
    sides = [clause.left, clause.right]
    for search_side, indexed_side in (sides, list(reversed(sides))):
        search_relations = search_side.relations()
        indexed_relations = indexed_side.relations()
        if len(search_relations) != 1 or len(indexed_relations) != 1:
            continue
        search_alias = next(iter(search_relations))
        indexed_alias = next(iter(indexed_relations))
        if search_alias == indexed_alias:
            continue
        inverted = _invert_to_attribute(indexed_side, indexed_alias)
        if inverted is None:
            continue
        attribute, offset = inverted
        # required value = search_side + offset
        required = (
            search_side if offset.value == 0
            else BinaryOp("+", search_side, offset)
        )
        return EqualityRouting(
            search_alias=search_alias,
            indexed_alias=indexed_alias,
            indexed_attribute=attribute,
            required_value_expr=required,
        )
    return None


def _match_region_routing(
    clause: Comparison, source_alias: str, target_alias: str
) -> Optional[RegionRouting]:
    """Match ``dist(S.pos, T.pos) < radius`` style clauses."""
    if clause.op not in {"<", "<="}:
        return None
    if not isinstance(clause.left, FunctionCall) or clause.left.name != "dist":
        return None
    if not isinstance(clause.right, Literal):
        return None
    relations = clause.left.relations()
    if relations != {source_alias, target_alias}:
        return None
    return RegionRouting(
        search_alias=source_alias,
        indexed_alias=target_alias,
        radius=float(clause.right.value),
    )


def analyze_query(query: JoinQuery) -> QueryAnalysis:
    """Classify the query's CNF clauses and pick a routing predicate."""
    schemas = {
        query.source.alias: query.source.schema,
        query.target.alias: query.target.schema,
    }
    analysis = QueryAnalysis(
        query=query,
        static_selections={alias: [] for alias in query.aliases},
        dynamic_selections={alias: [] for alias in query.aliases},
    )
    for clause in to_cnf(query.where):
        relations = clause.relations()
        if not relations:
            # Constant clause; applies to both relations as a dynamic filter.
            for alias in query.aliases:
                analysis.dynamic_selections[alias].append(clause)
            continue
        single = _single_relation(clause)
        if single is not None:
            if single not in schemas:
                raise KeyError(
                    f"clause {clause} references unknown relation {single!r}"
                )
            bucket = (
                analysis.static_selections
                if _clause_is_static(clause, schemas)
                else analysis.dynamic_selections
            )
            bucket[single].append(clause)
            continue
        # Join clause.
        if _clause_is_static(clause, schemas):
            analysis.static_join_clauses.append(clause)
        else:
            analysis.dynamic_join_clauses.append(clause)

    # Pattern-match a primary routing predicate among the static join clauses.
    for clause in analysis.static_join_clauses:
        if not isinstance(clause, Comparison):
            continue
        match = _match_equality_routing(clause, *query.aliases)
        if match is None:
            match = _match_region_routing(clause, *query.aliases)
        if match is not None:
            analysis.routing_predicate = match
            analysis.secondary_static_join_clauses = [
                c for c in analysis.static_join_clauses if c is not clause
            ]
            break
    else:
        analysis.secondary_static_join_clauses = list(analysis.static_join_clauses)
    return analysis
