"""Tests for the StreamSQL parser and the query analyzer."""

import pytest

from repro.query import (
    AttributeRef,
    Comparison,
    JoinQuery,
    RelationSpec,
    analyze_query,
    parse_query,
)
from repro.query.analysis import EqualityRouting, RegionRouting
from repro.query.expressions import And, FunctionCall, Literal, hash16
from repro.query.parser import QueryParseError

QUERY1_SQL = """
SELECT S.id, T.id, S.localtime
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 25 AND hash(S.u) % 2 = 0
  AND T.id > 50 AND hash(T.u) % 2 = 0
  AND S.x = T.y + 5 AND S.u = T.u
"""


class TestParser:
    def test_parse_query1(self):
        query = parse_query(QUERY1_SQL, name="query1")
        assert isinstance(query, JoinQuery)
        assert query.window_size == 3
        assert query.aliases == ("S", "T")
        assert query.projection[0] == AttributeRef("S", "id")
        assert len(query.projection) == 3

    def test_parse_defaults_without_window_spec(self):
        query = parse_query("SELECT S.id, T.id FROM S, T WHERE S.u = T.u")
        assert query.window_size == 1

    def test_parse_no_where(self):
        query = parse_query("SELECT S.id, T.id FROM S, T")
        assert query.where.evaluate({})

    def test_parenthesized_boolean(self):
        query = parse_query(
            "SELECT S.id, T.id FROM S, T WHERE (S.u = T.u OR S.x = T.y) AND S.id < 5"
        )
        analysis = analyze_query(query)
        assert analysis.static_selections["S"]

    def test_parenthesized_arithmetic(self):
        query = parse_query(
            "SELECT S.id, T.id FROM S, T WHERE (S.x + 1) * 2 = T.y"
        )
        clause = query.where
        assert isinstance(clause, Comparison)

    def test_operator_precedence(self):
        query = parse_query(
            "SELECT S.id, T.id FROM S, T WHERE S.x + 2 * 3 = T.y"
        )
        bindings = {"S": {"x": 4}, "T": {"y": 10}}
        assert query.where.evaluate(bindings)

    def test_not_and_inequality(self):
        query = parse_query(
            "SELECT S.id, T.id FROM S, T WHERE NOT S.id = 3 AND S.x <> T.y"
        )
        bindings = {"S": {"id": 4, "x": 1}, "T": {"y": 2}}
        assert query.where.evaluate(bindings)

    def test_function_call_and_modulo(self):
        query = parse_query(
            "SELECT S.id, T.id FROM S, T WHERE hash(S.u) % 2 = 0"
        )
        value = next(v for v in range(100) if hash16(v) % 2 == 0)
        assert query.where.evaluate({"S": {"u": value}, "T": {}})

    def test_unary_minus(self):
        query = parse_query("SELECT S.id, T.id FROM S, T WHERE S.x > -5")
        assert query.where.evaluate({"S": {"x": 0}, "T": {}})

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "SELECT FROM S, T",
            "SELECT S.id FROM S",                      # only one relation
            "SELECT S.id, T.id FROM S, T WHERE S.id",  # missing comparison
            "SELECT S.id, T.id FROM S, T [bogus=3]",
            "SELECT id FROM S, T",                     # unqualified attribute
            "SELECT S.id, T.id FROM S, T WHERE S.id < 5 extra",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(QueryParseError):
            parse_query(bad)


class TestAnalyzer:
    def test_query1_classification(self):
        analysis = analyze_query(parse_query(QUERY1_SQL, name="query1"))
        # Static selections: id bounds for both relations.
        assert len(analysis.static_selections["S"]) == 1
        assert len(analysis.static_selections["T"]) == 1
        # Dynamic selections: the hash(u) producer filters.
        assert len(analysis.dynamic_selections["S"]) == 1
        assert len(analysis.dynamic_selections["T"]) == 1
        # Join clauses: S.x = T.y + 5 static (routable), S.u = T.u dynamic.
        assert len(analysis.static_join_clauses) == 1
        assert len(analysis.dynamic_join_clauses) == 1
        routing = analysis.routing_predicate
        assert isinstance(routing, EqualityRouting)
        assert routing.indexed_attribute == "y"
        assert routing.indexed_alias == "T"
        # S.x = T.y + 5  =>  for a node with x=12 the matching T.y is 7.
        assert routing.required_value({"x": 12}) == 7
        assert analysis.secondary_static_join_clauses == []

    def test_eligibility_and_producer_filter(self):
        analysis = analyze_query(parse_query(QUERY1_SQL, name="query1"))
        assert analysis.node_eligible("S", {"id": 10})
        assert not analysis.node_eligible("S", {"id": 30})
        assert analysis.node_eligible("T", {"id": 60})
        even_u = next(v for v in range(100) if hash16(v) % 2 == 0)
        odd_u = next(v for v in range(100) if hash16(v) % 2 == 1)
        assert analysis.producer_sends("S", {"u": even_u})
        assert not analysis.producer_sends("S", {"u": odd_u})

    def test_tuples_join_dynamic_clause(self):
        analysis = analyze_query(parse_query(QUERY1_SQL, name="query1"))
        assert analysis.tuples_join({"u": 3}, {"u": 3})
        assert not analysis.tuples_join({"u": 3}, {"u": 4})
        assert analysis.dynamic_join_clauses

    def test_secondary_static_join_clause(self):
        # Query 2 style: two static join clauses; one is picked for routing.
        query = parse_query(
            "SELECT S.id, T.id FROM S, T "
            "WHERE S.rid = 0 AND T.rid = 3 AND S.cid = T.cid "
            "AND S.id % 4 = T.id % 4 AND S.u = T.u",
            name="query2",
        )
        analysis = analyze_query(query)
        assert len(analysis.static_join_clauses) == 2
        assert isinstance(analysis.routing_predicate, EqualityRouting)
        assert analysis.routing_predicate.indexed_attribute == "cid"
        assert len(analysis.secondary_static_join_clauses) == 1
        # Pair-level static check combines both clauses.
        assert analysis.pair_joins_statically(
            {"cid": 2, "id": 8}, {"cid": 2, "id": 12}
        )
        assert not analysis.pair_joins_statically(
            {"cid": 2, "id": 8}, {"cid": 2, "id": 13}
        )

    def test_region_routing_predicate(self):
        query = parse_query(
            "SELECT S.id, T.id FROM S, T "
            "WHERE dist(S.pos, T.pos) < 5 AND S.id < T.id "
            "AND abs(S.v - T.v) > 1000",
            name="query3",
        )
        analysis = analyze_query(query)
        routing = analysis.routing_predicate
        assert isinstance(routing, RegionRouting)
        assert routing.radius == 5.0
        assert len(analysis.secondary_static_join_clauses) == 1
        assert len(analysis.dynamic_join_clauses) == 1
        assert analysis.tuples_join({"v": 3000}, {"v": 500})
        assert not analysis.tuples_join({"v": 1200}, {"v": 900})

    def test_no_routable_join(self):
        # Purely dynamic join: nothing to pattern-match.
        query = parse_query(
            "SELECT S.id, T.id FROM S, T WHERE S.u = T.u", name="query0"
        )
        analysis = analyze_query(query)
        assert analysis.routing_predicate is None
        assert analysis.static_join_clauses == []
        assert len(analysis.dynamic_join_clauses) == 1

    def test_node_eligible_missing_attribute_is_false(self):
        analysis = analyze_query(parse_query(QUERY1_SQL, name="query1"))
        assert not analysis.node_eligible("S", {})

    def test_unknown_relation_in_clause_rejected(self):
        query = JoinQuery(
            name="bad",
            source=RelationSpec("S"),
            target=RelationSpec("T"),
            where=Comparison("<", AttributeRef("Z", "id"), Literal(3)),
        )
        with pytest.raises(KeyError):
            analyze_query(query)

    def test_constant_clause_goes_to_both(self):
        query = JoinQuery(
            name="const",
            source=RelationSpec("S"),
            target=RelationSpec("T"),
            where=Comparison("=", Literal(1), Literal(1)),
        )
        analysis = analyze_query(query)
        assert analysis.dynamic_selections["S"]
        assert analysis.dynamic_selections["T"]


class TestJoinQueryValidation:
    def test_window_and_interval_validation(self):
        with pytest.raises(ValueError):
            JoinQuery(name="q", source=RelationSpec("S"), target=RelationSpec("T"),
                      window_size=0)
        # sampleinterval is the paper's StreamSQL syntax: checked, not modelled
        assert parse_query("SELECT S.id FROM S, T [sampleinterval=1]").window_size == 1
        with pytest.raises(QueryParseError, match="sampleinterval"):
            parse_query("SELECT S.id FROM S, T [windowsize=2 sampleinterval=0]")

    def test_alias_clash_rejected(self):
        with pytest.raises(ValueError):
            JoinQuery(name="q", source=RelationSpec("S"), target=RelationSpec("S"))

    def test_alias_helpers(self):
        query = JoinQuery(name="q", source=RelationSpec("S"), target=RelationSpec("T"))
        assert query.aliases == ("S", "T")
        assert query.result_width() == 2

    def test_empty_alias_rejected(self):
        with pytest.raises(ValueError):
            RelationSpec(alias="")
