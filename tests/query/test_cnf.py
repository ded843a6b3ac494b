"""Tests for CNF conversion."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import And, AttributeRef, Comparison, Literal, Not, Or, to_cnf
from repro.query.cnf import push_negations
from repro.query.expressions import BoolLiteral


def _cmp(attr, op, value):
    return Comparison(op, AttributeRef("S", attr), Literal(value))


A = _cmp("a", "<", 5)
B = _cmp("b", "=", 1)
C = _cmp("c", ">", 0)


def _evaluate_clauses(clauses, bindings):
    return all(clause.evaluate(bindings) for clause in clauses)


class TestPushNegations:
    def test_double_negation(self):
        assert push_negations(Not(Not(A))) == A

    def test_de_morgan_and(self):
        result = push_negations(Not(And(A, B)))
        assert isinstance(result, Or)
        ops = {str(op) for op in result.operands}
        assert str(A.negated()) in ops
        assert str(B.negated()) in ops

    def test_de_morgan_or(self):
        result = push_negations(Not(Or(A, B)))
        assert isinstance(result, And)

    def test_negated_bool_literal(self):
        assert push_negations(Not(BoolLiteral(True))) == BoolLiteral(False)


class TestToCnf:
    def test_simple_comparison(self):
        assert to_cnf(A) == [A]

    def test_conjunction_splits_into_clauses(self):
        clauses = to_cnf(And(A, B, C))
        assert len(clauses) == 3

    def test_disjunction_is_single_clause(self):
        clauses = to_cnf(Or(A, B))
        assert len(clauses) == 1
        assert isinstance(clauses[0], Or)

    def test_distribution(self):
        # A OR (B AND C)  ->  (A OR B) AND (A OR C)
        clauses = to_cnf(Or(A, And(B, C)))
        assert len(clauses) == 2
        assert all(isinstance(clause, Or) for clause in clauses)

    def test_nested_structure(self):
        predicate = And(Or(A, And(B, C)), Not(Or(A, B)))
        clauses = to_cnf(predicate)
        assert len(clauses) >= 3


class TestEquivalence:
    """CNF must be logically equivalent to the original predicate."""

    def _all_bindings(self):
        for a, b, c in itertools.product([0, 10], [0, 1], [-1, 1]):
            yield {"S": {"a": a, "b": b, "c": c}}

    @pytest.mark.parametrize(
        "predicate",
        [
            And(A, B),
            Or(A, B),
            Or(A, And(B, C)),
            And(Or(A, B), C),
            Not(And(A, Or(B, C))),
            Or(And(A, B), And(B, C)),
            Not(Or(Not(A), And(B, Not(C)))),
        ],
    )
    def test_cnf_equivalent(self, predicate):
        clauses = to_cnf(predicate)
        for bindings in self._all_bindings():
            assert _evaluate_clauses(clauses, bindings) == predicate.evaluate(bindings)


@st.composite
def predicates(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.sampled_from([A, B, C]))
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return Not(draw(predicates(depth=depth + 1)))
    left = draw(predicates(depth=depth + 1))
    right = draw(predicates(depth=depth + 1))
    return And(left, right) if kind == "and" else Or(left, right)


class TestPropertyEquivalence:
    @given(predicates())
    @settings(max_examples=60, deadline=None)
    def test_random_predicates_equivalent(self, predicate):
        clauses = to_cnf(predicate)
        for a, b, c in itertools.product([0, 10], [0, 1], [-1, 1]):
            bindings = {"S": {"a": a, "b": b, "c": c}}
            assert _evaluate_clauses(clauses, bindings) == predicate.evaluate(bindings)
