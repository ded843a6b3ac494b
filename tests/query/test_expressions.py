"""Tests for the expression AST and evaluator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import (
    And,
    AttributeRef,
    BinaryOp,
    Comparison,
    FunctionCall,
    Literal,
    Not,
    Or,
    evaluate,
    hash16,
)
from repro.query.expressions import (
    TRUE,
    FALSE,
)


BINDINGS = {"S": {"u": 4, "x": 10, "pos": (0.0, 0.0)}, "T": {"u": 4, "y": 5, "pos": (3.0, 4.0)}}


class TestScalars:
    def test_literal(self):
        assert evaluate(Literal(7), {}) == 7

    def test_attribute_ref(self):
        assert evaluate(AttributeRef("S", "u"), BINDINGS) == 4

    def test_attribute_ref_missing_relation(self):
        with pytest.raises(KeyError):
            evaluate(AttributeRef("Z", "u"), BINDINGS)

    def test_attribute_ref_missing_attribute(self):
        with pytest.raises(KeyError):
            evaluate(AttributeRef("S", "nope"), BINDINGS)

    def test_arithmetic(self):
        expr = BinaryOp("+", AttributeRef("S", "x"), Literal(5))
        assert evaluate(expr, BINDINGS) == 15
        assert evaluate(BinaryOp("%", Literal(7), Literal(3)), {}) == 1
        assert evaluate(BinaryOp("*", Literal(6), Literal(7)), {}) == 42

    def test_invalid_arithmetic_operator(self):
        with pytest.raises(ValueError):
            BinaryOp("**", Literal(1), Literal(2))

    def test_functions(self):
        assert evaluate(FunctionCall("abs", (Literal(-3),)), {}) == 3
        assert evaluate(
            FunctionCall("dist", (AttributeRef("S", "pos"), AttributeRef("T", "pos"))),
            BINDINGS,
        ) == pytest.approx(5.0)
        assert evaluate(FunctionCall("max", (Literal(1), Literal(9))), {}) == 9

    def test_unknown_function(self):
        with pytest.raises(ValueError):
            FunctionCall("frobnicate", (Literal(1),))

    def test_hash16_deterministic_and_bounded(self):
        assert hash16(42) == hash16(42)
        assert hash16(42) != hash16(43)
        for value in range(200):
            assert 0 <= hash16(value) <= 0xFFFF
        assert hash16("abc") == hash16("abc")
        assert hash16(4.0) == hash16(4)


class TestPredicates:
    def test_comparisons(self):
        assert evaluate(Comparison("=", AttributeRef("S", "u"), AttributeRef("T", "u")), BINDINGS)
        assert not evaluate(Comparison("<", Literal(5), Literal(3)), {})
        assert evaluate(Comparison("!=", Literal(5), Literal(3)), {})
        assert evaluate(Comparison(">=", Literal(5), Literal(5)), {})

    def test_invalid_comparison_operator(self):
        with pytest.raises(ValueError):
            Comparison("~", Literal(1), Literal(2))

    def test_negated(self):
        comparison = Comparison("<", Literal(1), Literal(2))
        assert comparison.negated().op == ">="
        assert Comparison("=", Literal(1), Literal(2)).negated().op == "!="

    def test_boolean_connectives(self):
        true_cmp = Comparison("=", Literal(1), Literal(1))
        false_cmp = Comparison("=", Literal(1), Literal(2))
        assert evaluate(And(true_cmp, true_cmp), {})
        assert not evaluate(And(true_cmp, false_cmp), {})
        assert evaluate(Or(false_cmp, true_cmp), {})
        assert not evaluate(Or(false_cmp, false_cmp), {})
        assert evaluate(Not(false_cmp), {})
        assert evaluate(TRUE, {})
        assert not evaluate(FALSE, {})

    def test_and_or_flatten(self):
        a = Comparison("=", Literal(1), Literal(1))
        nested = And(a, And(a, a))
        assert len(nested.operands) == 3
        nested_or = Or(a, Or(a, a))
        assert len(nested_or.operands) == 3

    def test_referenced_attributes(self):
        predicate = And(
            Comparison("=", AttributeRef("S", "u"), AttributeRef("T", "u")),
            Comparison("<", AttributeRef("S", "id"), Literal(25)),
        )
        assert predicate.referenced_attributes() == frozenset(
            {("S", "u"), ("T", "u"), ("S", "id")}
        )
        assert predicate.relations() == frozenset({"S", "T"})

    def test_relation_helpers(self):
        selection = Comparison("<", AttributeRef("S", "id"), Literal(25))
        join = Comparison("=", AttributeRef("S", "u"), AttributeRef("T", "u"))
        assert selection.relations() == frozenset({"S"})
        assert join.relations() == frozenset({"S", "T"})

    def test_str_representations(self):
        predicate = And(
            Comparison("=", AttributeRef("S", "u"), AttributeRef("T", "u")),
            Not(Comparison("<", AttributeRef("S", "id"), Literal(25))),
        )
        text = str(predicate)
        assert "S.u = T.u" in text
        assert "NOT" in text


class TestProperties:
    @given(st.integers(-(2**15), 2**15), st.integers(-(2**15), 2**15))
    @settings(max_examples=60)
    def test_comparison_semantics_match_python(self, a, b):
        bindings = {"S": {"a": a}, "T": {"b": b}}
        left, right = AttributeRef("S", "a"), AttributeRef("T", "b")
        assert evaluate(Comparison("<", left, right), bindings) == (a < b)
        assert evaluate(Comparison("=", left, right), bindings) == (a == b)
        assert evaluate(Comparison(">=", left, right), bindings) == (a >= b)

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=60)
    def test_hash16_in_range(self, value):
        assert 0 <= hash16(value) <= 0xFFFF
