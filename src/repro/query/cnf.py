"""Conversion of predicates to conjunctive normal form.

When Aspen receives a query it converts it to CNF and disseminates it to all
nodes (Sections 2 and 3); the analyzer then classifies each conjunct as a
static/dynamic selection or join clause.  The transformation is the textbook
one: push negations inward (De Morgan), then distribute OR over AND.
"""

from __future__ import annotations

from typing import List

from repro.query.expressions import (
    And,
    BoolLiteral,
    Comparison,
    Not,
    Or,
    Predicate,
)


def push_negations(predicate: Predicate) -> Predicate:
    """Return an equivalent predicate with NOT applied only to comparisons."""
    if isinstance(predicate, Not):
        inner = predicate.operand
        if isinstance(inner, Not):
            return push_negations(inner.operand)
        if isinstance(inner, And):
            return Or(*[push_negations(Not(op)) for op in inner.operands])
        if isinstance(inner, Or):
            return And(*[push_negations(Not(op)) for op in inner.operands])
        if isinstance(inner, Comparison):
            return inner.negated()
        if isinstance(inner, BoolLiteral):
            return BoolLiteral(not inner.value)
        return predicate
    if isinstance(predicate, And):
        return And(*[push_negations(op) for op in predicate.operands])
    if isinstance(predicate, Or):
        return Or(*[push_negations(op) for op in predicate.operands])
    return predicate


def _distribute(predicate: Predicate) -> Predicate:
    """Distribute OR over AND until the predicate is in CNF."""
    if isinstance(predicate, And):
        return And(*[_distribute(op) for op in predicate.operands])
    if isinstance(predicate, Or):
        operands = [_distribute(op) for op in predicate.operands]
        # Find an AND inside the OR to distribute over.
        for index, operand in enumerate(operands):
            if isinstance(operand, And):
                rest = operands[:index] + operands[index + 1 :]
                distributed = And(
                    *[_distribute(Or(conjunct, *rest)) for conjunct in operand.operands]
                )
                return distributed
        return Or(*operands)
    return predicate


def to_cnf(predicate: Predicate) -> List[Predicate]:
    """Convert to CNF and return the list of conjuncts (clauses).

    Each returned clause is either a simple predicate (comparison or Boolean
    literal) or a disjunction of simple predicates.
    """
    normalized = _distribute(push_negations(predicate))
    if isinstance(normalized, And):
        clauses: List[Predicate] = []
        for operand in normalized.operands:
            if isinstance(operand, And):  # flattened by And.__init__, but be safe
                clauses.extend(operand.operands)
            else:
                clauses.append(operand)
        return clauses
    return [normalized]
