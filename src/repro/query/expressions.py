"""Predicate and expression AST.

Selection and join predicates can include standard comparisons and Boolean
operations, the standard arithmetic operators and a handful of utility
functions such as hash functions (Appendix B).  The AST here is deliberately
small and explicit: expressions evaluate against a *binding* mapping relation
aliases (``"S"``, ``"T"``) to attribute dictionaries, and predicates report
which (relation, attribute) pairs they reference so the analyzer can separate
static from dynamic clauses.

Each node has two walkers.  :meth:`Expression.closure` is the scalar one:
given ``read(ref)``, the accessor of an attribute in one kind of environment,
it folds the tree into nested closures over that environment.
:meth:`~Expression.compile` runs it over a bindings dict,
:meth:`~Expression.compile_single` over one relation's attribute dict, and
:meth:`~Expression.evaluate` is the compiled closure applied once.
:meth:`~Expression.compile_array` is the array walker: numpy kernels over
attribute columns, refusing (:class:`NotVectorizable`) every shape numpy
would not evaluate exactly like Python.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Sequence, Tuple

import numpy as np

Bindings = Dict[str, Dict[str, Any]]
AttrRef = Tuple[str, str]
CompiledExpression = Callable[[Bindings], Any]
#: ``read(ref)``: the accessor of one attribute reference in an environment.
Reader = Callable[["AttributeRef"], Callable[[Any], Any]]
#: Relation alias -> attribute -> numeric column; columns of the two
#: relations only need to broadcast against each other.
ArrayBindings = Dict[str, Dict[str, np.ndarray]]
CompiledArray = Callable[[ArrayBindings], Any]

#: Largest integer magnitude a numeric column may hold (see
#: :func:`as_column`) and largest magnitude any integer intermediate of an
#: array kernel may reach.  Below 2**53 int64 never wraps and an int mixed
#: with a float converts exactly, so numpy computes what Python would.
ARRAY_INT_LIMIT = 2 ** 31
_EXACT_LIMIT = 2 ** 53


class NotVectorizable(Exception):
    """This expression has no array kernel; evaluate it with the closure."""


def as_column(values: Any) -> np.ndarray:
    """One attribute's values as a 1-d column: numeric if numpy can stand in
    for Python on them, an object array of the untouched values otherwise.

    Numeric means all ``bool``, all ``float``, or all ``int`` within
    :data:`ARRAY_INT_LIMIT`; mixed types, tuples (``pos``), strings, ``None``
    and wider integers stay Python objects and take the scalar kernels.
    """
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        if kind in "bf" or kind == "O":
            return values
        if kind in "iu" and (
            not values.size or int(np.abs(values).max()) <= ARRAY_INT_LIMIT
        ):
            return values.astype(np.int64, copy=False)
        values = values.tolist()
    types = set(map(type, values))
    if types == {int}:
        if max(map(abs, values)) <= ARRAY_INT_LIMIT:
            return np.array(values, dtype=np.int64)
    elif types == {float}:
        return np.array(values, dtype=np.float64)
    elif types == {bool}:
        return np.array(values, dtype=bool)
    column = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        column[index] = value
    return column


def _magnitude(expression: "Expression") -> float:
    """Upper bound on an arithmetic expression's absolute value when every
    integer column is within :data:`ARRAY_INT_LIMIT`."""
    if isinstance(expression, Literal):
        return abs(expression.value)
    if isinstance(expression, AttributeRef):
        return ARRAY_INT_LIMIT
    if isinstance(expression, BinaryOp):
        left, right = _magnitude(expression.left), _magnitude(expression.right)
        if expression.op in "+-":
            return left + right
        if expression.op == "*":
            return left * right
        # '/' and '%' only vectorize over a non-zero literal divisor
        return left / right if expression.op == "/" else right
    if isinstance(expression, FunctionCall):
        return max(_magnitude(arg) for arg in expression.args)
    raise NotVectorizable(str(expression))


def hash16(value: Any) -> int:
    """Deterministic 16-bit hash used by the ``hash()`` query function.

    The mote implementation hashes 16-bit integers; we use a Knuth-style
    multiplicative hash so results are stable across processes and platforms
    (Python's built-in ``hash`` is salted).
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int):
        value = sum(bytearray(str(value).encode("utf-8")))
    return ((value * 40503) ^ (value >> 7)) & 0xFFFF


def _euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    return math.dist(tuple(float(x) for x in a), tuple(float(x) for x in b))


_FUNCTIONS = {
    "hash": lambda args: hash16(args[0]),
    "abs": lambda args: abs(args[0]),
    "min": lambda args: min(args),
    "max": lambda args: max(args),
    "dist": lambda args: _euclidean(args[0], args[1]),
}


def _fold(combine):
    def folded(args):
        result = args[0]
        for arg in args[1:]:
            result = combine(result, arg)
        return result
    return folded


_ARRAY_FUNCTIONS = {
    "abs": lambda args: np.abs(args[0]),
    # Python's min / max keep the earlier argument unless the later one
    # compares strictly past it, which is also what they do with a NaN;
    # np.minimum / np.maximum would propagate the NaN instead
    "min": _fold(lambda kept, arg: np.where(arg < kept, arg, kept)),
    "max": _fold(lambda kept, arg: np.where(arg > kept, arg, kept)),
}


def _read_bindings(ref: "AttributeRef") -> CompiledExpression:
    relation, attribute = ref.relation, ref.attribute
    return lambda bindings: bindings[relation][attribute]


def _read_attrs(ref: "AttributeRef") -> Callable[[Dict[str, Any]], Any]:
    attribute = ref.attribute
    return lambda attrs: attrs[attribute]


class Expression(ABC):
    """A scalar-valued expression."""

    @abstractmethod
    def closure(self, read: Reader) -> Callable[[Any], Any]:
        """This node's scalar semantics as a closure over one environment.

        ``read(ref)`` returns the accessor of attribute *ref* in that
        environment; every other node folds its children's closures.
        Folding the tree once lets hot evaluation loops (per-cycle
        selections, windowed-join probes) skip the per-call dispatch and
        attribute lookups.  A missing binding or attribute raises
        ``KeyError``.
        """

    @abstractmethod
    def referenced_attributes(self) -> FrozenSet[AttrRef]:
        """Every (relation alias, attribute name) pair the expression reads."""

    def evaluate(self, bindings: Bindings) -> Any:
        """Evaluate against relation-alias -> attribute-dict bindings."""
        return self.compile()(bindings)

    def compile(self) -> CompiledExpression:
        """The closure over relation-alias -> attribute-dict bindings."""
        return self.closure(_read_bindings)

    def compile_single(self, alias: str) -> "Callable[[Dict[str, Any]], Any]":
        """Compile against a single relation's attribute dict directly.

        For expressions that only read attributes of *alias* this skips the
        per-call construction of a bindings dict; expressions referencing
        other relations fall back to wrapping :meth:`compile`.
        """
        if self.relations() <= {alias}:
            return self.closure(_read_attrs)
        compiled = self.compile()
        return lambda attrs: compiled({alias: attrs})

    def compile_array(self) -> CompiledArray:
        """An array kernel equivalent to :meth:`compile`, element by element.

        The kernel takes numeric columns (:func:`as_column`) in place of
        attribute values and returns the column of results (a scalar when
        the expression reads no attribute).  Raises :class:`NotVectorizable`
        for shapes numpy does not evaluate exactly like Python: ``hash()``,
        ``dist()``, non-numeric literals, division by anything but a
        non-zero literal, integer intermediates beyond 2**53.
        """
        raise NotVectorizable(str(self))

    def relations(self) -> FrozenSet[str]:
        return frozenset(rel for rel, _ in self.referenced_attributes())


class Predicate(Expression):
    """A Boolean-valued expression."""


@dataclass(frozen=True)
class Literal(Expression):
    value: Any

    def closure(self, read: Reader) -> Callable[[Any], Any]:
        value = self.value
        return lambda env: value

    def compile_array(self) -> CompiledArray:
        value = self.value
        if type(value) not in (int, float) or abs(value) > _EXACT_LIMIT:
            raise NotVectorizable(str(self))
        return lambda bindings: value

    def referenced_attributes(self) -> FrozenSet[AttrRef]:
        return frozenset()

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class AttributeRef(Expression):
    relation: str
    attribute: str

    def closure(self, read: Reader) -> Callable[[Any], Any]:
        return read(self)

    def compile_array(self) -> CompiledArray:
        return self.compile()  # the same lookups, over columns

    def referenced_attributes(self) -> FrozenSet[AttrRef]:
        return frozenset({(self.relation, self.attribute)})

    def __str__(self) -> str:
        return f"{self.relation}.{self.attribute}"


_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise ValueError(f"unsupported arithmetic operator {self.op!r}")

    def closure(self, read: Reader) -> Callable[[Any], Any]:
        operator = _ARITHMETIC[self.op]
        left, right = self.left.closure(read), self.right.closure(read)
        return lambda env: operator(left(env), right(env))

    def compile_array(self) -> CompiledArray:
        if self.op in "/%" and not (
            isinstance(self.right, Literal) and self.right.value
        ):
            # Python raises ZeroDivisionError where numpy yields inf / nan
            raise NotVectorizable(str(self))
        left, right = self.left.compile_array(), self.right.compile_array()
        if _magnitude(self) > _EXACT_LIMIT:
            raise NotVectorizable(str(self))
        operator = _ARITHMETIC[self.op]  # numpy overloads the same operators
        return lambda bindings: operator(left(bindings), right(bindings))

    def referenced_attributes(self) -> FrozenSet[AttrRef]:
        return self.left.referenced_attributes() | self.right.referenced_attributes()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str
    args: Tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.name not in _FUNCTIONS:
            raise ValueError(f"unsupported function {self.name!r}")

    def closure(self, read: Reader) -> Callable[[Any], Any]:
        function = _FUNCTIONS[self.name]
        args = tuple(arg.closure(read) for arg in self.args)
        return lambda env: function([arg(env) for arg in args])

    def compile_array(self) -> CompiledArray:
        function = _ARRAY_FUNCTIONS.get(self.name)
        if function is None or not self.args:
            raise NotVectorizable(str(self))
        args = tuple(arg.compile_array() for arg in self.args)
        return lambda bindings: function([arg(bindings) for arg in args])

    def referenced_attributes(self) -> FrozenSet[AttrRef]:
        refs: FrozenSet[AttrRef] = frozenset()
        for arg in self.args:
            refs |= arg.referenced_attributes()
        return refs

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


_COMPARISONS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Predicate):
    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def closure(self, read: Reader) -> Callable[[Any], Any]:
        operator = _COMPARISONS[self.op]
        left, right = self.left.closure(read), self.right.closure(read)
        return lambda env: bool(operator(left(env), right(env)))

    def compile_array(self) -> CompiledArray:
        operator = _COMPARISONS[self.op]
        left, right = self.left.compile_array(), self.right.compile_array()
        return lambda bindings: operator(left(bindings), right(bindings))

    def referenced_attributes(self) -> FrozenSet[AttrRef]:
        return self.left.referenced_attributes() | self.right.referenced_attributes()

    def negated(self) -> "Comparison":
        opposite = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}
        return Comparison(opposite[self.op], self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Predicate):
    operands: Tuple[Predicate, ...]

    def __init__(self, *operands: Predicate) -> None:
        flattened = []
        for operand in operands:
            if isinstance(operand, And):
                flattened.extend(operand.operands)
            else:
                flattened.append(operand)
        object.__setattr__(self, "operands", tuple(flattened))

    def closure(self, read: Reader) -> Callable[[Any], Any]:
        operands = tuple(op.closure(read) for op in self.operands)
        if len(operands) == 1:
            return operands[0]
        return lambda env: all(op(env) for op in operands)

    def compile_array(self) -> CompiledArray:
        return conjunction([op.compile_array() for op in self.operands])

    def referenced_attributes(self) -> FrozenSet[AttrRef]:
        refs: FrozenSet[AttrRef] = frozenset()
        for operand in self.operands:
            refs |= operand.referenced_attributes()
        return refs

    def __str__(self) -> str:
        return "(" + " AND ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(Predicate):
    operands: Tuple[Predicate, ...]

    def __init__(self, *operands: Predicate) -> None:
        flattened = []
        for operand in operands:
            if isinstance(operand, Or):
                flattened.extend(operand.operands)
            else:
                flattened.append(operand)
        object.__setattr__(self, "operands", tuple(flattened))

    def closure(self, read: Reader) -> Callable[[Any], Any]:
        operands = tuple(op.closure(read) for op in self.operands)
        if len(operands) == 1:
            return operands[0]
        return lambda env: any(op(env) for op in operands)

    def compile_array(self) -> CompiledArray:
        operands = tuple(op.compile_array() for op in self.operands)
        fold = _fold(np.logical_or)
        return lambda bindings: fold([op(bindings) for op in operands])

    def referenced_attributes(self) -> FrozenSet[AttrRef]:
        refs: FrozenSet[AttrRef] = frozenset()
        for operand in self.operands:
            refs |= operand.referenced_attributes()
        return refs

    def __str__(self) -> str:
        return "(" + " OR ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Not(Predicate):
    operand: Predicate

    def closure(self, read: Reader) -> Callable[[Any], Any]:
        operand = self.operand.closure(read)
        return lambda env: not operand(env)

    def compile_array(self) -> CompiledArray:
        operand = self.operand.compile_array()
        return lambda bindings: np.logical_not(operand(bindings))

    def referenced_attributes(self) -> FrozenSet[AttrRef]:
        return self.operand.referenced_attributes()

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class BoolLiteral(Predicate):
    value: bool

    def closure(self, read: Reader) -> Callable[[Any], Any]:
        value = self.value
        return lambda env: value

    def compile_array(self) -> CompiledArray:
        return self.compile()

    def referenced_attributes(self) -> FrozenSet[AttrRef]:
        return frozenset()

    def __str__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = BoolLiteral(True)
FALSE = BoolLiteral(False)


def conjunction(kernels: Sequence[CompiledArray]) -> CompiledArray:
    """The array kernel of ``AND`` over compiled operands (``True`` for none)."""
    kernels = tuple(kernels)
    if not kernels:
        return lambda bindings: True
    if len(kernels) == 1:
        return kernels[0]
    fold = _fold(np.logical_and)
    return lambda bindings: fold([kernel(bindings) for kernel in kernels])


def evaluate(expression: Expression, bindings: Bindings) -> Any:
    """Functional entry point mirroring ``expression.evaluate(bindings)``."""
    return expression.evaluate(bindings)
