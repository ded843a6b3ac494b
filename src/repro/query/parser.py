"""A small StreamSQL-style parser.

Appendix B shows the query syntax the sensor subsystem accepts, e.g.::

    SELECT S.id, T.id, S.time
    FROM S, T [windowsize=3 sampleinterval=100]
    WHERE S.id < 25 AND hash(S.u) % 2 = 0
      AND T.id > 50 AND hash(T.u) % 2 = 0
      AND S.x = T.y + 5 AND S.u = T.u

The parser is a hand-written tokenizer plus recursive-descent grammar over
that dialect: SELECT/FROM/WHERE, a bracketed window specification, Boolean
operators, comparisons, arithmetic with the usual precedence, and function
calls (``hash``, ``abs``, ``dist`` ...).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

from repro.query.expressions import (
    And,
    AttributeRef,
    BinaryOp,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    Not,
    Or,
    Predicate,
    TRUE,
)
from repro.query.query import JoinQuery, RelationSpec


class QueryParseError(ValueError):
    """Raised when a query string cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[\[\]().,%*/+\-])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"select", "from", "where", "and", "or", "not"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise QueryParseError(f"unexpected character {text[position]!r} at {position}")
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        value = match.group()
        if kind == "ident" and value.lower() in _KEYWORDS:
            tokens.append(_Token("keyword", value.lower()))
        elif kind == "op" and value == "<>":
            tokens.append(_Token("op", "!="))
        else:
            tokens.append(_Token(kind, value))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token]) -> None:
        self.tokens = tokens
        self.index = 0

    # -- token helpers ------------------------------------------------------
    def peek(self, offset: int = 0) -> Optional[_Token]:
        position = self.index + offset
        return self.tokens[position] if position < len(self.tokens) else None

    def advance(self) -> _Token:
        token = self.peek()
        if token is None:
            raise QueryParseError("unexpected end of query")
        self.index += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self.advance()
        if token.kind != kind or (text is not None and token.text != text):
            raise QueryParseError(
                f"expected {text or kind!r}, found {token.text!r}"
            )
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self.peek()
        if token is not None and token.kind == kind and (text is None or token.text == text):
            self.index += 1
            return token
        return None

    # -- grammar --------------------------------------------------------------
    def parse_query(self, name: str) -> JoinQuery:
        self.expect("keyword", "select")
        projection = self._parse_select_list()
        self.expect("keyword", "from")
        aliases = self._parse_relation_list()
        if len(aliases) != 2:
            raise QueryParseError("exactly two relations are supported")
        window_size = self._parse_window_spec()
        where: Predicate = TRUE
        if self.accept("keyword", "where"):
            where = self._parse_or()
        if self.peek() is not None:
            raise QueryParseError(f"trailing tokens starting at {self.peek().text!r}")
        return JoinQuery(
            name=name,
            source=RelationSpec(alias=aliases[0]),
            target=RelationSpec(alias=aliases[1]),
            where=where,
            window_size=window_size,
            projection=projection,
        )

    def _parse_select_list(self) -> List[AttributeRef]:
        attrs = [self._parse_qualified_attribute()]
        while self.accept("punct", ","):
            attrs.append(self._parse_qualified_attribute())
        return attrs

    def _parse_qualified_attribute(self) -> AttributeRef:
        relation = self.expect("ident").text
        self.expect("punct", ".")
        attribute = self.expect("ident").text
        return AttributeRef(relation, attribute)

    def _parse_relation_list(self) -> List[str]:
        aliases = [self.expect("ident").text]
        while self.accept("punct", ","):
            aliases.append(self.expect("ident").text)
        return aliases

    def _parse_window_spec(self) -> int:
        """The window size.  ``sampleinterval`` is checked and dropped: one
        sampling cycle is the simulator's unit of time."""
        window_size = 1
        if self.accept("punct", "["):
            while not self.accept("punct", "]"):
                key = self.expect("ident").text.lower()
                self.expect("op", "=")
                value = int(self.expect("number").text)
                if key == "windowsize":
                    window_size = value
                elif key == "sampleinterval":
                    if value < 1:
                        raise QueryParseError("sampleinterval must be at least 1")
                else:
                    raise QueryParseError(f"unknown window parameter {key!r}")
        return window_size

    # Boolean precedence: OR < AND < NOT < comparison
    def _parse_or(self) -> Predicate:
        left = self._parse_and()
        operands = [left]
        while self.accept("keyword", "or"):
            operands.append(self._parse_and())
        return operands[0] if len(operands) == 1 else Or(*operands)

    def _parse_and(self) -> Predicate:
        operands = [self._parse_not()]
        while self.accept("keyword", "and"):
            operands.append(self._parse_not())
        return operands[0] if len(operands) == 1 else And(*operands)

    def _parse_not(self) -> Predicate:
        if self.accept("keyword", "not"):
            return Not(self._parse_not())
        # A parenthesized Boolean expression or a comparison.  Try the Boolean
        # interpretation first, backtracking if it is actually arithmetic.
        if self.peek() is not None and self.peek().kind == "punct" and self.peek().text == "(":
            saved = self.index
            try:
                self.advance()  # consume '('
                inner = self._parse_or()
                self.expect("punct", ")")
                next_token = self.peek()
                if next_token is not None and next_token.kind == "op":
                    raise QueryParseError("parenthesized arithmetic")
                return inner
            except QueryParseError:
                self.index = saved
        return self._parse_comparison()

    def _parse_comparison(self) -> Predicate:
        left = self._parse_arith()
        token = self.peek()
        if token is None or token.kind != "op":
            raise QueryParseError("expected a comparison operator")
        op = self.advance().text
        right = self._parse_arith()
        return Comparison(op, left, right)

    # Arithmetic precedence: +- < */%
    def _parse_arith(self) -> Expression:
        left = self._parse_term()
        while True:
            token = self.peek()
            if token is not None and token.kind == "punct" and token.text in "+-":
                op = self.advance().text
                left = BinaryOp(op, left, self._parse_term())
            else:
                return left

    def _parse_term(self) -> Expression:
        left = self._parse_factor()
        while True:
            token = self.peek()
            if token is not None and token.kind == "punct" and token.text in "*/%":
                op = self.advance().text
                left = BinaryOp(op, left, self._parse_factor())
            else:
                return left

    def _parse_factor(self) -> Expression:
        token = self.peek()
        if token is None:
            raise QueryParseError("unexpected end of expression")
        if token.kind == "number":
            self.advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return Literal(value)
        if token.kind == "punct" and token.text == "(":
            self.advance()
            inner = self._parse_arith()
            self.expect("punct", ")")
            return inner
        if token.kind == "punct" and token.text == "-":
            self.advance()
            operand = self._parse_factor()
            return BinaryOp("-", Literal(0), operand)
        if token.kind == "ident":
            next_token = self.peek(1)
            if next_token is not None and next_token.kind == "punct" and next_token.text == "(":
                return self._parse_function_call()
            if next_token is not None and next_token.kind == "punct" and next_token.text == ".":
                return self._parse_qualified_attribute()
            raise QueryParseError(
                f"bare identifier {token.text!r}; attributes must be qualified as Rel.attr"
            )
        raise QueryParseError(f"unexpected token {token.text!r}")

    def _parse_function_call(self) -> Expression:
        name = self.expect("ident").text.lower()
        self.expect("punct", "(")
        args: List[Expression] = []
        if not self.accept("punct", ")"):
            args.append(self._parse_arith())
            while self.accept("punct", ","):
                args.append(self._parse_arith())
            self.expect("punct", ")")
        return FunctionCall(name, tuple(args))


def parse_query(text: str, name: str = "query") -> JoinQuery:
    """Parse a StreamSQL-style query string into a :class:`JoinQuery`."""
    tokens = _tokenize(text)
    if not tokens:
        raise QueryParseError("empty query")
    return _Parser(tokens).parse_query(name)
