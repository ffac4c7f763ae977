"""Recursive-descent parser for the expression grammar.

    expr   := term { ("+" | "-") term }
    term   := factor { "*" factor }
    factor := base [ "^" signed_int ] | "-" factor
    base   := rational | identifier | "(" expr ")"
    rational := int [ "/" int ]
    int    := one or more of the ASCII digits 0-9

Identifiers are letters followed by letters/digits; whitespace is
insignificant.  Parsing yields a canonical LaurentPoly directly, so
parse(format(p)) == p.  The length of the text is bounded by
``expr.MAX_INPUT_CHARS`` before it is tokenised, nesting of parentheses and
unary minus by ``MAX_DEPTH``, exponents by ``MAX_EXPONENT`` and the
term-pair products of ``*`` and ``^`` by ``expr.MAX_PRODUCTS``, so
hostile input ends in a typed error, not a RecursionError, a runaway
product or a token list as long as the input.  ``base ^ n`` is charged as
n repeated products, although a one-term base is raised in one step.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import reduce
from typing import Mapping

from .expr import (ExprError, LaurentPoly, ProductBudget, VarContext,
                   accumulate)


class ParseError(ExprError):
    """Syntax or name error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPS = set("+-*^/()")

#: Deepest nesting of "(" and unary "-" the parser accepts.
MAX_DEPTH = 100

#: Largest |n| the parser accepts in "base ^ n"; a base of more than one term
#: is raised by repeated products.
MAX_EXPONENT = 20000


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, position) triples; kind in {int, ident, op, end}."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":  # not str.isdigit, which takes any script's digits
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _integer(digits: str, position: int) -> int:
    try:
        return int(digits)
    except ValueError:  # over Python's int-to-str digit limit
        raise ParseError(f"integer longer than {sys.get_int_max_str_digits()} digits",
                         position) from None


class _Parser:
    def __init__(self, text: str, context: VarContext,
                 aliases: Mapping[str, str] | None, budget: ProductBudget):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.budget = budget
        self.context = context
        self.aliases = dict(aliases or {})

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def descend(self, position: int):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH}", position)

    def multiply(self, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
        self.budget.charge(f, g)
        return f * g

    def expect_op(self, op: str):
        kind, value, position = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value or 'end of input'!r}",
                             position)

    def parse(self) -> LaurentPoly:
        result = self.expr()
        kind, value, position = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", position)
        return result

    def expr(self) -> LaurentPoly:
        """A sum of terms, accumulated in one term dict: linear in the
        number of terms, where a new polynomial per "+" would copy the
        growing sum every time."""
        terms = dict(self.term().terms)
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in "+-":
                # the terms' monomials; accumulate drops zero sums
                return LaurentPoly._of(self.context, terms)
            self.next()
            accumulate(terms, self.term().terms, negate=value == "-")

    def term(self) -> LaurentPoly:
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                result = self.multiply(result, self.factor())
            else:
                return result

    def factor(self) -> LaurentPoly:
        kind, value, position = self.peek()
        if kind == "op" and value == "-":
            self.next()
            self.descend(position)
            negated = -self.factor()
            self.depth -= 1
            return negated
        base = self.base()
        kind, value, position = self.peek()
        if kind == "op" and value == "^":
            self.next()
            n = self.signed_int()
            base = base.monomial_inverse() if n < 0 else base
            if len(base.terms) == 1:
                # raised in one step, charged the |n| one-pair products
                # of the repeated form
                self.budget.charge(base, base, abs(n))
                return base ** abs(n)
            return reduce(self.multiply, [base] * abs(n), self.context.one())
        return base

    def signed_int(self) -> int:
        sign = 1
        kind, value, position = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
            kind, value, position = self.peek()
        if kind != "int":
            raise ParseError("expected an integer exponent", position)
        self.next()
        n = _integer(value, position)
        if n > MAX_EXPONENT:
            raise ParseError(f"exponent larger than {MAX_EXPONENT}", position)
        return sign * n

    def base(self) -> LaurentPoly:
        kind, value, position = self.next()
        if kind == "int":
            numerator = _integer(value, position)
            kind, nxt, _ = self.peek()
            if kind == "op" and nxt == "/":
                self.next()
                kind, denom, dpos = self.next()
                if kind != "int":
                    raise ParseError("expected an integer denominator", dpos)
                denominator = _integer(denom, dpos)
                if denominator == 0:
                    raise ParseError("zero denominator", dpos)
                return self.context.scalar(Fraction(numerator, denominator))
            return self.context.scalar(numerator)
        if kind == "ident":
            name = self.aliases.get(value, value)
            if name not in self.context.names:
                raise ParseError(f"unknown identifier {value!r}", position)
            return self.context.var(name)
        if kind == "op" and value == "(":
            self.descend(position)
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected {value or 'end of input'!r}", position)


def parse_expr(text: str, context: VarContext,
               aliases: Mapping[str, str] | None = None,
               budget: ProductBudget | None = None) -> LaurentPoly:
    """Parse ``text`` over ``context`` into a canonical LaurentPoly.

    ``aliases`` maps alternative spellings onto context names (the CLI uses
    this to accept X1..X6 for the quotient generators x1..x6).  The parse
    charges its length and its products to ``budget``, a fresh one when
    none is given.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {text}", 0)
    budget = ProductBudget() if budget is None else budget
    budget.read(text)
    return _Parser(text, context, aliases, budget).parse()
