"""Expression parser for polynomial literals.

Grammar (whitespace insensitive):

    expr   := ['-'] term { ('+' | '-') term }
    term   := factor { '*' factor }
    factor := base [ '^' uint ]
    base   := number | ident | '(' expr ')'
    number := uint [ '/' uint ]
    uint   := [0-9]+
    ident  := [A-Za-z][A-Za-z0-9]*

Idents must be variables of the target ring.  Number literals map through
the coefficient field (a/b means a times the inverse of b, so over QQ it is
the usual rational literal).  The canonical printer in poly.py emits only
strings this grammar accepts, giving the parse/print round trip.
"""

from __future__ import annotations

import re
import sys

from .errors import ParseError, UnknownVariable
from .poly import Poly, PolyRing

_TOKEN = re.compile(r"\s*(?:([0-9]+)|([A-Za-z][A-Za-z0-9]*)|([-+*^/()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        if m.group(1) is not None:
            try:
                value = int(m.group(1))
            except ValueError:  # more digits than int() converts
                raise ParseError(f"number literal of {len(m.group(1))} digits exceeds the limit of "
                                 f"{sys.get_int_max_str_digits()} digits", m.start(1)) from None
            tokens.append(("int", value, m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("ident", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("eof", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Poly:
        p = self.expr()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {value!r}", pos)
        return p

    def expr(self) -> Poly:
        kind, value, _ = self.peek()
        negate = kind == "op" and value == "-"
        if negate:
            self.advance()
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                acc = acc + rhs if value == "+" else acc - rhs
            else:
                return acc

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> Poly:
        base = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.advance()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            return base**value
        return base

    def base(self) -> Poly:
        kind, value, pos = self.advance()
        if kind == "int":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "/":
                self.advance()
                dkind, dvalue, dpos = self.advance()
                if dkind != "int":
                    raise ParseError("denominator must be a nonnegative integer", dpos)
                fld = self.ring.field
                den = fld.from_int(dvalue)
                if fld.is_zero(den):
                    raise ParseError("denominator is zero in the coefficient field", dpos)
                return self.ring.const(fld.mul(fld.from_int(value), fld.inv(den)))
            return self.ring.from_int(value)
        if kind == "ident":
            if value not in self.ring.vars:
                raise UnknownVariable(f"unknown variable {value!r}", pos)
            return self.ring.variable(value)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"expected a term, got {value!r}" if value else "unexpected end of input", pos)


def parse_poly(ring: PolyRing, text: str) -> Poly:
    """Parse an expression into a polynomial of `ring`.  The descent
    recurses once per level of parentheses, so an expression nested past
    Python's recursion limit raises ParseError, not RecursionError."""
    try:
        return _Parser(ring, text).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
