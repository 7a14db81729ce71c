"""Parser for the polynomial text form.

The accepted shape is a signed sum of terms, each term a ``*``-separated
product of rational literals and powers ``name^k``, e.g.::

    3/2*x0^2*x1 - x2 + 1

Variable names must be declared in the ring context; unknown names, stray
symbols and malformed literals raise :class:`ValidationError` carrying the
offending position.
"""

from __future__ import annotations

import re

from .errors import ValidationError
from .poly import Polynomial, RingContext

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^/()]))")


def _tokenize(s: str, path: str):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            break
        if m.group(1):
            out.append(("int", m.group(1)))
        elif m.group(2):
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    rest = s[pos:].lstrip()
    if rest:
        raise ValidationError(f"unexpected character {rest[0]!r} at "
                              f"{len(s) - len(rest)}", path)
    return out


class _P:
    def __init__(self, ctx: RingContext, toks, path: str):
        self.ctx = ctx
        self.toks = toks
        self.i = 0
        self.path = path

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def fail(self, msg):
        raise ValidationError(msg, self.path)

    def parse_int(self) -> int:
        kind, val = self.take()
        if kind != "int":
            self.fail(f"expected an integer, got {val!r}")
        return int(val)

    def parse_factor(self) -> Polynomial:
        kind, val = self.peek()
        if kind == "int":
            self.take()
            num = int(val)
            if self.peek() == ("op", "/"):
                self.take()
                F = self.ctx.field
                den = F.from_int(self.parse_int())
                if F.is_zero(den):
                    self.fail("zero denominator")
                c = F.div(F.from_int(num), den)
                return self.ctx.constant(c)
            return self.ctx.from_int(num)
        if kind == "name":
            self.take()
            if val not in self.ctx.names:
                self.fail(f"unknown variable {val!r}")
            idx = self.ctx.names.index(val)
            exp = 1
            if self.peek() == ("op", "^"):
                self.take()
                exp = self.parse_int()
            return self.ctx.var(idx) ** exp
        if kind == "op" and val == "(":
            self.take()
            f = self.parse_sum()
            if self.take() != ("op", ")"):
                self.fail("missing closing parenthesis")
            return f
        self.fail(f"expected a coefficient or variable, got {val!r}")

    def parse_term(self) -> Polynomial:
        f = self.parse_factor()
        while self.peek() == ("op", "*"):
            self.take()
            f = f * self.parse_factor()
        return f

    def parse_sum(self) -> Polynomial:
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        total = self.parse_term()
        if sign < 0:
            total = -total
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.parse_term()
                total = total + (-t if val == "-" else t)
            else:
                return total


def parse_poly(ctx: RingContext, s: str, path: str = "") -> Polynomial:
    toks = _tokenize(s, path)
    if not toks:
        raise ValidationError("empty polynomial string", path)
    p = _P(ctx, toks, path)
    f = p.parse_sum()
    if p.i != len(toks):
        p.fail(f"trailing input starting at token {p.toks[p.i]!r}")
    return f
