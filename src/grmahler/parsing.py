"""Parsers for polynomial expressions and group specifier strings.

Polynomial grammar (whitespace insignificant):

    poly  := ['-'] term (('+' | '-') term)*
    term  := [coeff '*'] word | coeff
    coeff := decimal | '(' decimal (('+'|'-') decimal 'i') ')' | 'i'
    word  := gen ('^' int)? (gen ('^' int)?)*
    gen   := 'x' | 'y' | 'x1' .. 'x9'

Decimal literals parse to exact rationals and 'i' to the exact imaginary
unit, so polynomials entered on the command line keep the exact arithmetic
paths alive.  A leading '-' negates the first term.

Group specifiers: Z^l, products of Z and Z/n joined with 'x' (e.g.
Z/3xZ/2, ZxZ/4), Dm / Dinf, Dicm / Dicinf, Fl, and Ca*Cb free products,
with at most 9 generators; each family's `parse` holds its pattern.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import groups as gr
from . import ring as rg
from .coeffs import GaussianRational
from .errors import ParseError

GENERATOR_RE = re.compile(r"x[1-9]|x|y|i")
NUMBER_RE = re.compile(r"\d+(\.\d+)?")
DIGITS_RE = re.compile(r"\d+")


@dataclass(frozen=True)
class Term:
    coeff: object  # int | Fraction | GaussianRational (or float-kind if built by hand)
    word: tuple  # ((generator_name, exponent), ...)


@dataclass(frozen=True)
class PolyExpr:
    terms: tuple[Term, ...]


class _Scanner:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _digits(self, m: re.Match) -> str:
        """The matched number; a digit run too long for int() is refused."""
        for run in DIGITS_RE.finditer(self.src, m.start(), m.end()):
            if run.end() - run.start() > gr.MAX_ORDER_DIGITS:
                raise ParseError(f"a number of more than {gr.MAX_ORDER_DIGITS} digits", run.start())
        self.pos = m.end()
        return m.group(0)

    def match_number(self):
        self.skip_ws()
        m = NUMBER_RE.match(self.src, self.pos)
        if not m:
            return None
        text = self._digits(m)
        if "." in text:
            return Fraction(text)
        return int(text)

    def match_generator(self):
        self.skip_ws()
        m = GENERATOR_RE.match(self.src, self.pos)
        if not m or m.group(0) == "i":
            return None
        self.pos = m.end()
        return m.group(0)

    def match_int(self):
        self.skip_ws()
        sign = 1
        start = self.pos
        if self.peek() == "-":
            sign = -1
            self.pos += 1
        self.skip_ws()
        m = DIGITS_RE.match(self.src, self.pos)
        if not m:
            self.pos = start
            return None
        return sign * int(self._digits(m))

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.src)


def _parse_coeff(sc: _Scanner):
    """Return a coefficient, or None if none is present here."""
    ch = sc.peek()
    if ch == "i":
        sc.pos += 1
        return GaussianRational(0, 1)
    if ch == "(":
        sc.pos += 1
        re_part = sc.match_number()
        if re_part is None:
            raise ParseError("expected a decimal inside parentheses", sc.pos)
        sign_ch = sc.peek()
        if sign_ch not in "+-":
            raise ParseError("expected '+' or '-' in complex literal", sc.pos)
        sc.pos += 1
        im_part = sc.match_number()
        if im_part is None:
            raise ParseError("expected a decimal imaginary part", sc.pos)
        if sc.peek() != "i":
            raise ParseError("expected 'i' to close the imaginary part", sc.pos)
        sc.pos += 1
        sc.expect(")")
        if sign_ch == "-":
            im_part = -im_part
        return GaussianRational(re_part, im_part)
    num = sc.match_number()
    return num


def _parse_word(sc: _Scanner):
    """The (gen, exp) factors of a word, those with exp 0 left out, or None
    when no generator starts here: x^0 is the identity word."""
    factors = []
    while (gen := sc.match_generator()) is not None:
        exp = 1
        if sc.peek() == "^":
            sc.pos += 1
            exp = sc.match_int()
            if exp is None:
                raise ParseError("expected an integer exponent after '^'", sc.pos)
        factors.append((gen, exp))
    return tuple(f for f in factors if f[1]) if factors else None


def _parse_term(sc: _Scanner) -> Term:
    pos = sc.pos
    coeff = _parse_coeff(sc)
    if coeff is not None:
        if sc.peek() == "*":
            sc.pos += 1
            word = _parse_word(sc)
            if word is None:
                raise ParseError("expected a word after '*'", sc.pos)
            return Term(coeff, word)
        return Term(coeff, ())
    word = _parse_word(sc)
    if word is None:
        raise ParseError("expected a term", pos)
    return Term(1, word)


def parse_poly(src: str) -> PolyExpr:
    """Parse a polynomial expression; raises ParseError with a position."""
    sc = _Scanner(src)
    terms = []
    negate = False
    if sc.peek() == "-":
        sc.pos += 1
        negate = True
    if sc.done():
        raise ParseError("empty polynomial", sc.pos)
    term = _parse_term(sc)
    terms.append(Term(-term.coeff, term.word) if negate else term)
    while not sc.done():
        op = sc.peek()
        if op not in "+-":
            raise ParseError(f"expected '+' or '-', found {op!r}", sc.pos)
        sc.pos += 1
        term = _parse_term(sc)
        terms.append(Term(-term.coeff, term.word) if op == "-" else term)
    return PolyExpr(tuple(terms))


# ---------------------------------------------------------------------------
# binding to a group


def to_ring_element(expr: PolyExpr, group: gr.GroupSpec) -> rg.RingElement:
    """Evaluate an expression tree in a group's ring; generator names are
    positional (x -> generator 0, y -> generator 1, xk -> generator k-1)."""
    names = gr.generator_names(group)
    word_terms = []
    for t in expr.terms:
        word = []
        for name, exp in t.word:
            if name not in names:
                raise ParseError(
                    f"unknown generator {name!r} for group with generators {names}"
                )
            word.append((names.index(name), exp))
        word_terms.append((t.coeff, tuple(word)))
    return rg.from_word_terms(group, word_terms)


def parse_poly_over(src: str, group: gr.GroupSpec) -> rg.RingElement:
    return to_ring_element(parse_poly(src), group)


# ---------------------------------------------------------------------------
# group specifiers


def parse_group(src: str) -> gr.GroupSpec:
    """Parse a group specifier string; raises ParseError on unknown forms.
    The first family in gr.FAMILIES that claims the specifier parses it."""
    s = src.strip()
    if not s:
        raise ParseError("empty group specifier")
    for family in gr.FAMILIES:
        g = family.parse(s, src)
        if g is not None:
            return g
