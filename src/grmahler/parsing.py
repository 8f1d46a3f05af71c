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

The parse goes through tokens: one findall of _TOKEN_RE splits the string
into decimals, the names x1..x9 and single characters, each past the
whitespace before it, and a recursive descent reads the grammar off that
list.  Whitespace is thus free between tokens, not inside a decimal or a
name.  Token positions are found again, by finditer, only when a ParseError
needs one.

Group specifiers: Z^l, products of Z and Z/n joined with 'x' (e.g.
Z/3xZ/2, ZxZ/4), Dm / Dinf, Dicm / Dicinf, Fl, and Ca*Cb free products,
with at most 9 generators; each family's `parse` holds its pattern.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from . import groups as gr
from . import ring as rg
from .coeffs import GaussianRational
from .errors import ParseError

# one token past any whitespace: a decimal, an indexed generator x1..x9, or
# one other character
_TOKEN_RE = re.compile(r"\s*(\d+(?:\.\d+)?|x[1-9]|\S)")
_GENERATORS = frozenset(["x", "y", *(f"x{d}" for d in "123456789")])


class Term(NamedTuple):
    coeff: object  # int | Fraction | GaussianRational (or float-kind if built by hand)
    word: tuple  # ((generator_name, exponent), ...)


class PolyExpr(NamedTuple):
    terms: tuple[Term, ...]


def _fail(src: str, message: str, k: int, offset: int = 0):
    """Raise message at offset characters into token k of src, where the token
    starts past its whitespace; the token after the last is the end of src."""
    starts = [m.start(1) for m in _TOKEN_RE.finditer(src)]
    starts.append(len(src))
    raise ParseError(message, starts[k] + offset)


def _number(src: str, k: int, text: str):
    """The value of text, number token k or its whole part; a digit run too
    long for int() is refused where it starts."""
    offset = 0
    for run in text.split("."):
        if len(run) > gr.MAX_ORDER_DIGITS:
            _fail(src, f"a number of more than {gr.MAX_ORDER_DIGITS} digits", k, offset)
        offset += len(run) + 1
    return Fraction(text) if "." in text else int(text)


def _complex(src: str, toks: list, k: int):
    """The Gaussian literal (a+bi) or (a-bi) whose '(' ends before token k,
    and the index past its ')'."""
    if not toks[k][:1].isdecimal():
        _fail(src, "expected a decimal inside parentheses", k)
    re_part = _number(src, k, toks[k])
    sign = toks[k + 1]
    if sign != "+" and sign != "-":
        _fail(src, "expected '+' or '-' in complex literal", k + 1)
    if not toks[k + 2][:1].isdecimal():
        _fail(src, "expected a decimal imaginary part", k + 2)
    im_part = _number(src, k + 2, toks[k + 2])
    if toks[k + 3] != "i":
        _fail(src, "expected 'i' to close the imaginary part", k + 3)
    if toks[k + 4] != ")":
        _fail(src, "expected ')'", k + 4)
    return GaussianRational(re_part, -im_part if sign == "-" else im_part), k + 5


def _word(src: str, toks: list, k: int):
    """The (gen, exp) factors from token k on, empty when no generator starts
    there, and the index past them; a factor with exp 0 stays, so that its
    name is still checked."""
    factors = []
    while toks[k] in _GENERATORS:
        gen, exp = toks[k], 1
        k += 1
        if toks[k] == "^":
            j = k + 2 if toks[k + 1] == "-" else k + 1
            if not toks[j][:1].isdecimal():
                _fail(src, "expected an integer exponent after '^'", k + 1)
            whole, dot, _ = toks[j].partition(".")
            exp = _number(src, j, whole)
            if j > k + 1:
                exp = -exp
            if dot:  # x^2.5: the exponent is 2, and no term goes on with '.'
                _fail(src, "expected '+' or '-', found '.'", j, len(whole))
            k = j + 1
        factors.append((gen, exp))
    return tuple(factors), k


def _term(src: str, toks: list, k: int):
    """The term that starts at token k, or None when none starts there, and
    the index past it."""
    tok = toks[k]
    if tok == "i":
        coeff, k = GaussianRational(0, 1), k + 1
    elif tok == "(":
        coeff, k = _complex(src, toks, k + 1)
    elif tok[:1].isdecimal():
        coeff, k = _number(src, k, tok), k + 1
    else:
        word, k = _word(src, toks, k)
        return (Term(1, word) if word else None), k
    if toks[k] != "*":
        return Term(coeff, ()), k
    word, k = _word(src, toks, k + 1)
    if not word:
        _fail(src, "expected a word after '*'", k)
    return Term(coeff, word), k


def parse_poly(src: str) -> PolyExpr:
    """Parse a polynomial expression; raises ParseError with a position."""
    toks = _TOKEN_RE.findall(src)
    toks.append("")  # the end of the input
    sign = toks[0]
    k = 1 if sign == "-" else 0
    if not toks[k]:
        _fail(src, "empty polynomial", k)
    missing = (k, 0)  # where a missing term is reported: the first at its token
    terms = []
    while True:
        term, k = _term(src, toks, k)
        if term is None:
            _fail(src, "expected a term", *missing)
        terms.append(Term(-term.coeff, term.word) if sign == "-" else term)
        sign = toks[k]
        if not sign:
            return PolyExpr(tuple(terms))
        if sign != "+" and sign != "-":
            _fail(src, f"expected '+' or '-', found {sign[0]!r}", k)
        missing = (k, 1)  # ... and a later one right after its sign
        k += 1


# ---------------------------------------------------------------------------
# binding to a group


def to_ring_element(expr: PolyExpr, group: gr.GroupSpec) -> rg.RingElement:
    """Evaluate an expression tree in a group's ring; generator names are
    positional (x -> generator 0, y -> generator 1, xk -> generator k-1)."""
    names = gr.generator_names(group)
    index = {name: i for i, name in enumerate(names)}
    word_terms = []
    for t in expr.terms:
        word = []
        for name, exp in t.word:
            if name not in index:
                raise ParseError(
                    f"unknown generator {name!r} for group with generators {names}"
                )
            word.append((index[name], exp))
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
