from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from grmahler import groups as gr
from grmahler.coeffs import GaussianRational
from grmahler.errors import ParseError
from grmahler.parsing import (
    PolyExpr,
    Term,
    parse_group,
    parse_poly,
    parse_poly_over,
)

Z2 = gr.AbelianProduct((0, 0))
Z32 = gr.AbelianProduct((3, 2))


# ---------------------------------------------------------------------------
# parse_poly


def test_parse_standard_element():
    expr = parse_poly("x + x^-1 + y + y^-1")
    assert expr.terms == (
        Term(1, (("x", 1),)),
        Term(1, (("x", -1),)),
        Term(1, (("y", 1),)),
        Term(1, (("y", -1),)),
    )


def test_parse_complex_counterexample():
    expr = parse_poly("3 + i*x - i*x^-1 + y")
    assert expr.terms[0] == Term(3, ())
    assert expr.terms[1] == Term(GaussianRational(0, 1), (("x", 1),))
    assert expr.terms[2] == Term(GaussianRational(0, -1), (("x", -1),))
    assert expr.terms[3] == Term(1, (("y", 1),))


def test_parse_empty_is_error():
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("   ")


def test_parse_decimals_are_exact():
    expr = parse_poly("0.5*x + 2.25")
    assert expr.terms[0].coeff == Fraction(1, 2)
    assert expr.terms[1].coeff == Fraction(9, 4)


def test_parse_complex_literals():
    expr = parse_poly("(1+2i)*x + (0.5-0.25i)")
    assert expr.terms[0].coeff == GaussianRational(1, 2)
    assert expr.terms[1].coeff == GaussianRational(Fraction(1, 2), Fraction(-1, 4))


def test_parse_words_and_exponents():
    expr = parse_poly("2*xy^2 + yx^-1")
    assert expr.terms[0] == Term(2, (("x", 1), ("y", 2)))
    assert expr.terms[1] == Term(1, (("y", 1), ("x", -1)))


def test_parse_indexed_generators():
    expr = parse_poly("x1 + x2^-1 + x9")
    assert expr.terms == (
        Term(1, (("x1", 1),)),
        Term(1, (("x2", -1),)),
        Term(1, (("x9", 1),)),
    )


def test_parse_leading_minus():
    expr = parse_poly("-x + y")
    assert expr.terms[0] == Term(-1, (("x", 1),))


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x + ")
    assert err.value.position is not None
    with pytest.raises(ParseError):
        parse_poly("x ^ z")
    with pytest.raises(ParseError):
        parse_poly("2*")
    with pytest.raises(ParseError):
        parse_poly("(1+2)")  # missing the i
    with pytest.raises(ParseError):
        parse_poly("x^")


NINES = "9" * 5000
POLY_REJECTS = [
    # a digit run too long for int(): refused where it starts, not converted
    ("x^" + NINES, 2),
    (NINES + "*x", 0),
    ("1." + NINES + "*x", 2),
    ("x^-" + NINES, 3),
    ("(1+" + NINES + "i)", 3),
]


@pytest.mark.parametrize("bad, position", POLY_REJECTS, ids=[bad[:6] for bad, _ in POLY_REJECTS])
def test_parse_poly_rejects(bad, position):
    with pytest.raises(ParseError) as info:
        parse_poly(bad)
    assert str(info.value) == f"a number of more than 4300 digits (at position {position})"


# (input, message, position): every message parse_poly raises, where it
# raises it; whitespace is skipped before a token, so most positions are past
# it, but a term missing after a sign is reported right after the sign
PARSE_ERRORS = [
    ("", "empty polynomial", 0),
    ("  ", "empty polynomial", 2),
    (" - ", "empty polynomial", 3),
    ("( x", "expected a decimal inside parentheses", 2),
    ("(1", "expected '+' or '-' in complex literal", 2),
    ("(1 * 2i)", "expected '+' or '-' in complex literal", 3),
    ("(1+i)", "expected a decimal imaginary part", 3),
    ("(1+2)", "expected 'i' to close the imaginary part", 4),
    ("(1+2i", "expected ')'", 5),
    ("(1+2i x", "expected ')'", 6),
    ("2* +", "expected a word after '*'", 3),
    ("x+ *y", "expected a term", 2),
    ("x+", "expected a term", 2),
    ("- *x", "expected a term", 2),
    ("+x", "expected a term", 0),
    ("x^ -", "expected an integer exponent after '^'", 3),
    ("x ^ z", "expected an integer exponent after '^'", 4),
    ("x y z", "expected '+' or '-', found 'z'", 4),
    ("2x", "expected '+' or '-', found 'x'", 1),
    ("x10", "expected '+' or '-', found '0'", 2),
    ("x^2.5", "expected '+' or '-', found '.'", 3),
    ("1 .5", "expected '+' or '-', found '.'", 2),
    ("x^2" + NINES, "a number of more than 4300 digits", 2),
]


@pytest.mark.parametrize("src, message, position", PARSE_ERRORS,
                         ids=[src[:8] for src, _, _ in PARSE_ERRORS])
def test_every_parse_error_names_its_position(src, message, position):
    with pytest.raises(ParseError) as info:
        parse_poly(src)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_parse_takes_the_longest_digit_runs_int_converts():
    run = "9" * 4300
    assert parse_poly(f"{run}.{run}*x^{run}").terms[0].word == (("x", int(run)),)


def test_strict_grammar_requires_star_between_coeff_and_word():
    with pytest.raises(ParseError):
        parse_poly("2x")


@given(st.text(max_size=40))
def test_parse_never_crashes(src):
    try:
        result = parse_poly(src)
        assert isinstance(result, PolyExpr)
    except ParseError:
        pass


@given(
    st.text(
        alphabet="xy123456789+-*^(). i",
        max_size=40,
    )
)
def test_parse_never_crashes_near_grammar(src):
    try:
        result = parse_poly(src)
        assert isinstance(result, PolyExpr)
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# generated polynomials, checked term by term

GENERATORS = ("x", "y") + tuple(f"x{k}" for k in range(1, 10))


@st.composite
def decimals(draw):
    """(text, exact value) of an unsigned decimal literal."""
    whole = draw(st.integers(0, 10**4))
    digits = draw(st.text("0123456789", max_size=3))
    text = f"{whole}.{digits}" if digits else str(whole)
    return text, Fraction(text)


@st.composite
def gaussians(draw):
    """(text, value) of a parenthesised Gaussian literal (a+bi) or (a-bi)."""
    (re_text, re), (im_text, im) = draw(decimals()), draw(decimals())
    sign = draw(st.sampled_from("+-"))
    return f"({re_text}{sign}{im_text}i)", GaussianRational(re, im if sign == "+" else -im)


@st.composite
def unsigned_terms(draw):
    """(text, Term) of one term without its sign: coefficient, word or both;
    words are several generators with optional (negative) exponents."""
    coeff = draw(st.none() | decimals() | st.just(("i", GaussianRational(0, 1))) | gaussians())
    exponents = st.none() | st.integers(-9, 9)
    word = draw(st.lists(st.tuples(st.sampled_from(GENERATORS), exponents), max_size=3))
    assume(coeff is not None or word)
    word_text = "".join(g if e is None else f"{g}^{e}" for g, e in word)
    expected_word = tuple((g, 1 if e is None else e) for g, e in word)
    if coeff is None:
        return word_text, Term(1, expected_word)
    text, value = coeff
    return text + ("*" + word_text if word else ""), Term(value, expected_word)


@given(
    st.lists(
        st.tuples(st.sampled_from("+-"), st.sampled_from(["", " "]), unsigned_terms()),
        min_size=1,
        max_size=5,
    )
)
def test_parse_poly_term_by_term(parts):
    src = "".join(
        f"{'' if i == 0 and sign == '+' else sign}{space}{text}{space}"
        for i, (sign, space, (text, _)) in enumerate(parts)
    )
    expected = tuple(
        Term(-t.coeff, t.word) if sign == "-" else t for sign, _, (_, t) in parts
    )
    assert parse_poly(src).terms == expected


# ---------------------------------------------------------------------------
# round trips through a writer of the grammar


def _decimal(x) -> str:
    """Exact decimal text of a non-negative rational with a terminating expansion."""
    return format(Decimal(x.numerator) / Decimal(x.denominator), "f")


def _write(expr: PolyExpr) -> str:
    """expr in the grammar, with every coefficient spelled out."""
    text = ""
    for t in expr.terms:
        c = t.coeff
        if isinstance(c, GaussianRational):
            negative = c.real < 0 or (c.real == 0 and c.imag < 0)
            c = -c if negative else c
            body = f"({_decimal(c.real)}{'-' if c.imag < 0 else '+'}{_decimal(abs(c.imag))}i)"
        else:
            negative = c < 0
            body = _decimal(abs(c))
        word = "".join(f"{name}^{exp}" for name, exp in t.word)
        text += f" {'-' if negative else '+'} {body}" + (f"*{word}" if word else "")
    return text.lstrip(" +")


ROUND_TRIP_CORPUS = [
    "x + x^-1 + y + y^-1",
    "3 + i*x - i*x^-1 + y",
    "1 + x + y",
    "x + 2*y",
    "2*x + y + y^-1",
    "x + y + y^-1",
    "1 + x1 + x2 + x1^-1 + x2^-1",
    "x + x^-1",
    "x + x^-1 + 2",
    "0.5*x + 0.5*x^-1",
    "(1+2i)*x + (1-2i)*x^-1",
    "i*xy - i*yx",
    "-x + y",
    "-2*x - 3*y",
    "x^3 + x^-3",
    "5",
    "i",
    "x1^2x2^-2",
    "2.75*y + 0.125",
    "yx^2 + x^-2y",
] + [f"{c} + {c}*x^{e} + y^{-e}" for c in (1, 2, 7) for e in (1, 2, 5)] + [
    f"(0.5+{q}i)*x + (0.5-{q}i)*x^-1" for q in (1, 2, 0.25)
] + [f"x^{e} + 2*yx^{e}" for e in range(2, 10)] + [
    f"{c}*x1x2^{e} - {c}*x2x1^{-e}" for c in (1, 3) for e in (1, 2, 3)
] + ["x1 + x2 + x3 + x4", "0.25", "- 4*y", "i*x1^2 - i*x2^2"]


def test_corpus_is_big_enough():
    assert len(ROUND_TRIP_CORPUS) >= 50


@pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
def test_print_parse_round_trip(src):
    tree = parse_poly(src)
    assert parse_poly(_write(tree)) == tree


# ---------------------------------------------------------------------------
# binding to groups


def test_to_ring_element_z32():
    P = parse_poly_over("1+x+y", Z32)
    assert dict(P.terms) == {(0, 0): 1, (1, 0): 1, (0, 1): 1}


def test_to_ring_element_unknown_generator():
    with pytest.raises(ParseError):
        parse_poly_over("x + z", Z2)  # z is a syntax error already
    with pytest.raises(ParseError):
        parse_poly_over("x1 + x3", gr.AbelianProduct((0, 0)))
    # a factor with exponent 0 names a generator too
    Z = gr.AbelianProduct((0,))
    for src in ("y^0", "xy^0", "x2^0"):
        with pytest.raises(ParseError, match="unknown generator"):
            parse_poly_over(src, Z)


def test_to_ring_element_folds_exponents():
    P = parse_poly_over("x^5", gr.AbelianProduct((3,)))
    assert dict(P.terms) == {(2,): 1}
    P2 = parse_poly_over("x + x", gr.AbelianProduct((3,)))
    assert dict(P2.terms) == {(1,): 2}
    # a word whose every exponent is 0 is the identity
    assert dict(parse_poly_over("x^0+y", Z2).terms) == {(0, 0): 1, (0, 1): 1}
    assert dict(parse_poly_over("2*x^0y^0", Z2).terms) == {(0, 0): 2}


def test_to_ring_element_dihedral_words():
    P = parse_poly_over("yx + xy", gr.Dihedral(3))
    # xy = y x^-1 in D_m, so both words share the coefficient mass
    assert dict(P.terms) == {(1, 1): 1, (1, 2): 1}


# ---------------------------------------------------------------------------
# group specifiers


def test_parse_group_examples():
    assert parse_group("Z/3xZ/2") == gr.AbelianProduct((3, 2))
    assert parse_group("D3") == gr.Dihedral(3)
    assert parse_group("C2*C3") == gr.FreeProductCyclic((2, 3))
    assert parse_group("Z^2") == gr.AbelianProduct((0, 0))
    assert parse_group("ZxZ/4") == gr.AbelianProduct((0, 4))
    assert parse_group("Dinf") == gr.Dihedral(0)
    assert parse_group("Dic3") == gr.Dicyclic(3)
    assert parse_group("Dicinf") == gr.Dicyclic(0)
    assert parse_group("F2") == gr.Free(2)
    assert parse_group("Z") == gr.AbelianProduct((0,))
    assert parse_group("Z^2xZ/3") == gr.AbelianProduct((0, 0, 3))


TOO_MANY = "has more than 9 generators, the most the polynomial grammar supports"
TOO_LONG = "has an order of more than 4300 digits"
GROUP_REJECTS = [
    ("", "empty group specifier"),
    ("Q8", "bad abelian factor 'Q8' in 'Q8'"),
    ("Z/", "bad abelian factor 'Z/' in 'Z/'"),
    ("Z/0", "bad abelian factor 'Z/0' in 'Z/0'"),
    ("C1*C2", "factor orders must be >= 2"),
    ("C2", "bad abelian factor 'C2' in 'C2'"),
    ("D-1", "bad dihedral specifier 'D-1'"),
    ("D0", "bad dihedral specifier 'D0'"),
    ("Dic0", "bad dicyclic specifier 'Dic0'"),
    ("F0", "bad free-group specifier 'F0'"),
    ("Zx", "bad abelian factor '' in 'Zx'"),
    ("z^2", "bad abelian factor 'z^2' in 'z^2'"),
    ("C2*D3", "bad free-product factor 'D3' in 'C2*D3'"),
    ("C2*", "bad free-product factor '' in 'C2*'"),
    ("Dic", "bad dicyclic specifier 'Dic'"),
    ("Dinfx", "bad dihedral specifier 'Dinfx'"),
    ("F2x", "bad free-group specifier 'F2x'"),
    ("Z^0", "AbelianProduct needs at least one factor"),
    # more generators than the grammar names x1..x9, refused before building
    ("Z^12", f"'Z^12' {TOO_MANY}"),
    ("Z^" + "9" * 30, f"'Z^{'9' * 30}' {TOO_MANY}"),
    ("Z^1000000", f"'Z^1000000' {TOO_MANY}"),
    ("Z^5xZ^5", f"'Z^5xZ^5' {TOO_MANY}"),
    ("F10", f"'F10' {TOO_MANY}"),
    ("F" + "9" * 5000, f"'F{'9' * 5000}' {TOO_MANY}"),
    ("C2*" * 9 + "C3", f"'{'C2*' * 9}C3' {TOO_MANY}"),
    ("C1*" * 9 + "C3", "factor orders must be >= 2"),
    ("Z^10xQ", "bad abelian factor 'Q' in 'Z^10xQ'"),
    # an order too long for int(): refused, not converted
    ("D" + "9" * 5000, f"'D{'9' * 5000}' {TOO_LONG}"),
    ("Dic" + "9" * 5000, f"'Dic{'9' * 5000}' {TOO_LONG}"),
    ("Z/" + "9" * 5000, f"'Z/{'9' * 5000}' {TOO_LONG}"),
    ("C" + "9" * 5000 + "*C2", f"'C{'9' * 5000}*C2' {TOO_LONG}"),
]


@pytest.mark.parametrize(
    "bad, message", GROUP_REJECTS, ids=[bad[:12] for bad, _ in GROUP_REJECTS]
)
def test_parse_group_rejects(bad, message):
    with pytest.raises(ParseError) as info:
        parse_group(bad)
    assert str(info.value) == message
