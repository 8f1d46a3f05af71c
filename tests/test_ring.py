import ast
import math
import re
import time
import tracemalloc
import typing
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grmahler import genfun as gf
from grmahler import groups as gr
from grmahler import ring as rg
from grmahler.cli import format_number
from grmahler.coeffs import GaussianRational
from grmahler.errors import GroupMismatchError, InfiniteGroupError, ResourceLimitError
from grmahler.parsing import parse_poly_over

from conftest import (
    BLOCK_GROUPS,
    FINITE_CATALOGUE,
    random_element,
    random_nearest_neighbour,
    random_reciprocal,
    random_ring_element,
    random_split_element,
    word_element,
)

Z32 = gr.AbelianProduct((3, 2))
D3 = gr.Dihedral(3)
Z2 = gr.AbelianProduct((0, 0))


def test_qqstar_example_z3z2():
    Q = parse_poly_over("1+x+y", Z32)
    got = rg.mul(Q, rg.star(Q))
    want = parse_poly_over("3 + x + x^-1 + 2*y + yx + yx^-1", Z32)
    assert got.terms == want.terms


def test_qqstar_example_d3():
    Q = parse_poly_over("x+2*y", D3)
    got = rg.mul(Q, rg.star(Q))
    want = parse_poly_over("5 + 4*yx^-1", D3)
    assert got.terms == want.terms


def test_qqstar_example_z3z2_x_plus_2y():
    Q = parse_poly_over("x+2*y", Z32)
    got = rg.mul(Q, rg.star(Q))
    want = parse_poly_over("5 + 2*yx + 2*yx^-1", Z32)
    assert got.terms == want.terms


def test_add_examples():
    x = parse_poly_over("x", Z2)
    xinv = parse_poly_over("x^-1", Z2)
    assert rg.add(x, xinv).terms == parse_poly_over("x + x^-1", Z2).terms
    P = parse_poly_over("1+x+y", Z2)
    assert rg.add(P, rg.scale(-1, P)).is_zero()
    assert rg.add(parse_poly_over("1+x", Z2), parse_poly_over("1-x", Z2)).terms == (
        ((0, 0), 2),
    )


def test_add_rejects_group_mismatch():
    with pytest.raises(GroupMismatchError):
        rg.add(parse_poly_over("x", Z2), parse_poly_over("x", D3))
    with pytest.raises(GroupMismatchError):
        rg.mul(parse_poly_over("x", Z32), parse_poly_over("x", Z2))


def test_star_fixes_reciprocal_elements():
    P = parse_poly_over("x + x^-1 + y + y^-1", Z2)
    assert rg.star(P).terms == P.terms
    assert rg.is_reciprocal(P)
    P2 = parse_poly_over("3 + i*x - i*x^-1 + y", Z32)
    assert rg.star(P2).terms == P2.terms
    assert rg.is_reciprocal(P2)


def test_is_reciprocal_examples():
    assert not rg.is_reciprocal(parse_poly_over("x+2*y", D3))
    assert rg.is_reciprocal(rg.zero(D3))
    # the same element IS reciprocal over D3 too (x^-1 and y are self-paired)
    assert rg.is_reciprocal(parse_poly_over("3 + i*x - i*x^-1 + y", D3))


def test_star_is_involution(rng):
    for g in (Z32, D3, Z2, gr.Free(2)):
        for _ in range(20):
            Q = random_ring_element(g, rng)
            assert rg.star(rg.star(Q)).terms == Q.terms


def test_star_antihomomorphism(rng):
    for g in (Z32, D3, gr.Dicyclic(2), gr.FreeProductCyclic((2, 3))):
        for _ in range(20):
            a = random_ring_element(g, rng)
            b = random_ring_element(g, rng)
            assert rg.star(rg.mul(a, b)).terms == rg.mul(rg.star(b), rg.star(a)).terms


def test_qqstar_reciprocal_with_l2_constant(rng):
    for g in (Z32, D3, gr.Dicyclic(2)):
        for _ in range(20):
            Q = random_ring_element(g, rng)
            B = rg.mul(Q, rg.star(Q))
            assert rg.is_reciprocal(B)
            l2sq = sum(
                c.real**2 + c.imag**2 if isinstance(c, GaussianRational) else c * c
                for _, c in Q.terms
            )
            assert B.coeff(g.identity()) == l2sq


def test_constant_coefficient_examples():
    for text, g, want in (("3+x+x^-1+2*y", Z32, 3), ("x", Z2, 0), ("1", Z2, 1)):
        assert parse_poly_over(text, g).coeff(g.identity()) == want


def test_l1_norm_examples():
    assert rg.l1_norm(parse_poly_over("x + x^-1 + y + y^-1", Z2)) == 4.0
    assert rg.l1_norm(rg.zero(Z2)) == 0.0
    assert rg.l1_norm(parse_poly_over("3 + i*x - i*x^-1 + y", Z32)) == 6.0


def test_canonical_order_and_zero_dropping():
    P = rg.ring_element(Z32, {(1, 0): 1, (0, 0): 2, (2, 1): 0})
    assert P.terms == (((0, 0), 2), ((1, 0), 1))
    # float anywhere degrades every coefficient to complex
    Q = rg.ring_element(Z32, {(1, 0): 1, (0, 1): 0.5})
    assert all(isinstance(c, complex) for _, c in Q.terms)
    assert not Q.is_exact()
    assert P.is_exact()


# ---------------------------------------------------------------------------
# power coefficients against frozen and independent oracles

F2_WALKS = (1, 0, 4, 0, 28, 0, 232, 0, 2092, 0, 19864, 0, 195352)


def test_power_coeffs_z2():
    P = parse_poly_over("x + x^-1 + y + y^-1", Z2)
    got = rg.power_constant_coeffs(P, 8).values
    assert got == tuple(
        math.comb(n, n // 2) ** 2 if n % 2 == 0 else 0 for n in range(9)
    )


def test_power_coeffs_z_x_z2():
    g = gr.AbelianProduct((0, 2))
    P = parse_poly_over("x + x^-1 + y + y^-1", g)
    got = rg.power_constant_coeffs(P, 12).values
    want = tuple(math.comb(2 * n, n) if n % 2 == 0 else 0 for n in range(13))
    assert got == want


def test_power_coeffs_free_group():
    P = parse_poly_over("x + x^-1 + y + y^-1", gr.Free(2))
    got = rg.power_constant_coeffs(P, 6).values
    assert got == F2_WALKS[:7]


def test_free_group_walks_match_distance_dp():
    # independent oracle: distance-from-root DP on the 4-regular tree
    f = {0: 1}
    dp = [1]
    for _ in range(10):
        nxt = {}
        for d, c in f.items():
            if d == 0:
                nxt[1] = nxt.get(1, 0) + 4 * c
            else:
                nxt[d - 1] = nxt.get(d - 1, 0) + c
                nxt[d + 1] = nxt.get(d + 1, 0) + 3 * c
        f = nxt
        dp.append(f.get(0, 0))
    P = parse_poly_over("x + x^-1 + y + y^-1", gr.Free(2))
    assert rg.power_constant_coeffs(P, 10).values == tuple(dp)
    counts = rg.walk_counts(P)  # lazily: one power per value drawn
    assert [next(counts) for _ in range(11)] == dp


# every catalogue family; Dicyclic is the one where (y x^k)^-1 != y x^k
KERNEL_GROUPS = FINITE_CATALOGUE + [
    gr.Free(2),
    gr.FreeProductCyclic((2, 3)),
    Z2,
    gr.Dihedral(0),
]

EXACT_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(-2, 2, max_denominator=4),
    st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2)),
)


@pytest.mark.parametrize("g", KERNEL_GROUPS, ids=repr)
@settings(max_examples=8)
@given(st.randoms(use_true_random=False), st.lists(EXACT_COEFFS, min_size=1, max_size=3))
def test_walk_counts_match_ring_powers(g, rnd, coeffs):
    # meet-in-the-middle pairing against the constant coefficient of the
    # full power, for both parities and non-reciprocal P
    terms = {}
    for c in coeffs:
        e = random_element(g, rnd)
        terms[e] = terms.get(e, 0) + c
    P = rg.ring_element(g, terms)
    assume(not rg.is_reciprocal(P))
    powers = [rg.one(g)]  # P^0 .. P^9, one multiplication per step
    for _ in range(9):
        powers.append(rg.mul(powers[-1], P))
    counts = rg.walk_counts(P)
    assert [next(counts) for _ in powers] == [Pn.coeff(g.identity()) for Pn in powers]


def _walk_counts_on_forms(P, n):
    """a_0..a_n by the walk on normal forms: each half power is a fresh
    product of the last one with P (the loop of ring._mul_terms), each
    pairing inverts every element of the smaller half."""
    g = P.group
    mul = g.multiplier()

    def count(high, low):
        total = 0
        for e, c in low.items():
            d = high.get(g.invert(e))
            if d is not None:
                total += c * d
        return total or 0

    values, low = [], {g.identity(): 1}
    while True:
        values.append(count(low, low))
        high = {}
        for ea, ca in low.items():
            for eb, cb in P.terms:
                e = mul(ea, eb)
                prev = high.get(e)
                high[e] = ca * cb if prev is None else prev + ca * cb
        for e in [e for e, c in high.items() if c == 0]:
            del high[e]
        values.append(count(high, low))
        if len(values) > n:
            return values[: n + 1]
        low = high


FLOAT_COEFFS = st.one_of(
    st.floats(-2, 2, allow_nan=False),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)


@pytest.mark.parametrize("g", KERNEL_GROUPS, ids=repr)
@settings(max_examples=8)
@given(st.randoms(use_true_random=False), st.lists(FLOAT_COEFFS, min_size=1, max_size=4),
       st.booleans())
def test_float_walk_counts_bit_identical_to_the_walk_on_forms(g, rnd, coeffs, reciprocal):
    # floating sums are not associative: the ids walk must add the same
    # terms in the same order, which shows in the last bits
    terms = {}
    for c in coeffs:
        e = random_element(g, rnd)
        terms[e] = terms.get(e, 0) + c
    P = rg.ring_element(g, terms)
    if reciprocal:
        P = rg.add(P, rg.star(P))
    assume(not P.is_exact() and rg.is_reciprocal(P) == reciprocal)
    got = list(islice(rg.walk_counts(P), 10))
    want = _walk_counts_on_forms(P, 9)
    assert got == want
    assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]


def _assert_block_walk_is_the_walk(P, N):
    # the product rule against the Cayley walk: equal values, printed alike;
    # an exact count's kind (int, Fraction or a real GaussianRational) may
    # differ where the two sum a cancelling pair apart or together, which no
    # series reads (test_mahler.py::test_series_terms_do_not_depend_on_the_walk)
    got = rg.block_walk_counts(P, N)
    want = tuple(islice(rg.walk_counts(P), N + 1))
    assert got == want
    assert [format_number(v) for v in got] == [format_number(v) for v in want]


@pytest.mark.parametrize("g", BLOCK_GROUPS, ids=repr)
@settings(max_examples=25)
@given(st.randoms(use_true_random=False), st.lists(EXACT_COEFFS, max_size=6),
       st.integers(0, 12))
def test_block_walk_counts_equal_the_cayley_walk(g, rnd, coeffs, N):
    _assert_block_walk_is_the_walk(random_split_element(g, rnd, coeffs), N)


G = GaussianRational
Z3ZZ4 = gr.AbelianProduct((3, 0, 4))


@pytest.mark.parametrize("g, terms, N, splits", [
    (Z3ZZ4, {(1, 0, 0): G(0, 1), (2, 0, 0): G(0, -1), (0, 1, 0): 1, (0, -1, 0): 1,
             (0, 0, 1): 2, (0, 0, 0): 3}, 12, True),
    (Z2, {(1, 0): Fraction(1, 2), (-1, 0): Fraction(1, 2), (0, 1): 1, (0, -1): 1}, 16, True),
    (Z2, {(0, 0): G(2, 1), (1, 0): 1, (0, -1): 1}, 9, True),
    # -y + y^2 cancels in the y-block's a_3, so the product rule's a_3 is the
    # Fraction -45 where the walk, adding the pair apart, gets G(-45, 0)
    (gr.AbelianProduct((4, 3)), {(0, 1): -1, (0, 2): G(1, 0), (1, 0): 3, (2, 0): Fraction(-5, 3)},
     8, True),
    (Z2, {(1, 0): 1, (0, 0): 0}, 0, False),  # N = 0
    (Z2, {(0, 0): Fraction(-3, 2)}, 6, False),  # the constant alone
    (Z2, {(1, 1): 1, (-1, -1): 1, (1, 0): 1, (-1, 0): 1}, 12, False),  # xy joins x and y
    # x1x2x3 joins the blocks of x1 and x3
    (gr.AbelianProduct((0, 0, 0)), {(1, 0, 0): 1, (0, 0, 1): 1, (1, 1, 1): 1, (0, 0, 0): 1},
     10, False),
], ids=["gaussian-Z/3xZxZ/4", "fraction-Z^2", "gaussian-constant", "cancelling-pair", "N=0",
        "constant", "xy-one-block", "Z^3-one-block"])
def test_block_walk_counts_examples(monkeypatch, g, terms, N, splits):
    # a P of one block, or of none, is walked whole: nothing is convolved
    if not splits:
        monkeypatch.setattr(rg, "_binomial_convolution",
                            lambda s, b: pytest.fail("one block needs no product rule"))
    _assert_block_walk_is_the_walk(rg.ring_element(g, terms), N)


@pytest.mark.parametrize("g, text, walks", [
    (gr.AbelianProduct((0, 0, 0)), "x1+x1^-1+x2+x2^-1+x3+x3^-1", 1),
    (Z2, "x+x^-1+2*y+2*y^-1", 2),
], ids=["Z^3-three-equal-blocks", "Z^2-two-blocks"])
def test_block_walk_counts_walk_each_distinct_block_once(monkeypatch, g, text, walks):
    # x1 + x1^-1, x2 + x2^-1 and x3 + x3^-1 are one element of Z on their own
    # axes, so one walk serves all three; y + y^-1 weighted 2 is another
    P = parse_poly_over(text, g)
    want = rg.power_constant_coeffs(P, 30).values
    walked = []
    walk_counts = rg.walk_counts
    monkeypatch.setattr(rg, "walk_counts",
                        lambda Q, *args: walked.append(Q) or walk_counts(Q, *args))
    assert rg.block_walk_counts(P, 30) == want
    assert len(walked) == len(set(walked)) == walks


def test_block_walk_counts_keep_the_walk_elsewhere():
    # any other group is walked whole unless P is nearest-neighbour on a free
    # family, as this one with a step x^2 is not; the support cap
    # holds in each block
    P = parse_poly_over("x^2 + x^-2 + y + y^-1", gr.Free(2))
    assert rg.block_walk_counts(P, 10) == rg.power_constant_coeffs(P, 10).values
    with pytest.raises(ResourceLimitError):
        rg.block_walk_counts(P, 8, support_cap=50)
    P = parse_poly_over("x + x^-1 + y + y^-1", Z2)
    assert rg.block_walk_counts(P, 8, support_cap=25) == (1, 0, 4, 0, 36, 0, 400, 0, 4900)
    with pytest.raises(ResourceLimitError, match=re.escape("5*5 = 25 > 24")):
        rg.block_walk_counts(P, 8, support_cap=24)
    with pytest.raises(ValueError):
        rg.block_walk_counts(P, -1)


FIRST_PASSAGE_GROUPS = [gr.Free(1), gr.Free(2), gr.Free(3), gr.FreeProductCyclic((2, 3)),
                        gr.FreeProductCyclic((3, 3)), gr.FreeProductCyclic((2, 2, 2)),
                        gr.FreeProductCyclic((2, 5))]


@pytest.mark.parametrize("g", FIRST_PASSAGE_GROUPS, ids=repr)
@settings(max_examples=20)
@given(st.randoms(use_true_random=False), st.lists(EXACT_COEFFS, min_size=1, max_size=6),
       st.integers(0, 14))
def test_first_passage_counts_equal_the_cayley_walk(g, rnd, coeffs, N):
    # any nearest-neighbour P, with or without a constant, reciprocal or not;
    # the walk stays cheap to depth 14 (10 on F3)
    N = min(N, 10) if g == gr.Free(3) else N
    terms = {}
    for c in coeffs:
        e = random_nearest_neighbour(g, rnd)
        terms[e] = terms.get(e, 0) + c
    P = rg.ring_element(g, terms)
    got = rg.first_passage_counts(P, N)
    want = tuple(islice(rg.walk_counts(P), N + 1))
    assert got == want
    assert [format_number(v) for v in got] == [format_number(v) for v in want]
    assert rg.block_walk_counts(P, N) == got


@pytest.mark.parametrize("g, poly, closed", [
    (gr.Free(2), "x+x^-1+y+y^-1", gf.u_free(2)),
    (gr.FreeProductCyclic((2, 3)), "x+y+y^-1", gf.u_psl2("x+y+y^-1")),
    (gr.FreeProductCyclic((2, 3)), "2*x+y+y^-1", gf.u_psl2("2x+y+y^-1")),
    (gr.FreeProductCyclic((2, 2, 2)), "x1+x2+x3", gf.tree_walk_series(3)),
], ids=["F2", "psl2-xyy", "psl2-2xyy", "C2*C2*C2"])
def test_first_passage_counts_match_closed_forms_to_100(g, poly, closed):
    assert list(rg.first_passage_counts(parse_poly_over(poly, g), 100)) == closed.coeffs(100)


def test_first_passage_states_stay_near_the_identity():
    # a factor of order 10^30 holds only the states within N/2 steps of 0
    g = gr.FreeProductCyclic((2, 10**30))
    for poly, N in (("3 + y + 2*y^-1 + y^7", 50), ("x + y + y^-1", 50), ("x + y^3 + y^-2", 18)):
        P = parse_poly_over(poly, g)
        start = time.perf_counter()
        got = rg.first_passage_counts(P, N)
        assert time.perf_counter() - start < 1.0
        if N < 50 or "x" not in poly:  # x + y + y^-1 at 50 outgrows the default support cap
            assert got == tuple(islice(rg.walk_counts(P), N + 1))
        # no closed walk of N steps of at most 7 winds around a factor of order 7N + 1
        small = gr.FreeProductCyclic((2, 7 * N + 1))
        assert rg.first_passage_counts(parse_poly_over(poly, small), N) == got


@pytest.mark.parametrize("g, poly", [
    (gr.Free(2), "x^2 + x^-2 + y + y^-1"), (gr.Free(2), "xy + 3"),
    (gr.FreeProductCyclic((2, 3)), "xy + y^-1x + 1"), (Z2, "x + x^-1 + y + y^-1"),
    (gr.Dihedral(0), "x + x^-1 + y"),
], ids=["F2-square", "F2-xy", "C2*C3-xy", "Z^2", "Dinf"])
def test_other_p_still_walk(g, poly):
    P = parse_poly_over(poly, g)
    assert rg.first_passage_counts(P, 8) is None
    assert rg.block_walk_counts(P, 8) == tuple(islice(rg.walk_counts(P), 9))


def test_the_cayley_walk_never_reaches_the_solver(monkeypatch):
    # walk_counts and power_constant_coeffs (coeffs, agree-depth) stay the
    # oracle of the series counts, which block_walk_counts takes from the solver
    P = parse_poly_over("x + x^-1 + y + y^-1", gr.Free(2))
    want = gf.u_free(2).coeffs(12)
    monkeypatch.setattr(rg, "first_passage_counts",
                        lambda P, N: pytest.fail("the walk reached the solver"))
    assert list(rg.power_constant_coeffs(P, 12).values) == want
    assert list(islice(rg.walk_counts(P), 13)) == want
    with pytest.raises(pytest.fail.Exception):
        rg.block_walk_counts(P, 12)


@pytest.mark.parametrize("g, poly, N", [(Z2, "x+x^-1+y+y^-1", 40),
                                        (gr.Dihedral(0), "x+x^-1+y", 60)], ids=repr)
def test_walk_computes_each_product_and_inverse_once(monkeypatch, g, poly, N):
    P = parse_poly_over(poly, g)
    powers = [rg.one(g)]
    for _ in range(N // 2):
        powers.append(rg.mul(powers[-1], P))
    # a_0..a_N pair halves up to P^(N/2), built from P^0..P^(N/2 - 1)
    expanded = {e for Pk in powers[:-1] for e, _ in Pk.terms}
    paired = expanded | {e for e, _ in powers[-1].terms}
    calls = {"law": 0, "invert": 0}
    family = type(g)
    multiplier, invert = family.multiplier, family.invert

    def counted_multiplier(self):
        law = multiplier(self)

        def counted_law(a, b):
            calls["law"] += 1
            return law(a, b)

        return counted_law

    def counted_invert(self, a):
        calls["invert"] += 1
        return invert(self, a)

    monkeypatch.setattr(family, "multiplier", counted_multiplier)
    monkeypatch.setattr(family, "invert", counted_invert)
    values = rg.power_constant_coeffs(P, N).values
    assert calls["law"] <= len(P.terms) * len(expanded)
    assert calls["invert"] <= len(paired)
    monkeypatch.undo()
    assert list(values) == _walk_counts_on_forms(P, N)


def test_a_walk_does_not_intern_inverses_no_power_holds():
    # the powers of x + y hold only positive words: looking up each one's
    # inverse must not add the negative words to the graph (their tuples
    # collide in CPython's hash, so a dict of them goes quadratic)
    g = gr.Free(2)
    start = time.perf_counter()
    values = list(islice(rg.walk_counts(parse_poly_over("x+y", g)), 29))
    assert time.perf_counter() - start < 3.0
    assert values == [1] + [0] * 28


def test_interleaved_walks_do_not_share_state():
    Ps = [parse_poly_over("x+x^-1+y+y^-1", Z2), parse_poly_over("3+x+2*y^-1", Z2),
          parse_poly_over("x+x^-1+y", gr.Dihedral(0))]
    alone = [list(islice(rg.walk_counts(P), 16)) for P in Ps]
    walks = [rg.walk_counts(P) for P in Ps]
    together = [[next(w) for w in walks] for _ in range(16)]
    assert [list(column) for column in zip(*together)] == alone


def test_a_finished_walk_leaves_nothing_behind():
    # the Cayley graph a walk builds lives in the generator only
    assert not [name for name, value in vars(rg).items() if not name.startswith("__")
                and isinstance(value, (dict, list, set, bytearray))]
    P = parse_poly_over("x+x^-1+y+y^-1", Z2)
    in_ring = [tracemalloc.Filter(True, rg.__file__)]

    def held_by_ring():
        snapshot = tracemalloc.take_snapshot().filter_traces(in_ring)
        return sum(stat.size for stat in snapshot.statistics("filename"))

    list(islice(rg.walk_counts(P), 41))  # the first call specializes the bytecode
    tracemalloc.start()
    try:
        walk = rg.walk_counts(P)
        list(islice(walk, 41))
        during = held_by_ring()
        del walk
        after = held_by_ring()
    finally:
        tracemalloc.stop()
    assert during > 0 and after == 0


def test_cancelled_walk_count_is_the_int_zero():
    # a_2 = 1 + 1 + i*i + i*i cancels; like a count off the support it is 0
    P = parse_poly_over("x + x^-1 + i*y + i*y^-1", Z2)
    values = rg.power_constant_coeffs(P, 2).values
    assert values == (1, 0, 0) and type(values[2]) is int


def test_psl2_walks_match_closed_form_to_30():
    # reference from the algebraic series, not from powering
    g = gr.FreeProductCyclic((2, 3))
    P = parse_poly_over("2*x + y + y^-1", g)
    want = tuple(gf.u_psl2("2x+y+y^-1").coeffs(30))
    assert rg.power_constant_coeffs(P, 30).values == want


@pytest.mark.parametrize(
    "g", [gr.Free(2), Z2, gr.Dihedral(0), gr.FreeProductCyclic((2, 3))], ids=repr
)
@given(st.randoms(use_true_random=False), st.integers(1, 2000), st.integers(0, 9))
def test_support_cap_never_refuses_later_than_a_power(g, rnd, cap, n):
    P = random_ring_element(g, rnd, n_terms=4, gaussian=False)
    powers = [rg.one(g)]  # P^0 .. P^n, one multiplication per step
    for _ in range(n):
        powers.append(rg.mul(powers[-1], P))
    supports = [len(Pm.terms) for Pm in powers]
    # a_m pairs P^ceil(m/2) with P^floor(m/2); their support product bounds
    # |supp P^m|, so a power that outgrows the cap always refuses
    bound = max(supports[(m + 1) // 2] * supports[m // 2] for m in range(n + 1))
    assert max(supports) <= bound
    if bound > cap:
        with pytest.raises(ResourceLimitError):
            rg.power_constant_coeffs(P, n, support_cap=cap)
    else:
        got = rg.power_constant_coeffs(P, n, support_cap=cap).values
        assert got == tuple(Pm.coeff(Pm.group.identity()) for Pm in powers)


def test_only_ring_touches_private_ring_names():
    # one walk-count kernel: the other modules use ring's public API only
    src = Path(rg.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "ring.py":
            text = path.read_text()
            assert not re.search(r"\b(rg|ring)\._", text), path.name


def test_only_mahler_names_a_measure_route():
    # one route choice, mahler.measure: the other modules measure through it
    src = Path(rg.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "mahler.py":
            text = path.read_text()
            assert not re.search(r"\bmahler_(finite|series|general|torus)\b", text), path.name


def test_no_runtime_assertions_in_the_library():
    # python -O strips assert statements, so a runtime check must raise a
    # typed error instead; AssertionError is no member of the taxonomy
    src = Path(rg.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Name):
                assert node.id != "AssertionError", f"{path.name}:{node.lineno}"


def test_no_match_statement_in_the_library():
    # a group family carries its operations as methods: nothing dispatches on it
    src = Path(rg.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Match), f"{path.name}:{node.lineno}"


GROUP_PROTOCOL = ("parse", "order", "is_finite", "identity", "multiplier", "invert",
                  "elements", "element_index", "element_sort_key", "validate_element",
                  "num_generators", "generator", "element_word")
# each family by a finite and an infinite specifier where it has both
FAMILY_SPECS = {
    "Z/3xZ/2": gr.AbelianProduct((3, 2)), "Z/3xZ": gr.AbelianProduct((3, 0)),
    "D3": gr.Dihedral(3), "Dinf": gr.Dihedral(0), "Dic2": gr.Dicyclic(2),
    "Dicinf": gr.Dicyclic(0), "F2": gr.Free(2), "C2*C3": gr.FreeProductCyclic((2, 3)),
}


def test_every_group_family_implements_the_protocol():
    families = set(typing.get_args(gr.GroupSpec))
    assert families == set(gr.FAMILIES) == {type(g) for g in FAMILY_SPECS.values()}
    for spec, g in FAMILY_SPECS.items():
        family = type(g)
        missing = [name for name in GROUP_PROTOCOL if not callable(getattr(family, name, None))]
        assert not missing, (family.__name__, missing)
        assert family.parse(spec, spec) == g
        e = g.identity()
        g.validate_element(e)
        assert g.multiplier()(e, e) == e and g.invert(e) == e and g.element_word(e) == ()
        for i in range(g.num_generators()):
            x = g.generator(i)
            g.validate_element(x)
            assert g.multiplier()(x, g.invert(x)) == e
            assert word_element(g, g.element_word(x)) == x
            assert g.element_sort_key(e) < g.element_sort_key(x)
        if g.is_finite():
            assert [g.element_index(a) for a in g.elements()] == list(range(g.order()))
        else:
            with pytest.raises(InfiniteGroupError):
                g.elements()


def test_power_coeffs_free_product():
    g = gr.FreeProductCyclic((2, 3))
    P = parse_poly_over("2*x + y + y^-1", g)
    got = rg.power_constant_coeffs(P, 2).values
    assert got == (1, 0, 6)


def test_series_metadata():
    P = parse_poly_over("x + x^-1 + y + y^-1", Z2)
    s = rg.power_constant_coeffs(P, 6)
    assert s.values[0] == 1
    assert s.n == 6
    assert s.l1_bound == 4.0
    assert all(abs(v) <= s.l1_bound**n for n, v in enumerate(s.values))


def test_support_cap():
    P = parse_poly_over("x + x^-1 + y + y^-1", gr.Free(2))
    with pytest.raises(ResourceLimitError):
        rg.power_constant_coeffs(P, 8, support_cap=50)
    # supports of P^1..P^4 over F2: 4, 13, 40, 121 reduced words; a_n
    # pairs P^ceil(n/2) with P^floor(n/2), whose support product bounds
    # |supp P^n|: a_2 passes (4*4), a_3 breaks the cap (13*4)
    counts = rg.walk_counts(P, support_cap=50)
    assert [next(counts) for _ in range(3)] == [1, 0, 4]
    with pytest.raises(ResourceLimitError, match=re.escape("13*4 = 52 > 50")):
        next(counts)


def test_reciprocal_powers_are_real(rng):
    for g in (Z32, D3, gr.Dicyclic(2)):
        for _ in range(10):
            P = random_reciprocal(g, rng)
            for v in rg.power_constant_coeffs(P, 6).values:
                if isinstance(v, GaussianRational):
                    assert v.imag == 0
                elif isinstance(v, complex):
                    assert abs(v.imag) <= 1e-12
                else:
                    assert isinstance(v, (int, Fraction))


# ---------------------------------------------------------------------------
# independent abelian oracle: Laurent convolution + residue projection


def _laurent_consts(moduli, terms, N):
    """[P^n]_0 via plain multi-exponent convolution over Z^l, projecting
    exponent vectors to their residues only at the very end."""
    cur = {(0,) * len(moduli): 1}
    out = [1]
    for _ in range(N):
        nxt = {}
        for ea, ca in cur.items():
            for eb, cb in terms.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                nxt[e] = nxt.get(e, 0) + ca * cb
        cur = nxt
        total = 0
        for e, c in cur.items():
            if all(m == 0 and x == 0 or m != 0 and x % m == 0 for x, m in zip(e, moduli)):
                total += c
        out.append(total)
    return out


@pytest.mark.parametrize("moduli", [(4, 3), (0, 2), (0, 0), (5,)])
def test_abelian_powering_matches_laurent_convolution(moduli, rng):
    g = gr.AbelianProduct(moduli)
    for _ in range(5):
        P = random_ring_element(g, rng, n_terms=3, gaussian=False)
        lifted = {}
        for e, c in P.terms:
            w = g.element_word(e)
            vec = [0] * len(moduli)
            for i, exp in w:
                vec[i] += exp
            key = tuple(vec)
            lifted[key] = lifted.get(key, 0) + c
        want = _laurent_consts(moduli, lifted, 6)
        got = rg.power_constant_coeffs(P, 6).values
        assert list(got) == want


# ---------------------------------------------------------------------------
# multinomial walk identities (direct combinatorial oracle)


def _compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, parts - 1):
            yield (head,) + rest


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_p1_powers_match_multinomial_sum(l):
    g = gr.AbelianProduct((0,) * l)
    terms = {}
    for i in range(l):
        for s in (1, -1):
            e = tuple(s if j == i else 0 for j in range(l))
            terms[e] = 1
    P = rg.ring_element(g, terms)
    coeffs = rg.power_constant_coeffs(P, 8).values
    for n in range(0, 5):
        want = sum(
            math.factorial(2 * n) // math.prod(math.factorial(a) ** 2 for a in comp)
            for comp in _compositions(n, l)
        )
        assert coeffs[2 * n] == want
    assert all(coeffs[n] == 0 for n in range(1, 9, 2))


@pytest.mark.parametrize("l", [2, 3, 4])
def test_binomial_relation_between_families(l):
    g1 = gr.AbelianProduct((0,) * l)
    terms = {}
    for i in range(l):
        for s in (1, -1):
            e = tuple(s if j == i else 0 for j in range(l))
            terms[e] = 1
    P1 = rg.ring_element(g1, terms)
    a1 = rg.power_constant_coeffs(P1, 12).values

    g2 = gr.AbelianProduct((0,) * (l - 1))
    ident = g2.identity()
    a = {ident: 1}
    b = {ident: 1}
    for i in range(l - 1):
        e = tuple(1 if j == i else 0 for j in range(l - 1))
        a[e] = 1
        b[g2.invert(e)] = 1
    P2 = rg.mul(rg.ring_element(g2, a), rg.ring_element(g2, b))
    a2 = rg.power_constant_coeffs(P2, 6).values
    for n in range(7):
        assert a1[2 * n] == math.comb(2 * n, n) * a2[n]


# ---------------------------------------------------------------------------
# transfer between groups


def test_transfer_words_between_dihedral_and_abelian():
    P = parse_poly_over("x + x^-1 + y", D3)
    Q = rg.transfer(P, Z32)
    assert Q.terms == parse_poly_over("x + x^-1 + y", Z32).terms
    back = rg.transfer(Q, D3)
    assert back.terms == P.terms


def test_transfer_quotient_reduces_exponents():
    P = parse_poly_over("x^5 + x^-5", Z2)
    Q = rg.transfer(P, gr.AbelianProduct((3, 3)))
    assert Q.terms == parse_poly_over("x^2 + x", gr.AbelianProduct((3, 3))).terms


def test_transfer_rejects_missing_generators():
    P = parse_poly_over("x1 + x2 + x3", gr.AbelianProduct((0, 0, 0)))
    with pytest.raises(GroupMismatchError):
        rg.transfer(P, gr.AbelianProduct((2, 2)))


@given(st.integers(-6, 6), st.integers(-6, 6))
def test_dinf_transfer_to_quotient_is_word_faithful(k1, k2):
    g_inf = gr.Dihedral(0)
    g_m = gr.Dihedral(5)
    P = rg.ring_element(g_inf, {(0, k1): 1, (1, k2): 2})
    Q = rg.transfer(P, g_m)
    total = sum(c for _, c in Q.terms)
    assert total == 3  # coefficients survive, exponents fold mod m
