import cmath
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grmahler import genfun as gf
from grmahler import groups as gr
from grmahler import mahler as mh
from grmahler import ring as rg
from grmahler import spectra as sp
from grmahler.coeffs import GaussianRational, exact_real
from grmahler.errors import (
    DomainError,
    InfiniteGroupError,
    ResourceLimitError,
    SingularMatrixError,
)
from grmahler.parsing import parse_group, parse_poly_over

from conftest import (
    BLOCK_GROUPS,
    FINITE_CATALOGUE,
    dicyclic_theorem_instance,
    dihedral_theorem_instance,
    eigen_trace,
    float_twin,
    from_alpha_beta,
    one_minus_lambda_adjacency,
    random_reciprocal,
    random_split_element,
    zxzm_closed_form,
)
from test_ring import EXACT_COEFFS
from test_routes import EPS, ROUTES, at_lambda, lambda_free

Z2 = gr.AbelianProduct((0, 0))
Z32 = gr.AbelianProduct((3, 2))
D3 = gr.Dihedral(3)
ZxZ2 = gr.AbelianProduct((0, 2))

P_STANDARD = "x + x^-1 + y + y^-1"


# ---------------------------------------------------------------------------
# series route


def test_series_at_zero():
    P = parse_poly_over(P_STANDARD, Z2)
    res = mh.mahler_series(P, 0.0)
    assert res.value == 0.0 and res.error_bound == 0.0 and res.method == "series"


def test_series_requires_contraction():
    P = parse_poly_over(P_STANDARD, Z2)
    with pytest.raises(DomainError):
        mh.mahler_series(P, 0.25)
    with pytest.raises(DomainError):
        mh.mahler_series(P, -0.3)


def test_series_rejects_non_reciprocal():
    with pytest.raises(DomainError, match="^P must be reciprocal$"):
        mh.mahler_series(parse_poly_over("1+x+y", Z32), 0.05)


def test_series_matches_zxz2_closed_form():
    P = parse_poly_over(P_STANDARD, ZxZ2)
    lam = 0.1
    closed = -math.log(2) + 0.5 * (
        math.log(1 - 2 * lam + math.sqrt(1 - 4 * lam))
        + math.log(1 + 2 * lam + math.sqrt(1 + 4 * lam))
    )
    res = mh.mahler_series(P, lam, 1e-11)
    assert abs(res.value - closed) <= res.error_bound + 1e-12


# ---------------------------------------------------------------------------
# finite determinant route


def test_finite_at_zero():
    P = parse_poly_over("x + x^-1 + y", D3)
    assert mh.mahler_finite(P, 0.0).value == 0.0


def test_finite_z2_closed_form():
    g = gr.AbelianProduct((2,))
    P = rg.ring_element(g, {(1,): 2})
    res = mh.mahler_finite(P, 0.1)
    assert abs(res.value - 0.5 * math.log(0.96)) < 1e-14


def test_finite_matches_printed_formula(rng):
    # the displayed 4-factor log formula for the general Z/3 x Z/2 element
    for _ in range(10):
        a, c = rng.randint(-3, 3), rng.randint(-3, 3)
        b = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        d = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        P = rg.ring_element(
            Z32,
            {
                (0, 0): a,
                (1, 0): b,
                (2, 0): b.conjugate(),
                (0, 1): c,
                (1, 1): d,
                (2, 1): d.conjugate(),
            },
        )
        k = rg.l1_norm(P)
        if k == 0:
            continue
        lam = 0.5 / k
        br, bi = float(b.real), float(b.imag)
        dr, di = float(d.real), float(d.imag)
        t1 = (1 - lam * (a - c - (br - dr))) ** 2 - 3 * lam**2 * (bi - di) ** 2
        t2 = (1 - lam * (a + c - (br + dr))) ** 2 - 3 * lam**2 * (bi + di) ** 2
        t3 = 1 - lam * (a + 2 * br - c - 2 * dr)
        t4 = 1 - lam * (a + 2 * br + c + 2 * dr)
        want = (math.log(t1) + math.log(t2) + math.log(t3) + math.log(t4)) / 6
        got = mh.mahler_finite(P, lam).value
        assert abs(got - want) < 1e-12


def test_finite_domain_and_continuation():
    g = gr.AbelianProduct((2,))
    P = rg.ring_element(g, {(1,): 2})  # eigenvalues -2, 2
    with pytest.raises(DomainError):
        mh.mahler_finite(P, 1)
    res = mh.mahler_finite(P, 1, allow_continuation=True)
    assert abs(res.value - math.log(3) / 2) < 1e-12  # |det(I-A)| = |(1-2)(1+2)| = 3
    with pytest.raises(SingularMatrixError):
        mh.mahler_finite(P, Fraction(1, 2), allow_continuation=True)
    with pytest.raises(InfiniteGroupError):
        mh.mahler_finite(parse_poly_over(P_STANDARD, Z2), 0.1)


def test_exp_order_times_measure_is_polynomial():
    # exact determinant interpolation: det(I - lam A) is a polynomial of
    # degree <= |G|, so |G|+1 exact samples pin it down everywhere
    g = gr.Dihedral(3)
    P = parse_poly_over("x + x^-1 + 2*y", g)
    n = g.order()
    nodes = [Fraction(i, 97) for i in range(n + 1)]
    samples = [sp.det_hermitian(one_minus_lambda_adjacency(g, P, t)) for t in nodes]

    def lagrange_eval(x):
        total = Fraction(0)
        for i, (xi, yi) in enumerate(zip(nodes, samples)):
            term = Fraction(yi)
            for j, xj in enumerate(nodes):
                if i != j:
                    term *= Fraction(x - xj, xi - xj)
            total += term
        return total

    for probe in (Fraction(1, 13), Fraction(-3, 11), Fraction(2, 7)):
        assert lagrange_eval(probe) == sp.det_hermitian(one_minus_lambda_adjacency(g, P, probe))
    # and exp(|G| m) equals that polynomial at an interior lambda
    lam = Fraction(1, 20)
    m_val = mh.mahler_finite(P, lam).value
    assert abs(math.exp(n * m_val) - float(lagrange_eval(lam))) < 1e-10


# ---------------------------------------------------------------------------
# the lambda-free measure through QQ*


def test_general_known_constants():
    assert abs(mh.mahler_determinant(parse_poly_over("1+x+y", Z32)).value - math.log(3) / 3) < 1e-15
    assert abs(mh.mahler_determinant(parse_poly_over("x+2*y", Z32)).value - math.log(63) / 6) < 1e-15
    assert abs(mh.mahler_determinant(parse_poly_over("x+2*y", D3)).value - math.log(3) / 2) < 1e-15
    q = "3 + i*x - i*x^-1 + y"
    assert abs(mh.mahler_determinant(parse_poly_over(q, Z32)).value - math.log(104) / 6) < 1e-15
    assert abs(mh.mahler_determinant(parse_poly_over(q, D3)).value - math.log(200) / 6) < 1e-15


def test_exact_determinant_logs_past_float_range_and_near_one():
    # det far past 1e308, where float(det) overflows: m(c + x) over Z/3 is
    # log|c^3 + 1|/3 and m over Z/2 at lambda = 1 is log|1 - c^2|/2
    c = Fraction(10**200, 7)
    log_c = math.log(10**200) - math.log(7)
    Z3 = gr.AbelianProduct((3,))
    res = mh.mahler_determinant(rg.ring_element(Z3, {(0,): c, (1,): 1}))
    assert isinstance(res.determinant, Fraction)
    assert abs(res.value - log_c) <= 1e-13 * log_c
    Z2_ = gr.AbelianProduct((2,))
    P = rg.ring_element(Z2_, {(1,): c})
    res = mh.mahler_finite(P, 1, allow_continuation=True)
    assert abs(res.value - log_c) <= 1e-13 * log_c
    # det B = 1.00001^2 exactly: rounding det B to a float before the log
    # would cost about 4e-12 relative error
    Z5 = gr.AbelianProduct((5,))
    value = mh.mahler_determinant(parse_poly_over("0.1+x", Z5)).value
    assert abs(value - math.log1p(1e-5) / 5) <= 1e-15 * value


def test_float_determinant_past_float_range_gives_a_value():
    # det B ~ e^824 over D200 overflows a float; the sum of the logs of its
    # eigenvalues does not, and D200 agrees with D64 far below 1e-12 here.
    # The product of the eigenvalues is inf, so no determinant is reported
    D200 = gr.Dihedral(200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = mh.mahler_determinant(float_twin(parse_poly_over("3+x+y", D200)))
    assert abs(res.value - _d64_measure("3+x+y")) <= 1e-12
    assert res.determinant is None


# Run in a fresh interpreter, so numpy can only be in sys.modules if the
# call made here imported it
FLOAT_DETERMINANT_SCRIPT = """
import json, sys
from grmahler import groups as gr, mahler as mh, ring as rg
g = gr.Dihedral(64)
Q = rg.ring_element(g, {(0, 0): 3.0, (0, 1): 1.0, (1, 0): 1.0})  # 3 + x + y
res = mh.measure(Q)
print(json.dumps([res.value, res.determinant, "numpy" in sys.modules]))
"""


def test_float_determinant_loads_no_numpy():
    # the lambda-free float determinant takes the eigenvalues of B from the
    # representation blocks, with no adjacency and no LAPACK
    src = str(Path(mh.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", FLOAT_DETERMINANT_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    value, det, numpy = json.loads(done.stdout)
    assert not numpy
    assert isinstance(det, float)
    D64 = gr.Dihedral(64)
    assert abs(value - mh.mahler_determinant(parse_poly_over("3+x+y", D64)).value) <= 1e-12


def test_determinant_refuses_an_infinite_group():
    # the exact and the float determinant each refuse it in their kernel
    g = gr.Dihedral(0)
    Q = parse_poly_over("3+x+y", g)
    with pytest.raises(InfiniteGroupError, match="^a character determinant needs a finite group$"):
        mh.mahler_determinant(Q)
    with pytest.raises(InfiniteGroupError, match="^a block spectrum needs a finite group$"):
        mh.mahler_determinant(float_twin(Q))


def test_general_singular_is_an_error():
    g = gr.AbelianProduct((2,))
    Q = parse_poly_over("1+x", g)  # QQ* = 2 + 2x, det B = 0
    with pytest.raises(SingularMatrixError):
        mh.mahler_determinant(Q)


def test_general_series_fallback_infinite_group():
    # m_Z(3 + x) is the classical one-variable measure log 3; 3 dominates
    # x, so the series at c = 3 converges geometrically
    g = gr.AbelianProduct((0,))
    Q = parse_poly_over("3+x", g)
    res = mh.mahler_general(Q, epsilon=1e-13)
    assert res.method == "series"
    assert abs(res.value - math.log(3)) < 1e-8


def _d64_measure(poly):
    D64 = gr.Dihedral(64)
    return mh.mahler_determinant(parse_poly_over(poly, D64)).value


@pytest.mark.parametrize(
    "group, poly, reference",
    [
        (gr.Dihedral(0), "3+x+y", lambda: _d64_measure("3+x+y")),
        (gr.Dihedral(0), "4+x^-1+y", lambda: _d64_measure("4+x^-1+y")),
        (gr.AbelianProduct((0,)), "3+x", lambda: math.log(3)),
        (Z2, "4+x+y", lambda: math.log(4)),
        (gr.AbelianProduct((0, 0, 0)), "4+x1+x2+x3", lambda: math.log(4)),
        (gr.Dihedral(0), "4+x+y+y^-1", lambda: _d64_measure("4+x+y+y^-1")),
    ],
    ids=["Dinf 3+x+y", "Dinf 4+x^-1+y", "Z 3+x", "Z^2 4+x+y", "Z^3 4+x1+x2+x3",
         "Dinf 4+x+y+y^-1"],
)
def test_general_series_fallback_bound_is_rigorous(group, poly, reference):
    # D64 stands in for Dinf: the two agree far below 1e-10 for these Q
    want = reference()
    Q = parse_poly_over(poly, group)
    for epsilon in (1e-6, 1e-10):
        res = mh.mahler_general(Q, epsilon=epsilon)
        assert res.error_bound <= epsilon
        assert abs(res.value - want) <= res.error_bound


def test_general_series_fallback_over_a_free_group():
    # P = -(x + y)/3 walks no closed path, so the value is log 3; its powers
    # hold 2^n words, 2^14 at the deepest half power
    g = gr.Free(2)
    start = time.perf_counter()
    res = mh.mahler_general(parse_poly_over("3+x+y", g), epsilon=1e-6)
    assert time.perf_counter() - start < 2.0
    assert res.error_bound <= 1e-6
    assert abs(res.value - math.log(3)) <= res.error_bound


def test_general_series_fallback_honours_support_cap():
    # P^n for P = -(x^2 + y)/3 fills F2 exponentially, and a P with a step
    # x^2 is walked (a nearest-neighbour one builds no power)
    g = gr.Free(2)
    Q = parse_poly_over("3+x^2+y", g)
    with pytest.raises(ResourceLimitError, match="cap"):
        mh.mahler_general(Q, support_cap=100)


def test_general_series_fallback_refuses_an_unconverged_sum():
    # m_Dinf(1+x+y) = 0, but no coefficient of 1+x+y dominates the others,
    # so Q is no c g0 (1 - P) with l1(P) < 1 and no tail bound exists
    g = gr.Dihedral(0)
    Q = parse_poly_over("1+x+y", g)
    with pytest.raises(DomainError, match="certificate"):
        mh.mahler_general(Q)


def test_series_on_z3_walks_one_axis_at_a_time(monkeypatch):
    # x1 + x1^-1 + ... + x3^-1 is three commuting one-axis blocks: the series
    # walks Z once per block, never the ball of Z^3 (24,534 group-law calls
    # at depth 30)
    g = parse_group("Z^3")
    P = parse_poly_over("x1+x1^-1+x2+x2^-1+x3+x3^-1", g)
    lam, N = 0.1, 30
    rate = rg.l1_norm(P) * lam
    epsilon = rate ** (N + 1) / ((N + 1) * (1 - rate))  # the tail bound at depth N
    calls = [0]
    multiplier = gr.AbelianProduct.multiplier

    def counted_multiplier(self):
        law = multiplier(self)

        def counted_law(a, b):
            calls[0] += 1
            return law(a, b)

        return counted_law

    monkeypatch.setattr(gr.AbelianProduct, "multiplier", counted_multiplier)
    res = mh.mahler_series(P, lam, epsilon)
    monkeypatch.undo()
    assert res.error_bound == epsilon
    assert 0 < calls[0] <= len(g.moduli) * (N + 2) * 2
    counts = rg.power_constant_coeffs(P, N).values  # the Cayley walk of Z^3
    assert res.value == -math.fsum(a * lam**n / n for n, a in enumerate(counts[1:], 1))


def _assert_series_do_not_depend_on_the_walk(P):
    # a series reads each walk count as a float, or past float range by its
    # rational value, never by its kind: the product rule's counts and the
    # Cayley walk's give bit-identical measures and u
    l1 = rg.l1_norm(P)

    def series():
        return mh.mahler_series(P, 0.25 / l1, 1e-6), mh.u_series(P, (0.2 + 0.2j) / l1, 1e-6)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rg, "block_walk_counts",
                   lambda P, N, cap: rg.power_constant_coeffs(P, N, cap).values)
        want = series()
    assert repr(series()) == repr(want)


@pytest.mark.parametrize("g", BLOCK_GROUPS, ids=repr)
@settings(max_examples=10)
@given(st.randoms(use_true_random=False), st.lists(EXACT_COEFFS, min_size=1, max_size=5))
def test_series_terms_do_not_depend_on_the_walk(g, rnd, coeffs):
    R = random_split_element(g, rnd, coeffs)
    P = rg.add(R, rg.star(R))
    assume(not P.is_zero())
    _assert_series_do_not_depend_on_the_walk(P)


def test_series_read_no_count_by_its_kind():
    # i*y - i*y^-1 over Z/3 cancels in its own a_3, so the product rule's a_3
    # is a Fraction where the walk, adding the pair apart, has a GaussianRational
    g = gr.AbelianProduct((4, 3))
    P = rg.ring_element(g, {(0, 1): GaussianRational(0, 1), (0, 2): GaussianRational(0, -1),
                            (1, 0): 3, (3, 0): 3, (2, 0): Fraction(-5, 3)})
    split, walked = rg.block_walk_counts(P, 3)[3], rg.power_constant_coeffs(P, 3).values[3]
    assert split == walked and (type(split), type(walked)) == (Fraction, GaussianRational)
    _assert_series_do_not_depend_on_the_walk(P)


def test_general_series_fallback_refuses_depth_before_walking():
    # support_cap=0 would refuse a_0, so this error comes before any walk
    Q = parse_poly_over("3+x+y", Z2)
    with pytest.raises(ResourceLimitError, match="max_terms=400"):
        mh.mahler_general(Q, epsilon=1e-300, support_cap=0)


# ---------------------------------------------------------------------------
# the paper's definition m(P, lambda) = m(1 - lambda P), across routes


def test_finite_measure_at_lambda_is_the_measure_of_one_minus_lambda_p(rng):
    # det(B) for B the adjacency of QQ*, Q = 1 - lambda P, is det(I - lambda A)^2
    # (I - lambda A is Hermitian); the float det(B) (numpy) is within 1e-12 of
    # it.  test_routes holds the two measures to each other
    for g in FINITE_CATALOGUE:
        P = random_reciprocal(g, rng)
        k = math.ceil(rg.l1_norm(P))  # |lambda| * spectral radius <= 0.3
        for lam in (Fraction(3, 10 * k), Fraction(-1, 5 * k)):
            Q = rg.add(rg.one(g), rg.scale(-lam, P))
            exact = mh.mahler_determinant(Q).determinant
            assert exact == sp.det_hermitian(one_minus_lambda_adjacency(g, P, lam)) ** 2
            floating = mh.mahler_determinant(float_twin(Q)).determinant
            assert isinstance(floating, float)
            assert abs(floating - exact) <= 1e-12 * exact


# ---------------------------------------------------------------------------
# u


def test_u_series_at_zero():
    P = parse_poly_over(P_STANDARD, Z2)
    assert mh.u_series(P, 0.0) == 1 + 0j


def test_u_series_hypergeometric_z2():
    P = parse_poly_over(P_STANDARD, Z2)
    lam = 0.1
    got = mh.u_series(P, lam, 1e-12)
    want = sum(math.comb(2 * m, m) ** 2 * lam ** (2 * m) for m in range(40))
    assert abs(got - want) < 1e-11


def test_u_series_zxz2_coefficients():
    P = parse_poly_over(P_STANDARD, ZxZ2)
    lam = 0.1
    got = mh.u_series(P, lam, 1e-12)
    want = sum(math.comb(4 * l, 2 * l) * lam ** (2 * l) for l in range(40))
    assert abs(got - want) < 1e-11


# circuits in regular trees and PSL2(Z): u over free groups and free products
U_CLOSED_FORMS = [
    ("F2", "x+x^-1+y+y^-1", gf.u_free(2)),
    ("C2*C3", "x+y+y^-1", gf.u_psl2("x+y+y^-1")),
    ("C2*C3", "2*x+y+y^-1", gf.u_psl2("2x+y+y^-1")),
    ("C2*C2*C2", "x1+x2+x3", gf.tree_walk_series(3)),
]


@pytest.mark.parametrize("lam", [0.03, 0.08, -0.08])
@pytest.mark.parametrize(
    "group, poly, closed", U_CLOSED_FORMS, ids=[f"{g} {p}" for g, p, _ in U_CLOSED_FORMS]
)
def test_u_series_matches_closed_forms_on_free_families(group, poly, closed, lam):
    # F2 at |lambda| = 0.08 takes 22 terms from the first-passage solver
    g, eps = parse_group(group), 1e-12
    u = mh.u_series(parse_poly_over(poly, g), lam, eps)
    assert abs(u - closed.evaluate(lam)) <= eps + 1e-12


def test_u_series_on_z_mod_2():
    # A = ((0, 2), (2, 0)) has eigenvalues +-2: u = 1/(1 - 4 lambda^2)
    g = gr.AbelianProduct((2,))
    P = rg.ring_element(g, {(1,): 2})
    lam = 0.1
    want = 1.0 / (1.0 - 4 * lam * lam)
    assert abs(mh.u_series(P, lam, 1e-12).real - want) < 1e-12
    assert mh.u_series(P, 0.0) == 1.0
    assert list(rg.power_constant_coeffs(P, 6).values) == [1, 0, 4, 0, 16, 0, 64]


def test_u_series_keeps_walk_counts_below_float_range_at_complex_lambda():
    # a_2n = binom(2n, n) c^(2n) rounds to 0 for c = 10^-300, yet with
    # t = lambda c, u = 1 / sqrt(1 - 4t^2) is near 1; test_cli covers real lambda
    g, c, lam = gr.AbelianProduct((0,)), Fraction(1, 10**300), 1e299j
    P = rg.ring_element(g, {(1,): c, (-1,): c})
    t = lam * float(c)
    assert abs(mh.u_series(P, lam) - 1 / cmath.sqrt(1 - 4 * t * t)) <= 1e-10 + 1e-15


def test_u_series_matches_the_spectrum(rng):
    # u = (1/|G|) sum_s 1/(1 - lambda s) over the eigenvalues s of A
    for g in FINITE_CATALOGUE:
        P = random_reciprocal(g, rng)
        A = sp.cayley_adjacency(P)
        spec = sp.hermitian_eigenvalues(A).eigenvalues
        for lam in (0.3 / rg.l1_norm(P), -0.3 / rg.l1_norm(P)):
            want = sum(1.0 / (1.0 - lam * s) for s in spec) / g.order()
            assert abs(mh.u_series(P, lam, 1e-12) - want) <= 1e-12


@pytest.mark.parametrize("g", [Z32, D3], ids=["Z/3xZ/2", "D3"])
def test_float_spectrum_power_sums_match_exact_walk_counts(g):
    # u's Taylor coefficients: trace(A^n)/|G| from the float spectrum
    # against the exact walk counts a_n
    P = parse_poly_over("x + x^-1 + 2*y + i*x - i*x^-1", g)
    exact = [exact_real(a) for a in rg.power_constant_coeffs(P, 8).values]
    A = sp.cayley_adjacency(float_twin(P))
    floating = [eigen_trace(A, n) / g.order() for n in range(9)]
    assert all(isinstance(t, (int, Fraction)) for t in exact)
    assert all(isinstance(t, float) for t in floating)
    for t, f in zip(exact, floating):
        assert abs(f - t) <= 1e-12 * max(1, abs(t))


def test_u_and_measure_differential_relation(rng):
    # -lambda dm/dlambda = u - 1, by central differences
    checked = 0
    for g in FINITE_CATALOGUE:
        if checked >= 10:
            break
        P = random_reciprocal(g, rng)
        k = rg.l1_norm(P)
        lam = 0.3 / k
        h = 1e-5 * lam
        m_plus = mh.mahler_finite(P, lam + h).value
        m_minus = mh.mahler_finite(P, lam - h).value
        dm = (m_plus - m_minus) / (2 * h)
        u = mh.u_series(P, lam, 1e-12).real
        assert abs(-lam * dm - (u - 1.0)) < 1e-6
        checked += 1
    assert checked == 10


# ---------------------------------------------------------------------------
# torus quadrature


def test_torus_at_zero():
    P = parse_poly_over(P_STANDARD, Z2)
    assert mh.mahler_torus(P, 0.0).value == 0.0


def test_torus_one_variable_closed_form():
    g = gr.AbelianProduct((0,))
    P = parse_poly_over("x + x^-1", g)
    lam = 0.24
    res = mh.mahler_torus(P, lam, grid=512)
    want = math.log((1.0 + math.sqrt(1.0 - 4 * lam * lam)) / 2.0)
    assert abs(res.value - want) < 1e-9


def test_torus_guards():
    g4 = gr.AbelianProduct((0, 0, 0, 0))
    P = rg.one(g4)
    with pytest.raises(DomainError, match="at most 3 variables"):
        mh.mahler_torus(P, 0.1)
    with pytest.raises(DomainError, match="needs a free abelian group"):
        mh.mahler_torus(parse_poly_over("x", Z32), 0.1)
    with pytest.raises(DomainError):
        mh.mahler_torus(parse_poly_over(P_STANDARD, Z2), 0.3)


@pytest.mark.parametrize("grid", [2, 3, 4])
def test_torus_estimate_covers_the_error_on_small_grids(grid):
    # grids 2 and 3 are compared with the 1-point grid, the Z/1 x Z/1 measure
    P = parse_poly_over(P_STANDARD, Z2)
    res = mh.mahler_torus(P, 0.1, grid=grid)
    series = mh.mahler_series(P, 0.1, 1e-12).value
    assert res.error_bound >= abs(res.value - series) > 1e-4
    assert res.grid == grid


@pytest.mark.parametrize("grid", [2, 4, 6, 8, 10, 16])
@pytest.mark.parametrize("l, text", [
    (1, "x + x^-1"), (1, "2*x + i*x^-3"),
    (2, P_STANDARD), (2, "x y + x^-1 + 2*y^-3"),
    (3, "x1 + x1^-1 + x2 + x2^-1 + x3 + x3^-1"), (3, "x1 x2 x3 + x1^-1 + x2^2 x3^-1"),
])
def test_torus_reads_the_half_grid_off_the_even_grid(l, text, grid):
    # the value is the (Z/G)^l character measure bit for bit, and the G/2
    # estimate, the mean over the even-index points of the same array, is
    # the (Z/(G/2))^l measure up to rounding; on Z the odd-index half would
    # give the same distance, as the G-point mean is the mean of the halves,
    # so l = 2 and 3 are the cases that tell the subgrids apart
    P = parse_poly_over(text, gr.AbelianProduct((0,) * l))
    lam = 0.6 / rg.l1_norm(P)
    res = mh.mahler_torus(P, lam, grid=grid)

    def characters(G):
        gq = gr.AbelianProduct((G,) * l)
        return mh.abelian_measure_via_characters(rg.transfer(P, gq), lam)

    assert res.value.hex() == characters(grid).hex()
    assert abs(res.error_bound - abs(res.value - characters(grid // 2))) <= 1e-14


@pytest.mark.parametrize("grid, calls", [(8, 1), (64, 1), (7, 2), (3, 2)])
def test_torus_evaluates_one_grid_when_it_is_even(monkeypatch, grid, calls):
    # an odd G has no G/2 subgrid and evaluates the G//2 grid on its own
    P = parse_poly_over(P_STANDARD, Z2)
    want = mh.mahler_torus(P, 0.1, grid=grid)
    grids = []
    character_values = sp.abelian_character_values
    monkeypatch.setattr(sp, "abelian_character_values",
                        lambda Q: grids.append(Q.group.moduli) or character_values(Q))
    assert mh.mahler_torus(P, 0.1, grid=grid) == want
    assert grids == [(grid, grid), (grid // 2, grid // 2)][:calls]


def test_torus_refuses_a_grid_past_its_point_cap(monkeypatch):
    def no_arrays(*args):
        pytest.fail("the point cap must be checked before any array is built")

    monkeypatch.setattr(sp, "abelian_character_values", no_arrays)
    cap = f"max_points={mh.TORUS_MAX_POINTS}"
    side = math.isqrt(mh.TORUS_MAX_POINTS)
    for g, grid in ((Z2, side + 1), (Z2, 100000), (gr.AbelianProduct((0, 0, 0)), 102)):
        P = rg.transfer(parse_poly_over(P_STANDARD, Z2), g)
        with pytest.raises(ResourceLimitError, match=cap):
            mh.mahler_torus(P, 0.1, grid=grid)
        with pytest.raises(ResourceLimitError, match=cap):
            mh.mahler_torus(P, 0.0, grid=grid)


# ---------------------------------------------------------------------------
# the route choice


@pytest.mark.parametrize(
    "case, route, method",
    [
        (lambda_free(D3, "3+x+y"), "determinant exact", "finite-determinant"),
        (at_lambda(D3, "x+x^-1+y", 0.1), "blocks", "finite-determinant"),
        (lambda_free(gr.Dihedral(0), "3+x+y"), "general", "series"),
        (at_lambda(gr.Dihedral(0), "x+x^-1+y", 0.1), "series", "series"),
    ],
    ids=["finite-free", "finite-lambda", "infinite-free", "infinite-lambda"],
)
def test_measure_picks_the_route_it_names(case, route, method):
    # measure runs the route of the agreement table it names, as the table runs it
    P = case.Q if case.lam is None else case.P
    res = mh.measure(P, case.lam, epsilon=EPS)
    assert res.method == method
    assert res == ROUTES[route].call(case)


def test_auto_takes_blocks_or_the_determinant_on_every_finite_group(monkeypatch, rng):
    # every finite group is a block group: with a lambda auto takes blocks,
    # without one the determinant, and never the adjacency route finite
    ran = []
    for name in ("mahler_blocks", "mahler_finite", "mahler_series", "mahler_determinant",
                 "mahler_general", "mahler_torus"):
        monkeypatch.setattr(mh, name, lambda *args, name=name, **kwargs: ran.append(name))
    for g in FINITE_CATALOGUE:
        P = random_reciprocal(g, rng)
        mh.measure(P, 0.1)
        mh.measure(P)
    assert ran == ["mahler_blocks", "mahler_determinant"] * len(FINITE_CATALOGUE)


def test_measure_refuses_a_lambda_its_method_cannot_use():
    # each row refuses before it runs, so the group need suit none of them
    F2 = gr.Free(2)
    P = parse_poly_over(P_STANDARD, F2)
    for method, route in mh.ROUTES.items():
        if route.lam:
            with pytest.raises(DomainError, match=f"^method '{method}' needs an explicit lambda$"):
                mh.measure(P, method=method)
        else:
            with pytest.raises(DomainError, match=f"^method '{method}' takes no lambda$"):
                mh.measure(P, 0.1, method=method)
    # blocks takes a lambda, but no infinite group
    with pytest.raises(InfiniteGroupError, match="^a block spectrum needs a finite group$"):
        mh.measure(P, 0.1, method="blocks")
    assert mh.METHODS == ("auto", *mh.ROUTES)
    with pytest.raises(ValueError, match="^unknown measure method 'determinant'$"):
        mh.measure(P, 0.1, method="determinant")


# ---------------------------------------------------------------------------
# the Z x Z/m closed form, a test-side oracle (conftest.zxzm_closed_form)


def test_zxzm_m2_displayed_formula():
    lam = 0.1
    want = -math.log(2) + 0.5 * (
        math.log(1 - 2 * lam + math.sqrt(1 - 4 * lam))
        + math.log(1 + 2 * lam + math.sqrt(1 + 4 * lam))
    )
    assert abs(zxzm_closed_form(2, lam) - want) < 1e-15


def test_zxzm_m1_is_one_variable_measure():
    g = gr.AbelianProduct((0,))
    P = parse_poly_over("x + x^-1 + 2", g)
    lam = 0.2
    series = mh.mahler_series(P, lam, 1e-12).value
    assert abs(zxzm_closed_form(1, lam) - series) < 1e-11


def test_zxzm_continuity_at_zero():
    assert abs(zxzm_closed_form(5, 1e-9)) < 1e-7


def test_zxzm_domain():
    # the closed form holds on the whole disc |lambda| < 1/4, either sign
    g = parse_group("ZxZ/3")
    P = parse_poly_over(P_STANDARD, g)
    res = mh.mahler_series(P, -0.1, 1e-13)
    assert abs(zxzm_closed_form(3, -0.1) - res.value) <= res.error_bound + 1e-15
    assert zxzm_closed_form(3, 0.0) == 0.0


# ---------------------------------------------------------------------------
# equality theorems and their counterexamples


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_dihedral_equality_theorem(m, rng):
    for _ in range(3):
        alpha, beta = dihedral_theorem_instance(m, rng)
        g_ab = gr.AbelianProduct((m, 2))
        g_d = gr.Dihedral(m)
        P_ab = from_alpha_beta(g_ab, alpha, beta)
        P_d = from_alpha_beta(g_d, alpha, beta)
        if P_ab.is_zero():
            continue
        assert rg.is_reciprocal(P_ab) and rg.is_reciprocal(P_d)
        k = rg.l1_norm(P_ab)
        lam = 0.25 / k
        va = mh.mahler_finite(P_ab, lam).value
        vd = mh.mahler_finite(P_d, lam).value
        assert abs(va - vd) <= 1e-10


@pytest.mark.parametrize("m", [2, 3])
def test_dicyclic_equality_theorem(m, rng):
    for _ in range(3):
        alpha, beta = dicyclic_theorem_instance(m, rng)
        g_ab = gr.AbelianProduct((2 * m, 2))
        g_dc = gr.Dicyclic(m)
        P_ab = from_alpha_beta(g_ab, alpha, beta)
        P_dc = from_alpha_beta(g_dc, alpha, beta)
        if P_ab.is_zero():
            continue
        assert rg.is_reciprocal(P_ab) and rg.is_reciprocal(P_dc)
        k = rg.l1_norm(P_ab)
        lam = 0.25 / k
        va = mh.mahler_finite(P_ab, lam).value
        vd = mh.mahler_finite(P_dc, lam).value
        assert abs(va - vd) <= 1e-10


def test_counterexamples_break_the_equality():
    q1 = "3 + i*x - i*x^-1 + y"
    va = mh.mahler_determinant(parse_poly_over(q1, Z32)).value
    vd = mh.mahler_determinant(parse_poly_over(q1, D3)).value
    assert abs(va - vd) > 0.01
    q2 = "x+2*y"
    va = mh.mahler_determinant(parse_poly_over(q2, Z32)).value
    vd = mh.mahler_determinant(parse_poly_over(q2, D3)).value
    assert abs(va - vd) > 0.01
