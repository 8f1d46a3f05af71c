import math
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from grmahler import experiments as ex
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
    FINITE_CATALOGUE,
    assert_multisets_close,
    dense_character_values,
    eigen_trace,
    float_twin,
    one_minus_lambda_adjacency,
    random_reciprocal,
)

Z32 = gr.AbelianProduct((3, 2))
D3 = gr.Dihedral(3)


# ---------------------------------------------------------------------------
# adjacency construction


def _general_z32_element(a, b, c, d):
    return rg.ring_element(
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


def test_cayley_matches_printed_6x6():
    a, c = 2, 3
    b = GaussianRational(1, 2)
    d = GaussianRational(-1, 1)
    P = _general_z32_element(a, b, c, d)
    A = sp.cayley_adjacency(P)
    bc, dc = b.conjugate(), d.conjugate()
    printed = [
        [a, b, bc, c, d, dc],
        [bc, a, b, dc, c, d],
        [b, bc, a, d, dc, c],
        [c, d, dc, a, b, bc],
        [dc, c, d, bc, a, b],
        [d, dc, c, b, bc, a],
    ]
    # printed vertex order e, x, x^-1, y, yx, yx^-1 -> our lexicographic order
    perm = [0, 2, 4, 1, 3, 5]
    for i in range(6):
        for j in range(6):
            assert A.rows()[perm[i]][perm[j]] == printed[i][j]


def test_cayley_z2_double_edge():
    g = gr.AbelianProduct((2,))
    P = parse_poly_over("2*y", gr.AbelianProduct((0, 2)))  # y + y^-1 = 2y
    A = sp.cayley_adjacency(parse_poly_over("2*x", g))
    assert A.rows() == [[0, 2], [2, 0]]
    spec = sp.hermitian_eigenvalues(A)
    assert_multisets_close(spec.eigenvalues, [-2.0, 2.0], tol=1e-12)


def test_cayley_zero_element():
    A = sp.cayley_adjacency(rg.zero(D3))
    assert all(all(v == 0 for v in row) for row in A.rows())


def test_cayley_rejects_bad_input():
    with pytest.raises(InfiniteGroupError):
        sp.cayley_adjacency(rg.zero(gr.Free(2)))
    with pytest.raises(DomainError, match=r"^P must be reciprocal \(P == P\*\)$"):
        sp.cayley_adjacency(parse_poly_over("x+2*y", D3))  # not reciprocal


@pytest.mark.parametrize("g", FINITE_CATALOGUE, ids=repr)
def test_reciprocal_p_gives_a_hermitian_adjacency(g, rng):
    # the constructor checks reciprocity of P only; this is what it buys
    for _ in range(3):
        rows = sp.cayley_adjacency(random_reciprocal(g, rng, n_terms=3)).rows()
        assert len(rows) == g.order() and all(len(row) == g.order() for row in rows)
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                assert c == rows[j][i].conjugate()


@pytest.mark.parametrize("g", FINITE_CATALOGUE, ids=repr)
def test_adjacency_makes_one_law_call_per_vertex_and_term(g, rng, monkeypatch):
    P = random_reciprocal(g, rng, n_terms=3)
    calls = []
    law = type(g).multiplier

    def counted(self):
        mul = law(self)

        def wrapped(a, b):
            calls.append(1)
            return mul(a, b)

        return wrapped

    monkeypatch.setattr(type(g), "multiplier", counted)
    sp.cayley_adjacency(P)
    assert len(calls) == g.order() * len(P.terms)


@pytest.mark.parametrize("spec, poly", [("D100000", "x+x^-1+y"), ("Z/300xZ/300", "x+x^-1+y+y^-1")])
def test_adjacency_refuses_a_group_past_the_order_cap(spec, poly, monkeypatch):
    g = parse_group(spec)
    P = parse_poly_over(poly, g)

    def no_law(g):
        pytest.fail("the order cap must be checked before any group-law call")

    monkeypatch.setattr(type(g), "multiplier", no_law)
    with pytest.raises(ResourceLimitError, match=f"order {g.order()} exceeds max_order=4096"):
        sp.cayley_adjacency(P)


def test_adjacency_takes_a_group_at_the_order_cap():
    g = gr.AbelianProduct((4096,))
    assert sp.cayley_adjacency(parse_poly_over("x+x^-1", g)).n == 4096


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigenvalues_2x2():
    g = gr.AbelianProduct((2,))
    A = sp.cayley_adjacency(parse_poly_over("2*x", g))  # ((0, 2), (2, 0))
    assert_multisets_close(
        sp.hermitian_eigenvalues(A).eigenvalues, [-2.0, 2.0], tol=1e-12
    )


def test_eigenvalues_diagonal():
    g = gr.AbelianProduct((3,))
    A = sp.cayley_adjacency(parse_poly_over("3", g))  # 3 * identity
    assert sp.hermitian_eigenvalues(A).eigenvalues == (3.0, 3.0, 3.0)


def test_eigenvalues_come_sorted():
    # the characters of Z/2 x Z/2 give 3 + 2(+-1) + 2(+-1): {-1, 3, 3, 7}
    g = gr.AbelianProduct((2, 2))
    vals = sp.hermitian_eigenvalues(sp.cayley_adjacency(parse_poly_over("3+2*x+2*y", g))).eigenvalues
    assert list(vals) == sorted(vals)
    assert_multisets_close(vals, [-1.0, 3.0, 3.0, 7.0], tol=1e-12)


def _z32_formula_roots(a, b, c, d):
    """Roots of the printed characteristic-polynomial factorization for the
    general Z/3 x Z/2 element."""
    br, bi = float(b.real), float(b.imag)
    dr, di = float(d.real), float(d.imag)
    roots = []
    # (t - a + c + re(b-d))^2 = 3 im(b-d)^2
    base = a - c - (br - dr)
    roots += [base + math.sqrt(3) * abs(bi - di), base - math.sqrt(3) * abs(bi - di)]
    base = a + c - (br + dr)
    roots += [base + math.sqrt(3) * abs(bi + di), base - math.sqrt(3) * abs(bi + di)]
    roots += [a + 2 * br - c - 2 * dr, a + 2 * br + c + 2 * dr]
    return roots


def test_eigenvalues_match_printed_factorization():
    # the P = x + x^-1 + y instance: roots {-2, -2, 0, 0, 1, 3}
    P = _general_z32_element(0, GaussianRational(1), 1, GaussianRational(0))
    A = sp.cayley_adjacency(P)
    spec = sp.hermitian_eigenvalues(A)
    assert_multisets_close(spec.eigenvalues, [-2, -2, 0, 0, 1, 3], tol=1e-12)
    assert_multisets_close(
        spec.eigenvalues, _z32_formula_roots(0, GaussianRational(1), 1, GaussianRational(0))
    )


def test_eigenvalues_match_factorization_random(rng):
    for _ in range(10):
        a, c = rng.randint(-3, 3), rng.randint(-3, 3)
        b = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        d = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        P = _general_z32_element(a, b, c, d)
        spec = sp.hermitian_eigenvalues(sp.cayley_adjacency(P))
        assert_multisets_close(spec.eigenvalues, _z32_formula_roots(a, b, c, d))


def test_eigenvalues_real_sorted_and_trace_invariants(rng):
    # eigenvalue sum = trace H and sum of squares = squared Frobenius norm,
    # both computed from H itself rather than from another eigensolver
    for g in FINITE_CATALOGUE:
        A = sp.cayley_adjacency(random_reciprocal(g, rng, n_terms=3))
        H = A.to_numpy()
        vals = sp.hermitian_eigenvalues(A).eigenvalues
        assert len(vals) == g.order()
        assert all(isinstance(v, float) for v in vals)
        assert list(vals) == sorted(vals)
        tr = float(np.trace(H).real)
        fro2 = float(np.sum(np.abs(H) ** 2))
        assert abs(sum(vals) - tr) <= 1e-11 * max(1.0, fro2)
        assert abs(sum(v * v for v in vals) - fro2) <= 1e-11 * max(1.0, fro2)


def test_eigen_sums_match_traces(rng):
    # exact traces from P: tr A = |G| [P]_e, tr A^2 = |G| sum |c|^2
    for g in FINITE_CATALOGUE[:6]:
        P = random_reciprocal(g, rng)
        A = sp.cayley_adjacency(P)
        tr1 = float(g.order() * complex(P.coeff(g.identity())).real)
        tr2 = float(g.order() * complex(sum(c * c.conjugate() for _, c in P.terms)).real)
        assert abs(eigen_trace(A, 1) - tr1) <= 1e-9 * max(1, abs(tr1))
        assert abs(eigen_trace(A, 2) - tr2) <= 1e-9 * max(1, abs(tr2))


# ---------------------------------------------------------------------------
# block spectra


@given(st.sampled_from(FINITE_CATALOGUE), st.integers(0, 2**32))
def test_block_spectrum_is_the_adjacency_spectrum(g, seed):
    # random_reciprocal draws Gaussian coefficients too
    P = random_reciprocal(g, random.Random(seed))
    blocks = sp.block_spectrum(P)
    eigvalsh = sp.hermitian_eigenvalues(sp.cayley_adjacency(P))
    assert blocks.n == eigvalsh.n == len(blocks.eigenvalues) == g.order()
    assert list(blocks.eigenvalues) == sorted(blocks.eigenvalues)
    tol = 1e-12 * max(1.0, eigvalsh.max_abs())
    assert_multisets_close(blocks.eigenvalues, eigvalsh.eigenvalues, tol=tol)
    if isinstance(g, gr.AbelianProduct):
        assert_multisets_close(blocks.eigenvalues, sp.abelian_spectrum(P).eigenvalues, tol=tol)


@pytest.mark.parametrize("spec, poly", [("D100000", "x+x^-1+y"), ("Z/300xZ/300", "x+x^-1+y+y^-1"),
                                        ("Dic1025", "x+x^-1")])
@pytest.mark.usefixtures("no_work_past_the_order_cap")
def test_block_spectrum_refuses_a_group_past_the_order_cap(spec, poly):
    g = parse_group(spec)
    P = parse_poly_over(poly, g)
    with pytest.raises(ResourceLimitError, match=f"order {g.order()} exceeds max_order=4096"):
        sp.block_spectrum(P)


def test_block_spectrum_refusals():
    with pytest.raises(InfiniteGroupError, match="^a block spectrum needs a finite group$"):
        sp.block_spectrum(parse_poly_over("x+x^-1", gr.Dihedral(0)))
    for g in (Z32, D3):
        with pytest.raises(DomainError, match="reciprocal"):
            sp.block_spectrum(parse_poly_over("x+2*y", g))
    big = "9" * 400  # past float range
    for g in (Z32, D3):
        with pytest.raises(DomainError, match="^a coefficient of P is out of float range$"):
            sp.block_spectrum(parse_poly_over(f"{big}*x+{big}*x^-1", g))


def test_block_spectrum_takes_a_group_at_the_order_cap():
    for spec in ("Z/4096", "D2048", "Dic1024", "Z/64xZ/64"):
        g = parse_group(spec)
        spectrum = sp.block_spectrum(parse_poly_over("x+x^-1", g))
        assert spectrum.n == len(spectrum.eigenvalues) == 4096
        low, high = spectrum.eigenvalues[0], spectrum.eigenvalues[-1]
        assert abs(low + 2) < 1e-12 and abs(high - 2) < 1e-12


# ---------------------------------------------------------------------------
# determinants


def test_det_hermitian_identity():
    g = gr.AbelianProduct((2,))
    assert sp.det_hermitian(sp.cayley_adjacency(rg.one(g))) == 1


def test_det_b_is_81_exactly():
    Q = parse_poly_over("1+x+y", Z32)
    R = rg.mul(Q, rg.star(Q))
    assert R.is_exact()
    assert sp.det_hermitian(sp.cayley_adjacency(R)) == 81


def test_det_b_is_729_exactly():
    Q = parse_poly_over("x+2*y", D3)
    B = sp.cayley_adjacency(rg.mul(Q, rg.star(Q)))
    assert sp.det_hermitian(B) == 729


def test_det_exact_matches_float(rng):
    for g in (Z32, D3, gr.Dicyclic(2)):
        P = random_reciprocal(g, rng)
        exact = sp.det_hermitian(one_minus_lambda_adjacency(g, P, Fraction(1, 10)))
        eigenvalues = sp.hermitian_eigenvalues(sp.cayley_adjacency(P)).eigenvalues
        approx = math.prod(1 - 0.1 * s for s in eigenvalues)
        assert abs(float(exact) - approx) < 1e-9 * max(1.0, abs(approx))


_ZERO = st.just(0)
_RATIONAL = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
# zeros are drawn often, so pivots vanish (row swaps) and matrices go singular
_EXACT = st.one_of(
    _ZERO, _ZERO, _RATIONAL, st.builds(GaussianRational, _RATIONAL, _RATIONAL)
)


@st.composite
def exact_hermitian(draw):
    n = draw(st.integers(0, 5))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.one_of(_ZERO, _RATIONAL))
        for j in range(i + 1, n):
            c = draw(_EXACT)
            rows[i][j], rows[j][i] = c, c.conjugate()
    return rows


def _det_by_permutations(rows):
    """Leibniz expansion in GaussianRational arithmetic (independent oracle)."""
    n = len(rows)
    total = GaussianRational(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        sign = GaussianRational((-1) ** inversions)
        total += math.prod((rows[i][perm[i]] for i in range(n)), start=sign)
    return total


def _shifted(rows, lam):
    return [
        [(1 if i == j else 0) - lam * c for j, c in enumerate(row)]
        for i, row in enumerate(rows)
    ]


@given(exact_hermitian(), st.fractions(min_value=-2, max_value=2, max_denominator=5))
@example([[0, 1], [1, 0]], Fraction(1, 2))  # pivot needs a swap
@example([[1, 1], [1, 1]], Fraction(1, 2))  # det(M) = det(I - M/2) = 0
def test_exact_determinants_match_permutation_expansion(M, lam):
    for rows in (M, _shifted(M, lam)):
        det = sp._det_exact(rows)
        assert det == _det_by_permutations(rows)
        assert det.imag == 0


def test_adjacency_determinants_match_permutation_expansion(rng):
    for g in (g for g in FINITE_CATALOGUE if g.order() <= 6):
        P = random_reciprocal(g, rng, n_terms=3)
        A = sp.cayley_adjacency(P)
        lam = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        for det, rows in (
            (sp.det_hermitian(A), A.rows()),
            (sp.det_hermitian(one_minus_lambda_adjacency(g, P, lam)), _shifted(A.rows(), lam)),
        ):
            expected = _det_by_permutations(rows)
            assert det == expected
            assert expected.imag == 0
            assert type(det) is (int if expected.real.denominator == 1 else Fraction)


# the catalogue (abelian and rotation-reflection groups only), and larger
# ones: Z/6 x Z/6 is not cyclic, Z/4 x Z/5 has unequal moduli of lcm 20,
# D8 and Dic5 have r = 8 and r = 10 rotations
CHARACTER_GROUPS = FINITE_CATALOGUE + [
    gr.AbelianProduct((6, 6)), gr.AbelianProduct((4, 5)), gr.Dihedral(8), gr.Dicyclic(5),
]


@st.composite
def exact_reciprocal(draw):
    """(g, R): R = S + S*, often indefinite, or S S*, positive semidefinite,
    for S of up to three terms with int, Fraction or Gaussian coefficients."""
    g = draw(st.sampled_from(CHARACTER_GROUPS))
    S = rg.ring_element(g, draw(st.dictionaries(st.sampled_from(g.elements()), _EXACT, max_size=3)))
    return g, rg.mul(S, rg.star(S)) if draw(st.booleans()) else rg.add(S, rg.star(S))


def _z33_singular():
    g = gr.AbelianProduct((3, 3))
    Q = parse_poly_over("1+x+y", g)
    return g, rg.mul(Q, rg.star(Q))


@given(exact_reciprocal())
@example(_z33_singular())  # det(B) = 0
@example((gr.Dihedral(8), parse_poly_over("x+x^-1+2*y+0.25", gr.Dihedral(8))))  # det < 0
# det(B) = -3267; the y-terms need an imaginary part, or the factors with
# z^js = -1 have b = 0 (a reciprocal b over Dic_m has c_(k+m) = conj c_k)
@example((gr.Dicyclic(5), parse_poly_over("1+x+x^-1+i*y-i*y^-1", gr.Dicyclic(5))))
# an imaginary part makes the characters j and -j give unequal factors
@example((gr.AbelianProduct((4, 5)),
          parse_poly_over("3+i*x-i*x^-1+y+y^-1", gr.AbelianProduct((4, 5)))))
def test_character_determinant_is_the_adjacency_determinant(case):
    _, R = case
    det = sp.character_determinant(R)
    assert det == sp.det_hermitian(sp.cayley_adjacency(R))
    assert type(det) is (int if Fraction(det).denominator == 1 else Fraction)


@pytest.mark.usefixtures("no_work_past_the_order_cap")
def test_character_determinant_signs_and_refusals():
    g, R = _z33_singular()
    assert sp.character_determinant(R) == 0
    with pytest.raises(SingularMatrixError):
        mh.measure(parse_poly_over("1+x+y", g))
    D8 = gr.Dihedral(8)
    assert sp.character_determinant(parse_poly_over("x+x^-1+2*y+0.25", D8)) < 0
    with pytest.raises(DomainError, match="reciprocal"):
        sp.character_determinant(parse_poly_over("x+2*y", D3))
    with pytest.raises(InfiniteGroupError):
        sp.character_determinant(rg.one(gr.Dihedral(0)))
    with pytest.raises(ResourceLimitError, match="order 200000 exceeds max_order=4096"):
        sp.character_determinant(rg.one(gr.Dihedral(100000)))


# ---------------------------------------------------------------------------
# character routes


def test_abelian_spectrum_z2():
    g = gr.AbelianProduct((2,))
    P = rg.ring_element(g, {(1,): 2})
    spec = sp.abelian_spectrum(P)
    assert_multisets_close(spec.eigenvalues, [-2, 2], tol=1e-12)


def test_abelian_character_values_all_ones_first():
    P = parse_poly_over("1+x+y", Z32)
    vals = sp.abelian_character_values(P)
    assert abs(vals[0] - 3) < 1e-12  # (j1, j2) = (0, 0) is the first tuple


CHARACTER_COEFFS = (
    lambda r: r.randint(-3, 3),
    lambda r: Fraction(r.randint(-5, 5), r.randint(1, 7)),
    lambda r: GaussianRational(Fraction(r.randint(-3, 3), r.randint(1, 4)), r.randint(-3, 3)),
    lambda r: r.uniform(-3.0, 3.0),
    lambda r: complex(r.uniform(-2.0, 2.0), r.uniform(-2.0, 2.0)),
    lambda r: -0.0,
    lambda r: complex(-0.0, r.choice((-0.0, 1.5))),
    lambda r: complex(r.uniform(-1.0, 1.0), -0.0),
)


def test_abelian_character_values_match_the_dense_formula_bit_for_bit(rng):
    # P is built as a raw RingElement so that mixed exact and float terms and
    # -0.0 coefficients reach the kernel; a draw may leave P empty, constant,
    # one-axis or multi-axis
    for _ in range(400):
        moduli = tuple(rng.randint(1, 16) for _ in range(rng.randint(1, 3)))
        g = gr.AbelianProduct(moduli)
        terms = {}
        for _ in range(rng.randint(0, 5)):
            e = tuple(rng.randrange(m) if rng.random() < 0.6 else 0 for m in moduli)
            terms[e] = rng.choice(CHARACTER_COEFFS)(rng)
        P = rg.RingElement(g, tuple(sorted(terms.items())))
        got = sp.abelian_character_values(P)
        assert got.tobytes() == dense_character_values(g, P).tobytes(), (moduli, P.terms)


def test_one_axis_terms_exponentiate_only_their_axis(monkeypatch):
    sizes = []
    exp = np.exp

    def recording_exp(z, *args, **kwargs):
        sizes.append(np.size(z))
        return exp(z, *args, **kwargs)

    g = gr.AbelianProduct((128, 128))
    P = parse_poly_over("x+x^-1+y+y^-1", g)
    monkeypatch.setattr(np, "exp", recording_exp)
    vals = sp.abelian_character_values(P)
    monkeypatch.undo()
    assert len(sizes) == 4 and max(sizes) <= 128
    assert vals.tobytes() == dense_character_values(g, P).tobytes()


def test_each_term_is_built_in_one_complex_scratch_array():
    # on Z/2^20 both terms move the one axis: the sum, the axis, the phase and
    # one complex scratch array peak at 48 MiB; three complex temporaries per
    # term, as c * exp(1j * phase) makes, reach 64 MiB
    g = gr.AbelianProduct((mh.TORUS_MAX_POINTS,))
    P = parse_poly_over("x+x^-1", g)
    tracemalloc.start()
    try:
        sp.abelian_character_values(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * 2**20


def test_converge_abelian_refuses_a_grid_past_the_point_cap(monkeypatch):
    def no_arrays(*args):
        pytest.fail("the point cap must be checked before any array is built")

    monkeypatch.setattr(sp, "abelian_character_values", no_arrays)
    Z2 = gr.AbelianProduct((0, 0))
    P = parse_poly_over("x+x^-1+y+y^-1", Z2)
    cap = f"max_points={mh.TORUS_MAX_POINTS}"
    with pytest.raises(ResourceLimitError, match=f"{2048 * 2048} characters .*{cap}"):
        ex.converge("abelian", P, 0.1, [2048])


def test_abelian_spectrum_circulant():
    for m in (3, 4, 7):
        g = gr.AbelianProduct((m,))
        P = rg.ring_element(g, {(1,): 1, (m - 1,): 1})
        spec = sp.abelian_spectrum(P)
        want = [2 * math.cos(2 * math.pi * k / m) for k in range(m)]
        assert_multisets_close(spec.eigenvalues, want)


def test_abelian_spectrum_matches_eigvalsh(rng):
    for g in (Z32, gr.AbelianProduct((4, 3)), gr.AbelianProduct((2, 2, 2))):
        for _ in range(5):
            P = random_reciprocal(g, rng)
            chars = sp.abelian_spectrum(P)
            eigvalsh = sp.hermitian_eigenvalues(sp.cayley_adjacency(P))
            assert_multisets_close(chars.eigenvalues, eigvalsh.eigenvalues, tol=1e-9)


def test_abelian_spectrum_rejects_other_families():
    with pytest.raises(ValueError):
        sp.abelian_spectrum(rg.zero(D3))
    with pytest.raises(InfiniteGroupError):
        g = gr.AbelianProduct((0, 2))
        sp.abelian_spectrum(rg.zero(g))


def test_dihedral_trace_examples():
    P = parse_poly_over("x + x^-1 + y", D3)
    A = sp.cayley_adjacency(P)
    assert abs(sp.dihedral_trace_via_characters(P, 2) - 18.0) < 1e-9
    assert abs(eigen_trace(A, 2) - 18.0) < 1e-12
    assert sp.dihedral_trace_via_characters(rg.zero(D3), 4) == 0.0
    P2 = parse_poly_over("3 + i*x - i*x^-1 + y", D3)
    assert abs(sp.dihedral_trace_via_characters(P2, 1) - 18.0) < 1e-9
    for other in (gr.Dihedral(0), gr.Dicyclic(3), gr.AbelianProduct((3, 2))):
        with pytest.raises(ValueError, match="finite dihedral"):
            sp.dihedral_trace_via_characters(rg.transfer(P, other), 2)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_dihedral_trace_matches_matrix_trace(m, rng):
    g = gr.Dihedral(m)
    for _ in range(4):
        P = random_reciprocal(g, rng)
        A = sp.cayley_adjacency(P)
        for n in range(1, 7):
            want = eigen_trace(A, n)
            got = sp.dihedral_trace_via_characters(P, n)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_walk_counts_equal_normalized_traces(rng):
    # vertex transitivity: a_n = trace(A^n) / |G|, from the walk counts of the
    # float twin of P, which agree with the exact ones
    for g in FINITE_CATALOGUE:
        P = random_reciprocal(g, rng)
        A = sp.cayley_adjacency(P)
        exact = rg.power_constant_coeffs(P, 8).values
        floating = rg.power_constant_coeffs(float_twin(P), 8).values
        for n in range(9):
            want = eigen_trace(A, n) / g.order()
            assert abs(complex(floating[n]).real - want) <= 1e-10 * max(1.0, abs(want))
            assert abs(floating[n] - exact[n]) <= 1e-12 * max(1, abs(exact[n]))


def test_exact_taylor_coefficients_match_float_traces(rng):
    # vertex transitivity: |G| a_n = trace(A^n) on every family, a_n exact
    for g in FINITE_CATALOGUE:
        P = random_reciprocal(g, rng)
        A = sp.cayley_adjacency(P)
        coeffs = [exact_real(a) for a in rg.power_constant_coeffs(P, 6).values]
        assert len(coeffs) == 7
        for n, c in enumerate(coeffs):
            assert isinstance(c, (int, Fraction))
            exact = g.order() * c
            assert abs(float(exact) - eigen_trace(A, n)) < 1e-9 * max(1.0, abs(float(exact)))


# ---------------------------------------------------------------------------
# raw tuple-sum form of the character trace identity (tiny-n oracle)

D3_CHARACTERS = {
    # degree, values on (eps, k): rotations rho^k and reflections sigma rho^k
    "trivial": (1, lambda e, k: 1.0),
    "sign": (1, lambda e, k: -1.0 if e else 1.0),
    "standard": (2, lambda e, k: 0.0 if e else 2 * math.cos(2 * math.pi * k / 3)),
}


def test_character_tuple_sums_for_d3(rng):
    P = parse_poly_over("x + x^-1 + y", D3)
    alpha = dict(P.terms)
    elems, mul = D3.elements(), D3.multiplier()
    A = sp.cayley_adjacency(P)
    spec = sorted(sp.hermitian_eigenvalues(A).eigenvalues)

    for t in (1, 2, 3):
        # raw tuple sums per irreducible character
        sums = {}
        for name, (_, chi) in D3_CHARACTERS.items():
            total = 0.0
            for tup in product(elems, repeat=t):
                w = 1
                for e in tup:
                    w *= alpha.get(e, 0)
                    if w == 0:
                        break
                if w == 0:
                    continue
                prod = (0, 0)
                for e in tup:
                    prod = mul(prod, e)
                total += w * chi(*prod)
            sums[name] = total
        # the weighted sum over characters recovers the matrix trace
        recovered = sum(
            deg * sums[name] for name, (deg, _) in D3_CHARACTERS.items()
        )
        assert abs(recovered - eigen_trace(A, t)) < 1e-9

    # 1-dim eigenvalue power sums are direct; the 2-dim pair comes from
    # (s1 + s2, s1^2 + s2^2) and must sit inside the spectrum with mult. 2
    s1 = sum(
        alpha.get(e, 0) * D3_CHARACTERS["trivial"][1](*e) for e in elems
    )
    s2 = sum(alpha.get(e, 0) * D3_CHARACTERS["sign"][1](*e) for e in elems)
    p1 = sum(
        alpha.get(e, 0) * D3_CHARACTERS["standard"][1](*e) for e in elems
    )
    p2 = 0.0
    for ta in elems:
        for tb in elems:
            w = alpha.get(ta, 0) * alpha.get(tb, 0)
            if w:
                p2 += w * D3_CHARACTERS["standard"][1](*mul(ta, tb))
    e2 = (p1 * p1 - p2) / 2.0
    disc = math.sqrt(p1 * p1 - 4 * e2)
    pair = sorted([(p1 + disc) / 2.0, (p1 - disc) / 2.0])
    want = sorted([float(s1), float(s2)] + pair * 2)
    assert_multisets_close(spec, want)
