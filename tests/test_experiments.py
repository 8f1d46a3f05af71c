import math

import pytest

from grmahler import experiments as ex
from grmahler import groups as gr
from grmahler import mahler as mh
from grmahler import ring as rg
from grmahler.parsing import parse_poly_over

from conftest import dihedral_theorem_instance, float_twin, from_alpha_beta, zxzm_closed_form

Z2 = gr.AbelianProduct((0, 0))
Z32 = gr.AbelianProduct((3, 2))
D3 = gr.Dihedral(3)
P_STANDARD = "x + x^-1 + y + y^-1"


# ---------------------------------------------------------------------------
# q(m)


def test_q_of_m_examples():
    assert ex.q_of_m((2, 3)) == 3  # s = (3, -2)
    assert ex.q_of_m((7,)) == math.inf  # no nonzero relation at all
    assert ex.q_of_m((5, 5)) == 1  # s = (1, -1)


def test_q_of_m_inconclusive_sentinel():
    assert ex.q_of_m((16, 17), h_max=8) is None
    assert ex.q_of_m((16, 17), h_max=17) == 17


def test_q_of_m_guards():
    with pytest.raises(ValueError):
        ex.q_of_m((0, 3))
    with pytest.raises(ValueError):
        ex.q_of_m(())


# ---------------------------------------------------------------------------
# convergence along every chain of ex.CHAINS

# chain: (limit group, P, params at lambda 0.1, bound on the last gap)
SWEEPS = {
    "abelian": (Z2, P_STANDARD, [4, 8, 16, 32], 1e-6),
    "dihedral": (gr.Dihedral(0), "x + x^-1 + y", [4, 8, 16], 1e-6),
    # without y-terms the presentation discrepancy is invisible and the
    # dicyclic chain genuinely converges
    "dicyclic": (gr.Dicyclic(0), "x + x^-1", [4, 8, 16], 1e-6),
    "zxzm": (Z2, P_STANDARD, [2, 4, 8, 16], 1e-4),
}


@pytest.mark.parametrize("chain", ex.CHAINS)
def test_converge_gap_falls_below_a_bound(chain):
    group, poly, params, bound = SWEEPS[chain]
    rows = ex.converge(chain, parse_poly_over(poly, group), 0.1, params)
    assert rows[-1].gap < bound
    assert rows[-1].gap < rows[0].gap


@pytest.mark.parametrize("chain", ex.CHAINS)
def test_converge_zero_lambda(chain):
    group, poly, params, _ = SWEEPS[chain]
    P = parse_poly_over(poly, group)
    rows = ex.converge(chain, P, 0.0, params)
    assert all(r.value == 0.0 and r.gap == 0.0 for r in rows)


def test_converge_sorts_rows_by_parameter():
    P = parse_poly_over("x + x^-1 + y", gr.Dihedral(0))
    rows = ex.converge("dihedral", P, 0.1, [16, 4, 8])
    assert [r.parameter for r in rows] == [4, 8, 16]


def test_converge_abelian_square_grids():
    P = parse_poly_over(P_STANDARD, Z2)
    rows = ex.converge("abelian", P, 0.1, [4, 8, 16, 32])
    assert [r.parameter for r in rows] == [16, 64, 256, 1024]
    assert all(r.q == 1 for r in rows)  # equal moduli: s = (1, -1)


def test_converge_abelian_int_is_a_square_grid():
    P = parse_poly_over(P_STANDARD, Z2)
    assert ex.converge("abelian", P, 0.1, [4, 8]) == ex.converge("abelian", P, 0.1, [(4, 4), (8, 8)])


def test_converge_abelian_one_variable_to_quadrature():
    g = gr.AbelianProduct((0,))
    P = parse_poly_over("x + x^-1", g)
    rows = ex.converge("abelian", P, 0.2, [(G,) for G in (8, 32, 128, 256)])
    torus = mh.mahler_torus(P, 0.2, grid=512).value
    assert abs(rows[-1].value - torus) < 1e-8
    assert rows[-1].gap < rows[0].gap


def test_converge_abelian_coprime_grids_report_q():
    P = parse_poly_over(P_STANDARD, Z2)
    rows = ex.converge("abelian", P, 0.05, [(4, 5), (8, 9)])
    assert rows[0].q == 5 and rows[1].q == ">8"  # q((8,9)) = 9 > default h_max


# ---------------------------------------------------------------------------
# agreement depth


@pytest.mark.parametrize("m", [4, 6, 8])
def test_agreement_depth_dihedral(m):
    P = parse_poly_over("x + x^-1 + y", gr.Dihedral(0))
    rep = ex.agreement_depth(gr.Dihedral(m), gr.Dihedral(0), P, m + 2)
    assert rep.first_disagreement == m
    a_fin, a_inf = rep.coeff_pairs[m]
    assert a_fin == a_inf + 2  # the two wrap-around circuits x^(+-m)


@pytest.mark.parametrize("m", [3, 5, 7])
def test_agreement_depth_z_quotient(m):
    g_fin = gr.AbelianProduct((m, 2))
    g_inf = gr.AbelianProduct((0, 2))
    P = parse_poly_over(P_STANDARD, g_inf)
    rep = ex.agreement_depth(g_fin, g_inf, P, m + 2)
    assert rep.first_disagreement == m
    for n in range(m):
        a, b = rep.coeff_pairs[n]
        assert a == b


def test_agreement_depth_none_within_window():
    P = parse_poly_over("x + x^-1 + y", gr.Dihedral(0))
    rep = ex.agreement_depth(gr.Dihedral(40), gr.Dihedral(0), P, 10)
    assert rep.first_disagreement is None
    assert rep.n_max == 10


def test_agreement_depth_of_float_coefficients():
    # floating counts agree within a tolerance, which the wrap-around at n = m passes
    P = float_twin(parse_poly_over("x + x^-1 + y", gr.Dihedral(0)))
    rep = ex.agreement_depth(gr.Dihedral(4), gr.Dihedral(0), P, 6)
    assert rep.first_disagreement == 4


def test_agreement_depth_dicyclic_presentation_gap():
    # The printed infinite presentation has y^2 = e while Dic_m has
    # y^2 = x^m, so walk counts already split at n = 2 whenever y occurs.
    P = parse_poly_over("x + x^-1 + y", gr.Dicyclic(0))
    for m in (2, 3, 5):
        rep = ex.agreement_depth(gr.Dicyclic(m), gr.Dicyclic(0), P, 6)
        assert rep.first_disagreement == 2


def test_tail_bound_controls_measure_gap():
    # whenever coefficients agree below N_m, the measure gap obeys the
    # tail estimate |m_fin - m_inf| <= 2 sum_{n >= N_m} (k lam)^n / n
    P = parse_poly_over("x + x^-1 + y", gr.Dihedral(0))
    k = rg.l1_norm(P)
    lam = 0.1
    for m in (4, 6, 8):
        rep = ex.agreement_depth(gr.Dihedral(m), gr.Dihedral(0), P, 2 * m)
        N = rep.first_disagreement
        gap = abs(
            mh.mahler_finite(rg.transfer(P, gr.Dihedral(m)), lam).value
            - mh.mahler_series(P, lam, 1e-14).value
        )
        klam = k * lam
        tail = 2 * klam**N / (N * (1 - klam))
        assert gap <= tail


# ---------------------------------------------------------------------------
# quotient chains


def test_converge_quotients_zxzm_serves_any_reciprocal_element():
    # any reciprocal P over Z^2, here one with a diagonal term, is measured
    # over each Z x Z/m; past the series depth the walks no longer wrap
    P = parse_poly_over("x + x^-1 + 2*y + 2*y^-1 + xy + x^-1y^-1", Z2)
    rows = ex.converge("zxzm", P, 0.05, [2, 4, 8, 16, 64])
    assert rows[-2].gap < 1e-7 < rows[0].gap
    assert rows[-1].gap == 0.0


@pytest.mark.parametrize("lam", [0.1, -0.1, 0.2])
def test_converge_zxzm_rows_meet_the_closed_form(lam):
    # each row is measure's series over Z x Z/m, whose error bound is at most
    # its default epsilon, 1e-10
    rows = ex.converge("zxzm", parse_poly_over(P_STANDARD, Z2), lam, [1, 2, 3, 4, 8, 64])
    assert all(abs(r.value - zxzm_closed_form(r.parameter, lam)) <= 1e-10 for r in rows)


def test_dicyclic_y_elements_cannot_ride_the_chain():
    # y is an involution in the printed infinite presentation but not in
    # Dic_m (y^-1 = y x^m there), so a fixed y-supported word is not even
    # reciprocal along the chain; the walk counts split at n = 2 regardless
    # (see test_agreement_depth_dicyclic_presentation_gap)
    P_inf = parse_poly_over("x + x^-1 + y", gr.Dicyclic(0))
    assert rg.is_reciprocal(P_inf)
    for m in (2, 3, 5):
        assert not rg.is_reciprocal(rg.transfer(P_inf, gr.Dicyclic(m)))


def test_converge_quotients_uniform_in_lambda():
    P = parse_poly_over("x + x^-1 + y", gr.Dihedral(0))
    for lam in (0.05, 0.1, 0.15):
        rows = ex.converge("dihedral", P, lam, [4, 16])
        assert rows[-1].gap < 1e-6


# ---------------------------------------------------------------------------
# group-vs-group comparisons


def test_compare_counterexample_complex_coefficients():
    res = ex.compare_groups(Z32, D3, parse_poly_over("3 + i*x - i*x^-1 + y", Z32))
    assert abs(res.value_a - math.log(104) / 6) < 1e-12
    assert abs(res.value_b - math.log(200) / 6) < 1e-12
    assert res.verdict == "unequal"


def test_compare_counterexample_nonreciprocal():
    res = ex.compare_groups(Z32, D3, parse_poly_over("x + 2*y", Z32))
    assert abs(res.value_a - math.log(63) / 6) < 1e-12
    assert abs(res.value_b - math.log(3) / 2) < 1e-12
    assert res.verdict == "unequal"


def test_compare_equal_dihedral_instance(rng):
    alpha, beta = dihedral_theorem_instance(5, rng)
    P = from_alpha_beta(gr.AbelianProduct((5, 2)), alpha, beta)
    if P.is_zero():
        alpha[0] += 1
        P = from_alpha_beta(gr.AbelianProduct((5, 2)), alpha, beta)
    k = rg.l1_norm(P)
    res = ex.compare_groups(gr.AbelianProduct((5, 2)), gr.Dihedral(5), P, 0.05 / k)
    assert res.verdict == "equal"


def test_compare_infinite_pair_via_series():
    # real reciprocal elements give the same measure over Z x Z/2 and the
    # infinite dihedral group
    g_ab = gr.AbelianProduct((0, 2))
    P = parse_poly_over(P_STANDARD, g_ab)
    res = ex.compare_groups(g_ab, gr.Dihedral(0), P, 0.1, epsilon=1e-12)
    assert res.verdict == "equal"


def test_compare_gap_between_the_tolerances_is_inconclusive():
    # D8 against its limit Dinf: the values differ by 3.8e-9
    P = parse_poly_over("x + x^-1 + y", gr.Dihedral(0))
    res = ex.compare_groups(gr.Dihedral(8), gr.Dihedral(0), P, 0.1)
    assert ex.EQUAL_TOL < abs(res.value_a - res.value_b) <= ex.UNEQUAL_TOL
    assert res.verdict == "inconclusive"
