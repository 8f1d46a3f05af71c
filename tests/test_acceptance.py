"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one PASS/FAIL line (visible with `pytest -s` or on
failure), so the suite doubles as a checklist.
"""
import functools
import io
import contextlib
import math
import random
from fractions import Fraction

from grmahler import experiments as ex
from grmahler import genfun as gf
from grmahler import groups as gr
from grmahler import mahler as mh
from grmahler import ring as rg
from grmahler import spectra as sp
from grmahler.cli import main as cli_main
from grmahler.coeffs import exact_real
from grmahler.parsing import parse_poly_over

from conftest import (
    SEED,
    assert_multisets_close,
    dicyclic_theorem_instance,
    dihedral_theorem_instance,
    eigen_trace,
    from_alpha_beta,
    random_reciprocal,
)

Z2 = gr.AbelianProduct((0, 0))
ZxZ2 = gr.AbelianProduct((0, 2))
Z32 = gr.AbelianProduct((3, 2))
D3 = gr.Dihedral(3)
P_STANDARD = "x + x^-1 + y + y^-1"


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d}: FAIL - {label}")
                raise
            print(f"ACCEPTANCE {num:02d}: PASS - {label}")

        return wrapper

    return deco


@criterion(1, "exact constants: det B = 81, counterexample quadruple")
def test_c01_exact_constants():
    Q = parse_poly_over("1+x+y", Z32)
    B = sp.cayley_adjacency(rg.mul(Q, rg.star(Q)))
    det = sp.det_hermitian(B)
    assert isinstance(det, int) and det == 81
    assert abs(mh.mahler_determinant(Q).value - math.log(3) / 3) <= 1e-12

    q1 = "3 + i*x - i*x^-1 + y"
    assert abs(mh.mahler_determinant(parse_poly_over(q1, Z32)).value - math.log(104) / 6) <= 1e-12
    assert abs(mh.mahler_determinant(parse_poly_over(q1, D3)).value - math.log(200) / 6) <= 1e-12
    q2 = "x + 2*y"
    assert abs(mh.mahler_determinant(parse_poly_over(q2, Z32)).value - math.log(63) / 6) <= 1e-12
    assert abs(mh.mahler_determinant(parse_poly_over(q2, D3)).value - math.log(3) / 2) <= 1e-12


@criterion(2, "coefficient identities over Z^2, Z x Z/2, and the P1/P2 relation")
def test_c02_coefficient_identities():
    a = rg.power_constant_coeffs(parse_poly_over(P_STANDARD, Z2), 16).values
    for m in range(9):
        assert a[2 * m] == math.comb(2 * m, m) ** 2
    gz2 = gr.AbelianProduct((0, 2))
    b = rg.power_constant_coeffs(parse_poly_over(P_STANDARD, gz2), 12).values
    for l in range(7):
        assert b[2 * l] == math.comb(4 * l, 2 * l)
    for l in (2, 3, 4):
        p1 = rg.power_constant_coeffs(gf.standard_p1(l), 12).values
        p2 = rg.power_constant_coeffs(gf.standard_p2(l), 6).values
        for n in range(7):
            assert p1[2 * n] == math.comb(2 * n, n) * p2[n]


@criterion(3, "series vs determinant on 50 random instances; exact a_n vs traces")
def test_c03_series_vs_determinant():
    rnd = random.Random(SEED)
    groups = [
        gr.AbelianProduct((2,)),
        gr.AbelianProduct((3, 2)),
        gr.AbelianProduct((4, 3)),
        gr.AbelianProduct((2, 2, 2)),
        gr.Dihedral(3),
        gr.Dihedral(4),
        gr.Dihedral(6),
        gr.Dicyclic(2),
        gr.Dicyclic(3),
    ]
    eps = 1e-9
    checked = 0
    while checked < 50:
        g = groups[checked % len(groups)]
        P = random_reciprocal(g, rnd)
        k = rg.l1_norm(P)
        lam = rnd.choice([0.05, -0.05, 0.1 / k, -0.1 / k])
        if abs(lam) * k >= 1.0:
            continue
        v_series = mh.mahler_series(P, lam, eps).value
        v_det = mh.mahler_finite(P, lam).value
        assert abs(v_series - v_det) <= eps + 1e-10
        # |G| a_n = trace(A^n), exact against the spectrum; the eigenvalue sums
        # round on the scale of |G| k^n, which bounds the sum of |s|^n
        A = sp.cayley_adjacency(P)
        for n, a in enumerate(map(exact_real, rg.power_constant_coeffs(P, 8).values)):
            assert isinstance(a, (int, Fraction))
            assert abs(g.order() * a - eigen_trace(A, n)) <= 1e-12 * max(1.0, g.order() * k**n)
        checked += 1


@criterion(4, "dihedral character traces and abelian spectra")
def test_c04_character_machinery():
    rnd = random.Random(SEED + 4)
    for m in (3, 4, 5, 6):
        g = gr.Dihedral(m)
        for _ in range(3):
            P = random_reciprocal(g, rnd)
            A = sp.cayley_adjacency(P)
            for n in range(1, 7):
                want = eigen_trace(A, n)
                got = sp.dihedral_trace_via_characters(m, P, n)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    for g in (Z32, gr.AbelianProduct((4, 3)), gr.AbelianProduct((2, 2, 2))):
        for _ in range(3):
            P = random_reciprocal(g, rnd)
            chars = sp.abelian_spectrum(P).eigenvalues
            eigvalsh = sp.hermitian_eigenvalues(sp.cayley_adjacency(P)).eigenvalues
            assert_multisets_close(chars, eigvalsh, tol=1e-9)


@criterion(5, "equality theorems on 20+ instances; counterexamples break them")
def test_c05_equality_theorems():
    rnd = random.Random(SEED + 5)
    done = 0
    while done < 20:
        m = rnd.choice([3, 4, 5, 6])
        alpha, beta = dihedral_theorem_instance(m, rnd)
        g_ab, g_d = gr.AbelianProduct((m, 2)), gr.Dihedral(m)
        P_ab = from_alpha_beta(g_ab, alpha, beta)
        if P_ab.is_zero():
            continue
        P_d = from_alpha_beta(g_d, alpha, beta)
        assert rg.is_reciprocal(P_ab) and rg.is_reciprocal(P_d)
        lam = 0.25 / rg.l1_norm(P_ab)
        va = mh.mahler_finite(P_ab, lam).value
        vd = mh.mahler_finite(P_d, lam).value
        assert abs(va - vd) <= 1e-10
        done += 1
    done = 0
    while done < 20:
        m = rnd.choice([2, 3])
        alpha, beta = dicyclic_theorem_instance(m, rnd)
        g_ab, g_dc = gr.AbelianProduct((2 * m, 2)), gr.Dicyclic(m)
        P_ab = from_alpha_beta(g_ab, alpha, beta)
        if P_ab.is_zero():
            continue
        P_dc = from_alpha_beta(g_dc, alpha, beta)
        assert rg.is_reciprocal(P_ab) and rg.is_reciprocal(P_dc)
        lam = 0.25 / rg.l1_norm(P_ab)
        va = mh.mahler_finite(P_ab, lam).value
        vd = mh.mahler_finite(P_dc, lam).value
        assert abs(va - vd) <= 1e-10
        done += 1
    # the hypotheses are necessary: the printed counterexamples fail loudly
    for poly in ("3 + i*x - i*x^-1 + y", "x + 2*y"):
        va = mh.mahler_determinant(parse_poly_over(poly, Z32)).value
        vd = mh.mahler_determinant(parse_poly_over(poly, D3)).value
        assert abs(va - vd) > 0.01


@criterion(6, "closed forms equal brute-force walk counts (exact integers)")
def test_c06_closed_forms_vs_brute_force():
    walks_f2 = rg.power_constant_coeffs(parse_poly_over(P_STANDARD, gr.Free(2)), 12).values
    assert tuple(gf.tree_walk_series(4).coeffs(12)) == walks_f2

    g23 = gr.FreeProductCyclic((2, 3))
    for variant, poly in (("x+y+y^-1", "x+y+y^-1"), ("2x+y+y^-1", "2*x+y+y^-1")):
        series = tuple(gf.u_psl2(variant).coeffs(10))
        walks = rg.power_constant_coeffs(parse_poly_over(poly, g23), 10).values
        assert series == walks

    gz = gr.AbelianProduct((0,))
    walks_z = rg.power_constant_coeffs(parse_poly_over("x + x^-1", gz), 12).values
    assert tuple(gf.tree_walk_series(2).coeffs(12)) == walks_z
    assert all(
        gf.tree_walk_series(2).coeffs(12)[2 * n] == math.comb(2 * n, n)
        for n in range(7)
    )


@criterion(7, "finite-model convergence at lambda = 0.1")
def test_c07_convergence():
    lam = 0.1
    P = parse_poly_over(P_STANDARD, Z2)
    rows = ex.converge("abelian", P, lam, [4, 8, 16, 32, 64])
    assert rows[-1].gap <= 1e-6
    assert rows[-1].gap < rows[0].gap

    Pd = parse_poly_over("x + x^-1 + y", gr.Dihedral(0))
    rows_d = ex.converge("dihedral", Pd, lam, [4, 8, 16, 32, 64])
    assert rows_d[-1].gap <= 1e-6
    assert rows_d[-1].gap < rows_d[0].gap

    rows_z = ex.converge("zxzm", P, lam, [2, 4, 8, 16, 32, 64, 128])
    assert rows_z[-1].gap <= 1e-4
    assert rows_z[-1].gap < rows_z[0].gap


@criterion(8, "Z x Z/2 closed form equals its walk series at three lambdas")
def test_c08_zxz2_closed_form():
    for lam in (0.05, 0.1, 0.2):
        closed = -math.log(2) + 0.5 * (
            math.log(1 - 2 * lam + math.sqrt(1 - 4 * lam))
            + math.log(1 + 2 * lam + math.sqrt(1 + 4 * lam))
        )
        # -sum C(4l,2l) lam^(2l) / (2l), summed to below the tolerance floor
        series = -math.fsum(
            math.comb(4 * l, 2 * l) * lam ** (2 * l) / (2 * l) for l in range(1, 90)
        )
        assert abs(closed - series) <= 1e-10
        res = mh.measure(parse_poly_over(P_STANDARD, ZxZ2), lam)
        assert abs(res.value - closed) <= res.error_bound


@criterion(9, "differential relation -lambda dm/dlambda = u - 1")
def test_c09_differential_relation():
    rnd = random.Random(SEED + 9)
    groups = [
        gr.AbelianProduct((3, 2)),
        gr.AbelianProduct((4, 3)),
        gr.Dihedral(3),
        gr.Dihedral(5),
        gr.Dicyclic(2),
    ]
    for i in range(10):
        g = groups[i % len(groups)]
        P = random_reciprocal(g, rnd)
        k = rg.l1_norm(P)
        lam = 0.3 / k
        h = 1e-5 * lam
        dm = (
            mh.mahler_finite(P, lam + h).value
            - mh.mahler_finite(P, lam - h).value
        ) / (2 * h)
        u = mh.u_series(P, lam, 1e-12).real
        assert abs(-lam * dm - (u - 1.0)) <= 1e-6


@criterion(10, "CLI golden outputs, byte for byte")
def test_c10_cli_golden():
    cases = [
        (
            ["measure", "--group", "Z/3xZ/2", "--poly", "1+x+y"],
            '{"command": "measure", "group": "Z/3xZ/2", "poly": "1+x+y", '
            '"lambda": null, "method": "finite-determinant", "value": 0.366204096222703, '
            '"error_bound": 0, "extra": {"group_order": 6, "determinant": 81}}\n',
        ),
        (
            ["coeffs", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--n", "6"],
            '{"command": "coeffs", "group": "Z^2", "poly": "x+x^-1+y+y^-1", '
            '"lambda": null, "method": "group-ring-powering", "value": null, '
            '"error_bound": 0, "extra": {"coeffs": [1, 0, 4, 0, 36, 0, 400], "l1_bound": 4}}\n',
        ),
        (
            ["measure", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda", "0"],
            '{"command": "measure", "group": "Z^2", "poly": "x+x^-1+y+y^-1", '
            '"lambda": 0, "method": "series", "value": 0, "error_bound": 0, '
            '"extra": {"imaginary_discard": 0}}\n',
        ),
    ]
    for argv, want in cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(argv)
        assert rc == 0
        assert buf.getvalue() == want
