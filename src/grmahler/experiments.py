"""Convergence and comparison experiments.

Reproduces the finite-approximation behaviour: finite abelian grids against
the torus measure, dihedral and dicyclic quotient chains against their
infinite limits, the Z x Z/m closed-form chain, agreement depth of walk
counts, and the equality/counterexample comparisons between a group and its
abelianized counterpart.
"""
from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

from . import groups as gr
from . import mahler as mh
from . import ring as rg

DEFAULT_H_MAX = 8
EQUAL_TOL = 1e-10
UNEQUAL_TOL = 1e-6


class ConvergenceRow(NamedTuple):
    """One sweep entry: finite-model parameter, its measure, gap to the limit.

    q is the Boyd-Lawton relation height where it applies (abelian sweeps):
    an int, math.inf when no nonzero relation exists, or a ">H" string when
    the bounded search was inconclusive; None on quotient chains.
    """

    parameter: int
    value: float
    gap: float
    limit_method: str
    q: int | float | str | None = None


class AgreementReport(NamedTuple):
    """Walk-count comparison a_n^(finite) vs a_n^(infinite) up to n_max."""

    first_disagreement: int | None  # None: agree everywhere up to n_max
    n_max: int
    coeff_pairs: tuple


class ComparisonResult(NamedTuple):
    value_a: float
    value_b: float
    verdict: str  # equal | unequal | inconclusive

    @property
    def equal(self) -> bool:
        return self.verdict == "equal"


def q_of_m(m, h_max: int = DEFAULT_H_MAX):
    """Boyd-Lawton q(m): minimal sup-norm of a nonzero integer relation
    sum m_i s_i = 0, searched exhaustively over |s_i| <= h_max.

    Returns math.inf when no nonzero relation exists at all (single
    modulus), or None when the search up to h_max is inconclusive.
    """
    m = tuple(int(x) for x in m)
    if not m or any(x < 1 for x in m):
        raise ValueError("moduli must be positive")
    if len(m) == 1:
        return math.inf
    best = None
    for h in range(1, h_max + 1):
        # search height exactly h: at least one |s_i| = h
        for s in product(range(-h, h + 1), repeat=len(m)):
            if max(abs(x) for x in s) != h:
                continue
            if sum(mi * si for mi, si in zip(m, s)) == 0:
                best = h
                break
        if best is not None:
            return best
    return None


def converge_abelian(
    P: rg.RingElement, lam: float, moduli_sequence, support_cap: int = rg.DEFAULT_SUPPORT_CAP
) -> list[ConvergenceRow]:
    """Finite-abelian measures (character product formula) against the
    free-abelian series limit; rows sorted by group order."""
    g = P.group
    if not isinstance(g, gr.AbelianProduct) or any(m != 0 for m in g.moduli):
        raise ValueError("P must live over a free abelian group")
    limit = mh.measure(g, P, lam, epsilon=1e-9, support_cap=support_cap)
    rows = []
    for moduli in moduli_sequence:
        gq = gr.AbelianProduct(tuple(moduli))
        value = mh.abelian_measure_via_characters(gq, rg.transfer(P, gq), lam)
        q = q_of_m(moduli)
        rows.append(
            ConvergenceRow(
                parameter=int(gq.order()),
                value=value,
                gap=abs(value - limit.value),
                limit_method=limit.method,
                q=q if q is not None else f">{DEFAULT_H_MAX}",
            )
        )
    rows.sort(key=lambda r: r.parameter)
    return rows


def agreement_depth(
    g_fin: gr.GroupSpec,
    g_inf: gr.GroupSpec,
    P: rg.RingElement,
    n_max: int,
    support_cap: int = rg.DEFAULT_SUPPORT_CAP,
) -> AgreementReport:
    """Compare walk counts of the same polynomial over two groups.

    P may be tagged with either group (or any group whose generators embed
    word-for-word in both); the support words are re-evaluated in each.
    """
    a_fin = rg.power_constant_coeffs(rg.transfer(P, g_fin), n_max, support_cap).values
    a_inf = rg.power_constant_coeffs(rg.transfer(P, g_inf), n_max, support_cap).values
    first = None
    for n, (x, y) in enumerate(zip(a_fin, a_inf)):
        if not _coeffs_equal(x, y):
            first = n
            break
    return AgreementReport(first, n_max, tuple(zip(a_fin, a_inf)))


def _coeffs_equal(x, y) -> bool:
    if isinstance(x, complex) or isinstance(y, complex):
        return abs(complex(x) - complex(y)) <= 1e-12
    return x == y


CHAINS = ("dihedral", "dicyclic", "zxzm")


def converge_quotients(
    chain: str, P: rg.RingElement, lam: float, m_list, support_cap: int = rg.DEFAULT_SUPPORT_CAP
) -> list[ConvergenceRow]:
    """Measures of a quotient chain against the infinite-group series value.

    chain="dihedral": D_m -> D_infinity, finite side by determinant.
    chain="dicyclic": Dic_m against the printed infinite presentation
    (which coincides with D_infinity; see README for the caveat).
    chain="zxzm": the Z x Z/m closed form for the standard 4-term element
    against the Z^2 series.
    """
    if chain not in CHAINS:
        raise ValueError(f"chain must be one of {CHAINS}")
    family = {"dihedral": gr.Dihedral, "dicyclic": gr.Dicyclic}.get(chain)
    g_inf = family(0) if family else gr.AbelianProduct((0, 0))
    standard = {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    if not family and rg.transfer(P, g_inf) != rg.ring_element(g_inf, standard):
        raise ValueError("the zxzm chain is the closed form for x + x^-1 + y + y^-1 only")
    limit = mh.measure(g_inf, P, lam, epsilon=1e-10, support_cap=support_cap)
    rows = []
    for m in map(int, m_list):
        if family:
            value = mh.measure(family(m), P, lam).value
        else:
            value = mh.mahler_zxzm(m, lam)
        rows.append(ConvergenceRow(m, value, abs(value - limit.value), limit.method))
    rows.sort(key=lambda r: r.parameter)
    return rows


def compare_groups(
    g_a: gr.GroupSpec,
    g_b: gr.GroupSpec,
    poly: rg.RingElement,
    lam: float | None = None,
    epsilon: float = 1e-12,
    support_cap: int = rg.DEFAULT_SUPPORT_CAP,
) -> ComparisonResult:
    """Measure the same polynomial over two groups and classify the gap.

    Both sides go through mahler.measure's automatic route with the shared
    epsilon: m(P, lambda) with lam, the lambda-free m(P) without it.
    Hypothesis violations are not errors: an honest inequality verdict is
    the point of the counterexamples.
    """
    va, vb = (
        mh.measure(g, poly, lam, epsilon=epsilon, support_cap=support_cap).value
        for g in (g_a, g_b)
    )
    diff = abs(va - vb)
    if diff <= EQUAL_TOL:
        verdict = "equal"
    elif diff > UNEQUAL_TOL:
        verdict = "unequal"
    else:
        verdict = "inconclusive"
    return ComparisonResult(va, vb, verdict)
