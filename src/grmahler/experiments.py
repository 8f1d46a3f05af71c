"""Convergence and comparison experiments.

Reproduces the finite-approximation behaviour: `converge` runs any chain of
`CHAINS` (finite abelian grids against the torus measure, dihedral,
dicyclic and Z x Z/m quotients against their infinite limits); agreement
depth of walk counts; and the equality and counterexample comparisons
between a group and its abelianized counterpart.

The paper's base group varies here, so these are the callers that move P
between groups, with ring.transfer: each chain row onto its quotient, and
compare_groups and agreement_depth onto each of their two groups.
"""
from __future__ import annotations

import math
from itertools import product
from typing import Callable, NamedTuple

from . import groups as gr
from . import mahler as mh
from . import ring as rg
from .errors import DomainError

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


def _abelian_row(P, lam, m):
    moduli = (m,) * len(P.group.moduli) if isinstance(m, int) else tuple(m)
    gq = gr.AbelianProduct(moduli)
    value = mh.abelian_measure_via_characters(rg.transfer(P, gq), lam)
    q = q_of_m(moduli)
    return gq.order(), value, f">{DEFAULT_H_MAX}" if q is None else q


def _quotient_row(quotient):
    """The row of a chain whose parameter m names the quotient(m) P is measured over."""
    return lambda P, lam, m: (m, mh.measure(rg.transfer(P, quotient(m)), lam).value, None)


class Chain(NamedTuple):
    """One row of CHAINS: a chain of finite quotients and its limit group."""

    serves: Callable[[rg.RingElement], bool]  # P lives over the limit group
    row: Callable  # (P over the limit group, lambda, m) -> (parameter, value, q)
    epsilon: float  # of the series limit


CHAINS = {
    # Z/m1 x ... x Z/ml -> Z^l by characters; m is (m,) * l or the moduli,
    # the parameter |G|, q Boyd-Lawton's
    "abelian": Chain(lambda P: isinstance(P.group, gr.AbelianProduct) and not any(P.group.moduli),
                     _abelian_row, 1e-9),
    # D_m -> Dinf and Dic_m -> the printed Dicinf (see README for the
    # caveat), by determinant; Z x Z/m -> Z^2 by the series
    "dihedral": Chain(lambda P: P.group == gr.Dihedral(0), _quotient_row(gr.Dihedral), 1e-10),
    "dicyclic": Chain(lambda P: P.group == gr.Dicyclic(0), _quotient_row(gr.Dicyclic), 1e-10),
    "zxzm": Chain(lambda P: P.group == gr.AbelianProduct((0, 0)),
                  _quotient_row(lambda m: gr.AbelianProduct((0, m))), 1e-10),
}


def converge(
    chain: str, P: rg.RingElement, lam: float, params, support_cap: int = rg.DEFAULT_SUPPORT_CAP
) -> list[ConvergenceRow]:
    """Measures along a chain of finite quotients against the series value
    over the limit group, P's group; rows sorted by parameter."""
    serves, row, epsilon = CHAINS[chain]
    if not serves(P):
        raise DomainError(f"the {chain} chain does not serve {P.group.spec()}: P must live over its limit group")
    limit = mh.measure(P, lam, epsilon=epsilon, support_cap=support_cap)
    rows = [ConvergenceRow(p, v, abs(v - limit.value), limit.method, q)
            for p, v, q in (row(P, lam, m) for m in params)]
    return sorted(rows, key=lambda r: r.parameter)


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
        mh.measure(rg.transfer(poly, g), lam, epsilon=epsilon, support_cap=support_cap).value
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
