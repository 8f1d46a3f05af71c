"""Closed-form generating functions for closed-walk counts.

Covers the d-regular-tree circuit series (free groups, free products of
cyclic groups), the PSL2(Z) formulas, the central-binomial-squared series
over Z^2, and the multinomial trace sums with their binomial relation.

Coefficients are produced by formal power-series algebra over exact
rationals (binomial square roots, division by the standard recurrence), so
walk counts come out as exact integers and can be compared with group-ring
powering by equality rather than tolerance.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple

from . import groups as gr
from . import ring as rg
from .coeffs import exact_real
from .errors import DomainError

# ---------------------------------------------------------------------------
# formal power series over Fraction (dense coefficient lists)


def _pad(p, n: int) -> list[Fraction]:
    out = [Fraction(c) for c in p[: n + 1]]
    out += [Fraction(0)] * (n + 1 - len(out))
    return out


def _series_mul(a, b, n: int) -> list[Fraction]:
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if not ai:
            continue
        for j in range(min(len(b), n + 1 - i)):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def _series_sqrt(a, n: int) -> list[Fraction]:
    """Square root with constant term 1, by the quadratic recurrence."""
    if a[0] != 1:
        raise ValueError("sqrt series needs constant term 1")
    g = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        s = a[k] if k < len(a) else Fraction(0)
        s -= sum(g[i] * g[k - i] for i in range(1, k))
        g[k] = s / 2
    return g


def _series_div(num, den, n: int) -> list[Fraction]:
    """num/den with den[0] != 0, by the standard long-division recurrence."""
    if den[0] == 0:
        raise ValueError("division needs a unit constant term")
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        s = num[k] if k < len(num) else Fraction(0)
        for i in range(1, min(k, len(den) - 1) + 1):
            s -= den[i] * out[k - i]
        out[k] = s / den[0]
    return out


class AlgebraicSeries(NamedTuple):
    """A closed-form evaluator paired with its exact Taylor coefficients."""

    evaluate: Callable[[complex], complex]
    coeff_fn: Callable[[int], list]

    def coeffs(self, n: int) -> list:
        """Taylor coefficients 0..n as exact ints (or Fractions)."""
        return [exact_real(c) for c in self.coeff_fn(n)]


# ---------------------------------------------------------------------------
# d-regular tree circuits


def tree_walk_series(d: int) -> AlgebraicSeries:
    """Generating function of closed walks at the root of the d-regular tree:
    2(d-1) / (d - 2 + d*sqrt(1 - 4(d-1) lambda^2)).

    Real evaluation is restricted to |lambda| < 1/(2 sqrt(d-1)); complex
    arguments use the principal branch.
    """
    if d < 2:
        raise ValueError("tree degree must be >= 2")
    radius = 1.0 / (2.0 * math.sqrt(d - 1))

    def evaluate(lam):
        if isinstance(lam, complex):
            s = cmath.sqrt(1 - 4 * (d - 1) * lam * lam)
            return 2 * (d - 1) / (d - 2 + d * s)
        lam = float(lam)
        if abs(lam) >= radius:
            raise DomainError(
                f"real evaluation needs |lambda| < {radius}; got {lam}"
            )
        s = math.sqrt(1.0 - 4.0 * (d - 1) * lam * lam)
        return 2.0 * (d - 1) / (d - 2 + d * s)

    def coeff_fn(n: int):
        s = _series_sqrt(_pad([1, 0, -4 * (d - 1)], n), n)
        den = [Fraction(d - 2) + d * c if i == 0 else d * c for i, c in enumerate(s)]
        return _series_div(_pad([2 * (d - 1)], n), den, n)

    return AlgebraicSeries(evaluate, coeff_fn)


def u_free(rank: int) -> AlgebraicSeries:
    """Walk series of x1 + x1^-1 + ... + xl + xl^-1 over the free group:
    circuits in the 2l-regular tree."""
    if rank < 1:
        raise ValueError("rank must be positive")
    return tree_walk_series(2 * rank)


def u_free_p2(l: int) -> AlgebraicSeries:
    """Walk series of (1 + x1 + ... + x_{l-1})(1 + x1^-1 + ... + x_{l-1}^-1)
    over the free group of rank l-1: circuits in the l-regular tree."""
    if l < 2:
        raise ValueError("l must be >= 2")
    return tree_walk_series(l)


# ---------------------------------------------------------------------------
# PSL2(Z) = C2 * C3

PSL2_VARIANTS = ("x+y+y^-1", "2x+y+y^-1")

_PSL2_FORMULAS = {
    # variant: (poly under the sqrt, added numerator poly, denominator poly)
    # numerator = (2 - lam) * sqrt(...) + extra
    "x+y+y^-1": ([1, -2, -5, 6, 1], [0, -1, 1, 1], [2, -4, -10, 12]),
    "2x+y+y^-1": ([1, -2, -11, 12, 4], [0, -1, 1, -2], [2, -4, -22, 24]),
}


def u_psl2(variant: str) -> AlgebraicSeries:
    """Walk series over C2 * C3 for x + y + y^-1 or 2x + y + y^-1."""
    if variant not in PSL2_VARIANTS:
        raise ValueError(f"variant must be one of {PSL2_VARIANTS}")
    sq_poly, extra, den_poly = _PSL2_FORMULAS[variant]

    def evaluate(lam):
        z = complex(lam)
        sq = sum(c * z**i for i, c in enumerate(sq_poly))
        den = sum(c * z**i for i, c in enumerate(den_poly))
        if abs(den) < 1e-300:
            raise DomainError(f"lambda = {lam!r} is a pole of the closed form")
        if not isinstance(lam, complex) and sq.real < 0:
            raise DomainError(
                f"real evaluation leaves the principal branch at lambda = {lam}"
            )
        num = (2 - z) * cmath.sqrt(sq) + sum(c * z**i for i, c in enumerate(extra))
        val = num / den
        if not isinstance(lam, complex):
            return val.real
        return val

    def coeff_fn(n: int):
        s = _series_sqrt(_pad(sq_poly, n), n)
        num = _series_mul(_pad([2, -1], n), s, n)
        for i, c in enumerate(_pad(extra, n)):
            num[i] += c
        return _series_div(num, _pad(den_poly, n), n)

    return AlgebraicSeries(evaluate, coeff_fn)


# ---------------------------------------------------------------------------
# Z^2 and the multinomial trace sums


def z2_walk_coeffs(n: int) -> list[int]:
    """Walk counts of x + x^-1 + y + y^-1 over Z^2: C(2m, m)^2 at even index."""
    return [math.comb(k, k // 2) ** 2 if k % 2 == 0 else 0 for k in range(n + 1)]


def _compositions(n: int, parts: int):
    """All ordered tuples of `parts` non-negative ints summing to n."""
    for cuts in combinations(range(n + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cuts + (n + parts - 1,):
            out.append(c - prev - 1)
            prev = c
        yield tuple(out)


def multinomial_walk_sum(l: int, kind: str, n: int) -> int:
    """The displayed multinomial sums for the two polynomial families.

    kind="P1": sum over a_1+...+a_l = n of (2n)! / prod (a_i!)^2, which is
    the constant term of the (2n)-th power of x1+x1^-1+...+xl+xl^-1 over Z^l
    (the sum indexes n, the power it evaluates is 2n; tests pin this down).
    kind="P2": sum of multinomial(n; a)^2, the constant term of the n-th
    power of (1+x1+...+x_{l-1})(1+inverses) over Z^(l-1).
    """
    if l < 1 or n < 0:
        raise ValueError("need l >= 1 and n >= 0")
    if kind == "P1":
        total = 0
        f2n = math.factorial(2 * n)
        for a in _compositions(n, l):
            d = 1
            for ai in a:
                fa = math.factorial(ai)
                d *= fa * fa
            total += f2n // d
        return total
    if kind == "P2":
        total = 0
        fn = math.factorial(n)
        for a in _compositions(n, l):
            m = fn
            for ai in a:
                m //= math.factorial(ai)
            total += m * m
        return total
    raise ValueError("kind must be 'P1' or 'P2'")


def standard_p1(l: int) -> rg.RingElement:
    """x1 + x1^-1 + ... + xl + xl^-1 over Z^l."""
    g = gr.AbelianProduct((0,) * l)
    terms = {}
    for i in range(l):
        for s in (1, -1):
            e = tuple(s if j == i else 0 for j in range(l))
            terms[e] = terms.get(e, 0) + 1
    return rg.ring_element(g, terms)


def standard_p2(l: int) -> rg.RingElement:
    """(1 + x1 + ... + x_{l-1}) (1 + x1^-1 + ... + x_{l-1}^-1) over Z^(l-1)."""
    if l < 2:
        raise ValueError("l must be >= 2")
    g = gr.AbelianProduct((0,) * (l - 1))
    ident = g.identity()
    a = {ident: 1}
    b = {ident: 1}
    for i in range(l - 1):
        e = tuple(1 if j == i else 0 for j in range(l - 1))
        a[e] = 1
        b[g.invert(e)] = 1
    return rg.mul(rg.ring_element(g, a), rg.ring_element(g, b))


def binomial_relation_holds(l: int, n: int) -> bool:
    """[P1^(2n)]_0 over Z^l == C(2n, n) * [P2^n]_0 over Z^(l-1), checked by
    group-ring powering on both sides (exact integers)."""
    if l < 2 or n < 0:
        raise ValueError("need l >= 2 and n >= 0")
    lhs = rg.power_constant_coeffs(standard_p1(l), 2 * n).values[2 * n]
    rhs = rg.power_constant_coeffs(standard_p2(l), n).values[n]
    return lhs == math.comb(2 * n, n) * rhs
