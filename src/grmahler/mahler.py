"""Mahler measures of group-ring elements.

Four computation routes share one result type:

* series       -- m(P, lambda) = -sum a_n lambda^n / n with the rigorous
                  geometric tail bound from |a_n| <= k^n, k the l1-norm;
                  the lambda-free measure of Q = c g0 (1 - P), c its
                  dominant coefficient (mahler_general), is
                  log|c| - Re sum [P^n]_0 / n with the same tail;
* finite-determinant -- log det(I - lambda A) / |G|, I - lambda A the adjacency
                  of 1 - lambda P, and the lambda-free log det(B) / (2|G|), B
                  that of QQ* (mahler_determinant), exact whenever the inputs are;
* quadrature   -- uniform torus grids for free abelian groups (the grid
                  average *is* the finite-group measure at the grid size);
* closed-form  -- the Z x Z/m family for the standard 4-term element.

measure holds the one rule that picks a route from the method, lambda and
the group; it only dispatches, and no route calls another.

lambda is kept real for measure routes; only the walk generating function
u accepts complex lambda.  Every series route walks through _walk_to_depth,
which picks the depth, refuses one past MAX_TERMS before walking and takes
a_n = [P^n]_0 from ring.power_constant_coeffs; each route keeps its own sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import groups as gr
from . import ring as rg
from . import spectra as sp
from .coeffs import GaussianRational, conj, exact_real
from .errors import (
    DomainError,
    InfiniteGroupError,
    ResourceLimitError,
    SingularMatrixError,
)


@dataclass(frozen=True)
class MeasureResult:
    """One measure value, the route that produced it and what that route
    computed, None where it computes nothing: group_order (math.inf when
    infinite), det(B) for B the adjacency of QQ* on the lambda-free finite
    route (exact for exact input; None for float input past float range),
    the imaginary part the lambda series drops (0 on finite-determinant)
    and the torus grid size per dimension."""

    value: float
    method: str  # series | finite-determinant | quadrature | closed-form
    error_bound: float
    group_order: int | float | None = None
    determinant: int | Fraction | float | None = None
    imaginary_discard: float | None = None
    grid: int | None = None


METHODS = ("auto", "finite", "series", "general", "torus")  # the choices of measure


def measure(g: gr.GroupSpec, P: rg.RingElement, lam=None, method: str = "auto",
            epsilon: float = 1e-10, support_cap: int = rg.DEFAULT_SUPPORT_CAP,
            grid: int | None = None, allow_continuation: bool = False) -> MeasureResult:
    """m(P, lambda), or the lambda-free m(P) when lam is None, by one route:
    "general" is mahler_determinant on finite g, else mahler_general, and
    refuses a lam; "finite", "series" and "torus" need one (DomainError);
    "auto" is "general" without lam, else "finite" or "series" by g."""
    if method not in METHODS:
        raise ValueError(f"unknown measure method {method!r}")
    if method == "auto":
        method = "general" if lam is None else "finite" if g.is_finite() else "series"
    if (lam is None) != (method == "general"):
        rule = "takes no lambda" if lam is not None else "needs an explicit lambda"
        raise DomainError(f"method {method!r} {rule}")
    if method == "general":
        if g.is_finite():
            return mahler_determinant(g, P)
        return mahler_general(g, P, epsilon, support_cap)
    if method == "finite":
        return mahler_finite(g, P, lam, allow_continuation)
    if method == "series":
        return mahler_series(g, P, lam, epsilon, support_cap)
    return mahler_torus(rg.transfer(P, g), lam, grid)


def _log(x) -> float:
    """Natural log of a positive int, Fraction or float.

    float(x) overflows past about 1e308, so an exact x outside float range
    is first scaled into it by a power of two.  An exact x within 1/2 of 1
    goes through log1p of the exact x - 1, which keeps the digits that
    rounding x to a float first would lose; any other x goes through float
    unchanged.
    """
    if isinstance(x, (int, Fraction)):
        if abs(x - 1) < Fraction(1, 2):
            return math.log1p(float(x - 1))
        shift = x.numerator.bit_length() - x.denominator.bit_length()
        if abs(shift) > 1000:
            return math.log(float(x / Fraction(2) ** shift)) + shift * math.log(2)
    return math.log(float(x))


# ---------------------------------------------------------------------------
# series route

MAX_TERMS = 400  # the deepest series any series route walks: a term count, not a work budget


def _tail_bound(klam: float, N: int) -> float:
    return klam ** (N + 1) / ((N + 1) * (1.0 - klam))


def _walk_to_depth(P: rg.RingElement, rate: float, epsilon: float, tail, support_cap: int):
    """a_0..a_N of P for the smallest N >= 1 whose tail(rate, N) is at most
    epsilon, and that tail; ResourceLimitError, before any walk, when N
    would exceed MAX_TERMS, or when the walk outgrows support_cap.

    rate bounds the decay of the summed terms, |term_n| <= rate^n, and must
    be below 1 strictly: for the lambda routes it is k|lambda|, k = l1(P).
    """
    if rate >= 1.0:
        raise DomainError(f"|lambda|*l1_norm = {rate} >= 1: outside the series disc")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if tail(rate, MAX_TERMS) > epsilon:
        raise ResourceLimitError(
            f"series needs more than max_terms={MAX_TERMS} terms to reach "
            f"epsilon={epsilon:g} at decay rate {rate:.6g}"
        )
    N = 1
    while tail(rate, N) > epsilon:
        N += 1
    return rg.power_constant_coeffs(P, N, support_cap=support_cap).values, tail(rate, N)


def mahler_series(
    g: gr.GroupSpec,
    P: rg.RingElement,
    lam: float,
    epsilon: float = 1e-10,
    support_cap: int = rg.DEFAULT_SUPPORT_CAP,
) -> MeasureResult:
    """-sum_{n=1}^N a_n lambda^n / n, truncated so the geometric tail bound
    from |a_n| <= k^n is at most epsilon.  Requires |lambda| < 1/k strictly.
    """
    P = rg.transfer(P, g)
    if not rg.is_reciprocal(P):
        raise ValueError("P must be reciprocal")
    lam = float(lam)
    counts, bound = _walk_to_depth(P, rg.l1_norm(P) * abs(lam), epsilon, _tail_bound, support_cap)
    total = 0 + 0j
    for n, a in enumerate(counts[1:], 1):
        try:
            total += complex(a) * lam**n / n
        except OverflowError:  # exact a_n or lambda^n past float range: scale, then round
            total += complex(a * (Fraction(lam) ** n / n))
    return MeasureResult(-total.real, "series", bound, imaginary_discard=abs(total.imag))


def u_series(
    g: gr.GroupSpec,
    P: rg.RingElement,
    lam: complex,
    epsilon: float = 1e-10,
    support_cap: int = rg.DEFAULT_SUPPORT_CAP,
) -> complex:
    """Truncation of u(P, lambda) = sum a_n lambda^n with geometric tail <= epsilon.

    Horner runs on floats unless an exact a_n rounds to 0 or past float
    range; then it runs exactly, on the rational value of lambda (Gaussian
    for complex lambda), and rounds once.  |a_n lambda^n| <= (k|lambda|)^n,
    so the sum itself is in float range.
    """
    P = rg.transfer(P, g)
    counts, _ = _walk_to_depth(P, rg.l1_norm(P) * abs(lam), epsilon,
                               lambda klam, N: klam ** (N + 1) / (1.0 - klam), support_cap)
    x = complex(lam)
    try:
        values = [complex(a) for a in counts]
    except OverflowError:
        values = None
    if values is None or not all(f or not a for f, a in zip(values, counts)):
        values = counts
        x = GaussianRational(Fraction(x.real), Fraction(x.imag)) if x.imag else Fraction(x.real)
    total = 0
    for a in reversed(values):
        total = total * x + a
    return complex(total)


# ---------------------------------------------------------------------------
# finite-group determinant route


def mahler_finite(
    g: gr.GroupSpec,
    P: rg.RingElement,
    lam,
    allow_continuation: bool = False,
) -> MeasureResult:
    """log det(I - lambda A) / |G| for finite G.

    The default domain is |lambda| * spectral_radius(A) < 1, where the
    determinant is positive and the value agrees with the series.  With
    allow_continuation, any lambda with a nonzero determinant is admitted
    and log|det| is used (the analytic continuation across eigenvalues).

    Takes det_hermitian of the adjacency of 1 - lambda P when P is exact
    and lambda rational; otherwise sums log|1 - lambda*s| over the
    eigenvalues s of A.
    """
    if not g.is_finite():
        raise InfiniteGroupError("mahler_finite needs a finite group")
    A = sp.cayley_adjacency(g, P)
    spec = sp.hermitian_eigenvalues(A)
    n = spec.n
    rho = spec.max_abs()
    lam_f = float(lam)
    if not allow_continuation and abs(lam_f) * rho >= 1.0:
        raise DomainError(
            f"|lambda|*spectral_radius = {abs(lam_f) * rho} >= 1; "
            "pass allow_continuation to evaluate log|det| anyway"
        )
    if isinstance(lam, (int, Fraction)) and not isinstance(lam, bool) and A.is_exact():
        shifted = rg.add(rg.one(g), rg.scale(-lam, rg.transfer(P, g)))  # 1 - lambda P
        det = sp.det_hermitian(sp.cayley_adjacency(g, shifted))
        if det == 0:
            raise SingularMatrixError("1/lambda is an eigenvalue of A")
        if not allow_continuation and det < 0:
            raise DomainError("determinant not positive inside the stated domain")
        value = _log(abs(det)) / n
    else:
        factors = [abs(1.0 - lam_f * s) for s in spec.eigenvalues]
        if 0.0 in factors:
            raise SingularMatrixError("1/lambda is an eigenvalue of A")
        value = math.fsum(math.log(f) for f in factors) / n
    return MeasureResult(value, "finite-determinant", 0.0, group_order=n, imaginary_discard=0.0)


def mahler_determinant(g: gr.GroupSpec, Q: rg.RingElement) -> MeasureResult:
    """The lambda-free m(Q) over finite G: log det(B) / (2|G|), B the adjacency
    of QQ*.  det(B) is exact for exact Q; otherwise log det(B) is the sum of
    the logs of the eigenvalues of B, which stays finite where det(B) does not."""
    if not g.is_finite():
        raise InfiniteGroupError("mahler_determinant needs a finite group")
    Q = rg.transfer(Q, g)
    B = sp.cayley_adjacency(g, rg.mul(Q, rg.star(Q)))
    n = g.order()
    # B is positive semidefinite, so it is singular unless det(B) > 0
    if B.is_exact():
        det = sp.det_hermitian(B)
        log_det = _log(det) if det > 0 else None
    else:
        eigenvalues = sp.hermitian_eigenvalues(B).eigenvalues
        det = math.prod(eigenvalues)
        det = det if math.isfinite(det) else None
        log_det = math.fsum(map(math.log, eigenvalues)) if eigenvalues[0] > 0 else None
    if log_det is None:
        raise SingularMatrixError("B is singular: the measure is undefined")
    return MeasureResult(log_det / (2 * n), "finite-determinant", 0.0, group_order=n,
                         determinant=det)


def mahler_general(
    g: gr.GroupSpec,
    Q: rg.RingElement,
    epsilon: float = 1e-12,
    support_cap: int = rg.DEFAULT_SUPPORT_CAP,
) -> MeasureResult:
    """The lambda-free measure of Q by a series at its dominant coefficient,
    over any group (on a finite one it cross-checks mahler_determinant).

    It needs a coefficient c of Q, at g0, with 2|c| > l1(Q); without that
    certificate (e.g. 1 + x + y) it raises DomainError.  With it,
    Q = c g0 (1 - P) for P = -(1/c) g0^-1 (Q - c g0), whose l1-norm
    k = (l1(Q) - |c|)/|c| is below 1, and the determinant being
    multiplicative gives m(Q) = log|c| - Re sum_n [P^n]_0 / n.  The sum is
    cut at the smallest depth N whose rigorous tail k^(N+1)/((N+1)(1 - k))
    is at most epsilon; _walk_to_depth refuses a depth past MAX_TERMS, and
    a walk past support_cap, with ResourceLimitError.
    """
    Q = rg.transfer(Q, g)
    if Q.is_zero():
        raise SingularMatrixError("Q = 0: the measure is undefined")
    l1 = rg.l1_norm(Q)
    g0, c = max(Q.terms, key=lambda t: abs(t[1]))
    if Q.is_exact():  # -v/c and |c|^2 exactly, rounded only then: |c| may be below float range
        s = Fraction(-1) / exact_real(c * conj(c))  # -1/|c|^2
        ratios, log_c = {e: complex(v * conj(c) * s) for e, v in Q.terms}, -_log(-s) / 2
    else:
        ratios, log_c = {e: -v / c for e, v in Q.terms}, math.log(abs(c))
    mul, inv = gr.multiplier(g), g.invert(g0)
    P = rg.ring_element(g, {mul(inv, e): r for e, r in ratios.items() if e != g0})
    rate = rg.l1_norm(P)  # (l1(Q) - |c|)/|c|, below 1 iff 2|c| > l1(Q)
    if rate >= 1.0:
        raise DomainError(
            f"no spectral gap certificate for the series fallback: twice the largest "
            f"coefficient, {2 * float(abs(c)):g}, must exceed l1(Q) = {l1:g}"
        )
    counts, bound = _walk_to_depth(P, rate, epsilon, _tail_bound, support_cap)
    total = math.fsum(complex(a).real / n for n, a in enumerate(counts[1:], 1))
    return MeasureResult(log_c - total, "series", bound, group_order=g.order())


# ---------------------------------------------------------------------------
# torus quadrature for free abelian groups

TORUS_MAX_POINTS = 2**20  # most grid points per call; about 80 MB of numpy arrays


def abelian_measure_via_characters(
    g: gr.AbelianProduct, P: rg.RingElement, lam: float
) -> float:
    """(1/|G|) sum over characters of log|1 - lambda P(chi)| (finite abelian G).

    By the product formula this IS the finite-group Mahler measure, and it is
    the arithmetic path shared with the torus quadrature grid.
    """
    import numpy as np

    vals = sp.abelian_character_values(g, P)
    integrand = 1.0 - lam * vals
    mags = np.abs(integrand)
    if np.any(mags == 0.0):
        raise SingularMatrixError("1 - lambda*P vanishes at a character")
    return float(np.mean(np.log(mags)))


def mahler_torus(
    P: rg.RingElement,
    lam: float,
    grid: int | None = None,
) -> MeasureResult:
    """Uniform-grid average of log|1 - lambda P| over the torus.

    The G-point grid average equals the Z/G x ... x Z/G measure exactly, so
    refining G converges to the free-abelian measure; the error estimate is
    the difference between the G and G//2 grids.  ResourceLimitError, before
    any array is built, when grid**l exceeds TORUS_MAX_POINTS.
    """
    g = P.group
    if not isinstance(g, gr.AbelianProduct) or any(m != 0 for m in g.moduli):
        raise ValueError("mahler_torus needs a free abelian group (all factors Z)")
    l = len(g.moduli)
    if l > 3:
        raise ValueError("torus quadrature limited to at most 3 variables")
    lam = float(lam)
    if abs(lam) * rg.l1_norm(P) >= 1.0:
        raise DomainError("lambda outside the disc: integrand may vanish on the torus")
    if grid is None:
        grid = 256 if l <= 2 else 64
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if grid**l > TORUS_MAX_POINTS:
        raise ResourceLimitError(f"{grid}^{l} torus points exceed max_points={TORUS_MAX_POINTS}")

    def grid_value(G: int) -> float:
        gq = gr.AbelianProduct((G,) * l)
        return abelian_measure_via_characters(gq, rg.transfer(P, gq), lam)

    value = grid_value(grid)
    coarse = grid_value(grid // 2)
    return MeasureResult(value, "quadrature", abs(value - coarse), grid=grid)


# ---------------------------------------------------------------------------
# closed form for Z x Z/m with the standard 4-term element


def mahler_zxzm(m: int, lam: float) -> float:
    """Closed-form m_{Z x Z/m}(x + x^-1 + y + y^-1, lambda) for 0 < lambda < 1/4.

    Averages, over the m-th roots of unity in the finite factor, the log of
    the larger root of the one-variable quadratic; the '+' branch is the
    correct one for positive lambda.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lam = float(lam)
    if not 0.0 < lam < 0.25:
        raise DomainError("closed form valid for lambda in (0, 1/4)")
    total = 0.0
    for k in range(m):
        theta = 2.0 * math.pi * k / m
        c = math.cos(theta)
        s2 = math.sin(theta) ** 2
        disc = 1.0 - 4.0 * c * lam - 4.0 * s2 * lam * lam
        disc = max(disc, 0.0)
        total += math.log((1.0 - 2.0 * c * lam + math.sqrt(disc)) / 2.0)
    return total / m
