"""Mahler measures of group-ring elements.

Three computation routes, each returning one result type, MeasureResult:

* series       -- m(P, lambda) = -sum a_n lambda^n / n with the rigorous
                  geometric tail bound from |a_n| <= k^n, k the l1-norm;
                  the lambda-free measure of Q = c g0 (1 - P), c its
                  dominant coefficient (mahler_general), is
                  log|c| - Re sum [P^n]_0 / n with the same tail;
* finite-determinant -- log det(I - lambda A) / |G|, I - lambda A the adjacency
                  of 1 - lambda P, in floats from the representation blocks
                  (mahler_blocks) or from the adjacency, exact by Bareiss for
                  exact inputs (mahler_finite); and the lambda-free
                  log det(B) / (2|G|), B that of QQ* (mahler_determinant),
                  exact whenever the inputs are, else from the blocks;
* quadrature   -- uniform torus grids for free abelian groups (the grid
                  average *is* the finite-group measure at the grid size).

ROUTES, in auto's order, is the one table of measure's routes: blocks,
finite, series, general and torus.  auto takes blocks on a finite group and
series on an infinite one with a lambda, and general without one; finite,
the adjacency oracle, and torus run only when named.  measure only runs a
row, and no route calls another.  A new route is a row, its function,
a tests/test_routes.py ROUTES entry and a tests/test_cli.py METHOD_ARGVS one.

P carries its group: every route measures P over P.group, and a caller
that changes the base group does so with ring.transfer where it changes it.
Only mahler_torus does so here, to read P on its finite grids.

lambda is kept real for measure routes; only the walk generating function
u accepts complex lambda.  Every series route takes its terms a_n s^n
(s = lambda, or 1 for mahler_general) from _walk_to_depth, which picks the
depth and refuses one past MAX_TERMS before walking, and sums them by _sum.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable, NamedTuple

from . import groups as gr
from . import ring as rg
from . import spectra as sp
from .coeffs import GaussianRational, conj, exact_real
from .errors import DomainError, ResourceLimitError, SingularMatrixError


class MeasureResult(NamedTuple):
    """One measure value, the route that produced it and what that route
    computed, None where it computes nothing: group_order (math.inf when
    infinite), det(B) for B the adjacency of QQ* on the lambda-free finite
    route (exact for exact input; None for float input past float range),
    the imaginary part the lambda series drops (0 on finite-determinant)
    and the torus grid size per dimension."""

    value: float
    method: str  # series | finite-determinant | quadrature
    error_bound: float
    group_order: int | float | None = None
    determinant: int | Fraction | float | None = None
    imaginary_discard: float | None = None
    grid: int | None = None


class Route(NamedTuple):
    """One row of ROUTES, a --method of measure.  run looks its route functions
    up as module globals at each call, so a patched module attribute runs."""

    lam: bool  # True: the route needs a lambda; False: it refuses one
    auto: Callable[[gr.GroupSpec], bool] | None  # the groups auto may take it on; None: never
    run: Callable  # (P, lam, **options) -> MeasureResult


ROUTES = {
    "blocks": Route(True, lambda g: g.is_finite(), lambda P, lam, allow_continuation, **_:
                    mahler_blocks(P, lam, allow_continuation)),
    "finite": Route(True, None, lambda P, lam, allow_continuation, **_:
                    mahler_finite(P, lam, allow_continuation)),
    "series": Route(True, lambda g: True, lambda P, lam, epsilon, support_cap, **_:
                    mahler_series(P, lam, epsilon, support_cap)),
    "general": Route(False, lambda g: True, lambda P, lam, epsilon, support_cap, **_:
                     mahler_determinant(P) if P.group.is_finite()
                     else mahler_general(P, epsilon, support_cap)),
    "torus": Route(True, None, lambda P, lam, grid, **_: mahler_torus(P, lam, grid)),
}
METHODS = ("auto", *ROUTES)  # the choices of measure


def measure(P: rg.RingElement, lam=None, method: str = "auto",
            epsilon: float = 1e-10, support_cap: int = rg.DEFAULT_SUPPORT_CAP,
            grid: int | None = None, allow_continuation: bool = False) -> MeasureResult:
    """m(P, lambda) over P.group, or the lambda-free m(P) when lam is None, by
    the ROUTES row that method names; a row refuses a lam it cannot use
    (DomainError).  "auto" is the first row whose lambda rule holds and whose
    auto accepts P.group."""
    if method == "auto":
        method = next(name for name, route in ROUTES.items()
                      if route.lam == (lam is not None) and route.auto and route.auto(P.group))
    route = ROUTES.get(method)
    if route is None:
        raise ValueError(f"unknown measure method {method!r}")
    if route.lam != (lam is not None):
        rule = "takes no lambda" if lam is not None else "needs an explicit lambda"
        raise DomainError(f"method {method!r} {rule}")
    return route.run(P, lam, epsilon=epsilon, support_cap=support_cap, grid=grid,
                     allow_continuation=allow_continuation)


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


def _rational(x) -> GaussianRational:
    """x exactly, as a Gaussian rational: a float gives the dyadic value it holds."""
    return GaussianRational(Fraction(x.real), Fraction(x.imag))


def _walk_to_depth(P: rg.RingElement, s, epsilon: float, tail, support_cap: int):
    """The terms a_n s^n (n = 1..N) of the walk counts a_n = [P^n]_0 for the
    smallest N >= 1 whose tail(k|s|, N) is at most epsilon, k = l1(P) and
    k|s| < 1, and that tail; ResourceLimitError, before any walk, when N
    would exceed MAX_TERMS, or when a walk outgrows support_cap.  The counts
    come from ring.block_walk_counts, so over an abelian group each block of
    P is walked on its own axes and support_cap bounds each block's walk,
    and a nearest-neighbour P over a free family solves first-passage
    equations, which build no power and need no cap.  A term
    is formed in floats unless a_n or s^n leaves float range (an
    OverflowError, a non-finite term or a nonzero a_n whose term rounds to 0);
    then it is formed on the rational values of a_n and s, and rounded once.
    """
    rate = rg.l1_norm(P) * abs(s)
    if rate >= 1.0:
        raise DomainError(f"|lambda|*l1_norm = {rate} >= 1: outside the series disc")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    N = next((N for N in range(1, MAX_TERMS + 1) if tail(rate, N) <= epsilon), None)
    if N is None:
        raise ResourceLimitError(
            f"series needs more than max_terms={MAX_TERMS} terms to reach "
            f"epsilon={epsilon:g} at decay rate {rate:.6g}"
        )
    counts = rg.block_walk_counts(P, N, support_cap)
    terms, power, m = [], 1, 0  # power = s^m exactly, grown as the terms need it
    for n, a in enumerate(counts[1:], 1):
        try:
            t = a * s**n
        except OverflowError:
            t = None
        if t is None or not cmath.isfinite(t) or (a and not t):
            power, m = power * math.prod((n - m) * [_rational(s)]), n
            t = complex(_rational(a) * power)
        terms.append(t)
    return terms, tail(rate, N)


def _sum(terms) -> complex:
    """math.fsum of the real and of the imaginary parts of complex terms."""
    return complex(math.fsum([t.real for t in terms]), math.fsum([t.imag for t in terms]))


def mahler_series(
    P: rg.RingElement,
    lam: float,
    epsilon: float = 1e-10,
    support_cap: int = rg.DEFAULT_SUPPORT_CAP,
) -> MeasureResult:
    """-sum_{n=1}^N a_n lambda^n / n, truncated so the geometric tail bound
    from |a_n| <= k^n is at most epsilon.  Requires |lambda| < 1/k strictly.
    The imaginary part of the sum is reported as imaginary_discard.
    """
    if not rg.is_reciprocal(P):
        raise DomainError("P must be reciprocal")
    terms, bound = _walk_to_depth(P, float(lam), epsilon, _tail_bound, support_cap)
    total = _sum([t / n for n, t in enumerate(terms, 1)])
    return MeasureResult(-total.real, "series", bound, imaginary_discard=abs(total.imag))


def u_series(
    P: rg.RingElement,
    lam: complex,
    epsilon: float = 1e-10,
    support_cap: int = rg.DEFAULT_SUPPORT_CAP,
) -> complex:
    """Truncation of u(P, lambda) = 1 + sum a_n lambda^n with geometric tail
    <= epsilon; |a_n lambda^n| <= (k|lambda|)^n keeps each term in float range."""
    terms, _ = _walk_to_depth(P, lam, epsilon,
                              lambda klam, N: klam ** (N + 1) / (1.0 - klam), support_cap)
    return 1 + _sum(terms)


# ---------------------------------------------------------------------------
# finite-group determinant route


def _spectral_measure(spec: sp.Spectrum, lam, allow_continuation: bool,
                      exact_det: Callable | None = None) -> MeasureResult:
    """log|det(I - lambda A)| / |G| from the spectrum of A, under the domain
    rule of mahler_finite; the determinant is exact_det() when given, else
    the product of 1 - lambda*s over the eigenvalues s, summed as logs."""
    n, lam_f = spec.n, float(lam)
    rho = spec.max_abs()
    if not allow_continuation and abs(lam_f) * rho >= 1.0:
        raise DomainError(
            f"|lambda|*spectral_radius = {abs(lam_f) * rho} >= 1; "
            "pass allow_continuation to evaluate log|det| anyway"
        )
    if exact_det is not None:
        det = exact_det()
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


def mahler_finite(
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
    eigenvalues s of A, from LAPACK.
    """
    A = sp.cayley_adjacency(P)
    exact_det = None
    if isinstance(lam, (int, Fraction)) and not isinstance(lam, bool) and A.is_exact():
        shifted = rg.add(rg.one(P.group), rg.scale(-lam, P))  # 1 - lambda P
        exact_det = lambda: sp.det_hermitian(sp.cayley_adjacency(shifted))
    return _spectral_measure(sp.hermitian_eigenvalues(A), lam, allow_continuation, exact_det)


def mahler_blocks(
    P: rg.RingElement,
    lam,
    allow_continuation: bool = False,
) -> MeasureResult:
    """mahler_finite's float value, over a finite abelian, dihedral or
    dicyclic group, for any lambda: the same rules on the spectrum that
    spectra.block_spectrum takes from the representation blocks, with no
    adjacency, numpy or LAPACK."""
    return _spectral_measure(sp.block_spectrum(P), lam, allow_continuation)


def mahler_determinant(Q: rg.RingElement) -> MeasureResult:
    """The lambda-free m(Q) over finite G: log det(B) / (2|G|), B the adjacency
    of QQ*, which is never built.  For exact Q, det(B) is
    spectra.character_determinant of QQ*, exact; otherwise log det(B) is the
    sum of the logs of the eigenvalues of B from spectra.block_spectrum,
    which stays finite where det(B) does not."""
    R = rg.mul(Q, rg.star(Q))
    if not R.is_exact():
        # float QQ* sums its coefficients at h and h^-1 in different orders, so
        # they need not be conjugate to the last bit; its Hermitian part
        # R/2 + (R/2)* is, as float addition commutes
        half = rg.scale(0.5, R)
        R = rg.add(half, rg.star(half))
    n = Q.group.order()
    # B is positive semidefinite, so it is singular unless det(B) > 0
    if R.is_exact():
        det = sp.character_determinant(R)
        log_det = _log(det) if det > 0 else None
    else:
        eigenvalues = sp.block_spectrum(R).eigenvalues
        det = math.prod(eigenvalues)
        det = det if math.isfinite(det) else None
        log_det = math.fsum(map(math.log, eigenvalues)) if eigenvalues[0] > 0 else None
    if log_det is None:
        raise SingularMatrixError("B is singular: the measure is undefined")
    return MeasureResult(log_det / (2 * n), "finite-determinant", 0.0, group_order=n,
                         determinant=det)


def mahler_general(
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
    multiplicative gives m(Q) = log|c| - Re sum_n [P^n]_0 / n, cut where
    the rigorous tail k^(N+1)/((N+1)(1 - k)) is at most epsilon.
    """
    g = Q.group
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
            f"no dominance certificate for the lambda-free series: twice the largest "
            f"coefficient, {2 * float(abs(c)):g}, must exceed l1(Q) = {l1:g}"
        )
    terms, bound = _walk_to_depth(P, 1, epsilon, _tail_bound, support_cap)
    total = _sum([t / n for n, t in enumerate(terms, 1)])
    return MeasureResult(log_c - total.real, "series", bound, group_order=g.order())


# ---------------------------------------------------------------------------
# torus quadrature for free abelian groups

# most characters per call; numpy arrays peak near 25 MB there, and at
# 40-48 MB when a term of P moves every axis (on Z, any term) (tracemalloc)
TORUS_MAX_POINTS = 2**20


def _character_logs(P: rg.RingElement, lam: float):
    """log|1 - lambda P(chi)| at every character of G = P.group, finite
    abelian, formed in place in the flat array of
    spectra.abelian_character_values.  ResourceLimitError, before any array
    is built, when |G| exceeds TORUS_MAX_POINTS."""
    import numpy as np

    g = P.group
    points = g.order()
    if points > TORUS_MAX_POINTS and g.is_finite():
        raise ResourceLimitError(
            f"{points} characters of {g.spec()} exceed max_points={TORUS_MAX_POINTS}"
        )
    vals = sp.abelian_character_values(P)
    vals *= -lam
    vals += 1.0
    mags = np.abs(vals)
    if np.any(mags == 0.0):
        raise SingularMatrixError("1 - lambda*P vanishes at a character")
    return np.log(mags, out=mags)


def abelian_measure_via_characters(P: rg.RingElement, lam: float) -> float:
    """(1/|G|) sum over characters of log|1 - lambda P(chi)| (G = P.group,
    finite abelian).

    By the product formula this IS the finite-group Mahler measure; it is the
    mean of _character_logs, the arithmetic path shared with the torus grid.
    ResourceLimitError, before any array is built, when |G| exceeds
    TORUS_MAX_POINTS.
    """
    import numpy as np

    return float(np.mean(_character_logs(P, lam)))


def mahler_torus(
    P: rg.RingElement,
    lam: float,
    grid: int | None = None,
) -> MeasureResult:
    """Uniform-grid average of log|1 - lambda P| over the torus.

    The G-point grid average equals the Z/G x ... x Z/G measure exactly, so
    refining G converges to the free-abelian measure; the error estimate is
    the difference between the G and G//2 grids.  For even G the G//2 grid
    is the even-index points of the G grid (2 pi e j'/(G/2) = 2 pi e 2j'/G),
    so P's characters are evaluated once; an odd G evaluates both grids.
    ResourceLimitError, before any array is built, when grid**l exceeds
    TORUS_MAX_POINTS (checked by _character_logs).
    """
    import numpy as np

    g = P.group
    if not isinstance(g, gr.AbelianProduct) or any(m != 0 for m in g.moduli):
        raise DomainError("mahler_torus needs a free abelian group (all factors Z)")
    l = len(g.moduli)
    if l > 3:
        raise DomainError("torus quadrature limited to at most 3 variables")
    lam = float(lam)
    if abs(lam) * rg.l1_norm(P) >= 1.0:
        raise DomainError("lambda outside the disc: integrand may vanish on the torus")
    if grid is None:
        grid = 256 if l <= 2 else 64
    if grid < 2:
        raise ValueError("grid must be >= 2")
    gq = gr.AbelianProduct((grid,) * l)
    logs = _character_logs(rg.transfer(P, gq), lam)
    value = float(np.mean(logs))
    if grid % 2:
        gq = gr.AbelianProduct((grid // 2,) * l)
        coarse = abelian_measure_via_characters(rg.transfer(P, gq), lam)
    else:
        coarse = float(np.mean(logs.reshape((grid,) * l)[(slice(0, None, 2),) * l]))
    return MeasureResult(value, "quadrature", abs(value - coarse), grid=grid)
