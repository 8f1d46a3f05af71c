"""Weighted Cayley adjacency matrices and their spectra.

The adjacency matrix of a finite group for a reciprocal ring element P has
entries A[i][j] = coefficient of g_i^-1 g_j in P, with vertices in the
canonical enumeration order.  CayleyAdjacency holds it sparsely, as the
vertex g_i e_t for each g_i and each term c_t e_t of P: |G|*|supp P|
group-law calls.  Reciprocity of P, checked once, makes A Hermitian.

Floating spectra come from LAPACK's Hermitian eigensolver (eigvalsh)
through hermitian_eigenvalues, the one eigenvalue entry point.  numpy is
imported on first use, so the series and exact routes never load it.
The exact determinant takes the dense rows of A (I - lambda A is the
adjacency of 1 - lambda P), clears denominators once and runs fraction-free
Bareiss elimination on pairs of ints (Gaussian integers), so that integer
constants come out exactly.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import coeffs as cf
from . import groups as gr
from . import ring as rg
from .errors import InfiniteGroupError, NonConvergenceError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class CayleyAdjacency:
    """A[i][cols[i][t]] = coeffs[t] and 0 elsewhere: cols[i][t] is the index
    of g_i e_t for the t-th term c_t e_t of P, coeffs P's coefficients."""

    n: int
    cols: tuple
    coeffs: tuple

    def is_exact(self) -> bool:
        return all(cf.is_exact(c) for c in self.coeffs)

    def rows(self) -> list:
        """Dense rows of A."""
        out = [[0] * self.n for _ in range(self.n)]
        for dense, row in zip(out, self.cols):
            for j, c in zip(row, self.coeffs):
                dense[j] += c
        return out

    def to_numpy(self) -> np.ndarray:
        import numpy as np

        a = np.zeros((self.n, self.n), dtype=complex)
        cols = np.array(self.cols, dtype=np.intp).reshape(self.n, len(self.coeffs))
        vals = [cf.to_complex(c, "a coefficient of P") for c in self.coeffs]
        a[np.arange(self.n)[:, None], cols] = vals
        return a


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted ascending, with multiplicity."""

    eigenvalues: tuple[float, ...]
    n: int

    def max_abs(self) -> float:
        return max((abs(x) for x in self.eigenvalues), default=0.0)


# ---------------------------------------------------------------------------
# adjacency


def cayley_adjacency(g: gr.GroupSpec, P: rg.RingElement) -> CayleyAdjacency:
    """Weighted Cayley adjacency of a finite group for reciprocal P."""
    if not g.is_finite():
        raise InfiniteGroupError("Cayley adjacency needs a finite group")
    P = rg.transfer(P, g)
    if not rg.is_reciprocal(P):
        raise ValueError("P must be reciprocal (P == P*)")
    mul, index = gr.multiplier(g), g.element_index
    cols = tuple(tuple(index(mul(gi, e)) for e, _ in P.terms) for gi in gr.elements(g))
    return CayleyAdjacency(len(cols), cols, tuple(c for _, c in P.terms))


# ---------------------------------------------------------------------------
# eigenvalues


def hermitian_eigenvalues(A: CayleyAdjacency) -> Spectrum:
    """All-real spectrum, ascending, from LAPACK's Hermitian eigensolver."""
    import numpy as np

    try:
        vals = np.linalg.eigvalsh(A.to_numpy())
    except np.linalg.LinAlgError as err:
        raise NonConvergenceError(f"Hermitian eigensolver failed: {err}") from err
    return Spectrum(tuple(vals.tolist()), A.n)


# ---------------------------------------------------------------------------
# determinants


def _det_exact(rows) -> cf.GaussianRational:
    """Exact determinant of a square matrix of int, Fraction or
    GaussianRational entries.

    Denominators are cleared once: with d the lcm of the denominators of
    every real and imaginary part, each entry of d*rows is held as a pair
    (re, im) of ints, and det(rows) = det(d*rows) / d^n.  d*rows is reduced
    by fraction-free Bareiss elimination with row swaps (Bareiss, Math.
    Comp. 22, 1968): each step k replaces the trailing block by
    (x*pivot - c*y) / previous pivot, a division that is exact in the
    Gaussian integers Z[i], and the last pivot is the determinant.
    """
    n = len(rows)
    d = math.lcm(*(x.denominator for row in rows for c in row for x in (c.real, c.imag)))
    a = [[(int(c.real * d), int(c.imag * d)) for c in row] for row in rows]
    sign, (qr, qi) = 1, (1, 0)
    while a:
        k = next((r for r, row in enumerate(a) if row[0] != (0, 0)), None)
        if k is None:
            return cf.GaussianRational(0)
        if k:
            a[0], a[k] = a[k], a[0]
            sign = -sign
        (pr, pi), *top = a[0]
        q2 = qr * qr + qi * qi
        rest = []
        for (cr, ci), *row in a[1:]:
            new = []
            for (xr, xi), (yr, yi) in zip(row, top):
                tr = xr * pr - xi * pi - cr * yr + ci * yi
                ti = xr * pi + xi * pr - cr * yi - ci * yr
                new.append(((tr * qr + ti * qi) // q2, (ti * qr - tr * qi) // q2))
            rest.append(new)
        a, qr, qi = rest, pr, pi
    scale = d**n
    return cf.GaussianRational(Fraction(sign * qr, scale), Fraction(sign * qi, scale))


def det_hermitian(A: CayleyAdjacency):
    """Exact det(A) (int or Fraction); needs exact P.  det(I - lambda A) is
    det_hermitian of the adjacency of 1 - lambda P."""
    return cf.exact_real(_det_exact(A.rows()))


# ---------------------------------------------------------------------------
# character-based spectra


def abelian_character_values(g: gr.AbelianProduct, P: rg.RingElement) -> np.ndarray:
    """P evaluated at every character of a finite abelian group.

    Entry order is lexicographic over the character index tuples
    (j_1, ..., j_l), matching the canonical element order.
    """
    if not isinstance(g, gr.AbelianProduct):
        raise ValueError("character evaluation needs an abelian product group")
    if not g.is_finite():
        raise InfiniteGroupError("character evaluation needs a finite group")
    import numpy as np

    P = rg.transfer(P, g)
    moduli = g.moduli
    grids = np.meshgrid(*(np.arange(m) for m in moduli), indexing="ij")
    vals = np.zeros(grids[0].shape if grids else (), dtype=complex)
    for e, c in P.terms:
        phase = np.zeros(grids[0].shape, dtype=float)
        for exp, m, j in zip(e, moduli, grids):
            phase += (2.0 * math.pi * exp / m) * j
        vals += complex(c) * np.exp(1j * phase)
    return vals.reshape(-1)


def abelian_spectrum(g: gr.AbelianProduct, P: rg.RingElement) -> Spectrum:
    """Spectrum of the Cayley adjacency by evaluating P at roots of unity.

    For reciprocal P this equals the adjacency spectrum as a multiset; the
    values are then real.
    """
    import numpy as np

    vals = abelian_character_values(g, P)
    resid = float(np.max(np.abs(vals.imag))) if len(vals) else 0.0
    scale = max(1.0, float(np.max(np.abs(vals)))) if len(vals) else 1.0
    if resid > 1e-9 * scale:
        raise ValueError(
            "character values are not real; spectrum is defined for reciprocal P"
        )
    return Spectrum(tuple(sorted(float(v) for v in vals.real)), len(vals))


def dihedral_trace_via_characters(m: int, P: rg.RingElement, n: int) -> float:
    """trace(A^n) for reciprocal P over D_m from the character identity:
    expand P^n into monomials x^k and y x^k, then substitute x -> each m-th
    root of unity and y -> +/-1, and sum.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    g = gr.Dihedral(m)
    P = rg.transfer(P, g)
    if not rg.is_reciprocal(P):
        raise ValueError("P must be reciprocal in D_m")
    if n < 0:
        raise ValueError("n must be non-negative")
    Pn = rg.one(g)
    for _ in range(n):
        Pn = rg.mul(Pn, P)
    total = 0 + 0j
    for j in range(1, m + 1):
        xi = cmath.exp(2j * math.pi * j / m)
        for sign in (1.0, -1.0):
            for (eps, k), c in Pn.terms:
                total += complex(c) * (sign if eps else 1.0) * xi**k
    return total.real
