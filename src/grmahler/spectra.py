"""Weighted Cayley adjacency matrices and their spectra.

The adjacency matrix of a finite group for a reciprocal ring element P has
entries A[i][j] = coefficient of g_i^-1 g_j in P, with vertices in the
canonical enumeration order; reciprocity of P makes A Hermitian exactly.

Floating spectra come from LAPACK's Hermitian eigensolver
(numpy.linalg.eigvalsh) through hermitian_eigenvalues, the one eigenvalue
entry point; callers take floating log-determinants from that spectrum.
Determinants and traces of exact matrices are done in exact
Gaussian-rational arithmetic so that integer constants come out exactly.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coeffs as cf
from . import groups as gr
from . import ring as rg
from .errors import InfiniteGroupError, NonConvergenceError


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense square matrix with conjugate symmetry enforced at construction."""

    entries: tuple
    n: int

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i, n):
                if rows[i][j] != cf.conj(rows[j][i]):
                    raise ValueError(
                        f"not Hermitian: entry ({i},{j}) vs conjugate of ({j},{i})"
                    )
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "n", n)

    def is_exact(self) -> bool:
        return all(cf.is_exact(c) for row in self.entries for c in row)

    def to_numpy(self) -> np.ndarray:
        return np.array(
            [[complex(c) for c in row] for row in self.entries], dtype=complex
        ).reshape(self.n, self.n)


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted ascending, with multiplicity."""

    eigenvalues: tuple[float, ...]
    n: int

    def max_abs(self) -> float:
        return max((abs(x) for x in self.eigenvalues), default=0.0)


# ---------------------------------------------------------------------------
# adjacency


def cayley_adjacency(g: gr.GroupSpec, P: rg.RingElement) -> HermitianMatrix:
    """Weighted Cayley adjacency matrix of a finite group for reciprocal P."""
    if not gr.is_finite(g):
        raise InfiniteGroupError("Cayley adjacency needs a finite group")
    P = rg.transfer(P, g)
    if not rg.is_reciprocal(P):
        raise ValueError("P must be reciprocal (P == P*)")
    elems = gr.elements(g)
    coeff = dict(P.terms)
    mul = gr.multiplier(g)
    rows = []
    for gi in elems:
        gi_inv = gr.invert(g, gi)
        rows.append(tuple(coeff.get(mul(gi_inv, gj), 0) for gj in elems))
    return HermitianMatrix(rows)


# ---------------------------------------------------------------------------
# eigenvalues


def hermitian_eigenvalues(M: HermitianMatrix) -> Spectrum:
    """All-real spectrum, ascending, from LAPACK's Hermitian eigensolver."""
    try:
        vals = np.linalg.eigvalsh(M.to_numpy())
    except np.linalg.LinAlgError as err:
        raise NonConvergenceError(f"Hermitian eigensolver failed: {err}") from err
    return Spectrum(tuple(vals.tolist()), M.n)


# ---------------------------------------------------------------------------
# determinants


def _det_exact(rows) -> cf.GaussianRational:
    """Exact determinant by Gaussian elimination over the Gaussian rationals."""
    n = len(rows)
    a = [[cf.as_gaussian(c) for c in row] for row in rows]
    det = cf.GaussianRational(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            return cf.GaussianRational(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        pivot = a[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            if a[r][col]:
                factor = a[r][col] / pivot
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def det_hermitian(M: HermitianMatrix):
    """Determinant; exact (int or Fraction) for exact entries, float otherwise."""
    if M.n == 0:
        return 1
    if M.is_exact():
        return cf.exact_real(_det_exact(M.entries))
    d = complex(np.linalg.det(M.to_numpy()))
    return d.real


def det_i_minus_lambda_exact(M: HermitianMatrix, lam):
    """Exact det(I - lam*M); requires exact entries and rational lam."""
    lam = Fraction(lam)
    n = M.n
    rows = [
        [
            (1 if i == j else 0) - lam * cf.as_gaussian(M.entries[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return cf.exact_real(_det_exact(rows))


# ---------------------------------------------------------------------------
# traces


def trace_power(M: HermitianMatrix, n: int) -> float:
    """trace(M^n) by repeated matrix multiplication."""
    if n < 0:
        raise ValueError("n must be non-negative")
    a = M.to_numpy()
    acc = np.eye(M.n, dtype=complex)
    for _ in range(n):
        acc = acc @ a
    return float(np.trace(acc).real)


def trace_powers_exact(M: HermitianMatrix, N: int) -> list:
    """Exact traces of M^0..M^N; requires exact entries.

    Returned values are ints or Fractions (the imaginary parts vanish
    identically for Hermitian matrices).
    """
    n = M.n
    a = [[cf.as_gaussian(c) for c in row] for row in M.entries]
    acc = [
        [cf.GaussianRational(1 if i == j else 0) for j in range(n)] for i in range(n)
    ]
    out = []
    for k in range(N + 1):
        tr = sum((acc[i][i] for i in range(n)), cf.GaussianRational(0))
        out.append(cf.exact_real(tr))
        if k == N:
            break
        acc = [
            [
                sum((acc[i][t] * a[t][j] for t in range(n)), cf.GaussianRational(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
    return out


# ---------------------------------------------------------------------------
# character-based spectra


def abelian_character_values(g: gr.AbelianProduct, P: rg.RingElement) -> np.ndarray:
    """P evaluated at every character of a finite abelian group.

    Entry order is lexicographic over the character index tuples
    (j_1, ..., j_l), matching the canonical element order.
    """
    if not isinstance(g, gr.AbelianProduct):
        raise ValueError("character evaluation needs an abelian product group")
    if not gr.is_finite(g):
        raise InfiniteGroupError("character evaluation needs a finite group")
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
    Pn = rg.ring_power(P, n)
    total = 0 + 0j
    for j in range(1, m + 1):
        xi = cmath.exp(2j * math.pi * j / m)
        for sign in (1.0, -1.0):
            for (eps, k), c in Pn.terms:
                total += complex(c) * (sign if eps else 1.0) * xi**k
    return total.real
