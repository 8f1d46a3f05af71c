"""Weighted Cayley adjacency matrices and their spectra.

The adjacency matrix of a finite group for a reciprocal ring element P has
entries A[i][j] = coefficient of g_i^-1 g_j in P, with vertices in the
canonical enumeration order.  CayleyAdjacency holds it sparsely, as the
vertex g_i e_t for each g_i and each term c_t e_t of P: |G|*|supp P|
group-law calls.  Reciprocity of P, checked once, makes A Hermitian.

Floating spectra come two ways.  block_spectrum, the one the spectrum
command, the blocks route and the float lambda-free determinant read,
splits the regular representation into characters and 2x2 blocks and
builds no matrix.  hermitian_eigenvalues runs LAPACK's Hermitian
eigensolver (eigvalsh) on an adjacency, only for the finite route, which
is block_spectrum's oracle; numpy is imported on first use, so only the
adjacency, character-array and torus paths load it.
Exact determinants come two independent ways, both with denominators
cleared once so that integer constants come out exactly.  det_hermitian
takes the dense rows of any adjacency (I - lambda A is the adjacency of
1 - lambda P) and runs fraction-free Bareiss elimination on pairs of ints
(Gaussian integers).  character_determinant never builds the adjacency: it
multiplies det(R) over the characters of an abelian group, or over the 2x2
representations of a dihedral or dicyclic one, in plain ints modulo
Phi_L(2^k), a cyclotomic value past twice Hadamard's bound.

P carries its group: each function here reads P over P.group, and a caller
that wants another base group passes rg.transfer(P, group).
"""
from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from . import coeffs as cf
from . import groups as gr
from . import ring as rg
from .errors import DomainError, InfiniteGroupError, NonConvergenceError, ResourceLimitError

if TYPE_CHECKING:
    import numpy as np


class CayleyAdjacency(NamedTuple):
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


class Spectrum(NamedTuple):
    """Real eigenvalues sorted ascending, with multiplicity."""

    eigenvalues: tuple[float, ...]
    n: int

    def max_abs(self) -> float:
        return max((abs(x) for x in self.eigenvalues), default=0.0)


# ---------------------------------------------------------------------------
# adjacency


# the largest group given a Cayley adjacency, a block spectrum or a character
# determinant: the adjacency's dense complex matrix is 268 MB there, and
# character_determinant takes seconds (its modulus grows with |G|, and it
# makes |G| or |G|/2 products modulo it)
MAX_ORDER = 2**12


def _finite_reciprocal(P: rg.RingElement, what: str) -> gr.GroupSpec:
    """P's group, refused unless it is finite, of order at most MAX_ORDER
    (ResourceLimitError, before any group-law call) and P reciprocal."""
    g = P.group
    if not g.is_finite():
        raise InfiniteGroupError(f"{what} needs a finite group")
    if g.order() > MAX_ORDER:
        raise ResourceLimitError(f"a group of order {g.order()} exceeds max_order={MAX_ORDER}")
    if not rg.is_reciprocal(P):
        raise DomainError("P must be reciprocal (P == P*)")
    return g


def cayley_adjacency(P: rg.RingElement) -> CayleyAdjacency:
    """Weighted Cayley adjacency of P's group, finite, for reciprocal P;
    ResourceLimitError, before any group-law call, when |G| exceeds
    MAX_ORDER."""
    g = _finite_reciprocal(P, "Cayley adjacency")
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


def block_spectrum(P: rg.RingElement) -> Spectrum:
    """The spectrum of the Cayley adjacency of reciprocal P over a finite
    abelian, dihedral or dicyclic group, from the summands of the regular
    representation (see character_determinant), with no matrix built.

    Over Z/m_1 x ... x Z/m_l it is the values P(chi) over the characters.
    Over the family (r, s), with P = a(x) + y b(x), it is the eigenvalues of
    the Hermitian blocks [[a(z^j), b(z^-j)], [z^js b(z^j), a(z^-j)]] for
    j < r: with alpha = a(z^j) and delta = a(z^-j) real, and |z^js| = 1,
    they are (alpha + delta)/2 +- hypot((alpha - delta)/2, |b(z^j)|).
    Each term is added into a list of values in one loop, so the work
    allocates no object per character that the cyclic garbage collector
    tracks.
    """
    g = _finite_reciprocal(P, "a block spectrum")
    abelian = isinstance(g, gr.AbelianProduct)
    L = math.lcm(*g.moduli) if abelian else g.rotations
    root = [cmath.exp(2j * math.pi * E / L) for E in range(L)]
    n = g.order() if abelian else L
    values = ([0j] * n, [0j] * n)  # P(chi); or a(z^j) and b(z^j)
    for e, c in P.terms:
        c = cf.to_complex(c, "a coefficient of P")
        if abelian:  # chi_j(x^e) = root[sum_i e_i j_i L/m_i], j in lexicographic order
            E, acc = [0], values[0]
            for m, x in zip(g.moduli, e):
                step = L // m * x
                E = [t + step * j for t in E for j in range(m)]
        else:  # y^e x^k at z^j
            E, acc = [e[1] * j for j in range(L)], values[e[0]]
        for i, t in enumerate(E):
            acc[i] += c * root[t % L]
    if abelian:
        vals = [v.real for v in values[0]]
    else:
        a, b = values
        vals = []
        for j in range(L):
            mid = (a[j].real + a[-j].real) / 2
            half = math.hypot((a[j].real - a[-j].real) / 2, abs(b[j]))
            vals.append(mid - half)
            vals.append(mid + half)
    return Spectrum(tuple(sorted(vals)), g.order())


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


def _cyclotomic_modulus(L: int, bits: int) -> tuple[int, int]:
    """(k, Phi_L(2^k)) for the least k with 2 (k - 1) phi(L) >= bits;
    Phi_L(t) by Moebius inversion of t^L - 1 = prod_{d | L} Phi_d(t)."""
    primes, rest, p = [], L, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    primes += [rest] if rest > 1 else []
    phi = L
    for p in primes:
        phi -= phi // p
    k = 1 + -(-bits // (2 * phi))
    num = den = 1
    for mask in range(1 << len(primes)):  # the squarefree divisors of L
        picked = [p for i, p in enumerate(primes) if mask >> i & 1]
        term = (1 << k * L // math.prod(picked)) - 1
        if len(picked) % 2:
            den *= term
        else:
            num *= term
    return k, num // den


def character_determinant(R: rg.RingElement):
    """Exact det(B) (int or Fraction) for B the Cayley adjacency of exact
    reciprocal R over a finite abelian, dihedral or dicyclic group, as a
    product over representations; B is never built.

    B is the matrix of R in the regular representation, so det(B) is the
    product of det(R) over the summands of any decomposition of it.  Over
    Z/m_1 x ... x Z/m_l that is prod_chi R(chi), one factor per character.
    Over the rotation-reflection family (r, s) (D_m is (m, 0), Dic_m is
    (2m, m)), write R = a(x) + y b(x), as (e, k) is y^e x^k: the regular
    representation is the sum over j < r of the 2x2 representations
    x -> diag(z^j, z^-j), y -> [[0, 1], [z^js, 0]] induced from <x>,
    z = exp(2 pi i / r), so det(B) is the product of
    a(z^j) a(z^-j) - z^js b(z^j) b(z^-j).

    It is evaluated in plain ints.  With d the lcm of every denominator of
    R, det(dB) = d^|G| det(B) is that product for dR: an element D of
    Z[zeta], zeta a primitive L-th root of unity, L the lcm of the moduli
    (or r) and, when a coefficient has an imaginary part, of 4, with
    i = zeta^(L/4).  D is also the determinant of a Hermitian matrix over
    Z[i], so an integer.  As Z[zeta] = Z[X]/Phi_L(X), zeta -> t = 2^k is a
    ring map onto Z/M for M = Phi_L(t), and it sends the product to D mod M.
    Every row of dB holds each d c_t once, so by Hadamard's bound
    |D| <= S^(|G|/2) < 2^(b|G|/2) for S = sum_t |d c_t|^2 of bit length b,
    while M, the product of |t - w| over the primitive L-th roots w, is at
    least (t - 1)^phi(L) >= 2^((k-1) phi(L)) >= 2^(b|G|/2 + 1) for the k
    chosen.  So |D| < M/2, and D is the residue of the product in
    (-M/2, M/2].  A non-reciprocal R is refused (DomainError): its det(B) is
    not real, and the map would collapse it.
    """
    g = _finite_reciprocal(R, "a character determinant")
    n = g.order()
    d = math.lcm(*(x.denominator for _, c in R.terms for x in (c.real, c.imag)))
    terms = [(e, int(c.real * d), int(c.imag * d)) for e, c in R.terms]
    abelian = isinstance(g, gr.AbelianProduct)
    L = math.lcm(*g.moduli) if abelian else g.rotations
    if any(im for _, _, im in terms):
        L = math.lcm(L, 4)
    norm = sum(re * re + im * im for _, re, im in terms)
    k, M = _cyclotomic_modulus(L, n * norm.bit_length() + 2)
    power = [1]  # power[E] = zeta^E mod M
    for _ in range(L - 1):
        power.append((power[-1] << k) % M)
    quarter = L // 4

    def value(part, j):
        """sum c zeta^(steps . j) mod M over the (steps, re, im) of part."""
        total = 0
        for steps, re, im in part:
            E = sum(map(operator.mul, steps, j))
            total += re * power[E % L] + im * power[(E + quarter) % L]
        return total % M

    det, twice = 1, 1  # twice: the product of the factors that occur twice
    if abelian:  # chi_j(x^e) = zeta^(sum_i j_i e_i L/m_i)
        # R(chi_-j) is R(chi_j) with each c_e read as c_-e = conj(c_e), so for
        # real R the factors at j and -j are one, taken twice unless j = -j
        real = not any(im for _, _, im in terms)
        part = [([L // m * x for m, x in zip(g.moduli, e)], re, im) for e, re, im in terms]
        for j in product(*map(range, g.moduli)):
            neg = tuple([-x % m for x, m in zip(j, g.moduli)]) if real else j
            if neg < j:
                continue
            factor = value(part, j)
            if neg == j:
                det = det * factor % M
            else:
                twice = twice * factor % M
    else:
        # z = zeta^(L/r), and z^js = z^-js = +-1 (y commutes with y^2 = x^s, so
        # x^s = x^-s): the factors at j and r - j are equal
        r, unit = g.rotations, L // g.rotations
        a, b = ([((unit * x,), re, im) for (e, x), re, im in terms if e == y] for y in (0, 1))
        for j in range(r // 2 + 1):
            zs = -1 if 2 * j * g.square // r % 2 else 1
            factor = (value(a, (j,)) * value(a, (-j,)) - zs * value(b, (j,)) * value(b, (-j,))) % M
            if 0 < 2 * j < r:
                twice = twice * factor % M
            else:
                det = det * factor % M
    det = det * twice % M * twice % M
    D = det if det <= M // 2 else det - M
    return cf.exact_real(Fraction(D, d**n))


# ---------------------------------------------------------------------------
# character-based spectra


def abelian_character_values(P: rg.RingElement) -> np.ndarray:
    """P evaluated at every character of its group, finite abelian.

    Entry order is lexicographic over the character index tuples
    (j_1, ..., j_l), matching the canonical element order.  Each term c x^e
    is evaluated only on the open grid of the axes it moves (e_k != 0) and
    broadcast into the full grid, so a one-axis term costs m_k exponentials,
    not |G|.  The bits are those of the dense sum over every axis: that sum
    also starts at +0.0, an unmoved axis adds 0.0 * j = +0.0, which changes
    no float (the partial sum is never -0.0), and every other operation is
    the same elementwise one in the same order.
    """
    g = P.group
    if not isinstance(g, gr.AbelianProduct):
        raise ValueError("character evaluation needs an abelian product group")
    if not g.is_finite():
        raise InfiniteGroupError("character evaluation needs a finite group")
    import numpy as np

    moduli = g.moduli
    axes = np.meshgrid(*(np.arange(m) for m in moduli), indexing="ij", sparse=True)
    vals = np.zeros(moduli, dtype=complex)
    for e, c in P.terms:
        phase = 0.0
        for exp, m, j in zip(e, moduli, axes):
            if exp:
                phase = phase + (2.0 * math.pi * exp / m) * j
        # c exp(i phase) in one complex scratch array, freed before the next
        # term's; out= keeps the identity term's 0-d phase an array
        t = np.multiply(1j, phase, out=np.empty(np.shape(phase), complex))
        np.exp(t, out=t)
        np.multiply(complex(c), t, out=t)
        vals += t
        del t
    return vals.reshape(-1)


def abelian_spectrum(P: rg.RingElement) -> Spectrum:
    """Spectrum of the Cayley adjacency by evaluating P at roots of unity.

    For reciprocal P this equals the adjacency spectrum as a multiset; the
    values are then real.
    """
    import numpy as np

    vals = abelian_character_values(P)
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
