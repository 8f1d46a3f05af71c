"""Sparse arithmetic in the complex group ring of a catalogue group.

A RingElement is a finite-support map from normal forms to coefficients,
tagged with its group.  Coefficients follow the two-mode convention of
`coeffs`: everything stays exact while the inputs are exact, and degrades
to complex as soon as a floating value enters.

The central quantity everywhere downstream is the sequence of constant
coefficients of powers, a_n = [P^n]_0, which counts weighted closed walks
at the identity of the weighted Cayley graph; walk_counts is the one
kernel that computes it, for every series route downstream.  It pairs two
half powers, a_(j+k) = sum_g [P^j]_g [P^k]_(g^-1), so a_0..a_N store no
power past P^ceil(N/2), and it walks a Cayley graph it builds as it goes:
each element met gets an int id, and its products with the elements of P
and, once the graph holds it, its inverse are computed once per walk,
however often it recurs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from . import coeffs as cf
from . import groups as gr
from .errors import DomainError, GroupMismatchError, ResourceLimitError

# bounds the product of the two half-power supports walk_counts pairs, so
# a stored power holds at most about 5M terms
DEFAULT_SUPPORT_CAP = 5_000_000**2


@dataclass(frozen=True)
class RingElement:
    """Element of C[group]; `terms` is sorted in the canonical element order."""

    group: gr.GroupSpec
    terms: tuple

    @cached_property
    def _by_element(self) -> dict:
        return dict(self.terms)

    def coeff(self, elem):
        """Coefficient of `elem`; 0 off the support."""
        return self._by_element.get(elem, 0)

    def is_exact(self) -> bool:
        return all(cf.is_exact(c) for _, c in self.terms)

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class SeriesCoeffs:
    """Constant coefficients a_0..a_N of P^n, with the l1 bound |a_n| <= k^n."""

    values: tuple
    n: int
    l1_bound: float


def ring_element(group: gr.GroupSpec, mapping) -> RingElement:
    """Canonical RingElement from {element: coefficient}.

    Validates normal forms, drops zero coefficients, and degrades every
    coefficient to complex if any of them is floating.
    """
    items = []
    exact = True
    for e, c in mapping.items():
        group.validate_element(e)
        if c == 0:
            continue
        exact = exact and cf.is_exact(c)
        items.append((e, c))
    if not exact:
        items = [(e, complex(c)) for e, c in items]
        items = [(e, c) for e, c in items if c != 0]
    items.sort(key=lambda ec: group.element_sort_key(ec[0]))
    return RingElement(group, tuple(items))


def monomial(group: gr.GroupSpec, elem, coeff=1) -> RingElement:
    return ring_element(group, {elem: coeff})


def one(group: gr.GroupSpec) -> RingElement:
    return monomial(group, group.identity())


def zero(group: gr.GroupSpec) -> RingElement:
    return RingElement(group, ())


def from_word_terms(group: gr.GroupSpec, terms) -> RingElement:
    """Build from ((coeff, word), ...) where word = ((gen_index, exp), ...)."""
    acc = {}
    for c, word in terms:
        e = gr.evaluate_word(group, word)
        acc[e] = acc.get(e, 0) + c
    return ring_element(group, acc)


def _check_same_group(a: RingElement, b: RingElement):
    if a.group != b.group:
        raise GroupMismatchError(f"group mismatch: {a.group!r} vs {b.group!r}")


def add(a: RingElement, b: RingElement) -> RingElement:
    _check_same_group(a, b)
    acc = dict(a.terms)
    for e, c in b.terms:
        acc[e] = acc.get(e, 0) + c
    return ring_element(a.group, acc)


def scale(c, a: RingElement) -> RingElement:
    return ring_element(a.group, {e: c * ce for e, ce in a.terms})


def _mul_terms(group, ta, tb) -> dict:
    # the loop order is the order of the sums: it fixes the last bits of
    # float coefficients
    mul = gr.multiplier(group)
    out = {}
    for ea, ca in ta:
        for eb, cb in tb:
            e = mul(ea, eb)
            prev = out.get(e)
            out[e] = ca * cb if prev is None else prev + ca * cb
    return out


def mul(a: RingElement, b: RingElement) -> RingElement:
    """Convolution product over the group."""
    _check_same_group(a, b)
    return ring_element(a.group, _mul_terms(a.group, a.terms, b.terms))


def star(a: RingElement) -> RingElement:
    """The reciprocal involution: conjugate coefficients, invert elements."""
    return ring_element(
        a.group, {a.group.invert(e): cf.conj(c) for e, c in a.terms}
    )


def is_reciprocal(a: RingElement) -> bool:
    """True iff star(a) equals a exactly (canonical forms compared termwise)."""
    return star(a).terms == a.terms


def l1_norm(a: RingElement) -> float:
    try:
        return float(sum(abs(c) for _, c in a.terms))
    except OverflowError:
        raise DomainError("the l1 norm of P is out of float range") from None


def walk_counts(P: RingElement, support_cap: int = DEFAULT_SUPPORT_CAP):
    """Yield a_0 = 1, a_1, a_2, ... (a_n = [P^n]_0) from two half powers.

    a_(j+k) = sum_g [P^j]_g [P^k]_(g^-1) (Kesten's meet-in-the-middle), so
    a_2k pairs P^k with itself and a_(2k+1) pairs P^k with P^(k+1).  Only
    P^k and P^(k+1) are held, and a_2k is yielded before P^(k+1) is built:
    drawing a_0..a_N stores no power past P^ceil(N/2).  The pairing looks
    up g^-1 instead of conjugating coefficients, so P need not be
    reciprocal.  Exact coefficients give exact a_n.

    P^n has finite support even over infinite groups, but it may grow
    exponentially (free families).  support_cap bounds |supp P^n| through
    the product |supp P^j| * |supp P^k| >= |supp P^n| of the two halves
    paired for a_n: ResourceLimitError before a_n when it exceeds the cap.
    A stored power therefore holds about sqrt(support_cap) terms at most.

    The powers are {id: coeff} dicts over the ids the generator gives the
    normal forms it meets; the graph it builds dies with it.  The sums run
    in the order of ring.mul's, which fixes the last bits of float counts.
    """
    group = P.group
    mul, invert = gr.multiplier(group), group.invert
    elems = [e for e, _ in P.terms]
    coeffs = [c for _, c in P.terms]
    forms = [group.identity()]  # id -> normal form
    ids = {forms[0]: 0}  # normal form -> id
    rows = {}  # id -> ids of form * e for the e of P, in term order
    inverses = {}  # id -> id of the inverse, for inverses the graph holds

    def count(high: dict, low: dict):
        size = len(high) * len(low)
        if size > support_cap:
            raise ResourceLimitError(
                f"support of power exceeded cap "
                f"({len(high)}*{len(low)} = {size} > {support_cap})"
            )
        total = 0
        for i, c in low.items():  # the smaller half drives the loop
            j = inverses.get(i)
            if j is None:
                # an inverse the graph has not met is in no power: no id
                j = ids.get(invert(forms[i]))
                if j is None:
                    continue
                inverses[i] = j
            d = high.get(j)
            if d is not None:
                total += c * d
        # a count off the support is the int 0, whatever the coefficient kind
        return total or 0

    low = {0: 1}
    while True:
        yield count(low, low)
        high = {}
        for i, c in low.items():
            row = rows.get(i)
            if row is None:
                form, row = forms[i], []
                for e in elems:
                    f = mul(form, e)
                    j = ids.setdefault(f, len(forms))
                    if j == len(forms):
                        forms.append(f)
                    row.append(j)
                rows[i] = row
            for j, pc in zip(row, coeffs):
                prev = high.get(j)
                high[j] = c * pc if prev is None else prev + c * pc
        # zero coefficients are deleted in place (insertion order is kept)
        for j in [j for j, c in high.items() if c == 0]:
            del high[j]
        yield count(high, low)
        low = high


def power_constant_coeffs(
    P: RingElement, N: int, support_cap: int = DEFAULT_SUPPORT_CAP
) -> SeriesCoeffs:
    """a_n = [P^n]_0 for n = 0..N, the first N + 1 values of walk_counts."""
    if N < 0:
        raise ValueError("N must be non-negative")
    values = tuple(islice(walk_counts(P, support_cap), N + 1))
    return SeriesCoeffs(values, N, l1_norm(P))


def transfer(a: RingElement, target: gr.GroupSpec) -> RingElement:
    """Re-express `a` in another group by reading each support element as a
    word in the generators (x = generator 0, y = generator 1, ...).

    This is how the same polynomial is compared across base groups, e.g.
    D_m versus Z/m x Z/2, or an infinite group versus its finite quotients.
    """
    if a.group == target:
        return a
    n_src = a.group.num_generators()
    n_tgt = target.num_generators()
    if n_src > n_tgt:
        raise GroupMismatchError(
            f"cannot transfer: {a.group!r} uses {n_src} generators, "
            f"{target!r} has {n_tgt}"
        )
    return from_word_terms(target, ((c, a.group.element_word(e)) for e, c in a.terms))
