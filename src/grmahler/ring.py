"""Sparse arithmetic in the complex group ring of a catalogue group.

A RingElement is a finite-support map from normal forms to coefficients,
tagged with its group.  Coefficients follow the two-mode convention of
`coeffs`: everything stays exact while the inputs are exact, and degrades
to complex as soon as a floating value enters.

The central quantity everywhere downstream is the sequence of constant
coefficients of powers, a_n = [P^n]_0, which counts weighted closed walks
at the identity of the weighted Cayley graph; walk_counts is the kernel
that computes it for any P.  It pairs two half powers,
a_(j+k) = sum_g [P^j]_g [P^k]_(g^-1), so a_0..a_N store no
power past P^ceil(N/2), and it walks a Cayley graph it builds as it goes:
each element met gets an int id, and its products with the elements of P
and, once the graph holds it, its inverse are computed once per walk,
however often it recurs.  block_walk_counts, which the series routes call,
splits an abelian P into blocks of terms on disjoint axes, walks each block
by walk_counts over its own axes, once for all blocks equal there, and
combines them by the binomial theorem, so a sum over l axes walks at most l
lines instead of an l-dimensional ball, and x + x^-1 + y + y^-1 one line.  It
sends a nearest-neighbour P over a free group or a free product of cyclic
groups to first_passage_counts, the second kernel: it solves the
first-passage equations of the tree-like Cayley graph order by order and
builds no power.  walk_counts never calls it, and power_constant_coeffs
(coeffs, agree-depth) keeps the walk, so the two kernels check each other.
"""
from __future__ import annotations

from functools import reduce
from itertools import islice
from math import comb
from typing import NamedTuple

from . import coeffs as cf
from . import groups as gr
from .errors import DomainError, GroupMismatchError, ResourceLimitError

# bounds the product of the two half-power supports walk_counts pairs, so
# a stored power holds at most about 5M terms
DEFAULT_SUPPORT_CAP = 5_000_000**2


class RingElement(NamedTuple):
    """Element of C[group]; `terms` is sorted in the canonical element order."""

    group: gr.GroupSpec
    terms: tuple

    def coeff(self, elem):
        """Coefficient of `elem`; 0 off the support."""
        return dict(self.terms).get(elem, 0)

    def is_exact(self) -> bool:
        return all(cf.is_exact(c) for _, c in self.terms)

    def is_zero(self) -> bool:
        return not self.terms


class SeriesCoeffs(NamedTuple):
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
    """Build from ((coeff, word), ...) where word = ((gen_index, exp), ...),
    under one law of the group.  Each power of a generator (exp may be
    negative) is taken by repeated squaring."""
    mul = group.multiplier()
    identity = group.identity()
    acc = {}
    for c, word in terms:
        e = identity
        for i, exp in word:
            a = group.generator(i)
            if exp < 0:
                a, exp = group.invert(a), -exp
            power = identity
            while exp:
                if exp & 1:
                    power = mul(power, a)
                exp >>= 1
                if exp:  # a square past the last bit would be longer than the power
                    a = mul(a, a)
            e = mul(e, power)
        acc[e] = acc.get(e, 0) + c
    return ring_element(group, acc)


def _check_same_group(a: RingElement, b: RingElement):
    if a.group != b.group:
        raise GroupMismatchError(f"group mismatch: {a.group.spec()} vs {b.group.spec()}")


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
    mul = group.multiplier()
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
        a.group, {a.group.invert(e): c.conjugate() for e, c in a.terms}
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
    mul, invert = group.multiplier(), group.invert
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


def block_walk_counts(P: RingElement, N: int, support_cap: int = DEFAULT_SUPPORT_CAP) -> tuple:
    """a_0..a_N (a_n = [P^n]_0), over an abelian group by the product rule,
    over a free family by first-passage equations.

    Over Z/m_1 x ... x Z/m_l, two non-constant terms of P are in one block
    when they move a common axis, and blocks that share an axis merge.  The
    blocks' parts P_1..P_k commute with each other and with the constant c
    of P, so by the binomial theorem a_n is the sum over n_0 + ... + n_k = n
    of the multinomial coefficient times c^n_0 a_n_1(P_1) ... a_n_k(P_k),
    taken one part at a time as c_n = sum_j C(n, j) s_j b_(n-j).  Each
    a_n(P_i) is walk_counts of P_i over the subgroup of its block's axes,
    which checks support_cap in that block's walk only; blocks that are one
    element there share one walk.  With one block or none, and over any
    other group, it is walk_counts of P itself, except for a
    nearest-neighbour P over a free group or a free product, whose counts
    come from first_passage_counts and no support cap.

    Exact P gives the values of walk_counts exactly, though a count's kind
    (int, Fraction or a GaussianRational with no imaginary part) may differ
    where one of the two adds a cancelling pair of terms apart and the other
    together; the series routes read a count only by its value.  A float P
    sums its counts in another order, so they may differ in the last bits.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    group, identity = P.group, P.group.identity()

    walked = {}  # the counts of each distinct part: equal blocks walk once

    def counts(Q):
        if Q not in walked:
            walked[Q] = tuple(islice(walk_counts(Q, support_cap), N + 1))
        return walked[Q]

    blocks = []  # (axes, {element: coeff}) of the non-constant terms
    if isinstance(group, gr.AbelianProduct):
        for e, c in P.terms:
            if e != identity:
                axes, terms = {i for i, x in enumerate(e) if x}, {e: c}
                for block in [block for block in blocks if block[0] & axes]:
                    blocks.remove(block)
                    axes |= block[0]
                    terms.update(block[1])
                blocks.append((axes, terms))
    if len(blocks) < 2:
        return first_passage_counts(P, N) or counts(P)
    c = P.coeff(identity)
    parts = [counts(monomial(group, identity, c))] if c else []  # c^0..c^N
    for axes, terms in blocks:
        axes = sorted(axes)
        sub = gr.AbelianProduct([group.moduli[i] for i in axes])
        parts.append(counts(ring_element(sub, {tuple(e[i] for i in axes): v
                                               for e, v in terms.items()})))
    return tuple(reduce(_binomial_convolution, parts))


def first_passage_counts(P: RingElement, N: int):
    """a_0..a_N (a_n = [P^n]_0) for a nearest-neighbour P over a free group
    or a free product of finite cyclic groups, from first-passage equations;
    None for any other P.

    Nearest-neighbour: each term of P is the identity (coefficient c_e) or one
    syllable (i, a), with a = +-1 when factor i is Z (order m_i = 0).  The
    group's `orders` make factor i a copy of Z or of Z/m_i, with the steps a
    of coefficient c_a that P takes in it, and the Cayley graph is
    tree-like: a closed walk at e is a sequence of loops c_e and excursions,
    each into one factor's coset of e and back to e.  In factor i, h_b is
    the series of walks from b back to 0, first reaching 0 at their end;
    while they stay in the coset they loop by L_i = c_e z + sum_(j != i) E_j,
    for E_j = z sum_a c_a h_a the excursions into factor j:

        h_b = z sum_a c_a h_(b+a) + L_i h_b,   h_0 = 1,

    and sum a_n z^n = 1 / (1 - c_e z - sum_i E_i).  In a copy of Z, b = +-1
    and b + a = 2b is two first passages, h_2b = h_b^2: this is
    F_s = c_s z + z (c_e + sum_(t != s) c_t F_(t^-1)) F_s for F_s = h_(s^-1).
    In Z/m_i the states are the b within N // 2 steps +-a of 0, since no
    closed walk of length N leaves them, however large m_i is.

    Coefficient n of each series comes from lower ones only, so a_0..a_N take
    O(N^2 * states) operations; exact P gives exact counts, equal to
    walk_counts's, and only nonzero products are added, as in walk_counts.
    No power is built, so no support cap applies.
    """
    if not isinstance(P.group, (gr.Free, gr.FreeProductCyclic)):
        return None
    moduli = P.group.orders
    c_e, steps = 0, [{} for _ in moduli]  # c_e and {a: c_a} per factor
    for e, c in P.terms:
        if not e:
            c_e = c
        elif len(e) > 1 or (not moduli[e[0][0]] and abs(e[0][1]) != 1):
            return None
        else:
            steps[e[0][0]][e[0][1]] = c
    factor_of, moves, firsts = [], [], []  # per state: its factor and moves (c_a, target)
    for i, (m, A) in enumerate(zip(moduli, steps)):
        reached, frontier = {0}, [0]
        for _ in range(N // 2 if m else 1):  # in Z, b = +-1
            frontier = {(x + s * a) % m if m else x + s * a
                        for x in frontier for a in A for s in (1, -1)} - reached
            reached |= frontier
        ids = {b: len(factor_of) + k for k, b in enumerate(sorted(reached - {0}))}
        factor_of += [i] * len(ids)
        for b, own in ids.items():
            row = []
            for a, c in A.items():
                t = (b + a) % m if m else b + a
                if t == 0:  # the target 0 is None
                    row.append((c, None))
                elif not m:  # t = 2b, as b's own id
                    row.append((c, own))
                elif t in ids:
                    row.append((c, ids[t]))
            moves.append(row)
        firsts.append([(c, ids[a]) for a, c in A.items() if a in ids])
    h = [[0] for _ in factor_of]  # h_b to coefficient n - 1, then n
    h_nonzero = [[] for _ in factor_of]  # (k, h_b[k]) for each nonzero h_b[k]
    loops = [[(1, c_e)] if c_e else [] for _ in moduli]  # the same of L_i, to k = n
    U = [(1, c_e)] if c_e else []  # the same of c_e z + sum_i E_i, to k = n
    a = [1, c_e or 0]
    for n in range(1, N):
        for b, (hb, i) in enumerate(zip(h, factor_of)):
            total = _convolve(loops[i], hb, n)
            for c, t in moves[b]:
                if t is None:  # h_0 = 1
                    x = 1 if n == 1 else 0
                elif t == b:  # h_2b = h_b^2
                    x = _convolve(h_nonzero[b], hb, n - 1)
                else:
                    x = h[t][n - 1]
                if x:
                    total += c * x
            hb.append(total or 0)
            if total:
                h_nonzero[b].append((n, total))
        E = [_nonzero_sum(c * h[s][n] for c, s in first) for first in firsts]  # E_i[n + 1]
        for i, Li in enumerate(loops):
            loop = _nonzero_sum(Ej for j, Ej in enumerate(E) if j != i)
            if loop:
                Li.append((n + 1, loop))
        excursions = _nonzero_sum(E)
        if excursions:
            U.append((n + 1, excursions))
        a.append(_convolve(U, a, n + 1))
    return tuple(a[:N + 1])


def _nonzero_sum(values):
    """The sum of the nonzero values, in order; a zero sum is the int 0."""
    total = 0
    for v in values:
        if v:
            total += v
    return total or 0


def _convolve(nonzero, b, n):
    """Coefficient n of the product of two series, the first given by its
    nonzero coefficients (k, s_k) for 1 <= k <= n; only nonzero products
    are added, and a zero sum is the int 0."""
    total = 0
    for k, x in nonzero:
        y = b[n - k]
        if y:
            total += x * y
    return total or 0


def _binomial_convolution(s, b) -> list:
    """c_n = sum_j C(n, j) s_j b_(n-j): the walk counts of a sum of two
    commuting elements from theirs.  Only nonzero products are added, as in
    walk_counts, and a zero count is the int 0."""
    nonzero = [(j, x) for j, x in enumerate(s) if x]
    out = []
    for n in range(len(s)):
        total = 0
        for j, x in nonzero:
            if j > n:
                break
            y = b[n - j]
            if y:
                total += comb(n, j) * (x * y)
        out.append(total or 0)
    return out


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
            f"cannot transfer: {a.group.spec()} uses {n_src} generators, "
            f"{target.spec()} has {n_tgt}"
        )
    return from_word_terms(target, ((c, a.group.element_word(e)) for e, c in a.terms))
