"""Group families, canonical normal forms, and exact group arithmetic.

Supported families and their element encodings:

* AbelianProduct(moduli) -- exponent vectors, one entry per factor; an entry
  is reduced mod its modulus when the modulus is positive, and ranges over
  all integers when the modulus is 0 (an infinite cyclic factor).
* Dihedral(m) -- pairs (eps, k) encoding the normal form y^eps x^k with
  relations x^m (m > 0), y^2, and x*y = y*x^-1.  m = 0 is the infinite
  dihedral group.
* Dicyclic(m) -- pairs (eps, k) encoding y^eps x^k with x^(2m), y^2 = x^m,
  y^-1 x y = x^-1 for m >= 1.  Dicyclic(0) follows the presentation
  <x, y | y^2, (yx)^2> literally, whose multiplication coincides with
  Dihedral(0); see README for the discussion.
* Free(rank) -- reduced words as tuples of nonzero ints, letter +i / -i for
  generator i and its inverse (1-based).
* FreeProductCyclic(orders) -- syllable lists ((factor, exp), ...) with
  exp in 1..order-1 and adjacent syllables from distinct factors.

Normal forms are unique, so equal group elements compare equal as plain
tuples.  All values are immutable and every operation is a pure function.

multiplier(g) holds each family's multiplication law: it chooses the law
once and returns a plain (a, b) -> a*b function, which loops over many
pairs of one group (group-ring products, Cayley adjacency, word
evaluation) call per pair; multiply(g, a, b) is a single call through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import GroupMismatchError, InfiniteGroupError

# ---------------------------------------------------------------------------
# group specifications


@dataclass(frozen=True)
class AbelianProduct:
    """Z/m1 x ... x Z/ml; a modulus of 0 stands for an infinite cyclic factor."""

    moduli: tuple[int, ...]

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        if not moduli:
            raise ValueError("AbelianProduct needs at least one factor")
        if any(m < 0 for m in moduli):
            raise ValueError("moduli must be non-negative")
        object.__setattr__(self, "moduli", moduli)


@dataclass(frozen=True)
class Dihedral:
    """Dihedral group of order 2m; m = 0 is the infinite dihedral group."""

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be non-negative")


@dataclass(frozen=True)
class Dicyclic:
    """Dicyclic group of order 4m; m = 0 follows the printed infinite presentation."""

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be non-negative")


@dataclass(frozen=True)
class Free:
    """Free group on `rank` generators."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")


@dataclass(frozen=True)
class FreeProductCyclic:
    """Free product Z/n1 * Z/n2 * ... of at least two finite cyclic factors."""

    orders: tuple[int, ...]

    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if len(orders) < 2:
            raise ValueError("need at least two factors")
        if any(n < 2 for n in orders):
            raise ValueError("factor orders must be >= 2")
        object.__setattr__(self, "orders", orders)


GroupSpec = AbelianProduct | Dihedral | Dicyclic | Free | FreeProductCyclic

# ---------------------------------------------------------------------------
# basic structure


def order(g: GroupSpec):
    """Group order as an int, or math.inf for infinite groups."""
    match g:
        case AbelianProduct(moduli):
            if any(m == 0 for m in moduli):
                return math.inf
            return math.prod(moduli)
        case Dihedral(m):
            return 2 * m if m else math.inf
        case Dicyclic(m):
            return 4 * m if m else math.inf
        case Free():
            return math.inf
        case FreeProductCyclic():
            return math.inf
    raise TypeError(f"not a group spec: {g!r}")


def is_finite(g: GroupSpec) -> bool:
    return order(g) is not math.inf


def identity(g: GroupSpec):
    match g:
        case AbelianProduct(moduli):
            return (0,) * len(moduli)
        case Dihedral() | Dicyclic():
            return (0, 0)
        case Free() | FreeProductCyclic():
            return ()
    raise TypeError(f"not a group spec: {g!r}")


def _rot_mod(g) -> int:
    """Modulus of the rotation part: m for Dihedral, 2m for Dicyclic, 0 = infinite."""
    return g.m if isinstance(g, Dihedral) else 2 * g.m


def multiplier(g: GroupSpec):
    """The multiplication law of g as a plain function (a, b) -> normal form of a*b.

    The family match runs once, here; a loop over many pairs of one group
    builds this once and calls it per pair.  Inputs must be valid normal
    forms for g.  This is the only definition of each family's law.
    """
    match g:
        case AbelianProduct(moduli):
            n = len(moduli)

            def mul(a, b):
                if len(a) != n or len(b) != n:
                    raise GroupMismatchError("exponent vector length mismatch")
                return tuple(
                    [(x + y) % m if m else x + y for x, y, m in zip(a, b, moduli)]
                )
        case Dihedral(m):
            def mul(a, b):
                e1, k1 = a
                e2, k2 = b
                k = k1 + k2 if e2 == 0 else k2 - k1
                return (e1 ^ e2, k % m if m else k)
        case Dicyclic(m):
            mod = 2 * m

            def mul(a, b):
                e1, k1 = a
                e2, k2 = b
                if e2 == 0:
                    k = k1 + k2
                elif e1 == 0:
                    k = k2 - k1
                else:
                    # y^2 contributes x^m for m >= 1; the printed infinite
                    # presentation has y^2 = e instead.
                    k = k2 - k1 + m
                return (e1 ^ e2, k % mod if mod else k)
        case Free(rank):
            def mul(a, b):
                word = list(a)
                for letter in b:
                    if not -rank <= letter <= rank or letter == 0:
                        raise GroupMismatchError(f"letter {letter} outside rank {rank}")
                    if word and word[-1] == -letter:
                        word.pop()
                    else:
                        word.append(letter)
                return tuple(word)
        case FreeProductCyclic(orders):
            def mul(a, b):
                word = list(a)
                for fac, exp in b:
                    if word and word[-1][0] == fac:
                        e = (word[-1][1] + exp) % orders[fac]
                        word.pop()
                        if e:
                            word.append((fac, e))
                    else:
                        word.append((fac, exp))
                return tuple(word)
        case _:
            raise TypeError(f"not a group spec: {g!r}")
    return mul


def multiply(g: GroupSpec, a, b):
    """Normal form of a*b.  Inputs must be valid normal forms for g."""
    return multiplier(g)(a, b)


def invert(g: GroupSpec, a):
    match g:
        case AbelianProduct(moduli):
            return tuple((-x) % m if m else -x for x, m in zip(a, moduli))
        case Dihedral():
            e, k = a
            if e:
                return a  # reflections are involutions
            mod = g.m
            return (0, (-k) % mod if mod else -k)
        case Dicyclic(m):
            e, k = a
            mod = 2 * m
            if e == 0:
                return (0, (-k) % mod if mod else -k)
            if m == 0:
                return a  # printed presentation: y^2 = e
            return (1, (k + m) % mod)  # (y x^k)^-1 = y x^(k+m)
        case Free():
            return tuple([-letter for letter in reversed(a)])
        case FreeProductCyclic(orders):
            return tuple([(fac, orders[fac] - exp) for fac, exp in reversed(a)])
    raise TypeError(f"not a group spec: {g!r}")


def elements(g: GroupSpec) -> list:
    """All elements of a finite group in the canonical frozen order.

    AbelianProduct lists exponent vectors lexicographically; Dihedral and
    Dicyclic list the rotation block e, x, ..., then the reflected block
    y, yx, ....  Adjacency matrices built from this order are reproducible
    bit-for-bit across runs.
    """
    if not is_finite(g):
        raise InfiniteGroupError(f"cannot enumerate infinite group {g!r}")
    match g:
        case AbelianProduct(moduli):
            return [tuple(v) for v in product(*(range(m) for m in moduli))]
        case Dihedral() | Dicyclic():
            mod = _rot_mod(g)
            return [(e, k) for e in (0, 1) for k in range(mod)]
    raise TypeError(f"not a group spec: {g!r}")


def element_index(g: GroupSpec, a) -> int:
    """Position of `a` in elements(g) without building the list."""
    match g:
        case AbelianProduct(moduli):
            idx = 0
            for x, m in zip(a, moduli):
                idx = idx * m + x
            return idx
        case Dihedral() | Dicyclic():
            e, k = a
            return e * _rot_mod(g) + k
    raise InfiniteGroupError(f"no canonical index for {g!r}")


def element_sort_key(g: GroupSpec, a):
    """Total order on normal forms; for finite groups, the canonical order.

    Infinite families use a documented deterministic order: integer
    exponents sort as 0, 1, -1, 2, -2, ...; words sort by length first,
    then letterwise.
    """

    def int_key(x: int):
        return (abs(x), 0 if x >= 0 else 1)

    match g:
        case AbelianProduct(moduli):
            if all(moduli):
                return element_index(g, a)
            return tuple(x if m else int_key(x) for x, m in zip(a, moduli))
        case Dihedral() | Dicyclic():
            if is_finite(g):
                return element_index(g, a)
            return (a[0], int_key(a[1]))
        case Free():
            return (len(a), tuple(int_key(x) for x in a))
        case FreeProductCyclic():
            return (len(a), a)
    raise TypeError(f"not a group spec: {g!r}")


def validate_element(g: GroupSpec, a) -> None:
    """Raise GroupMismatchError unless `a` is a valid normal form for g."""
    ok = False
    match g:
        case AbelianProduct(moduli):
            ok = (
                isinstance(a, tuple)
                and len(a) == len(moduli)
                and all(isinstance(x, int) for x in a)
                and all(m == 0 or 0 <= x < m for x, m in zip(a, moduli))
            )
        case Dihedral() | Dicyclic():
            mod = _rot_mod(g)
            ok = (
                isinstance(a, tuple)
                and len(a) == 2
                and a[0] in (0, 1)
                and isinstance(a[1], int)
                and (mod == 0 or 0 <= a[1] < mod)
            )
        case Free(rank):
            ok = isinstance(a, tuple) and all(
                isinstance(x, int) and x != 0 and abs(x) <= rank for x in a
            )
            if ok:  # reduced: no adjacent letter/inverse pair
                ok = all(a[i] != -a[i + 1] for i in range(len(a) - 1))
        case FreeProductCyclic(orders):
            ok = isinstance(a, tuple) and all(
                isinstance(s, tuple)
                and len(s) == 2
                and 0 <= s[0] < len(orders)
                and 1 <= s[1] < orders[s[0]]
                for s in a
            )
            if ok:
                ok = all(a[i][0] != a[i + 1][0] for i in range(len(a) - 1))
        case _:
            raise TypeError(f"not a group spec: {g!r}")
    if not ok:
        raise GroupMismatchError(f"{a!r} is not a normal form for {g!r}")


# ---------------------------------------------------------------------------
# generators and words


def generator_names(g: GroupSpec) -> list[str]:
    """Names used by the polynomial grammar: x, y for up to two generators,
    x1..x9 beyond that."""
    n = num_generators(g)
    if n == 1:
        return ["x"]
    if n == 2:
        return ["x", "y"]
    if n > 9:
        raise ValueError("polynomial grammar supports at most 9 generators")
    return [f"x{i}" for i in range(1, n + 1)]


def num_generators(g: GroupSpec) -> int:
    match g:
        case AbelianProduct(moduli):
            return len(moduli)
        case Dihedral() | Dicyclic():
            return 2
        case Free(rank):
            return rank
        case FreeProductCyclic(orders):
            return len(orders)
    raise TypeError(f"not a group spec: {g!r}")


def generator(g: GroupSpec, i: int):
    """The i-th canonical generator (0-based).  For Dihedral/Dicyclic,
    generator 0 is the rotation x and generator 1 is y."""
    n = num_generators(g)
    if not 0 <= i < n:
        raise GroupMismatchError(f"group {g!r} has no generator {i}")
    match g:
        case AbelianProduct(moduli):
            return tuple(1 if j == i else 0 for j in range(len(moduli)))
        case Dihedral() | Dicyclic():
            return (0, 1) if i == 0 else (1, 0)
        case Free():
            return (i + 1,)
        case FreeProductCyclic():
            return ((i, 1),)
    raise TypeError(f"not a group spec: {g!r}")


def element_power(g: GroupSpec, a, n: int):
    """a**n by repeated squaring; n may be negative."""
    if n < 0:
        a, n = invert(g, a), -n
    mul = multiplier(g)
    acc = identity(g)
    base = a
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        n >>= 1
    return acc


def evaluate_word(g: GroupSpec, word):
    """Evaluate ((gen_index, exponent), ...) into a normal form."""
    mul = multiplier(g)
    acc = identity(g)
    for i, exp in word:
        acc = mul(acc, element_power(g, generator(g, i), exp))
    return acc


def element_word(g: GroupSpec, a) -> tuple:
    """Express a normal form as ((gen_index, exponent), ...).

    The word is valid in any group with at least as many generators, which
    is what lets ring elements transfer between comparable groups (for
    example D_m versus Z/m x Z/2, or an infinite group and its quotients).
    """
    match g:
        case AbelianProduct():
            return tuple((i, x) for i, x in enumerate(a) if x)
        case Dihedral() | Dicyclic():
            e, k = a
            word = ()
            if e:
                word += ((1, 1),)
            if k:
                word += ((0, k),)
            return word
        case Free():
            word = []
            for letter in a:
                i = abs(letter) - 1
                s = 1 if letter > 0 else -1
                if word and word[-1][0] == i:
                    word[-1] = (i, word[-1][1] + s)
                else:
                    word.append((i, s))
            return tuple(w for w in word if w[1])
        case FreeProductCyclic():
            return tuple(a)
    raise TypeError(f"not a group spec: {g!r}")
