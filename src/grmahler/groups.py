"""Group families, canonical normal forms, and exact group arithmetic.

A family is one immutable class that carries its operations as methods
and its specifier pattern as the classmethod `parse`; `spec()` writes a
group back as a specifier that `parse` reads, for messages.  Two groups are
equal when their family and parameter are.  The families and their
element encodings:

* AbelianProduct(moduli) -- exponent vectors, one entry per factor; an entry
  is reduced mod its modulus when the modulus is positive, and ranges over
  all integers when the modulus is 0 (an infinite cyclic factor).
* Dihedral(m) and Dicyclic(m) -- pairs (eps, k) encoding the normal form
  y^eps x^k in <x, y | x^r = e, y^2 = x^s, y^-1 x y = x^-1>, with k reduced
  mod r when r > 0: D_m is (r, s) = (m, 0), Dic_m is (2m, m), and m = 0
  gives r = s = 0, so Dinf and the printed Dicinf share one law (see README).
* Free(rank) and FreeProductCyclic(orders) -- the free products of `rank`
  copies of Z and of finite cyclic factors, with one law: syllable lists
  ((factor, exp), ...) with adjacent syllables from distinct factors and exp
  nonzero, in 1..order-1 on a finite factor (see _FreeProduct).

Normal forms are unique, so equal group elements compare equal as plain
tuples.  All values are immutable and every operation is a pure function.
element_sort_key is the canonical order on finite groups; on infinite ones,
integer exponents sort as 0, 1, -1, 2, -2, ... and syllable lists by their
number of syllables, then as tuples.

g.multiplier() chooses the law once and returns a plain (a, b) -> a*b
function, which loops over many pairs of one group (group-ring products,
Cayley adjacency, word evaluation) call per pair; generator_names(g) is the
one module-level function.
"""
from __future__ import annotations

import math
from itertools import product

from .errors import GroupMismatchError, InfiniteGroupError, ParseError

MAX_GENERATORS = 9  # the polynomial grammar names x, y or x1..x9
MAX_ORDER_DIGITS = 4300  # sys.int_info.default_max_str_digits


def _int_key(x: int) -> int:
    return 2 * x if x >= 0 else 1 - 2 * x  # the order 0, 1, -1, 2, -2, ...


def _count(digits: str) -> int:
    """A generator count, capped just past what _build accepts, so that a huge
    count is neither converted nor built."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) == 1 else MAX_GENERATORS + 1


def _order(digits: str, src: str) -> int:
    """A decimal order or modulus, refused as a ParseError past Python's default
    limit for converting a digit string (leading zeros count)."""
    if len(digits) > MAX_ORDER_DIGITS:
        raise ParseError(f"{src!r} has an order of more than {MAX_ORDER_DIGITS} digits")
    return int(digits)


def _build(family, arg, src: str):
    """family(arg) for a parsed specifier, its parameter check reported as a
    ParseError; refused past the generators the polynomial grammar names."""
    try:
        g = family(arg)
    except ValueError as e:
        raise ParseError(str(e)) from None
    if g.num_generators() > MAX_GENERATORS:
        raise ParseError(f"{src!r} has more than {MAX_GENERATORS} generators, "
                         "the most the polynomial grammar supports")
    return g


class _Family:
    """What the families share; a family with finite groups defines _elements.
    A family's one parameter is its one read-only attribute; equality checks
    the family too, since Dihedral(0) and Dicyclic(0) share a law."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def is_finite(self) -> bool:
        return self.order() is not math.inf

    def elements(self) -> list:
        """All elements of a finite group in the canonical frozen order, so
        that adjacency matrices are reproducible bit-for-bit: exponent vectors
        lexicographically, or the rotations e, x, ... and then y, yx, ...."""
        if not self.is_finite():
            raise InfiniteGroupError(f"cannot enumerate infinite group {self.spec()}")
        return self._elements()

    def element_index(self, a) -> int:
        """Position of `a` in elements() without building the list."""
        raise InfiniteGroupError(f"no canonical index for {self.spec()}")

    def generator(self, i: int):
        """The i-th canonical generator (0-based); x, then y for Dihedral/Dicyclic."""
        if not 0 <= i < self.num_generators():
            raise GroupMismatchError(f"group {self.spec()} has no generator {i}")
        return self._generator(i)

    def _check(self, a, ok: bool) -> None:
        if not ok:
            raise GroupMismatchError(f"{a!r} is not a normal form for {self.spec()}")


class AbelianProduct(_Family):
    """Z/m1 x ... x Z/ml; a modulus of 0 stands for an infinite cyclic factor."""

    moduli: tuple[int, ...]

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        if not moduli:
            raise ValueError("AbelianProduct needs at least one factor")
        if any(m < 0 for m in moduli):
            raise ValueError("moduli must be non-negative")
        self.__dict__["moduli"] = moduli

    @classmethod
    def parse(cls, s: str, src: str):
        # Z, Z^l and Z/n joined with 'x': the catch-all, it never declines
        moduli = []
        for part in s.split("x"):
            part = part.strip()
            if part == "Z":
                moduli.append(0)
            elif part.startswith("Z^") and part[2:].isdecimal():
                moduli.extend([0] * _count(part[2:]))
            elif part.startswith("Z/") and part[2:].isdecimal() and _order(part[2:], src) >= 1:
                moduli.append(int(part[2:]))
            else:
                raise ParseError(f"bad abelian factor {part!r} in {src!r}")
        return _build(cls, moduli, src)

    def spec(self) -> str:
        """The specifier parse_group reads back as this group."""
        return "x".join(f"Z/{m}" if m else "Z" for m in self.moduli)

    def order(self):
        return math.prod(self.moduli) if all(self.moduli) else math.inf

    def identity(self):
        return (0,) * len(self.moduli)

    def multiplier(self):
        moduli, n = self.moduli, len(self.moduli)

        def mul(a, b):
            if len(a) != n or len(b) != n:
                raise GroupMismatchError("exponent vector length mismatch")
            return tuple([(x + y) % m if m else x + y for x, y, m in zip(a, b, moduli)])

        return mul

    def invert(self, a):
        return tuple((-x) % m if m else -x for x, m in zip(a, self.moduli))

    def _elements(self):
        return [tuple(v) for v in product(*(range(m) for m in self.moduli))]

    def element_index(self, a) -> int:
        if not all(self.moduli):
            return super().element_index(a)
        idx = 0
        for x, m in zip(a, self.moduli):
            idx = idx * m + x
        return idx

    def element_sort_key(self, a):
        if all(self.moduli):
            return self.element_index(a)
        return tuple(x if m else _int_key(x) for x, m in zip(a, self.moduli))

    def validate_element(self, a) -> None:
        self._check(a, isinstance(a, tuple) and len(a) == len(self.moduli) and all(
            isinstance(x, int) and (m == 0 or 0 <= x < m) for x, m in zip(a, self.moduli)
        ))

    def num_generators(self) -> int:
        return len(self.moduli)

    def _generator(self, i):
        return tuple(1 if j == i else 0 for j in range(len(self.moduli)))

    def element_word(self, a) -> tuple:
        """A normal form as ((gen_index, exponent), ...), a word valid in any
        group with at least as many generators: ring elements transfer along
        it (D_m versus Z/m x Z/2, an infinite group and its quotients)."""
        return tuple((i, x) for i, x in enumerate(a) if x)


class _RotationReflection(_Family):
    """Dihedral and Dicyclic: pairs (eps, k) for y^eps x^k with x^r = e,
    y^2 = x^s and y^-1 x y = x^-1, where r = `rotations` (0: infinitely many)
    and s are a family's constants times m; a family sets only those."""

    m: int

    def __init__(self, m):
        if m < 0:
            raise ValueError("m must be non-negative")
        self.__dict__["m"] = m

    @classmethod
    def parse(cls, s: str, src: str):
        # <prefix>m for m >= 1, <prefix>inf for m = 0
        if not s.startswith(cls._PREFIX):
            return None
        rest = s[len(cls._PREFIX):]
        if rest == "inf":
            return cls(0)
        if rest.isdecimal() and _order(rest, src) >= 1:
            return cls(int(rest))
        raise ParseError(f"bad {cls._NOUN} specifier {src!r}")

    def spec(self) -> str:
        return f"{self._PREFIX}{self.m or 'inf'}"

    @property
    def rotations(self) -> int:
        return self._ROTATIONS_PER_M * self.m

    @property
    def square(self) -> int:
        """s in y^2 = x^s."""
        return self._SQUARE_PER_M * self.m

    def order(self):
        return 2 * self.rotations if self.m else math.inf

    def identity(self):
        return (0, 0)

    def _elements(self):
        return [(e, k) for e in (0, 1) for k in range(self.rotations)]

    def element_index(self, a) -> int:
        if not self.m:
            return super().element_index(a)
        return a[0] * self.rotations + a[1]

    def element_sort_key(self, a):
        return self.element_index(a) if self.m else (a[0], _int_key(a[1]))

    def validate_element(self, a) -> None:
        self._check(a, isinstance(a, tuple) and len(a) == 2 and a[0] in (0, 1)
                    and isinstance(a[1], int) and (self.m == 0 or 0 <= a[1] < self.rotations))

    def num_generators(self) -> int:
        return 2

    def _generator(self, i):
        return (0, 1) if i == 0 else (1, 0)

    def multiplier(self):
        r, s = self.rotations, self.square

        def mul(a, b):
            e1, k1 = a
            e2, k2 = b
            # x^k1 y = y x^-k1, and y y = x^s
            k = k1 + k2 if e2 == 0 else k2 - k1 + s * e1
            return (e1 ^ e2, k % r if r else k)

        return mul

    def invert(self, a):
        e, k = a
        if not self.m:
            return a if e else (0, -k)  # s = 0: reflections are involutions
        # (y x^k)^-1 = y x^(k+s), (x^k)^-1 = x^-k
        return (e, (k + self.square if e else -k) % self.rotations)

    def element_word(self, a) -> tuple:
        e, k = a
        return (((1, 1),) if e else ()) + (((0, k),) if k else ())


class Dihedral(_RotationReflection):
    """Dihedral group of order 2m; m = 0 is the infinite dihedral group."""

    _PREFIX, _NOUN, _ROTATIONS_PER_M, _SQUARE_PER_M = "D", "dihedral", 1, 0


class Dicyclic(_RotationReflection):
    """Dicyclic group of order 4m; m = 0 is the printed infinite presentation."""

    _PREFIX, _NOUN, _ROTATIONS_PER_M, _SQUARE_PER_M = "Dic", "dicyclic", 2, 1


class _FreeProduct(_Family):
    """Free and FreeProductCyclic: the free product of cyclic factors of
    `orders`, a factor of order 0 being Z.  An element is a syllable list
    ((factor, exp), ...): adjacent syllables come from distinct factors, exp
    is nonzero, and in 1..order-1 on a finite factor."""

    def order(self):
        return math.inf

    def identity(self):
        return ()

    def multiplier(self):
        orders = self.orders
        factors = range(len(orders))

        def mul(a, b):
            for fac, _ in b:
                if fac not in factors:
                    raise GroupMismatchError(f"factor {fac} outside {self.spec()}")
            # a and b are in normal form, so only the syllables where they meet merge
            i, j = len(a), 0
            while i and j < len(b) and a[i - 1][0] == b[j][0]:
                fac, exp = b[j]
                exp += a[i - 1][1]
                if orders[fac]:
                    exp %= orders[fac]
                if exp:
                    return a[:i - 1] + ((fac, exp),) + b[j + 1:]
                i, j = i - 1, j + 1
            return a[:i] + b[j:]

        return mul

    def invert(self, a):
        orders = self.orders  # order 0 - exp is -exp, the inverse in Z
        return tuple([(fac, orders[fac] - exp) for fac, exp in reversed(a)])

    def element_sort_key(self, a):
        return (len(a), a)

    def validate_element(self, a) -> None:
        orders = self.orders
        self._check(a, isinstance(a, tuple) and all(
            isinstance(s, tuple) and len(s) == 2 and isinstance(s[0], int) and isinstance(s[1], int)
            and 0 <= s[0] < len(orders) and (0 < s[1] < orders[s[0]] if orders[s[0]] else s[1] != 0)
            for s in a
        ) and all(a[i][0] != a[i + 1][0] for i in range(len(a) - 1)))

    def num_generators(self) -> int:
        return len(self.orders)

    def _generator(self, i):
        return ((i, 1),)

    def element_word(self, a) -> tuple:
        return a


class Free(_FreeProduct):
    """Free group on `rank` generators, the free product of `rank` copies of Z."""

    rank: int

    def __init__(self, rank):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.__dict__["rank"] = rank

    @classmethod
    def parse(cls, s: str, src: str):
        # Fl for l >= 1
        if not s.startswith("F"):
            return None
        rank = _count(s[1:]) if s[1:].isdecimal() else 0
        if rank < 1:
            raise ParseError(f"bad free-group specifier {src!r}")
        return _build(cls, rank, src)

    def spec(self) -> str:
        return f"F{self.rank}"

    @property
    def orders(self) -> tuple[int, ...]:
        return (0,) * self.rank


class FreeProductCyclic(_FreeProduct):
    """Free product Z/n1 * Z/n2 * ... of at least two finite cyclic factors."""

    orders: tuple[int, ...]

    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if len(orders) < 2:
            raise ValueError("need at least two factors")
        if any(n < 2 for n in orders):
            raise ValueError("factor orders must be >= 2")
        self.__dict__["orders"] = orders

    @classmethod
    def parse(cls, s: str, src: str):
        # Ca*Cb*... for orders a, b, ... >= 2
        if "*" not in s:
            return None
        orders = []
        for part in s.split("*"):
            part = part.strip()
            if not part.startswith("C") or not part[1:].isdecimal():
                raise ParseError(f"bad free-product factor {part!r} in {src!r}")
            orders.append(_order(part[1:], src))
        return _build(cls, orders, src)

    def spec(self) -> str:
        return "*".join(f"C{n}" for n in self.orders)


GroupSpec = AbelianProduct | Dihedral | Dicyclic | Free | FreeProductCyclic

# the order parse_group tries: "Dic" before "D", the abelian catch-all last
FAMILIES = (Dicyclic, Dihedral, Free, FreeProductCyclic, AbelianProduct)


def generator_names(g: GroupSpec) -> list[str]:
    """Names used by the polynomial grammar: x, y for up to two generators,
    x1..x9 beyond that."""
    n = g.num_generators()
    if n > MAX_GENERATORS:
        raise ValueError(f"polynomial grammar supports at most {MAX_GENERATORS} generators")
    return ["x", "y"][:n] if n <= 2 else [f"x{i}" for i in range(1, n + 1)]
