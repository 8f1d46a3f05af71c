"""Coefficient arithmetic: exact Gaussian rationals next to floating complex.

Ring coefficients are either *exact* (int, Fraction, GaussianRational) or
*floating* (float, complex).  Exact kinds mix freely and stay exact; as soon
as a floating value enters an operation the result degrades to complex.
Walk-count identities and the integer determinants rely on the exact mode.
Every kind has c.real, c.imag and c.conjugate().
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

_EXACT_REAL = (int, Fraction)


class GaussianRational:
    """a + b*i with rational a, b; exact ring arithmetic (+, -, *)."""

    __slots__ = ("real", "imag")
    real: Fraction
    imag: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "real", Fraction(re))
        object.__setattr__(self, "imag", Fraction(im))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.real + other.real, self.imag + other.imag)
        if isinstance(other, _EXACT_REAL):
            return GaussianRational(self.real + other, self.imag)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.real * other.real - self.imag * other.imag,
                self.real * other.imag + self.imag * other.real,
            )
        if isinstance(other, _EXACT_REAL):
            return GaussianRational(self.real * other, self.imag * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.real, -self.imag)

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def __abs__(self) -> float:
        return math.hypot(float(self.real), float(self.imag))

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.real == other.real and self.imag == other.imag
        if isinstance(other, _EXACT_REAL):
            return self.imag == 0 and self.real == other
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.imag == 0:
            return hash(self.real)
        return hash((GaussianRational, self.real, self.imag))

    def __repr__(self):
        return f"GaussianRational({self.real!r}, {self.imag!r})"


def is_exact(c) -> bool:
    """True for coefficient kinds that carry exact arithmetic."""
    return isinstance(c, (int, Fraction, GaussianRational)) and not isinstance(c, bool)


def to_complex(c, name: str) -> complex:
    """complex(c), or DomainError naming the value when c is past float range."""
    try:
        return complex(c)
    except OverflowError:
        raise DomainError(f"{name} is out of float range") from None


def exact_real(x):
    """An exact real value as an int when integral, else a Fraction.

    Accepts int, Fraction, or a GaussianRational whose imaginary part is zero.
    """
    if isinstance(x, GaussianRational):
        if x.imag != 0:
            raise ArithmeticError(f"expected a real value, got {x!r}")
        x = x.real
    return int(x) if x.denominator == 1 else x
