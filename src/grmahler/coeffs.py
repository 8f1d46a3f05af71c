"""Coefficient arithmetic: exact Gaussian rationals next to floating complex.

Ring coefficients are either *exact* (int, Fraction, GaussianRational) or
*floating* (float, complex).  Exact kinds mix freely and stay exact; as soon
as a floating value enters an operation the result degrades to complex.
Walk-count identities and the integer determinants rely on the exact mode.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

_EXACT_REAL = (int, Fraction)


class GaussianRational:
    """a + b*i with rational a, b; exact ring arithmetic (+, -, *)."""

    __slots__ = ("re", "im")
    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, _EXACT_REAL):
            return GaussianRational(self.re + other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, (GaussianRational, *_EXACT_REAL)):
            return self + (-other if isinstance(other, GaussianRational) else GaussianRational(-other))
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _EXACT_REAL):
            return GaussianRational(other - self.re, -self.im)
        if isinstance(other, (float, complex)):
            return other - complex(self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, _EXACT_REAL):
            return GaussianRational(self.re * other, self.im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _EXACT_REAL):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((GaussianRational, self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def is_exact(c) -> bool:
    """True for coefficient kinds that carry exact arithmetic."""
    return isinstance(c, (int, Fraction, GaussianRational)) and not isinstance(c, bool)


def conj(c):
    """Complex conjugate for any supported coefficient kind."""
    return c.conjugate()


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
        if x.im != 0:
            raise ArithmeticError(f"expected a real value, got {x!r}")
        x = x.re
    return int(x) if x.denominator == 1 else x
