"""Exact spinor algebra on the rational plane.

A spinor is a vector (x, y) with exact rational coordinates.  The plane
carries the usual dot product, the antisymmetric cross product, and a
quarter-turn conjugation ``star`` that intertwines the two:

    dot(u, v)   = x·x' + y·y'
    cross(u, v) = x·y' − x'·y
    star((x, y)) = (−y, x)

so that cross(u, v) = dot(star(u), v).  Identifying (x, y) with x + iy,
``star`` is multiplication by i, and ``euclid_square`` is the complex
square — which is why it emits Pythagorean triples.

Everything here is exact.  Coordinates are ints or Fractions; floats are
rejected to stop silent precision loss.  Integers stay ``int``: ints pass
through untouched, :meth:`Spinor.parse` returns whole values such as
``"6/2"`` or ``"2.0"`` as ``int``, and the arithmetic below builds its
results without validating them again, which keeps integer-heavy callers
on fast ``int`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ._frozen import frozen

Rational = Union[int, Fraction]

_EXACT_TYPES = (int, Fraction)


def _exact(value: object, what: str = "coordinate") -> Rational:
    """Coerce to an exact rational; strings parse as Fraction literals."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an exact rational, not bool")
    if isinstance(value, _EXACT_TYPES):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"{what} must be an exact rational, got {type(value).__name__}")


def int_if_whole(value: Rational) -> Rational:
    """``value`` as an ``int`` when it is whole, else unchanged."""
    return value.numerator if value.denominator == 1 else value


def _over(numerator: int, denominator: int) -> Rational:
    """The exact quotient of two ints, the denominator positive: an
    ``int`` when whole, else a ``Fraction``."""
    if denominator == 1:
        return numerator
    quotient, remainder = divmod(numerator, denominator)
    return Fraction(numerator, denominator) if remainder else quotient


def _parse_part(text: str) -> Rational:
    """One stripped part of a spinor text: an ASCII integer, optionally
    negative, through ``int``, which reads it as ``Fraction`` does (the
    same value, and the same error past the digit limit) at a fraction
    of the cost; any other text through ``Fraction``."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isdigit() and digits.isascii():
        return int(text)
    return int_if_whole(Fraction(text))


@frozen
class Spinor:
    """An exact point/vector of the spinor plane."""

    x: Rational
    y: Rational

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _exact(self.x))
        object.__setattr__(self, "y", _exact(self.y))

    @classmethod
    def parse(cls, text: str) -> Spinor:
        """Parse the textual form ``"x,y"`` where each part is an integer,
        a fraction like ``-1/2`` or a decimal like ``0.5``.  Whole values
        come back as ``int`` (``"6/2"`` and ``"2.0"`` give 3 and 2), the
        others as ``Fraction``."""
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"spinor text must be 'x,y', got {text!r}")
        x, y = (_parse_part(part.strip()) for part in parts)
        return _spinor(x, y)

    def format(self) -> str:
        """Inverse of :meth:`parse`: ``"x,y"`` with exact values."""
        return f"{self.x},{self.y}"

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __add__(self, other: Spinor) -> Spinor:
        return _spinor(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Spinor) -> Spinor:
        return _spinor(self.x - other.x, self.y - other.y)

    def __neg__(self) -> Spinor:
        return _spinor(-self.x, -self.y)

    def __rmul__(self, scalar: Rational) -> Spinor:
        scalar = _exact(scalar, "scalar")
        return _spinor(scalar * self.x, scalar * self.y)

    __mul__ = __rmul__


_store = object.__setattr__


def _spinor(x: Rational, y: Rational) -> Spinor:
    """A Spinor from components that are exact by construction: sums,
    differences and products of ints and Fractions.  Skips the
    validation of the public constructor, and stores the fields as the
    generated ``__init__`` does (see ``_frozen``), so reads stay fast."""
    spinor = object.__new__(Spinor)
    _store(spinor, "x", x)
    _store(spinor, "y", y)
    return spinor


ZERO = Spinor(0, 0)


def dot(u: Spinor, v: Spinor) -> Rational:
    return u.x * v.x + u.y * v.y


def cross(u: Spinor, v: Spinor) -> Rational:
    return u.x * v.y - v.x * u.y


def star(u: Spinor) -> Spinor:
    """Quarter turn counterclockwise: (x, y) -> (-y, x)."""
    return _spinor(-u.y, u.x)


def norm_sq(u: Spinor) -> Rational:
    return u.x * u.x + u.y * u.y


@frozen
class PythTriple:
    """An exact triple (a, b, c) with a² + b² = c² and c ≥ 0.

    Legs may be negative or zero; the hypotenuse never is.
    """

    a: Rational
    b: Rational
    c: Rational

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _exact(self.a))
        object.__setattr__(self, "b", _exact(self.b))
        object.__setattr__(self, "c", _exact(self.c))
        if self.a * self.a + self.b * self.b != self.c * self.c:
            raise ValueError(f"not a Pythagorean triple: {self.a}, {self.b}, {self.c}")
        if self.c < 0:
            raise ValueError(f"hypotenuse must be nonnegative, got {self.c}")

    def as_tuple(self) -> tuple[Rational, Rational, Rational]:
        return (self.a, self.b, self.c)


def euclid_square(u: Spinor) -> PythTriple:
    """Map a spinor to the Pythagorean triple (x²−y², 2xy, x²+y²).

    This is the complex square of x + iy paired with its squared norm,
    so euclid_square(-u) == euclid_square(u) and the hypotenuse equals
    norm_sq(u).
    """
    return PythTriple(u.x * u.x - u.y * u.y, 2 * u.x * u.y, u.x * u.x + u.y * u.y)
