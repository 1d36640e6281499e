"""Integral Descartes quadruples and their spinor parametrization.

Four mutually tangent circles with curvatures (A, B, C, D) satisfy

    2(A² + B² + C² + D²) = (A + B + C + D)²

and every pair of integer spinors (a, b) produces an integral solution

    A = |b|² + a·b,  B = |a|² + a·b,  C = −a·b,
    D = |a|² + |b|² + a·b ± 2(a×b)

with the two D-roots coming from the two orientations of the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import ComplexSolutions, CurlViolation, FloatOverflow, NonIntegral
from .spinors import Rational, Spinor, _exact, cross, dot, int_if_whole, norm_sq

ExactOrFloat = Union[int, Fraction, float]


def descartes_residual(a: Rational, b: Rational, c: Rational, d: Rational) -> Rational:
    """2·(sum of squares) − (sum)²; zero exactly on Descartes quadruples."""
    s = a + b + c + d
    return 2 * (a * a + b * b + c * c + d * d) - s * s


@dataclass(frozen=True)
class DescartesQuadruple:
    """Curvatures of four mutually tangent circles, validated exactly."""

    a: Rational
    b: Rational
    c: Rational
    d: Rational

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _exact(getattr(self, name), "curvature"))
        residual = descartes_residual(self.a, self.b, self.c, self.d)
        if residual != 0:
            raise ValueError(f"not a Descartes quadruple (residual {residual})")

    def as_tuple(self) -> tuple[Rational, Rational, Rational, Rational]:
        return (self.a, self.b, self.c, self.d)


def _exact_sqrt(q: Rational) -> Rational | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    frac = Fraction(q)
    num, den = frac.numerator, frac.denominator
    if num < 0:
        return None
    root_num, root_den = math.isqrt(num), math.isqrt(den)
    if root_num * root_num != num or root_den * root_den != den:
        return None
    return int_if_whole(Fraction(root_num, root_den))


class FourthCurvatures(NamedTuple):
    """Both solutions of the circle identity for a fixed (A, B, C)."""

    larger: ExactOrFloat
    smaller: ExactOrFloat
    exact: bool


def fourth_curvatures(a: Rational, b: Rational, c: Rational) -> FourthCurvatures:
    """Solve the circle identity for D given three curvatures.

    Returns exact rationals when the discriminant A·B + B·C + C·A is a
    perfect rational square, floats otherwise.  Raises ComplexSolutions
    when the discriminant is negative (no real tangent fourth circle) and
    FloatOverflow when the float roots would overflow.
    """
    a, b, c = (_exact(v, "curvature") for v in (a, b, c))
    disc = a * b + b * c + c * a
    if disc < 0:
        raise ComplexSolutions(f"discriminant {disc} < 0 for curvatures ({a}, {b}, {c})")
    base = a + b + c
    root = _exact_sqrt(disc)
    if root is not None:
        return FourthCurvatures(base + 2 * root, base - 2 * root, True)
    try:
        spread = 2 * math.sqrt(disc)
        return FourthCurvatures(float(base) + spread, float(base) - spread, False)
    except OverflowError:
        raise FloatOverflow("curvatures too large for the inexact float roots") from None


@dataclass(frozen=True)
class QuadrupleFamily:
    """The two Descartes quadruples generated by one spinor pair.

    Shares (A, B, C); quadruple_1 carries the larger root D1, quadruple_2
    the smaller root D2, with D1 − D2 = 4·|a×b|.
    """

    quadruple_1: DescartesQuadruple
    quadruple_2: DescartesQuadruple
    generator_a: Spinor
    generator_b: Spinor

    @property
    def shared_curvatures(self) -> tuple[Rational, Rational, Rational]:
        return (self.quadruple_1.a, self.quadruple_1.b, self.quadruple_1.c)

    @property
    def d1(self) -> Rational:
        return self.quadruple_1.d

    @property
    def d2(self) -> Rational:
        return self.quadruple_2.d


def from_spinor_pair(a: Spinor, b: Spinor) -> QuadrupleFamily:
    """Build the quadruple family of a spinor pair.

    Both returned quadruples have residual zero by construction; the
    product D1·D2 equals (|a|² + |b|² + a·b)² − 4(a×b)².
    """
    ab = dot(a, b)
    big_a = norm_sq(b) + ab
    big_b = norm_sq(a) + ab
    big_c = -ab
    base = norm_sq(a) + norm_sq(b) + ab
    twist = 2 * cross(a, b)
    d_first, d_second = base + twist, base - twist
    if d_first < d_second:
        d_first, d_second = d_second, d_first
    return QuadrupleFamily(
        quadruple_1=DescartesQuadruple(big_a, big_b, big_c, d_first),
        quadruple_2=DescartesQuadruple(big_a, big_b, big_c, d_second),
        generator_a=a,
        generator_b=b,
    )


def from_spinor_triple(
    a: Spinor, b: Spinor, c: Spinor
) -> tuple[Rational, Rational, Rational, Rational, Rational]:
    """Curvatures (A, B, C, D1, D2) from a zero-sum spinor triple.

    A = −b·c, B = −c·a, C = −a·b; the D-roots satisfy
    D1 + D2 = |a|² + |b|² + |c|² and D1 − D2 = 4(a×b), signed.
    """
    total = a + b + c
    if not total.is_zero():
        raise CurlViolation(f"spinor triple must sum to zero, got {total.format()}")
    twist = cross(a, b)
    # zero sum forces the three pairwise crosses to coincide
    assert twist == cross(b, c) == cross(c, a)
    big_a = -dot(b, c)
    big_b = -dot(c, a)
    big_c = -dot(a, b)
    half_sum = Fraction(norm_sq(a) + norm_sq(b) + norm_sq(c), 2)
    d1 = int_if_whole(half_sum + 2 * twist)
    d2 = int_if_whole(half_sum - 2 * twist)
    return (big_a, big_b, big_c, d1, d2)


def apollonian_flip(
    quadruple: DescartesQuadruple, index: int
) -> DescartesQuadruple:
    """Replace one curvature by the other root of the circle identity.

    For fixed companions (Y, Z, W) the two roots sum to 2(Y+Z+W), so the
    flip is an involution that stays on residual zero.
    """
    entries = list(quadruple.as_tuple())
    others = sum(entries) - entries[index]
    entries[index] = 2 * others - entries[index]
    return DescartesQuadruple(*entries)


def canonicalize(quadruple: DescartesQuadruple) -> tuple[DescartesQuadruple, bool]:
    """Sorted, gcd-reduced form of an integer quadruple.

    Returns the primitive representative (entries ascending, divided by
    the gcd of their absolute values) and a flag telling whether the
    input was already primitive.  The all-zero quadruple is returned
    unchanged with flag False.
    """
    entries = []
    for value in quadruple.as_tuple():
        frac = Fraction(value)
        if frac.denominator != 1:
            raise NonIntegral(f"canonical form needs integer curvatures, got {value}")
        entries.append(int(frac))
    entries.sort()
    common = math.gcd(*(abs(v) for v in entries))
    if common == 0:
        return DescartesQuadruple(*entries), False
    reduced = [v // common for v in entries]
    return DescartesQuadruple(*reduced), common == 1
