"""Integral Descartes quadruples and their spinor parametrization.

Four mutually tangent circles with curvatures (A, B, C, D) satisfy

    2(A² + B² + C² + D²) = (A + B + C + D)²

and every pair of integer spinors (a, b) produces an integral solution

    A = |b|² + a·b,  B = |a|² + a·b,  C = −a·b,
    D = |a|² + |b|² + a·b ± 2(a×b)

with the two D-roots coming from the two orientations of the pair.
Closing the pair to the zero-sum triple c = −a − b gives the symmetric
form A = −b·c, B = −c·a, C = −a·b and D1 + D2 = |a|² + |b|² + |c|²;
the root with +2(a×b), signed, is D1 when a×b ≥ 0 and D2 otherwise.

Every exact curvature is computed on ints: the rationals a function
reads are scaled once by L, the lcm of their denominators, and only a
value it reports is divided back, a whole one coming back as ``int``.
``DescartesQuadruple`` tests the identity on its four curvatures times
L, ``fourth_curvatures`` takes the discriminant of its three as an int
over L², and ``from_spinor_pair`` runs the integer kernel
``pair_curvatures`` on the pair's four coordinates times L.  The
clearing kernel ``_cleared`` and its inverse ``_over`` live in
``spinors``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

from ._frozen import frozen, trusted
from .errors import ComplexSolutions, FloatOverflow, NonIntegral
from .spinors import Rational, Spinor, _cleared, _exact, _over

ExactOrFloat = Union[int, Fraction, float]


def descartes_residual(a: Rational, b: Rational, c: Rational, d: Rational) -> Rational:
    """2·(sum of squares) − (sum)²; zero exactly on Descartes quadruples."""
    s = a + b + c + d
    return 2 * (a * a + b * b + c * c + d * d) - s * s


@frozen
class DescartesQuadruple:
    """Curvatures of four mutually tangent circles, validated exactly."""

    a: Rational
    b: Rational
    c: Rational
    d: Rational

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _exact(getattr(self, name), "curvature"))
        # the residual is homogeneous of degree two: on the curvatures
        # scaled to ints by L, the lcm of their denominators, it is L²
        # times the residual of the curvatures
        scale, *cleared = _cleared(self.a, self.b, self.c, self.d)
        residual = descartes_residual(*cleared)
        if residual != 0:
            residual = _over(residual, scale * scale)
            raise ValueError(f"not a Descartes quadruple (residual {residual})")

    def as_tuple(self) -> tuple[Rational, Rational, Rational, Rational]:
        return (self.a, self.b, self.c, self.d)


# a DescartesQuadruple from exact curvatures of residual zero by construction
_quadruple = trusted(DescartesQuadruple)


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
    # the curvatures times L are ints; the discriminant is then an int
    # over L², a rational square exactly when that int is a square
    scale, big_a, big_b, big_c = _cleared(a, b, c)
    square = scale * scale
    cleared_disc = big_a * big_b + big_b * big_c + big_c * big_a
    if cleared_disc < 0:
        raise ComplexSolutions(
            f"discriminant {_over(cleared_disc, square)} < 0 for curvatures ({a}, {b}, {c})"
        )
    total = big_a + big_b + big_c
    root = math.isqrt(cleared_disc)
    if root * root == cleared_disc:
        spread = 2 * root
        return FourthCurvatures(_over(total + spread, scale), _over(total - spread, scale), True)
    disc, base = Fraction(cleared_disc, square), Fraction(total, scale)
    # 4**shift brings a disc beyond the float range, below or above, to
    # about 1, exactly; the square root then scales back by 2**-shift
    shift = (disc.denominator.bit_length() - disc.numerator.bit_length()) // 2
    try:
        spread = 2 * math.ldexp(math.sqrt(disc * Fraction(4) ** shift), -shift)
        # base ± spread cancels on the root of the other sign than base:
        # that one is the exact product D1·D2 = base² − 4·disc over this one
        near = float(base) + math.copysign(spread, base)
        far = float((base * base - 4 * disc) / Fraction(near)) if near else 0.0
    except OverflowError:
        raise FloatOverflow("curvatures too large for the inexact float roots") from None
    return FourthCurvatures(*((near, far) if base > 0 else (far, near)), False)


@frozen
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


def pair_curvatures(
    a: tuple[Rational, Rational, Rational], b: tuple[Rational, Rational, Rational]
) -> tuple[Rational, Rational, Rational, Rational, Rational]:
    """Curvatures (A, B, C, D1, D2), D1 the larger root, of the spinors
    ``a`` and ``b`` given as ``(m, n, m² + n²)``: exact on ``int`` and
    ``Fraction`` alike, and ``int`` for integer spinors."""
    m1, n1, norm_a = a
    m2, n2, norm_b = b
    ab = m1 * m2 + n1 * n2
    twist = abs(2 * (m1 * n2 - m2 * n1))
    big_a = norm_b + ab
    base = big_a + norm_a
    return big_a, norm_a + ab, -ab, base + twist, base - twist


def from_spinor_pair(a: Spinor, b: Spinor) -> QuadrupleFamily:
    """Build the quadruple family of a spinor pair.

    Both returned quadruples have residual zero by construction; the
    product D1·D2 equals (|a|² + |b|² + a·b)² − 4(a×b)².  The four
    coordinates are scaled to ints by L, the lcm of their denominators,
    once: the curvatures are then ints over L², and whole ones come back
    as ``int``.
    """
    scale, m1, n1, m2, n2 = _cleared(a.x, a.y, b.x, b.y)
    curvatures = pair_curvatures((m1, n1, m1 * m1 + n1 * n1), (m2, n2, m2 * m2 + n2 * n2))
    if scale != 1:
        square = scale * scale
        curvatures = [_over(value, square) for value in curvatures]
    big_a, big_b, big_c, d1, d2 = curvatures
    return QuadrupleFamily(
        quadruple_1=_quadruple(big_a, big_b, big_c, d1),
        quadruple_2=_quadruple(big_a, big_b, big_c, d2),
        generator_a=a,
        generator_b=b,
    )


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


def canonical_form(a: int, b: int, c: int, d: int) -> tuple[tuple[int, int, int, int], bool]:
    """Four integer curvatures ascending and divided by their gcd, and
    whether that gcd was 1.  The all-zero quadruple stays as it is and is
    not primitive."""
    w, x, y, z = sorted((a, b, c, d))
    common = math.gcd(w, x, y, z)
    if common > 1:
        return (w // common, x // common, y // common, z // common), False
    return (w, x, y, z), common == 1


def canonicalize(quadruple: DescartesQuadruple) -> tuple[DescartesQuadruple, bool]:
    """The :func:`canonical_form` of an integer quadruple, as a quadruple
    and the flag telling whether the input was already primitive."""
    for value in quadruple.as_tuple():
        if value.denominator != 1:
            raise NonIntegral(f"canonical form needs integer curvatures, got {value}")
    reduced, primitive = canonical_form(*(int(v) for v in quadruple.as_tuple()))
    return DescartesQuadruple(*reduced), primitive
