"""Integral Descartes quadruples and their spinor parametrization.

Four mutually tangent circles with curvatures (A, B, C, D) satisfy

    2(A² + B² + C² + D²) = (A + B + C + D)²

and every pair of integer spinors (a, b) produces an integral solution

    A = |b|² + a·b,  B = |a|² + a·b,  C = −a·b,
    D = |a|² + |b|² + a·b ± 2(a×b)

with the two D-roots coming from the two orientations of the pair.

Rational curvatures are checked on ints: ``DescartesQuadruple`` tests
the identity on its four curvatures scaled by the lcm of their
denominators, and ``from_spinor_pair`` scales the pair's four
coordinates by the lcm of theirs, L, so that a rational pair runs the
integer kernel.  Only the reported curvatures are divided by L², and a
whole one comes back as ``int``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

from ._frozen import frozen
from .errors import ComplexSolutions, CurlViolation, FloatOverflow, NonIntegral
from .spinors import Rational, Spinor, _exact, _over, cross, dot, int_if_whole, norm_sq

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
        a, b, c, d = self.a, self.b, self.c, self.d
        # the residual is homogeneous of degree two, so it vanishes on the
        # curvatures exactly when it does on them scaled to ints by the lcm
        # of their denominators
        scale = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        cleared = descartes_residual(
            a.numerator * (scale // a.denominator),
            b.numerator * (scale // b.denominator),
            c.numerator * (scale // c.denominator),
            d.numerator * (scale // d.denominator),
        )
        if cleared != 0:
            residual = descartes_residual(a, b, c, d)
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
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    scale = math.lcm(ax.denominator, ay.denominator, bx.denominator, by.denominator)
    m1 = ax.numerator * (scale // ax.denominator)
    n1 = ay.numerator * (scale // ay.denominator)
    m2 = bx.numerator * (scale // bx.denominator)
    n2 = by.numerator * (scale // by.denominator)
    curvatures = pair_curvatures((m1, n1, m1 * m1 + n1 * n1), (m2, n2, m2 * m2 + n2 * n2))
    if scale != 1:
        square = scale * scale
        curvatures = [_over(value, square) for value in curvatures]
    big_a, big_b, big_c, d1, d2 = curvatures
    return QuadrupleFamily(
        quadruple_1=DescartesQuadruple(big_a, big_b, big_c, d1),
        quadruple_2=DescartesQuadruple(big_a, big_b, big_c, d2),
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
