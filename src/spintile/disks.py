"""Disk geometry: exact symbols, numeric placement, tangency spinors.

Conventions used throughout:

* A disk with curvature β ≠ 0 has radius 1/β; negative curvature means an
  unbounded disk (the complement of a round disk), whose boundary circle
  is drawn with radius |1/β|.
* The exact layer represents a disk by its *symbol* (ẋ, ẏ)/β, the center
  coordinates scaled by the curvature.  Joining two externally tangent
  symbols coordinatewise, (β₁ẋ₂ − β₂ẋ₁, β₁ẏ₂ − β₂ẏ₁, β₁ + β₂), yields a
  Pythagorean triple, and that triple is exactly the squared tangency
  spinor of the pair.
* The numeric layer works with placed disks (float center and radius).
  The tangency spinor of an ordered tangent pair (i, j) is
  u = sqrt((c_j − c_i) / (r_i·r_j)) as a complex number, fixed to the
  principal branch (Re u > 0, or Re u = 0 and Im u ≥ 0); the other
  branch is −u, and every law below is stated up to such signs.

The six verified laws, keyed by their wire names:

* prop1: |u|² equals the sum of the two curvatures.
* thm2: for the two spinors leaving one disk, |cross| equals |curvature|
  of that disk.
* thm3: for the two spinors leaving one disk of a tangent triple, |dot|
  equals the curvature of the circle through the triple's three tangency
  points (checked against that circle computed independently).  Where
  the three points lie on a line, that circle is the line: curvature 0.
* thm4_curl: the three spinors around a tangent triple, with the right
  signs, sum to zero.
* thm5a_div: the three spinors into one disk from the other three, with
  the right signs, sum to zero.
* thm5b_add: spinors out of a common disk add: u(X,A) ± u(X,B) = ±u(X,D)
  for the two disks A, B tangent to both X and D.

What the law check reads is built once, not on every call: a placed
disk stores its centre as a complex number when it is made (not a
field, so equality, hash and repr are those of the centre tuple), and
the keys and texts of the 20 sign choices are spelled once per tuple of
label texts, in a small bounded table, since they depend on those texts
only.  The 20 sign searches run as one loop over an index table.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from ._frozen import frozen
from .errors import (
    CollinearTangencyPoints,
    FloatOverflow,
    NoConsistentPlacement,
    NonPositiveCurvature,
    NotTangent,
    ZeroCurvature,
    ZeroRadius,
)
from .spinors import PythTriple, Rational, _exact

DEFAULT_TOLERANCE = 1e-9

# Absolute tolerance for quantities up to this scale; relative beyond it.
_TOLERANCE_KNEE = 1e3


def scaled_tolerance(tolerance: float, magnitude: float) -> float:
    """Absolute tolerance below the knee, relative above it."""
    return tolerance * max(1.0, abs(magnitude) / _TOLERANCE_KNEE)


@frozen
class Symbol:
    """Exact disk representation: center times curvature, plus curvature."""

    x_dot: Rational
    y_dot: Rational
    beta: Rational

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_dot", _exact(self.x_dot))
        object.__setattr__(self, "y_dot", _exact(self.y_dot))
        object.__setattr__(self, "beta", _exact(self.beta, "curvature"))
        if self.beta == 0:
            raise ZeroCurvature("symbol curvature must be nonzero")

    @classmethod
    def from_center_and_curvature(
        cls, cx: Rational, cy: Rational, beta: Rational
    ) -> Symbol:
        beta = _exact(beta, "curvature")
        return cls(beta * _exact(cx), beta * _exact(cy), beta)

    def center(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.x_dot, 1) / self.beta, Fraction(self.y_dot, 1) / self.beta)

    def radius(self) -> Fraction:
        return Fraction(1, 1) / self.beta


def symbol_join(s1: Symbol, s2: Symbol) -> PythTriple:
    """Coordinatewise join of two externally tangent symbols.

    The result (β₁ẋ₂ − β₂ẋ₁, β₁ẏ₂ − β₂ẏ₁, β₁ + β₂) is a Pythagorean
    triple exactly when the disks are tangent: it is β₁β₂ times (centre
    gap, r₁ + r₂).  External tangency also needs β₁ + β₂ > 0 (a disk
    nested inside an unbounded disk's hole is internally tangent and is
    rejected).
    """
    if s1.beta + s2.beta <= 0:
        raise NotTangent("tangency is internal (curvatures sum to a nonpositive value)")
    try:
        return PythTriple(
            s1.beta * s2.x_dot - s2.beta * s1.x_dot,
            s1.beta * s2.y_dot - s2.beta * s1.y_dot,
            s1.beta + s2.beta,
        )
    except ValueError as exc:
        raise NotTangent(f"disks are not tangent: their join is {exc}") from None


@frozen
class PlacedDisk:
    """A disk realized in the plane with float coordinates."""

    center: tuple[float, float]
    radius: float
    curvature: float

    def __post_init__(self) -> None:
        if self.radius == 0.0:
            raise ZeroRadius("a placed disk needs a nonzero radius")
        if self.curvature == 0.0:
            raise ZeroCurvature("a placed disk needs a nonzero curvature")
        (x, y), radius, curvature = self.center, self.radius, self.curvature
        isfinite = math.isfinite
        try:
            finite = isfinite(x) and isfinite(y) and isfinite(radius) and isfinite(curvature)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise FloatOverflow(
                f"center {self.center!r}, radius {self.radius!r} and curvature "
                f"{self.curvature!r} of a placed disk must all be finite"
            )
        product = self.radius * self.curvature
        if abs(product - 1.0) > 1e-12:
            raise ValueError(
                f"radius {self.radius} and curvature {self.curvature} are inconsistent"
            )
        # the centre as the geometry reads it; not a field, so ==, hash
        # and repr still see the centre only as the tuple given
        object.__setattr__(self, "_center", complex(x, y))

    @classmethod
    def from_curvature(cls, curvature: float, center: tuple[float, float]) -> PlacedDisk:
        if curvature == 0.0:
            raise ZeroCurvature("cannot place a disk with curvature zero")
        return cls(center=center, radius=1.0 / curvature, curvature=float(curvature))

    def center_complex(self) -> complex:
        return self._center


@frozen
class TangencySpinorNumeric:
    """Principal-branch tangency spinor of an ordered disk pair."""

    u: tuple[float, float]
    source: tuple[str, str]

    def as_complex(self) -> complex:
        return complex(self.u[0], self.u[1])

    def norm_sq(self) -> float:
        return self.u[0] * self.u[0] + self.u[1] * self.u[1]


def _require_tangent(
    c1: complex, r1: float, c2: complex, r2: float, tolerance: float
) -> None:
    """Raise NotTangent unless the center gap is |r1 + r2| within tolerance.

    Symmetric bit for bit: |c2 − c1| equals |c1 − c2| and r1 + r2 equals
    r2 + r1 in floats, so swapping the disks repeats the same test.
    """
    gap = abs(c2 - c1)
    target = abs(r1 + r2)
    scale = max(1.0, abs(r1) + abs(r2))
    if abs(gap - target) > tolerance * scale:
        raise NotTangent(
            f"center gap {gap!r} vs |r1+r2| {target!r} exceeds tolerance {tolerance}"
        )


def _spinor(c1: complex, r1: float, c2: complex, r2: float) -> tuple[float, float]:
    """sqrt((c2 − c1)/(r1·r2)) folded onto the principal branch: Re > 0,
    or Re = 0 and Im ≥ 0.

    The reversed pair needs its own call: multiplying by i instead
    would change the sign of zero components.
    """
    try:
        u = cmath.sqrt((c2 - c1) / (r1 * r2))
    except ZeroDivisionError:
        raise FloatOverflow(
            f"radii {r1!r} and {r2!r}: their product is below the float range"
        ) from None
    re, im = u.real, u.imag
    if re < 0 or (re == 0 and im < 0):
        return (-re, -im)
    return (re, im)


def tangency_spinor(
    d1: PlacedDisk, d2: PlacedDisk, source: tuple[str, str] = ("1", "2")
) -> TangencySpinorNumeric:
    """Spinor of the ordered tangent pair (d1, d2), principal branch.

    Its square is (c2 − c1)/(r1·r2); its squared norm is the sum of the
    curvatures (both up to the overall sign choice).  Raises NotTangent
    unless the pair touches within the library default tolerance.
    """
    c1, c2 = d1._center, d2._center
    _require_tangent(c1, d1.radius, c2, d2.radius, DEFAULT_TOLERANCE)
    return TangencySpinorNumeric(u=_spinor(c1, d1.radius, c2, d2.radius), source=source)


def tangency_point(d1: PlacedDisk, d2: PlacedDisk) -> tuple[float, float]:
    """Point where two tangent disks touch.

    Weighted combination (r2·c1 + r1·c2)/(r1 + r2): equal to walking
    r1 from c1 toward c2 for external tangency, and still correct when
    one radius is negative (internal tangency), where the naive
    unit-vector walk lands on the wrong side.
    """
    return _tangency_point(d1._center, d1.radius, d2._center, d2.radius)


def _tangency_point(c1: complex, r1: float, c2: complex, r2: float) -> tuple[float, float]:
    denom = r1 + r2
    if denom == 0.0:
        raise NotTangent("coincident boundary circles have no single tangency point")
    point = (r2 * c1 + r1 * c2) / denom
    return (point.real, point.imag)


def place_configuration(
    a: Rational | float, b: Rational | float, c: Rational | float
) -> tuple[PlacedDisk, PlacedDisk, PlacedDisk]:
    """Place three mutually tangent disks of positive curvature.

    Disk a sits at the origin, disk b on the positive x-axis, disk c in
    the upper half plane.  All three pairwise tangencies hold to within
    1e-12 relative by construction.
    """
    curvatures = (a, b, c)
    if any(not _is_positive(v) for v in curvatures):
        raise NonPositiveCurvature(
            f"initial placement needs three positive curvatures, got {curvatures}"
        )
    fa, fb, fc = (_float_curvature(v) for v in curvatures)
    ra, rb, rc = 1.0 / fa, 1.0 / fb, 1.0 / fc
    d = ra + rb
    # gap to c resolves into an exact-in-floats x offset plus a height;
    # a square beyond the float range raises, and one below it (or a
    # height lost to rounding) leaves no positive height²
    try:
        x = (d * d + (ra + rc) ** 2 - (rb + rc) ** 2) / (2.0 * d)
        height_sq = (ra + rc) ** 2 - x * x
    except OverflowError:
        raise FloatOverflow(
            f"radii {ra!r}, {rb!r}, {rc!r}: their squares are beyond the float range"
        ) from None
    if not height_sq > 0.0:
        raise FloatOverflow(
            f"radii {ra!r}, {rb!r}, {rc!r} span no triangle in floats "
            f"(height² {height_sq!r})"
        )
    y = math.sqrt(height_sq)
    disk_a = PlacedDisk.from_curvature(fa, (0.0, 0.0))
    disk_b = PlacedDisk.from_curvature(fb, (d, 0.0))
    disk_c = PlacedDisk.from_curvature(fc, (x, y))
    for first, second in ((disk_a, disk_b), (disk_a, disk_c), (disk_b, disk_c)):
        _require_tangent(first._center, first.radius, second._center, second.radius, 1e-12)
    return (disk_a, disk_b, disk_c)


def _float_curvature(value: Rational | float) -> float:
    """The curvature as a float; FloatOverflow where it, or the radius
    1/curvature of a nonzero one, lies beyond the float range."""
    try:
        result = float(value)
    except OverflowError:
        raise FloatOverflow("curvature too large to place as a float disk") from None
    if value != 0 and abs(result) < 1.0 / sys.float_info.max:
        raise FloatOverflow("curvature too small: its radius is beyond the float range")
    return result


def _is_positive(value: Rational | float) -> bool:
    try:
        return value > 0
    except TypeError:
        return False


def realize_fourth(placed: Sequence[PlacedDisk], curvature_d: Rational | float) -> PlacedDisk:
    """Place the fourth disk tangent to three already-placed disks.

    The candidate centres are the two crossings of the centre loci
    around the first two disks and their foot on the axis of those
    disks, which stands in where the loci only touch but rounding lifts
    the crossings off the axis.  Each candidate is judged by its worst
    gap to all three placed disks, and the least wins.  Raises
    NoConsistentPlacement when even that gap exceeds the library
    default tolerance (a non-Descartes input), and ZeroCurvature for
    curvature 0 (a line, not a disk).
    """
    value = _float_curvature(curvature_d)
    if value == 0.0:
        raise ZeroCurvature("curvature 0 describes a line; no disk to place")
    rd = 1.0 / value
    disk_a, disk_b, disk_c = placed
    ca, cb, cc = disk_a._center, disk_b._center, disk_c._center
    axis = cb - ca
    gap = abs(axis)
    reach_a = abs(disk_a.radius + rd)
    reach_b = abs(disk_b.radius + rd)
    reach_c = abs(disk_c.radius + rd)
    x = (gap * gap + reach_a * reach_a - reach_b * reach_b) / (2.0 * gap)
    y = math.sqrt(max(reach_a * reach_a - x * x, 0.0))
    unit = axis / gap
    best, best_gap = ca, math.inf
    for offset in (y, -y, 0.0):
        candidate = ca + unit * complex(x, offset)
        worst = abs(abs(candidate - ca) - reach_a)
        miss = abs(abs(candidate - cb) - reach_b)
        if miss > worst:
            worst = miss
        miss = abs(abs(candidate - cc) - reach_c)
        if miss > worst:
            worst = miss
        if worst < best_gap:
            best, best_gap = candidate, worst
    scale = max(1.0, reach_a, reach_b, gap, abs(value))
    if best_gap > scaled_tolerance(DEFAULT_TOLERANCE, scale):
        raise NoConsistentPlacement(
            f"no candidate center touches all three placed disks (off by {best_gap!r})"
        )
    return PlacedDisk.from_curvature(value, (best.real, best.imag))


def place_quadruple(
    curvatures: Sequence[Rational | float],
) -> tuple[PlacedDisk, PlacedDisk, PlacedDisk, PlacedDisk]:
    """Four disks in input order: the first three positive curvatures
    placed by ``place_configuration``, the other one realized against
    them by ``realize_fourth``, which tests tangency at the library
    default tolerance: a caller's tolerance grades the laws, not this
    setup step."""
    if len(curvatures) != 4:
        raise ValueError(f"need 4 curvatures, got {len(curvatures)}")
    # positives first, each side in input order
    order = sorted(range(4), key=lambda i: not _is_positive(curvatures[i]))
    if not _is_positive(curvatures[order[2]]):
        raise NonPositiveCurvature(
            "need at least three positive curvatures to place a configuration"
        )
    placed = place_configuration(*(curvatures[i] for i in order[:3]))
    disks = (*placed, realize_fourth(placed, curvatures[order[3]]))
    return tuple(disk for _, disk in sorted(zip(order, disks)))


def circle_through_points(
    p1: tuple[float, float], p2: tuple[float, float], p3: tuple[float, float]
) -> tuple[tuple[float, float], float]:
    """Center and radius of the circle through three points.

    Determinant form of the circumcircle; raises CollinearTangencyPoints
    when the doubled area is at most 1e-12 of the points' squared extent,
    a test without units that decides alike at every scale.
    """
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    d = 2.0 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))
    span = max(abs(x1 - x3), abs(y1 - y3), abs(x2 - x3), abs(y2 - y3))
    if abs(d) <= 1e-12 * span * span:
        raise CollinearTangencyPoints(f"points {p1}, {p2}, {p3} are collinear")
    s1 = x1 * x1 + y1 * y1
    s2 = x2 * x2 + y2 * y2
    s3 = x3 * x3 + y3 * y3
    ux = (s1 * (y2 - y3) + s2 * (y3 - y1) + s3 * (y1 - y2)) / d
    uy = (s1 * (x3 - x2) + s2 * (x1 - x3) + s3 * (x2 - x1)) / d
    radius = math.hypot(x1 - ux, y1 - uy)
    return ((ux, uy), radius)


def _midcircle(
    p12: tuple[float, float], p13: tuple[float, float], p23: tuple[float, float]
) -> PlacedDisk:
    center, radius = circle_through_points(p12, p13, p23)
    return PlacedDisk(center=center, radius=radius, curvature=1.0 / radius)


def _midcircle_curvature(
    p12: tuple[float, float], p13: tuple[float, float], p23: tuple[float, float]
) -> float:
    """The curvature of ``_midcircle(p12, p13, p23)`` without placing the
    disk: 1 / radius where the centre, the radius and the curvature are
    finite and the curvature is nonzero, and otherwise what placing it
    raises, ``ZeroCurvature`` or ``FloatOverflow``."""
    center, radius = circle_through_points(p12, p13, p23)
    curvature = 1.0 / radius
    (x, y), isfinite = center, math.isfinite
    if curvature and isfinite(x) and isfinite(y) and isfinite(radius) and isfinite(curvature):
        return curvature
    return PlacedDisk(center=center, radius=radius, curvature=curvature).curvature


def midcircle_through_tangencies(
    d1: PlacedDisk, d2: PlacedDisk, d3: PlacedDisk
) -> PlacedDisk:
    """The circle through the three pairwise tangency points of a triple;
    CollinearTangencyPoints where they lie on a line (curvature 0)."""
    return _midcircle(
        tangency_point(d1, d2), tangency_point(d1, d3), tangency_point(d2, d3)
    )


def drawable_midcircles(disks: Sequence[PlacedDisk], labels: Sequence[str]) -> list[PlacedDisk]:
    """The midcircles ``render --midcircles`` draws: none unless there are
    three or four disks, whose pairs must then all touch at
    ``DEFAULT_TOLERANCE``; a ``NotTangent`` names the labels of the first
    pair, in ``_PAIRS`` order, that does not.  One midcircle per triple,
    in the order of the triples without disk 0, 1, 2 and 3 (three disks
    are the last), but none for a triple whose tangency points lie on a
    line.  Each tangency point is computed once, when a triple first
    needs it, so an error comes from the triple that meets it first."""
    count = len(disks)
    if not 3 <= count <= 4:
        return []
    centers, radii = [disk._center for disk in disks], [disk.radius for disk in disks]
    for i, j in combinations(range(count), 2):
        try:
            _require_tangent(centers[i], radii[i], centers[j], radii[j], DEFAULT_TOLERANCE)
        except NotTangent as exc:
            raise NotTangent(f"disks {labels[i]} and {labels[j]}: {exc}") from None
    touch = functools.cache(lambda i, j: _tangency_point(centers[i], radii[i], centers[j], radii[j]))
    midcircles = []
    for i, j, k in _TRIPLES if count == 4 else _TRIPLES[-1:]:
        try:
            midcircles.append(_midcircle(touch(i, j), touch(i, k), touch(j, k)))
        except CollinearTangencyPoints:
            pass
    return midcircles


@frozen
class ConfigurationReport:
    """Result of checking all six spinor laws on four placed disks."""

    disks: tuple[PlacedDisk, ...]
    labels: tuple[str, ...]
    spinors: tuple[TangencySpinorNumeric, ...]
    law_residuals: Mapping[str, float]
    sign_assignment: Mapping[str, str]
    tolerance: float

    @property
    def scale(self) -> float:
        return max(abs(d.curvature) for d in self.disks)

    @property
    def passed(self) -> bool:
        allowed = scaled_tolerance(self.tolerance, self.scale)
        return all(value <= allowed for value in self.law_residuals.values())

    def to_json_dict(self) -> dict:
        return {
            "disks": [
                {
                    "label": label,
                    "center": [disk.center[0], disk.center[1]],
                    "radius": disk.radius,
                    "curvature": disk.curvature,
                }
                for label, disk in zip(self.labels, self.disks)
            ],
            "spinors": [
                {"pair": list(s.source), "u": [s.u[0], s.u[1]]} for s in self.spinors
            ],
            "law_residuals": dict(self.law_residuals),
            "sign_assignment": dict(self.sign_assignment),
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _others(*skip: int) -> tuple[int, ...]:
    return tuple(j for j in range(4) if j not in skip)


# Index tables of the law check on disks 0..3, each in the order its law
# meets (and the report lists) its terms.
_PAIRS = tuple(combinations(range(4), 2))
# thm2: (disk, other, other) for the two spinors leaving one disk
_FANS = tuple((i, *pair) for i in range(4) for pair in combinations(_others(i), 2))
# thm3 and thm4: the triple left when one disk is skipped
_TRIPLES = tuple(_others(skip) for skip in range(4))
# thm3: per triple, (apex, other, other) for each apex
_APEXES = tuple(
    tuple((apex, *_others(skip, apex)) for apex in _others(skip)) for skip in range(4)
)
# thm5a: (target, source, source, source)
_SOURCES = tuple((target, *_others(target)) for target in range(4))
# thm5b: (common, target, other, other)
_ADDS = tuple(
    (common, target, *_others(common, target))
    for common in range(4)
    for target in range(4)
    if target != common
)
# A sign search over x, b, c takes the candidates 0..3, |(x+b)+c|,
# |(x+b)−c|, |(x−b)+c| and |(x−b)−c|, in a search order; the first
# minimum wins, and position 0 stands when none is below infinity.
# thm5b measures s1·a + s2·b − g for (s1, s2) = (+,+), (+,−), (−,+), (−,−).
# A float sum negates exactly and the norm ignores signs, so these are,
# bit for bit, |(a+b)−g|, |(a−b)−g|, |(a−b)+g| and |(a+b)+g|: the
# candidates 1, 3, 2 and 0 of the search over a, b, g.
_ADD_ORDER = (1, 3, 2, 0)
# the signs of the candidates at positions 0..3 of a search order
_SIGNS = (("+1", "+1"), ("+1", "-1"), ("-1", "+1"), ("-1", "-1"))
# The 20 sign searches in report order: (law, x, b, c, order), where law
# 0, 1, 2 is thm4_curl, thm5a_div, thm5b_add and the spinor u(i, j) is
# entry 4·i + j.
_SEARCHES = (
    *((0, 4 * i + j, 4 * j + k, 4 * k + i, (0, 1, 2, 3)) for i, j, k in _TRIPLES),
    *((1, 4 * i + t, 4 * j + t, 4 * k + t, (0, 1, 2, 3)) for t, i, j, k in _SOURCES),
    *((2, 4 * c + a, 4 * c + b, 4 * c + t, _ADD_ORDER) for c, t, a, b in _ADDS),
)


@functools.lru_cache(maxsize=16)
def _sign_texts(labels: tuple[str, ...]) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Per search of ``_SEARCHES``: its sign_assignment key, and its text
    for each search position.  They depend on the label texts only, so
    each tuple of label texts spells them once."""
    table = []
    for i, j, k in _TRIPLES:
        li, lj, lk = labels[i], labels[j], labels[k]
        texts = tuple(f"+{li}{lj} {s2}·{lj}{lk} {s3}·{lk}{li}" for s2, s3 in _SIGNS)
        table.append((f"thm4_curl[{li}{lj}{lk}]", texts))
    for target, i, j, k in _SOURCES:
        li, lj, lk = labels[i], labels[j], labels[k]
        texts = tuple(f"+{li} {s2}·{lj} {s3}·{lk}" for s2, s3 in _SIGNS)
        table.append((f"thm5a_div[->{labels[target]}]", texts))
    for common, target, a, b in _ADDS:
        lc, la, lb = labels[common], labels[a], labels[b]
        texts = tuple(f"{s1}·{lc}{la} {s2}·{lc}{lb}" for s1, s2 in _SIGNS)
        table.append((f"thm5b_add[{lc}->{labels[target]}]", texts))
    return tuple(table)


def verify_spinor_laws(
    disks: Sequence[PlacedDisk],
    tolerance: float = DEFAULT_TOLERANCE,
    labels: Sequence[str] = ("A", "B", "C", "D"),
) -> ConfigurationReport:
    """Check every spinor law on four mutually tangent placed disks.

    Each law's residual is the worst case over all applicable disk
    choices; sign-searched laws record the signs that achieved the
    minimum.  All residuals of a true Descartes configuration vanish to
    rounding error.

    ``tolerance`` grades the law residuals.  Detecting the tangency
    structure keeps a floor at the library default so that an extremely
    tight grading tolerance still yields a FAIL verdict with the full
    residual table instead of rejecting the configuration outright.
    Each unordered pair's tangency is tested once, in the order AB, AC,
    AD, BC, BD, CD; the spinors of both orders of the pair come from
    their own difference quotients, and its tangency point, which two
    thm3 midcircles share, is computed with them.
    """
    disks = tuple(disks)
    labels = tuple(labels)
    if len(disks) != 4 or len(labels) != 4:
        raise ValueError(
            f"need 4 disks and 4 labels, got {len(disks)} disks and {len(labels)} labels"
        )
    detect = max(tolerance, DEFAULT_TOLERANCE)
    centers = [disk._center for disk in disks]
    radii = [disk.radius for disk in disks]
    curvatures = [disk.curvature for disk in disks]
    # u[4·i + j] is the spinor of the ordered pair (i, j); for i < j,
    # touch[4·i + j] is where disks i and j touch
    u: list = [None] * 16
    touch: list = [None] * 16
    for i, j in _PAIRS:
        ci, ri, cj, rj = centers[i], radii[i], centers[j], radii[j]
        _require_tangent(ci, ri, cj, rj, detect)
        u[4 * i + j] = _spinor(ci, ri, cj, rj)
        u[4 * j + i] = _spinor(cj, rj, ci, ri)
        touch[4 * i + j] = _tangency_point(ci, ri, cj, rj)

    # The running maxima below use ``if v > worst``, which, like max(),
    # keeps the earlier value when v is NaN.

    # |u|² = βi + βj, for all unordered pairs
    prop1 = 0.0
    for i, j in _PAIRS:
        x, y = u[4 * i + j]
        v = abs(x * x + y * y - (curvatures[i] + curvatures[j]))
        if v > prop1:
            prop1 = v

    # |cross of two spinors out of one disk| = |curvature of that disk|
    thm2 = 0.0
    for i, a, b in _FANS:
        (x1, y1), (x2, y2) = u[4 * i + a], u[4 * i + b]
        v = abs(abs(x1 * y2 - x2 * y1) - abs(curvatures[i]))
        if v > thm2:
            thm2 = v

    # |dot of two spinors out of one disk| = curvature of the circle
    # through the triple's tangency points (computed independently)
    thm3 = 0.0
    for (i, j, k), apexes in zip(_TRIPLES, _APEXES):
        try:
            mid = _midcircle_curvature(touch[4 * i + j], touch[4 * i + k], touch[4 * j + k])
        except CollinearTangencyPoints:
            # the tangency points lie on a line, the midcircle's limit:
            # the law holds with that line's curvature, 0
            mid = 0.0
        for apex, a, b in apexes:
            (x1, y1), (x2, y2) = u[4 * apex + a], u[4 * apex + b]
            v = abs(abs(x1 * x2 + y1 * y2) - mid)
            if v > thm3:
                thm3 = v

    # thm4_curl: the signed sum of the three spinors around a triple
    # vanishes; thm5a_div: that of the three spinors into one disk;
    # thm5b_add: spinors out of a common disk add up to the spinor toward
    # the disk tangent to both.  Each runs one search of _SEARCHES.
    worst = [0.0, 0.0, 0.0]
    signs: dict[str, str] = {}
    hypot = math.hypot
    # keyed on the texts the labels format to: labels equal as values,
    # such as 1 and 1.0, can still spell different texts
    sign_texts = _sign_texts(tuple(map(format, labels)))
    for (law, x, b, c, order), (key, texts) in zip(_SEARCHES, sign_texts):
        (x0, x1), (b0, b1), (c0, c1) = u[x], u[b], u[c]
        p0, p1 = x0 + b0, x1 + b1
        m0, m1 = x0 - b0, x1 - b1
        sizes = (
            hypot(p0 + c0, p1 + c1),
            hypot(p0 - c0, p1 - c1),
            hypot(m0 + c0, m1 + c1),
            hypot(m0 - c0, m1 - c1),
        )
        k0, k1, k2, k3 = order
        best, choice = math.inf, 0
        if sizes[k0] < best:
            best = sizes[k0]
        if sizes[k1] < best:
            best, choice = sizes[k1], 1
        if sizes[k2] < best:
            best, choice = sizes[k2], 2
        if sizes[k3] < best:
            best, choice = sizes[k3], 3
        signs[key] = texts[choice]
        if best > worst[law]:
            worst[law] = best

    principal = tuple(
        TangencySpinorNumeric(u=u[4 * i + j], source=(labels[i], labels[j])) for i, j in _PAIRS
    )
    return ConfigurationReport(
        disks=disks,
        labels=labels,
        spinors=principal,
        law_residuals={
            "prop1": prop1,
            "thm2": thm2,
            "thm3": thm3,
            "thm4_curl": worst[0],
            "thm5a_div": worst[1],
            "thm5b_add": worst[2],
        },
        sign_assignment=signs,
        tolerance=tolerance,
    )
