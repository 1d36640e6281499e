"""Domain errors shared across the package.

Every failure mode the library can diagnose gets its own class so callers
(and the CLI, which prints the class name) can tell them apart.
"""

from __future__ import annotations


class SpintileError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateInput(SpintileError):
    """Generator spinors are parallel; the tessellation collapses."""


class NonIntegralVertices(SpintileError):
    """Lattice-point area counting needs integer vertex coordinates."""


class NegativeOrientation(SpintileError):
    """Lattice-point area counting needs a positively oriented tile."""


class InconsistentTiles(SpintileError):
    """Tiles that share a role disagree: the six greens of a
    tessellation have more than one area."""


class ComplexSolutions(SpintileError):
    """No real fourth curvature exists (negative discriminant)."""


class NonIntegral(SpintileError):
    """Canonical form is defined for integer curvatures only."""


class NotTangent(SpintileError):
    """Two disks are not externally tangent (exact check) or not tangent
    within tolerance (numeric check)."""


class ZeroRadius(SpintileError):
    """A disk with zero radius has no tangency spinor."""


class NonPositiveCurvature(SpintileError):
    """Initial placement requires three strictly positive curvatures."""


class NoConsistentPlacement(SpintileError):
    """No position for the fourth disk satisfies all three tangencies
    (signals non-Descartes input)."""


class ZeroCurvature(SpintileError):
    """Curvature zero describes a line, which cannot be placed as a disk."""


class CollinearTangencyPoints(SpintileError):
    """The three tangency points lie on a line; no circle passes through
    them."""


class FloatOverflow(SpintileError):
    """An exact value, or a quantity computed from it, is outside the
    float range where floats are needed: SVG coordinates and drawing
    extents, inexact curvature roots, placed disks (including a
    placement whose triangle floats cannot resolve) and the radius
    products of their tangency spinors."""


class TooManyDigits(SpintileError):
    """An exact result has more digits than Python writes as text: the
    limit of ``sys.get_int_max_str_digits()``, 4300 by default."""


class InvalidPayload(SpintileError):
    """A JSON payload to render is malformed, or holds no disks."""
