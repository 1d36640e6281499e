"""The fifteen-tile square-and-parallelogram tessellation of a spinor pair.

Two non-parallel spinors a, b (with c = −a − b closing the triple) tile a
dodecagon with fifteen parallelograms in four color classes:

* three squares at the origin, one per triple member: (0; x, x⋆),
  area |x|²;
* three central red parallelograms between consecutive squares:
  (0; x⋆, y), area −x·y — these are the curvatures A, B, C;
* six green parallelograms, one per square flank: all share the signed
  area G = a×b;
* three outer light-red parallelograms anchored at x + x⋆, congruent to
  the central reds.

Every tile is stored as (anchor; edge1, edge2) with vertices anchor,
anchor+edge1, anchor+edge1+edge2, anchor+edge2, so its signed area is
cross(edge1, edge2).  The sum of all fifteen signed areas equals the
shoelace area of the outer dodecagon for every input pair, overlapping
or not; the flag ``has_overlap`` marks inputs whose tiles fold over.

The summary quantities reproduce a Descartes configuration: with
A, B, C the central red areas and G the green area, both
D = A+B+C+2G and D′ = A+B+C−2G complete (A, B, C) to curvature
quadruples with zero residual, G is the curvature of the circle through
the mutual tangency points of A, B, C, and the squares shifted by ±G
give the remaining tangency-point circles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DegenerateInput, NegativeOrientation, NonIntegralVertices
from .quadruples import descartes_residual
from .spinors import ZERO, Rational, Spinor, cross, dot, int_if_whole, norm_sq, star


class TileClass(enum.Enum):
    YELLOW_SQUARE = "yellow_square"
    RED_CENTRAL = "red_central"
    GREEN = "green"
    LIGHT_RED = "light_red"


@dataclass(frozen=True)
class Tile:
    """One parallelogram: anchor plus two edge vectors.

    The vertices and the signed area are computed on first use and kept;
    equality and hashing still see only the five fields.
    """

    label: str
    tile_class: TileClass
    anchor: Spinor
    edge1: Spinor
    edge2: Spinor

    @cached_property
    def vertices(self) -> tuple[Spinor, Spinor, Spinor, Spinor]:
        second = self.anchor + self.edge1
        return (self.anchor, second, second + self.edge2, self.anchor + self.edge2)

    @cached_property
    def signed_area(self) -> Rational:
        return cross(self.edge1, self.edge2)


def tile_area_shoelace(tile: Tile) -> Rational:
    """Signed area from the vertex cycle; independent of the edge form."""
    return polygon_area(tile.vertices)


def tile_area_pick(tile: Tile) -> Rational:
    """Area by direct lattice-point count: interior + boundary/2 − 1.

    Requires integer vertices and positive orientation.  Points are
    classified by their affine coordinates (s, t) with respect to the
    edge pair: q = anchor + s·edge1 + t·edge2 lies inside the tile
    exactly when 0 ≤ s, t ≤ 1.
    """
    coords: list[int] = []
    for vertex in tile.vertices:
        for value in (vertex.x, vertex.y):
            whole = int_if_whole(value)
            if not isinstance(whole, int):
                raise NonIntegralVertices(f"vertex coordinate {value} is not an integer")
            coords.append(whole)
    area2 = int(tile.signed_area)
    if area2 <= 0:
        raise NegativeOrientation(f"tile {tile.label} has signed area {tile.signed_area}")

    ax, ay = int(tile.anchor.x), int(tile.anchor.y)
    e1x, e1y = int(tile.edge1.x), int(tile.edge1.y)
    e2x, e2y = int(tile.edge2.x), int(tile.edge2.y)
    xs, ys = coords[0::2], coords[1::2]
    interior = boundary = 0
    for qx in range(min(xs), max(xs) + 1):
        dx = qx - ax
        for qy in range(min(ys), max(ys) + 1):
            dy = qy - ay
            s_scaled = dx * e2y - e2x * dy
            t_scaled = e1x * dy - dx * e1y
            if 0 <= s_scaled <= area2 and 0 <= t_scaled <= area2:
                if 0 < s_scaled < area2 and 0 < t_scaled < area2:
                    interior += 1
                else:
                    boundary += 1
    return int_if_whole(Fraction(2 * interior + boundary - 2, 2))


@dataclass(frozen=True)
class Tessellation:
    a: Spinor
    b: Spinor
    c: Spinor
    tiles: tuple[Tile, ...]

    @property
    def has_overlap(self) -> bool:
        """True when some tile is negatively oriented (the layout folds)."""
        return any(tile.signed_area < 0 for tile in self.tiles)

    def tiles_of(self, tile_class: TileClass) -> tuple[Tile, ...]:
        return tuple(t for t in self.tiles if t.tile_class is tile_class)

    def tile(self, label: str) -> Tile:
        for t in self.tiles:
            if t.label == label:
                return t
        raise KeyError(label)


def build_tessellation(a: Spinor, b: Spinor) -> Tessellation:
    """Lay out the fifteen tiles of the pair (a, b).

    Raises DegenerateInput when a×b = 0 (parallel or zero spinors leave
    nothing two-dimensional to tile).
    """
    if cross(a, b) == 0:
        raise DegenerateInput(f"spinors {a.format()} and {b.format()} are parallel")
    c = -(a + b)
    sa, sb, sc = star(a), star(b), star(c)
    tiles = (
        Tile("sq_a", TileClass.YELLOW_SQUARE, ZERO, a, sa),
        Tile("sq_b", TileClass.YELLOW_SQUARE, ZERO, b, sb),
        Tile("sq_c", TileClass.YELLOW_SQUARE, ZERO, c, sc),
        Tile("red_a*b", TileClass.RED_CENTRAL, ZERO, sa, b),
        Tile("red_b*c", TileClass.RED_CENTRAL, ZERO, sb, c),
        Tile("red_c*a", TileClass.RED_CENTRAL, ZERO, sc, a),
        Tile("green_ab", TileClass.GREEN, sa, a, b),
        Tile("green_c*a*", TileClass.GREEN, a, sc, sa),
        Tile("green_bc", TileClass.GREEN, sb, b, c),
        Tile("green_a*b*", TileClass.GREEN, b, sa, sb),
        Tile("green_ca", TileClass.GREEN, sc, c, a),
        Tile("green_b*c*", TileClass.GREEN, c, sb, sc),
        Tile("lred_c*b", TileClass.LIGHT_RED, a + sa, sc, b),
        Tile("lred_a*c", TileClass.LIGHT_RED, b + sb, sa, c),
        Tile("lred_b*a", TileClass.LIGHT_RED, c + sc, sb, a),
    )
    return Tessellation(a=a, b=b, c=c, tiles=tiles)


def dodecagon_boundary(tess: Tessellation) -> tuple[Spinor, ...]:
    """The twelve outer vertices, in cyclic order for positive pairs."""
    points: list[Spinor] = []
    triple = (tess.a, tess.b, tess.c)
    for i in range(3):
        x, y, z = triple[i], triple[(i + 1) % 3], triple[(i + 2) % 3]
        sx, sz = star(x), star(z)
        points.extend((x + sz, x + sx + sz, x + sx + y + sz, x + sx + y))
    return tuple(points)


def polygon_area(points: tuple[Spinor, ...]) -> Rational:
    """Signed shoelace area of an arbitrary closed polygon."""
    twice = 0
    count = len(points)
    for i in range(count):
        p, q = points[i], points[(i + 1) % count]
        twice += p.x * q.y - q.x * p.y
    return int_if_whole(Fraction(twice, 2))


@dataclass(frozen=True)
class TessellationReport:
    """Exact area bookkeeping and the induced Descartes curvatures."""

    square_areas: tuple[Rational, Rational, Rational]
    red_areas: tuple[Rational, Rational, Rational]
    green_area: Rational
    light_red_areas: tuple[Rational, Rational, Rational]
    curvature_d: Rational
    curvature_d_prime: Rational
    midcircle_abc: Rational
    midcircles_with_d: tuple[Rational, Rational, Rational]
    midcircles_with_d_prime: tuple[Rational, Rational, Rational]
    descartes_residual_d: Rational
    descartes_residual_d_prime: Rational
    has_overlap: bool


def summarize(tess: Tessellation) -> TessellationReport:
    """Collect tile areas and the curvature data they encode.

    The red areas come back in the order (A, B, C) = (red b⋆c, red c⋆a,
    red a⋆b), matching the curvature labels of the disk picture; the
    light reds repeat them in the same order.  Mid-circle curvatures with
    D (resp. D′) are the square areas plus (resp. minus) the green area,
    in (a, b, c) order.
    """
    squares = tuple(t.signed_area for t in tess.tiles_of(TileClass.YELLOW_SQUARE))
    red_a = tess.tile("red_b*c").signed_area
    red_b = tess.tile("red_c*a").signed_area
    red_c = tess.tile("red_a*b").signed_area
    greens = [t.signed_area for t in tess.tiles_of(TileClass.GREEN)]
    green = greens[0]
    assert all(g == green for g in greens)
    light = (
        tess.tile("lred_c*b").signed_area,
        tess.tile("lred_a*c").signed_area,
        tess.tile("lred_b*a").signed_area,
    )
    base = red_a + red_b + red_c
    curv_d = base + 2 * green
    curv_d_prime = base - 2 * green
    return TessellationReport(
        square_areas=squares,
        red_areas=(red_a, red_b, red_c),
        green_area=green,
        light_red_areas=light,
        curvature_d=curv_d,
        curvature_d_prime=curv_d_prime,
        midcircle_abc=green,
        midcircles_with_d=tuple(sq + green for sq in squares),
        midcircles_with_d_prime=tuple(sq - green for sq in squares),
        descartes_residual_d=descartes_residual(red_a, red_b, red_c, curv_d),
        descartes_residual_d_prime=descartes_residual(red_a, red_b, red_c, curv_d_prime),
        has_overlap=tess.has_overlap,
    )


# Which central red shares each square's sides, and which one touches it
# only at the origin.  The pairing is fixed by the construction (square on
# x has sides along x and x⋆; the reds drawn against those sides carry x
# or x⋆ as an edge; the third red touches only at the origin).  Keying on
# roles rather than recomputed vertex coincidences keeps the pairing
# well defined even for folded layouts where distinct tiles can land on
# the same points.
_SIDE_REDS = {
    "sq_a": ("red_c*a", "red_a*b"),
    "sq_b": ("red_a*b", "red_b*c"),
    "sq_c": ("red_b*c", "red_c*a"),
}
_OPPOSITE_RED = {"sq_a": "red_b*c", "sq_b": "red_c*a", "sq_c": "red_a*b"}


def vertex_set(tile: Tile) -> frozenset[tuple[Rational, Rational]]:
    return frozenset((v.x, v.y) for v in tile.vertices)


def butterfly_areas(tess: Tessellation) -> tuple[Rational, Rational, Rational]:
    """Area of each butterfly: a square, its opposite central red, and
    the two greens between them.  All three equal D, computed here from
    the actual member tiles rather than the summary."""
    green = tess.tiles_of(TileClass.GREEN)[0].signed_area
    out = []
    for square in tess.tiles_of(TileClass.YELLOW_SQUARE):
        red = tess.tile(_OPPOSITE_RED[square.label])
        out.append(square.signed_area + red.signed_area + 2 * green)
    return tuple(out)


@dataclass(frozen=True)
class ObservationResult:
    name: str
    passed: bool
    witness: str


def _congruence_key(tile: Tile) -> tuple:
    """Invariant separating parallelograms up to rigid motion: sorted
    squared edge lengths plus |edge dot product|."""
    n1, n2 = norm_sq(tile.edge1), norm_sq(tile.edge2)
    return (min(n1, n2), max(n1, n2), abs(dot(tile.edge1, tile.edge2)))


def check_observations(tess: Tessellation) -> list[ObservationResult]:
    """The five structural facts the layout always satisfies."""
    results: list[ObservationResult] = []
    greens = tess.tiles_of(TileClass.GREEN)
    squares = tess.tiles_of(TileClass.YELLOW_SQUARE)

    green_areas = [t.signed_area for t in greens]
    results.append(
        ObservationResult(
            "greens_equal_area",
            all(g == green_areas[0] for g in green_areas),
            f"areas {sorted(set(str(g) for g in green_areas))}",
        )
    )

    pair_labels = (
        ("green_ab", "green_a*b*"),
        ("green_bc", "green_b*c*"),
        ("green_ca", "green_c*a*"),
    )
    pairs_congruent = all(
        _congruence_key(tess.tile(first)) == _congruence_key(tess.tile(second))
        for first, second in pair_labels
    )
    results.append(
        ObservationResult(
            "greens_pair_up_congruent",
            pairs_congruent,
            "each plain green matches its starred partner",
        )
    )

    light_keys = sorted(_congruence_key(t) for t in tess.tiles_of(TileClass.LIGHT_RED))
    red_keys = sorted(_congruence_key(t) for t in tess.tiles_of(TileClass.RED_CENTRAL))
    results.append(
        ObservationResult(
            "light_reds_congruent_to_reds",
            light_keys == red_keys,
            f"light {light_keys} vs central {red_keys}",
        )
    )

    adjacency_holds = True
    witness_parts = []
    for square in squares:
        adjacent = [tess.tile(label) for label in _SIDE_REDS[square.label]]
        total = sum(r.signed_area for r in adjacent)
        witness_parts.append(f"{square.label}: {square.signed_area} vs {total}")
        if len(adjacent) != 2 or total != square.signed_area:
            adjacency_holds = False
    results.append(
        ObservationResult("square_equals_adjacent_reds", adjacency_holds, "; ".join(witness_parts))
    )

    constants = []
    for square in squares:
        red = tess.tile(_OPPOSITE_RED[square.label])
        constants.append(square.signed_area + red.signed_area)
    expected = sum(t.signed_area for t in tess.tiles_of(TileClass.RED_CENTRAL))
    results.append(
        ObservationResult(
            "square_plus_opposite_red_constant",
            all(v == expected for v in constants),
            f"sums {[str(v) for v in constants]}, reds total {expected}",
        )
    )
    return results


def observation_constant(tess: Tessellation) -> Rational:
    """The shared value of square + opposite red, which is A + B + C."""
    reds = tess.tiles_of(TileClass.RED_CENTRAL)
    return sum(t.signed_area for t in reds)


def tessellation_to_json_dict(tess: Tessellation) -> dict:
    """Exact JSON form: every rational rendered as a fraction string."""
    report = summarize(tess)
    return {
        "a": tess.a.format(),
        "b": tess.b.format(),
        "c": tess.c.format(),
        "has_overlap": tess.has_overlap,
        "tiles": [
            {
                "label": t.label,
                "class": t.tile_class.value,
                "vertices": [v.format() for v in t.vertices],
                "area": str(t.signed_area),
            }
            for t in tess.tiles
        ],
        "report": {
            "square_areas": [str(v) for v in report.square_areas],
            "red_areas": [str(v) for v in report.red_areas],
            "green_area": str(report.green_area),
            "light_red_areas": [str(v) for v in report.light_red_areas],
            "curvature_D": str(report.curvature_d),
            "curvature_Dprime": str(report.curvature_d_prime),
            "midcircle_ABC": str(report.midcircle_abc),
            "midcircles_with_D": [str(v) for v in report.midcircles_with_d],
            "midcircles_with_Dprime": [str(v) for v in report.midcircles_with_d_prime],
            "descartes_residual_D": str(report.descartes_residual_d),
            "descartes_residual_Dprime": str(report.descartes_residual_d_prime),
        },
    }
