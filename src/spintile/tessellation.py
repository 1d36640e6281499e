"""The fifteen-tile square-and-parallelogram tessellation of a spinor pair.

Two non-parallel spinors a, b (with c = −a − b closing the triple) tile a
dodecagon with fifteen parallelograms in four color classes.  Member x of
the triple, with y and z following it cyclically, carries five of them,
and the tiles come class by class, each class in member order (a, b, c):

* tiles 0–2, the squares (0; x, x⋆), area |x|²;
* tiles 3–5, the central reds (0; x⋆, y), area −x·y — these are the
  curvatures A, B, C;
* tiles 6–11, the greens (x⋆; x, y) and (x; z⋆, x⋆), which all share the
  signed area G = a×b;
* tiles 12–14, the light reds (x + x⋆; z⋆, y), congruent to the central
  reds.

Counting members i mod 3, red i has its edges along squares i and
i + 1; red i + 1 meets square i only at the origin, and its area is the
curvature opposite member i, so (A, B, C) are the reds of members
(b, c, a); the plain green of member i is congruent to the starred
green of member i + 1.

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

Rational pairs run on integers as integer pairs do.  Each tile clears
its denominators once, when it is made: it scales its six coordinates
by its L, their lcm, and keeps the integer vertex cycle (L = 1 for an
integer tile), the cross product of its scaled edges and its signed
area.  The ``Spinor`` vertices are built from that cycle only when
``Tile.vertices`` is read.  The tessellation then puts its fifteen
tiles on one scale, the lcm of their L, and keeps each signed area as
an int over the square of that scale.  The summary, the butterflies,
the observations with their congruence keys and the overlap flag are
sums and products of those ints; the shoelace area, the lattice-point
count, the JSON vertices and the SVG coordinates are those of each
tile's own integer form.  A value is divided by its scale only where it
is reported: a ``Fraction`` is built only then, and a whole value comes
back as ``int``.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, lcm

from ._frozen import frozen
from .errors import DegenerateInput, InconsistentTiles, NegativeOrientation, NonIntegralVertices
from .quadruples import descartes_residual
from .spinors import ZERO, Rational, Spinor, _over, _spinor, _store, cross, int_if_whole, star


class TileClass(enum.Enum):
    YELLOW_SQUARE = "yellow_square"
    RED_CENTRAL = "red_central"
    GREEN = "green"
    LIGHT_RED = "light_red"


@frozen
class Tile:
    """One parallelogram: anchor plus two edge vectors.

    The integer form, its cross product and the signed area are
    computed when the tile is made; the ``Spinor`` vertices are built
    from the integer form when read.  Equality and hashing see only the
    five fields.
    """

    label: str
    tile_class: TileClass
    anchor: Spinor
    edge1: Spinor
    edge2: Spinor

    def __post_init__(self) -> None:
        # ``_lattice`` is (L, x0, y0, x1, y1, x2, y2, x3, y3): the vertex
        # cycle scaled by L, the lcm of the six coordinate denominators, so
        # that every coordinate is an int (L = 1 for an integer tile);
        # ``_cross`` is the signed area over L²
        ax, ay = self.anchor.x, self.anchor.y
        e1x, e1y = self.edge1.x, self.edge1.y
        e2x, e2y = self.edge2.x, self.edge2.y
        # spelled out, not looped or shared with a helper: the fifteen tiles
        # of every pair run this
        scale = lcm(
            ax.denominator, ay.denominator,
            e1x.denominator, e1y.denominator,
            e2x.denominator, e2y.denominator,
        )
        ax = ax.numerator * (scale // ax.denominator)
        ay = ay.numerator * (scale // ay.denominator)
        e1x = e1x.numerator * (scale // e1x.denominator)
        e1y = e1y.numerator * (scale // e1y.denominator)
        e2x = e2x.numerator * (scale // e2x.denominator)
        e2y = e2y.numerator * (scale // e2y.denominator)
        bx, by = ax + e1x, ay + e1y
        cx, cy = bx + e2x, by + e2y
        dx, dy = ax + e2x, ay + e2y
        area = e1x * e2y - e2x * e1y
        _store(self, "_lattice", (scale, ax, ay, bx, by, cx, cy, dx, dy))
        _store(self, "_cross", area)
        _store(self, "signed_area", _over(area, scale * scale))

    @property
    def vertices(self) -> tuple[Spinor, Spinor, Spinor, Spinor]:
        """The vertex cycle, built from ``_lattice`` on each read: only
        callers that want ``Spinor`` vertices pay for them."""
        scale, _, _, bx, by, cx, cy, dx, dy = self._lattice
        return (
            self.anchor,
            _spinor(_over(bx, scale), _over(by, scale)),
            _spinor(_over(cx, scale), _over(cy, scale)),
            _spinor(_over(dx, scale), _over(dy, scale)),
        )


def tile_area_shoelace(tile: Tile) -> Rational:
    """Signed area from the vertex cycle; independent of the edge form."""
    scale, x0, y0, x1, y1, x2, y2, x3, y3 = tile._lattice
    twice = (x0 * y1 - x1 * y0) + (x1 * y2 - x2 * y1) + (x2 * y3 - x3 * y2) + (x3 * y0 - x0 * y3)
    return _over(twice, 2 * scale * scale)


def _pick_counts(tile: Tile) -> tuple[int, int]:
    """``(interior, boundary)``: the lattice points strictly inside the
    tile and those on its edges.

    Requires integer vertices and positive orientation.  Each edge holds
    gcd(ex, ey) lattice steps, so the boundary holds 2·(gcd(e1) +
    gcd(e2)) points.  The point anchor + (dx, dy) is interior exactly
    when its scaled affine coordinates s = dx·e2y − e2x·dy and
    t = e1x·dy − dx·e1y lie strictly between 0 and the area.  Each of
    the two conditions is a strip c0 + c1·dx + k·dy, made to have k > 0
    by taking area − value where k < 0; in a column dx each strip bounds
    dy from both sides, and the interior of the column is the overlap.
    A strip with k = 0 (a vertical edge pair) bounds only dx, as the
    column range does already.
    """
    scale, x0, y0, x1, y1, x2, _, x3, y3 = tile._lattice
    # the vertices include the anchor and differ by the edges, so they
    # are all integers exactly when the six coordinates are: when L = 1
    if scale != 1:
        raise NonIntegralVertices(f"tile {tile.label} has a vertex that is not an integer point")
    e1x, e1y, e2x, e2y = x1 - x0, y1 - y0, x3 - x0, y3 - y0
    area = e1x * e2y - e2x * e1y
    if area <= 0:
        raise NegativeOrientation(f"tile {tile.label} has signed area {area}")

    # each strip (c0, c1, k) reads 0 < c0 + c1·dx + k·dy < area with k > 0
    strips = []
    for c1, k in ((e2y, -e2x), (-e1y, e1x)):
        if k > 0:
            strips.append((0, c1, k))
        elif k < 0:
            strips.append((area, -c1, -k))
    if len(strips) == 1:
        strips *= 2
    (a0, a1, ak), (b0, b1, bk) = strips
    # in column dx, a strip admits dy from (k − c0 − c1·dx) // k up to,
    # but not including, (area − 1 + k − c0 − c1·dx) // k
    a_low, a_high = ak - a0, area - 1 + ak - a0
    b_low, b_high = bk - b0, area - 1 + bk - b0
    # a column strictly inside the x-range meets the open tile in an
    # interval of positive length, so no column counts below zero
    interior = 0
    for dx in range(min(x0, x1, x2, x3) - x0 + 1, max(x0, x1, x2, x3) - x0):
        low = max((a_low - a1 * dx) // ak, (b_low - b1 * dx) // bk)
        high = min((a_high - a1 * dx) // ak, (b_high - b1 * dx) // bk)
        interior += high - low
    return interior, 2 * (gcd(e1x, e1y) + gcd(e2x, e2y))


def tile_area_pick(tile: Tile) -> int:
    """Area by Pick's theorem: interior + boundary/2 − 1.

    Requires integer vertices and positive orientation.  The interior
    points are counted column by column, in time linear in the tile's
    width, and the boundary points by the gcd of each edge; see
    ``_pick_counts``.
    """
    interior, boundary = _pick_counts(tile)
    return (2 * interior + boundary - 2) // 2


@frozen
class Tessellation:
    """The pair, its closing third spinor and the fifteen tiles.

    The tiles are put on one integer scale when the tessellation is
    made: ``_scale`` is L, the lcm of the tile scales, and ``_areas``
    holds the signed area of each tile as an int over L².  The readers
    below compute on those ints and divide by L² only a value that they
    report.  Equality and hashing see only the four fields.
    """

    a: Spinor
    b: Spinor
    c: Spinor
    tiles: tuple[Tile, ...]

    def __post_init__(self) -> None:
        tiles = self.tiles
        # a set, as the tiles of a pair share one or a few scales
        scale = lcm(*{tile._lattice[0] for tile in tiles})
        if scale == 1:
            areas = tuple([tile._cross for tile in tiles])
        else:
            areas = tuple([tile._cross * (scale // tile._lattice[0]) ** 2 for tile in tiles])
        _store(self, "_scale", scale)
        _store(self, "_areas", areas)

    @property
    def has_overlap(self) -> bool:
        """True when some tile is negatively oriented (the layout folds)."""
        return any(area < 0 for area in self._areas)

    def tiles_of(self, tile_class: TileClass) -> tuple[Tile, ...]:
        return tuple(t for t in self.tiles if t.tile_class is tile_class)

    def tile(self, label: str) -> Tile:
        for t in self.tiles:
            if t.label == label:
                return t
        raise KeyError(label)


# Member i of the triple (a, b, c), with j = i + 1 and k = i + 2 mod 3,
# makes tile i (its square), 3 + i (its central red), 6 + 2i and 7 + 2i
# (its plain and starred greens) and 12 + i (its light red).  The roles
# are index arithmetic: red i has its edges along squares i and j; red j
# meets square i only at the origin, and its area is the curvature
# opposite member i; the plain green of member i pairs with the starred
# green of member j.  Keying on roles rather than on shared vertices
# keeps them well defined for folded layouts, where distinct tiles can
# land on the same points.
_CYCLE = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def build_tessellation(a: Spinor, b: Spinor) -> Tessellation:
    """Lay out the fifteen tiles of the pair (a, b).

    Raises DegenerateInput when a×b = 0 (parallel or zero spinors leave
    nothing two-dimensional to tile).
    """
    if cross(a, b) == 0:
        raise DegenerateInput(f"spinors {a.format()} and {b.format()} are parallel")
    c = -(a + b)
    triple = (a, b, c)
    starred = (star(a), star(b), star(c))
    squares, reds, greens, light_reds = [], [], [], []
    for i, j, k in _CYCLE:
        x, y, sx, sz = triple[i], triple[j], starred[i], starred[k]
        nx, ny, nz = "abc"[i], "abc"[j], "abc"[k]
        squares.append(Tile(f"sq_{nx}", TileClass.YELLOW_SQUARE, ZERO, x, sx))
        reds.append(Tile(f"red_{nx}*{ny}", TileClass.RED_CENTRAL, ZERO, sx, y))
        greens.append(Tile(f"green_{nx}{ny}", TileClass.GREEN, sx, x, y))
        greens.append(Tile(f"green_{nz}*{nx}*", TileClass.GREEN, x, sz, sx))
        light_reds.append(Tile(f"lred_{nz}*{ny}", TileClass.LIGHT_RED, x + sx, sz, y))
    return Tessellation(a=a, b=b, c=c, tiles=(*squares, *reds, *greens, *light_reds))


def dodecagon_boundary(tess: Tessellation) -> tuple[Spinor, ...]:
    """The twelve outer vertices, in cyclic order for positive pairs."""
    points: list[Spinor] = []
    triple = (tess.a, tess.b, tess.c)
    for i, j, k in _CYCLE:
        x, y, z = triple[i], triple[j], triple[k]
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


@frozen
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

    Raises InconsistentTiles when the six greens differ in area, which
    no tessellation from ``build_tessellation`` does.

    The red areas come back in the order (A, B, C) = (red b⋆c, red c⋆a,
    red a⋆b), matching the curvature labels of the disk picture; the
    light reds repeat them in the same order.  Mid-circle curvatures with
    D (resp. D′) are the square areas plus (resp. minus) the green area,
    in (a, b, c) order.
    """
    tiles, areas = tess.tiles, tess._areas
    green = areas[6]
    if any(g != green for g in areas[7:12]):
        greens = ", ".join(f"{t.label} {t.signed_area}" for t in tiles[6:12])
        raise InconsistentTiles(f"the six greens must share one area, got {greens}")
    squares = areas[0:3]
    red_c, red_a, red_b = areas[3:6]
    base = red_a + red_b + red_c
    curv_d = base + 2 * green
    curv_d_prime = base - 2 * green
    square = tess._scale ** 2
    # the residual is of degree two in the areas, so it lies over square²
    residual_d = _over(descartes_residual(red_a, red_b, red_c, curv_d), square * square)
    residual_d_prime = _over(descartes_residual(red_a, red_b, red_c, curv_d_prime), square * square)
    # the tile areas are reported as each tile stores them
    shown = [t.signed_area for t in tiles]
    return TessellationReport(
        square_areas=tuple(shown[0:3]),
        red_areas=(shown[4], shown[5], shown[3]),
        green_area=shown[6],
        light_red_areas=tuple(shown[12:15]),
        curvature_d=_over(curv_d, square),
        curvature_d_prime=_over(curv_d_prime, square),
        midcircle_abc=shown[6],
        midcircles_with_d=tuple(_over(sq + green, square) for sq in squares),
        midcircles_with_d_prime=tuple(_over(sq - green, square) for sq in squares),
        descartes_residual_d=residual_d,
        descartes_residual_d_prime=residual_d_prime,
        has_overlap=tess.has_overlap,
    )


def vertex_set(tile: Tile) -> frozenset[tuple[Rational, Rational]]:
    return frozenset((v.x, v.y) for v in tile.vertices)


def butterfly_areas(tess: Tessellation) -> tuple[Rational, Rational, Rational]:
    """Area of each butterfly: a square, its opposite central red, and
    the two greens between them.  All three equal D, computed here from
    the actual member tiles rather than the summary."""
    areas, square = tess._areas, tess._scale ** 2
    return tuple(_over(areas[i] + areas[3 + j] + 2 * areas[6], square) for i, j, _ in _CYCLE)


@frozen
class ObservationResult:
    name: str
    passed: bool
    witness: str


def _congruence_key(tile: Tile, scale: int) -> tuple[int, int, int]:
    """Invariant separating parallelograms up to rigid motion: sorted
    squared edge lengths plus |edge dot product|, as ints over scale²,
    for a ``scale`` that the tile's own scale divides."""
    own, x0, y0, x1, y1, _, _, x3, y3 = tile._lattice
    factor = scale // own
    e1x, e1y = (x1 - x0) * factor, (y1 - y0) * factor
    e2x, e2y = (x3 - x0) * factor, (y3 - y0) * factor
    n1, n2 = e1x * e1x + e1y * e1y, e2x * e2x + e2y * e2y
    return (min(n1, n2), max(n1, n2), abs(e1x * e2x + e1y * e2y))


def _keys_text(keys: list[tuple[int, int, int]], square: int) -> str:
    """The list of congruence keys as it prints with each value over
    ``square`` in its reported form."""
    if square != 1:
        keys = [tuple(_over(value, square) for value in key) for key in keys]
    return str(keys)


def check_observations(tess: Tessellation) -> list[ObservationResult]:
    """The five structural facts the layout always satisfies."""
    results: list[ObservationResult] = []
    tiles, areas = tess.tiles, tess._areas
    scale = tess._scale
    square = scale * scale

    greens = areas[6:12]
    results.append(
        ObservationResult(
            "greens_equal_area",
            all(g == greens[0] for g in greens),
            f"areas {sorted(set(str(t.signed_area) for t in tiles[6:12]))}",
        )
    )

    pairs_congruent = all(
        _congruence_key(tiles[6 + 2 * i], scale) == _congruence_key(tiles[7 + 2 * j], scale)
        for i, j, _ in _CYCLE
    )
    results.append(
        ObservationResult(
            "greens_pair_up_congruent",
            pairs_congruent,
            "each plain green matches its starred partner",
        )
    )

    light_keys = sorted(_congruence_key(t, scale) for t in tiles[12:15])
    red_keys = sorted(_congruence_key(t, scale) for t in tiles[3:6])
    results.append(
        ObservationResult(
            "light_reds_congruent_to_reds",
            light_keys == red_keys,
            f"light {_keys_text(light_keys, square)} vs central {_keys_text(red_keys, square)}",
        )
    )

    # square i lies between its side reds k and i
    sides = tuple(areas[3 + k] + areas[3 + i] for i, _, k in _CYCLE)
    results.append(
        ObservationResult(
            "square_equals_adjacent_reds",
            sides == areas[0:3],
            "; ".join(
                f"{tiles[i].label}: {tiles[i].signed_area} vs {_over(sides[i], square)}"
                for i in range(3)
            ),
        )
    )

    constants = [areas[i] + areas[3 + j] for i, j, _ in _CYCLE]
    expected = sum(areas[3:6])
    results.append(
        ObservationResult(
            "square_plus_opposite_red_constant",
            all(v == expected for v in constants),
            f"sums {[str(_over(v, square)) for v in constants]}, "
            f"reds total {_over(expected, square)}",
        )
    )
    return results


def observation_constant(tess: Tessellation) -> Rational:
    """The shared value of square + opposite red, which is A + B + C."""
    return _over(sum(tess._areas[3:6]), tess._scale ** 2)


def _over_text(numerator: int, denominator: int) -> str:
    """``str(_over(numerator, denominator))`` for a positive denominator,
    written from the reduced ints without building a ``Fraction``."""
    common = gcd(numerator, denominator)
    if common == denominator:
        return str(numerator // common)
    return f"{numerator // common}/{denominator // common}"


def _vertex_texts(tile: Tile) -> list[str]:
    """The ``"x,y"`` text of each vertex, as ``Spinor.format`` writes it,
    read from the integer form without building a ``Spinor``."""
    scale, x0, y0, x1, y1, x2, y2, x3, y3 = tile._lattice
    if scale == 1:
        return [f"{x0},{y0}", f"{x1},{y1}", f"{x2},{y2}", f"{x3},{y3}"]
    texts = [_over_text(value, scale) for value in (x0, y0, x1, y1, x2, y2, x3, y3)]
    return [f"{texts[i]},{texts[i + 1]}" for i in (0, 2, 4, 6)]


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
                "vertices": _vertex_texts(t),
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
