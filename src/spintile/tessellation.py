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

Every tile is (anchor; edge1, edge2), made one way, by ``_form``: its
vertices are anchor, anchor+edge1, anchor+edge1+edge2, anchor+edge2,
and its signed area is cross(edge1, edge2).  ``build_tessellation``
reads the anchors and edges of the list above from one table,
``_LAYOUT``.  The sum of all fifteen signed areas equals the
shoelace area of the outer dodecagon for every input pair, overlapping
or not; the flag ``has_overlap`` marks inputs whose tiles fold over.

The summary quantities reproduce a Descartes configuration: with
A, B, C the central red areas and G the green area, both
D = A+B+C+2G and D′ = A+B+C−2G complete (A, B, C) to curvature
quadruples with zero residual, G is the curvature of the circle through
the mutual tangency points of A, B, C, and the squares shifted by ±G
give the remaining tangency-point circles.

Rational pairs run on integers as integer pairs do.  Every tile corner
is an integer combination of a, b, c and their quarter turns, so
``build_tessellation`` clears the pair once, by L, the lcm of the four
denominators of a and b, and makes all fifteen tiles on L from ints
(L = 1 for an integer pair): each keeps its vertex cycle times L and
the cross product of its scaled edges, and tiles of equal area share
one signed area.  The ``Spinor`` vertices are built from that cycle
only when ``Tile.vertices`` is read.  A tile made by hand with
``Tile(...)`` clears its own six coordinates instead.  Both clear with
``spinors._cleared``, and divide back with its inverse ``_over``.

A tessellation holds one integer form, made with it: its scale, the lcm
of its tiles' scales (L for a built pair), and each tile's vertex cycle
and signed area as ints over that scale and its square.  Every reader of
a tessellation (the summary, the butterflies, the observations with
their congruence keys, the overlap flag, the JSON and the SVG) reads
that form only, never a tile's own scale; the functions of one tile
read the tile's own.  A value is divided by its scale only where it is
reported, by a value and a text reader that ``functools.cache`` memoises
per tessellation: a ``Fraction`` is built once for each distinct int, a
text is written from the ints, and a whole value comes back as ``int``.
The JSON writes each distinct coordinate once.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cache, partial
from math import gcd, lcm

from ._frozen import frozen, trusted
from .errors import DegenerateInput, InconsistentTiles, NegativeOrientation, NonIntegralVertices
from .quadruples import descartes_residual
from .spinors import ZERO, Rational, Spinor, _cleared, _over, _spinor, int_if_whole, star

_store = object.__setattr__


class TileClass(enum.Enum):
    YELLOW_SQUARE = "yellow_square"
    RED_CENTRAL = "red_central"
    GREEN = "green"
    LIGHT_RED = "light_red"


@frozen
class Tile:
    """One parallelogram: anchor plus two edge vectors.

    The integer form of ``_form``, its vertex cycle and the cross
    product of its edges, and the signed area are computed when the tile
    is made, here or in ``build_tessellation``; the ``Spinor`` vertices
    are built from the integer form when read.  Equality and hashing see
    only the five fields.
    """

    label: str
    tile_class: TileClass
    anchor: Spinor
    edge1: Spinor
    edge2: Spinor

    def __post_init__(self) -> None:
        # on L, the lcm of the six coordinate denominators (L = 1 for an
        # integer tile; a tile of ``build_tessellation`` is on its pair's L)
        anchor, edge1, edge2 = self.anchor, self.edge1, self.edge2
        scale, ax, ay, e1x, e1y, e2x, e2y = _cleared(anchor.x, anchor.y, edge1.x, edge1.y, edge2.x, edge2.y)
        lattice, area = _form(scale, (ax, ay), (e1x, e1y), (e2x, e2y))
        _store(self, "_lattice", lattice)
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


def _form(
    scale: int, anchor: tuple[int, int], edge1: tuple[int, int], edge2: tuple[int, int]
) -> tuple[tuple[int, ...], int]:
    """The integer form of the tile (anchor; edge1, edge2), each given as
    its (x, y) times L = ``scale``, in ints: its ``_lattice``
    (L, x0, y0, x1, y1, x2, y2, x3, y3), the vertex cycle anchor,
    anchor+edge1, anchor+edge1+edge2, anchor+edge2 times L, and its
    ``_cross``, the cross product of the edges, its signed area over L²."""
    (ax, ay), (e1x, e1y), (e2x, e2y) = anchor, edge1, edge2
    bx, by = ax + e1x, ay + e1y
    return (scale, ax, ay, bx, by, bx + e2x, by + e2y, ax + e2x, ay + e2y), e1x * e2y - e2x * e1y


def tile_area_shoelace(tile: Tile) -> Rational:
    """Signed area from the vertex cycle; independent of the edge form.

    An area equal to the tile's signed area comes back as that stored
    value, so that no second ``Fraction`` is built for it."""
    scale, x0, y0, x1, y1, x2, y2, x3, y3 = tile._lattice
    twice = (x0 * y1 - x1 * y0) + (x1 * y2 - x2 * y1) + (x2 * y3 - x3 * y2) + (x3 * y0 - x0 * y3)
    if twice == 2 * tile._cross:
        return tile.signed_area
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
    # the fourth vertex is x1 + x3 − x0, so the vertices are all integer
    # points exactly when the first, second and last are
    if scale != 1:
        if x0 % scale or y0 % scale or x1 % scale or y1 % scale or x3 % scale or y3 % scale:
            raise NonIntegralVertices(f"tile {tile.label} has a vertex that is not an integer point")
        x0, y0, x1, y1 = x0 // scale, y0 // scale, x1 // scale, y1 // scale
        x2, x3, y3 = x2 // scale, x3 // scale, y3 // scale
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

    Its one integer form is made with it: ``_scale`` is L, the lcm of
    the tile scales; ``_lattices`` holds each tile's vertex cycle on L in
    the form of ``Tile._lattice``, (L, x0, y0, …, x3, y3); ``_areas``
    holds each signed area as an int over L².  The readers below read
    only these, and divide by L or L² only a value they report, through
    ``_value`` and ``_text``, once per distinct int (see ``_readers``).
    Equality and hashing see only the four fields.
    """

    a: Spinor
    b: Spinor
    c: Spinor
    tiles: tuple[Tile, ...]

    def __post_init__(self) -> None:
        # a set, as the tiles of a pair share one or a few scales
        scale = lcm(*{tile._lattice[0] for tile in self.tiles})
        lattices, areas = [], []
        for tile in self.tiles:
            lattice = tile._lattice
            factor = scale // lattice[0]
            if factor != 1:
                lattice = (scale, *[value * factor for value in lattice[1:]])
            lattices.append(lattice)
            areas.append(tile._cross * factor * factor)
        _on_scale(self, scale, tuple(areas), tuple(lattices), *_readers(scale))

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


_tile, _tessellation = trusted(Tile), trusted(Tessellation)


def _readers(scale: int) -> tuple:
    """The two readers of an int over L², L = ``scale``: ``_value``, the
    value as reported, and ``_text``, its ``str``.  On L > 1 each is made
    once per int, so equal ints share one reported object."""
    if scale == 1:
        return int, str
    square = scale * scale
    return cache(partial(_over, denominator=square)), cache(partial(_over_text, denominator=square))


def _on_scale(tess: Tessellation, scale: int, areas: tuple, lattices: tuple, value, text) -> None:
    """Store the integer form of ``tess``: its common scale L, its tile
    areas as ints over L², its two readers and its tiles' cycles on L."""
    _store(tess, "_scale", scale)
    _store(tess, "_areas", areas)
    _store(tess, "_value", value)
    _store(tess, "_text", text)
    _store(tess, "_lattices", lattices)


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
# the five tiles of each member, by the same cycle: their labels, and in
# ``_LAYOUT`` their tile index first + step·i, their class, and their
# anchor and edges as indexes into the member's points 0, x, x⋆, y, z⋆
# and x + x⋆
_LABELS = tuple(
    (f"sq_{x}", f"red_{x}*{y}", f"green_{x}{y}", f"green_{z}*{x}*", f"lred_{z}*{y}")
    for x, y, z in ("abc", "bca", "cab")
)
_LAYOUT = (
    (0, 1, TileClass.YELLOW_SQUARE, 0, 1, 2),  # (0; x, x⋆)
    (3, 1, TileClass.RED_CENTRAL, 0, 2, 3),  # (0; x⋆, y)
    (6, 2, TileClass.GREEN, 2, 1, 3),  # (x⋆; x, y)
    (7, 2, TileClass.GREEN, 1, 4, 2),  # (x; z⋆, x⋆)
    (12, 1, TileClass.LIGHT_RED, 5, 4, 3),  # (x + x⋆; z⋆, y)
)


def build_tessellation(a: Spinor, b: Spinor) -> Tessellation:
    """Lay out the fifteen tiles of the pair (a, b).

    Raises DegenerateInput when a×b = 0 (parallel or zero spinors leave
    nothing two-dimensional to tile).

    Every corner is an integer combination of a, b, c and their quarter
    turns, so the pair is cleared once, by L, the lcm of its four
    denominators.  Each tile is made on L from ints, from its anchor and
    edges as ``_LAYOUT`` reads them off the member's points, by the one
    integer form of ``Tile``: its vertex cycle, which is also the
    tessellation's, and the cross product of its edges, its area.  Its
    signed area is that product as the tessellation reports it, a value
    that tiles of equal area share.
    """
    scale, ax, ay, bx, by = _cleared(a.x, a.y, b.x, b.y)
    if ax * by == bx * ay:
        raise DegenerateInput(f"spinors {a.format()} and {b.format()} are parallel")
    cx, cy = -ax - bx, -ay - by
    c = _spinor(_over(cx, scale), _over(cy, scale))
    triple = (a, b, c)
    starred = (star(a), star(b), star(c))
    members = ((ax, ay), (bx, by), (cx, cy))
    value, text = _readers(scale)
    tiles = [None] * 15
    for i, j, k in _CYCLE:
        (xx, xy), (yx, yy), (zx, zy) = members[i], members[j], members[k]
        px, py = xx - xy, xy + xx
        plus = _spinor(_over(px, scale), _over(py, scale))
        spinors = (ZERO, triple[i], starred[i], triple[j], starred[k], plus)
        points = ((0, 0), (xx, xy), (-xy, xx), (yx, yy), (-zy, zx), (px, py))
        for (first, step, tile_class, anchor, edge1, edge2), label in zip(_LAYOUT, _LABELS[i]):
            lattice, area = _form(scale, points[anchor], points[edge1], points[edge2])
            tile = _tile(label, tile_class, spinors[anchor], spinors[edge1], spinors[edge2])
            _store(tile, "_lattice", lattice)
            _store(tile, "_cross", area)
            _store(tile, "signed_area", value(area))
            tiles[first + step * i] = tile
    tess = _tessellation(a, b, c, tuple(tiles))
    # every tile is made on L, so its lattice is its cycle on L
    areas, lattices = tuple([tile._cross for tile in tiles]), tuple([tile._lattice for tile in tiles])
    _on_scale(tess, scale, areas, lattices, value, text)
    return tess


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


def _summary(tess: Tessellation) -> tuple[list[int], int, int]:
    """The report of ``tess`` on ints: its values up to the residuals,
    flattened in field order, each an int over L², and the two residuals,
    ints over L⁴.

    Raises InconsistentTiles when the six greens differ in area.
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
    numerators = [
        *squares, red_a, red_b, red_c, green, *areas[12:15], curv_d, curv_d_prime, green,
        *[sq + green for sq in squares], *[sq - green for sq in squares],
    ]
    # the residual is of degree two in the areas, so it lies over L⁴
    residual_d = descartes_residual(red_a, red_b, red_c, curv_d)
    return numerators, residual_d, descartes_residual(red_a, red_b, red_c, curv_d_prime)


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
    numerators, residual_d, residual_d_prime = _summary(tess)
    shown = list(map(tess._value, numerators))
    fourth = tess._scale**4
    return TessellationReport(
        square_areas=tuple(shown[0:3]),
        red_areas=tuple(shown[3:6]),
        green_area=shown[6],
        light_red_areas=tuple(shown[7:10]),
        curvature_d=shown[10],
        curvature_d_prime=shown[11],
        midcircle_abc=shown[12],
        midcircles_with_d=tuple(shown[13:16]),
        midcircles_with_d_prime=tuple(shown[16:19]),
        descartes_residual_d=_over(residual_d, fourth),
        descartes_residual_d_prime=_over(residual_d_prime, fourth),
        has_overlap=tess.has_overlap,
    )


def vertex_set(tile: Tile) -> frozenset[tuple[Rational, Rational]]:
    return frozenset((v.x, v.y) for v in tile.vertices)


def butterfly_areas(tess: Tessellation) -> tuple[Rational, Rational, Rational]:
    """Area of each butterfly: a square, its opposite central red, and
    the two greens between them.  All three equal D, computed here from
    the actual member tiles rather than the summary."""
    areas = tess._areas
    return tuple(tess._value(areas[i] + areas[3 + j] + 2 * areas[6]) for i, j, _ in _CYCLE)


@frozen
class ObservationResult:
    name: str
    passed: bool
    witness: str


def _congruence_key(lattice: tuple[int, ...]) -> tuple[int, int, int]:
    """Invariant separating parallelograms up to rigid motion: sorted
    squared edge lengths plus |edge dot product| of the tile whose cycle
    ``lattice`` holds on L, as ints over L²."""
    _, x0, y0, x1, y1, _, _, x3, y3 = lattice
    e1x, e1y, e2x, e2y = x1 - x0, y1 - y0, x3 - x0, y3 - y0
    n1, n2 = e1x * e1x + e1y * e1y, e2x * e2x + e2y * e2y
    return (min(n1, n2), max(n1, n2), abs(e1x * e2x + e1y * e2y))


def _keys_text(keys: list[tuple[int, int, int]], tess: Tessellation) -> str:
    """The list of congruence keys as it prints with each value, an int
    over the square of the scale of ``tess``, in its reported form."""
    if tess._scale != 1:
        keys = [tuple(map(tess._value, key)) for key in keys]
    return str(keys)


def check_observations(tess: Tessellation) -> list[ObservationResult]:
    """The five structural facts the layout always satisfies."""
    results: list[ObservationResult] = []
    tiles, lattices, areas, text = tess.tiles, tess._lattices, tess._areas, tess._text

    greens = areas[6:12]
    results.append(
        ObservationResult(
            "greens_equal_area",
            all(g == greens[0] for g in greens),
            f"areas {sorted([text(g) for g in set(greens)])}",
        )
    )

    pairs_congruent = all(
        _congruence_key(lattices[6 + 2 * i]) == _congruence_key(lattices[7 + 2 * j])
        for i, j, _ in _CYCLE
    )
    results.append(
        ObservationResult(
            "greens_pair_up_congruent",
            pairs_congruent,
            "each plain green matches its starred partner",
        )
    )

    light_keys = sorted(map(_congruence_key, lattices[12:15]))
    red_keys = sorted(map(_congruence_key, lattices[3:6]))
    results.append(
        ObservationResult(
            "light_reds_congruent_to_reds",
            light_keys == red_keys,
            f"light {_keys_text(light_keys, tess)} vs central {_keys_text(red_keys, tess)}",
        )
    )

    # square i lies between its side reds k and i
    sides = tuple(areas[3 + k] + areas[3 + i] for i, _, k in _CYCLE)
    results.append(
        ObservationResult(
            "square_equals_adjacent_reds",
            sides == areas[0:3],
            "; ".join(f"{tiles[i].label}: {text(areas[i])} vs {text(sides[i])}" for i in range(3)),
        )
    )

    constants = [areas[i] + areas[3 + j] for i, j, _ in _CYCLE]
    expected = sum(areas[3:6])
    results.append(
        ObservationResult(
            "square_plus_opposite_red_constant",
            all(v == expected for v in constants),
            f"sums {[text(v) for v in constants]}, reds total {text(expected)}",
        )
    )
    return results


def observation_constant(tess: Tessellation) -> Rational:
    """The shared value of square + opposite red, which is A + B + C."""
    return tess._value(sum(tess._areas[3:6]))


def _over_text(numerator: int, denominator: int) -> str:
    """``str(_over(numerator, denominator))`` for a positive denominator,
    written from the reduced ints without building a ``Fraction``."""
    common = gcd(numerator, denominator)
    if common == denominator:
        return str(numerator // common)
    return f"{numerator // common}/{denominator // common}"


def _vertex_texts(tess: Tessellation) -> list[list[str]]:
    """The ``"x,y"`` text of each vertex of each tile, as
    ``Spinor.format`` writes it, read from the tessellation's integer
    cycles without building a ``Spinor``: each distinct coordinate is
    written once."""
    scale, lattices = tess._scale, tess._lattices
    if scale != 1:
        texts = {value: _over_text(value, scale) for value in set().union(*lattices)}
        lattices = [[texts[value] for value in lattice] for lattice in lattices]
    return [
        [f"{x0},{y0}", f"{x1},{y1}", f"{x2},{y2}", f"{x3},{y3}"]
        for _, x0, y0, x1, y1, x2, y2, x3, y3 in lattices
    ]


def tessellation_to_json_dict(tess: Tessellation) -> dict:
    """Exact JSON form: every rational rendered as a fraction string."""
    numerators, residual_d, residual_d_prime = _summary(tess)
    text = tess._text
    shown = list(map(text, numerators))
    fourth = tess._scale**4
    return {
        "a": tess.a.format(),
        "b": tess.b.format(),
        "c": tess.c.format(),
        "has_overlap": tess.has_overlap,
        "tiles": [
            {
                "label": t.label,
                "class": t.tile_class.value,
                "vertices": vertices,
                "area": text(area),
            }
            for t, vertices, area in zip(tess.tiles, _vertex_texts(tess), tess._areas)
        ],
        "report": {
            "square_areas": shown[0:3],
            "red_areas": shown[3:6],
            "green_area": shown[6],
            "light_red_areas": shown[7:10],
            "curvature_D": shown[10],
            "curvature_Dprime": shown[11],
            "midcircle_ABC": shown[12],
            "midcircles_with_D": shown[13:16],
            "midcircles_with_Dprime": shown[16:19],
            "descartes_residual_D": _over_text(residual_d, fourth),
            "descartes_residual_Dprime": _over_text(residual_d_prime, fourth),
        },
    }
