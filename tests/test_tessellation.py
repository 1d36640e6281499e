"""Fifteen-tile layouts: exact areas, boundary, and structural facts."""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spintile import (
    DegenerateInput,
    InconsistentTiles,
    NegativeOrientation,
    NonIntegralVertices,
    Spinor,
    Tessellation,
    Tile,
    TileClass,
    build_tessellation,
    butterfly_areas,
    check_observations,
    cross,
    dot,
    from_spinor_pair,
    norm_sq,
    observation_constant,
    render_tessellation,
    star,
    summarize,
    tessellation_to_json_dict,
    tile_area_pick,
    tile_area_shoelace,
)
from spintile.cli import run
from spintile.spinors import ZERO, Rational, int_if_whole
from spintile.svg import RenderOptions
from spintile.tessellation import _CYCLE, _congruence_key, _pick_counts

int_spinors = st.builds(Spinor, st.integers(-9, 9), st.integers(-9, 9))

# magnitudes up to 1e12, ints and rationals with denominators up to 1e4
wide_components = st.one_of(
    st.integers(-(10**12), 10**12),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**4)),
)
wide_spinors = st.builds(Spinor, wide_components, wide_components)


def generic_pairs():
    return st.tuples(int_spinors, int_spinors).filter(lambda p: cross(*p) != 0)


def wide_pairs():
    return st.tuples(wide_spinors, wide_spinors).filter(lambda p: cross(*p) != 0)


def partly_rational_pairs():
    """One small integer spinor and one rational spinor of small
    denominators, in either order: the integer spinor's square has
    integer corners on the pair's scale."""
    rational = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
    pairs = st.tuples(int_spinors, st.builds(Spinor, rational, rational), st.booleans())
    return pairs.map(lambda p: p[1::-1] if p[2] else p[:2]).filter(lambda p: cross(*p) != 0)


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


def brute_pick_counts(tile):
    """``(interior, boundary)`` by testing every lattice point of the
    bounding box: q = anchor + s·edge1 + t·edge2 lies in the tile exactly
    when 0 ≤ s, t ≤ 1.  The oracle for ``_pick_counts``; it needs an
    integer, positively oriented tile, and reads its exact vertices."""
    x0, y0, x1, y1, x2, y2, x3, y3 = (int(value) for v in tile.vertices for value in (v.x, v.y))
    e1x, e1y, e2x, e2y = x1 - x0, y1 - y0, x3 - x0, y3 - y0
    area = e1x * e2y - e2x * e1y
    xs, ys = (x0, x1, x2, x3), (y0, y1, y2, y3)
    interior = boundary = 0
    for qx in range(min(xs), max(xs) + 1):
        dx = qx - x0
        for qy in range(min(ys), max(ys) + 1):
            dy = qy - y0
            s_scaled = dx * e2y - e2x * dy
            t_scaled = e1x * dy - dx * e1y
            if 0 <= s_scaled <= area and 0 <= t_scaled <= area:
                if 0 < s_scaled < area and 0 < t_scaled < area:
                    interior += 1
                else:
                    boundary += 1
    return interior, boundary


def _positive(anchor, edge1, edge2):
    """A tile on the edges in the order that orients it positively."""
    if cross(edge1, edge2) < 0:
        edge1, edge2 = edge2, edge1
    return Tile("t", TileClass.GREEN, anchor, edge1, edge2)


_entries = st.integers(-60, 60)
_nonzero = _entries.filter(bool)
_edges = st.one_of(
    st.builds(Spinor, _entries, _entries),
    st.builds(Spinor, st.just(0), _nonzero),  # vertical
    st.builds(Spinor, _nonzero, st.just(0)),  # horizontal
)


@st.composite
def _thin_edges(draw):
    # the second edge a multiple of the first, nudged by at most one
    # step: the tile is long and one or two lattice rows wide
    x, y = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
    factor = draw(st.integers(-3, 3))
    nudge = Spinor(draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
    return Spinor(x, y), factor * Spinor(x, y) + nudge


lattice_tiles = st.one_of(
    st.builds(_positive, st.builds(Spinor, _entries, _entries), _edges, _edges),
    st.builds(
        lambda anchor, edges: _positive(anchor, *edges),
        st.builds(Spinor, _entries, _entries),
        _thin_edges(),
    ),
).filter(lambda t: t.signed_area != 0)


def _bench_inputs():
    """The benchmark's seeded input generators, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def figure():
    return build_tessellation(Spinor(3, 0), Spinor(-1, 2))


class TestBuild:
    def test_fifteen_tiles_with_class_counts(self, figure):
        assert len(figure.tiles) == 15
        assert len(figure.tiles_of(TileClass.YELLOW_SQUARE)) == 3
        assert len(figure.tiles_of(TileClass.RED_CENTRAL)) == 3
        assert len(figure.tiles_of(TileClass.GREEN)) == 6
        assert len(figure.tiles_of(TileClass.LIGHT_RED)) == 3

    def test_third_spinor_closes_the_triple(self, figure):
        assert figure.c == Spinor(-2, -2)
        assert (figure.a + figure.b + figure.c).is_zero()

    def test_square_vertices(self, figure):
        square = figure.tile("sq_a")
        assert [v.format() for v in square.vertices] == ["0,0", "3,0", "3,3", "0,3"]

    def test_unknown_label(self, figure):
        with pytest.raises(KeyError):
            figure.tile("sq_d")

    def test_parallel_generators_rejected(self):
        with pytest.raises(DegenerateInput):
            build_tessellation(Spinor(2, 1), Spinor(4, 2))

    def test_zero_generator_rejected(self):
        with pytest.raises(DegenerateInput):
            build_tessellation(Spinor(1, 1), Spinor(0, 0))


class TestTileGeometryIsKept:
    def test_vertices_and_area_are_computed_once(self):
        # large entries, so that a recomputed area would be a new int object
        tess = build_tessellation(Spinor(10**20 + 3, 1), Spinor(-1, 10**20))
        tile = tess.tile("green_ab")
        # the area is stored when the tile is made; the vertices are
        # built from the integer form on each read, so they are equal
        # from read to read but not the same object
        assert tile.vertices == tile.vertices
        assert tile.signed_area is tile.signed_area

    def test_equality_and_hash_ignore_the_cache(self):
        tile = build_tessellation(Spinor(3, 0), Spinor(-1, 2)).tile("lred_c*b")
        fresh = Tile(tile.label, tile.tile_class, tile.anchor, tile.edge1, tile.edge2)
        before = hash(tile)
        assert tile.vertices == (Spinor(3, 3), Spinor(5, 1), Spinor(4, 3), Spinor(2, 5))
        assert tile.signed_area == 2
        assert tile == fresh and fresh == tile
        assert hash(tile) == hash(fresh) == before
        assert len({tile, fresh}) == 1


class TestIntegerForm:
    """Each tile computes on its coordinates scaled to ints; every value
    must still be exactly the one the Spinor arithmetic defines."""

    @staticmethod
    def assert_matches_definitions(tile, tess=None):
        # ``tess`` holds the tile; a tile made by hand is put in a
        # tessellation alone, on its own scale, and beside a tile of three
        # times its own scale
        if tess is None:
            own = tile._lattice[0]
            beside = Tile("u", TileClass.GREEN, Spinor(Fraction(1, 3 * own), 0), Spinor(1, 0), Spinor(0, 1))
            holders = [Tessellation(ZERO, ZERO, ZERO, tiles) for tiles in ((tile,), (tile, beside))]
            assert [holder._scale for holder in holders] == [own, 3 * own]
        else:
            holders = [tess]
        anchor, edge1, edge2 = tile.anchor, tile.edge1, tile.edge2
        corners = (anchor, anchor + edge1, anchor + edge1 + edge2, anchor + edge2)
        n1, n2 = norm_sq(edge1), norm_sq(edge2)
        assert tile.vertices == corners
        assert tile.signed_area == cross(edge1, edge2)
        assert tile_area_shoelace(tile) == polygon_area(corners)
        key = (min(n1, n2), max(n1, n2), abs(dot(edge1, edge2)))
        for holder in holders:
            # the tessellation holds the tile's cycle as ints over its scale
            # L, the key as ints over L², and the SVG draws each corner
            # coordinate as its int over L, divided once
            scale, cycle = holder._scale, holder._lattices[holder.tiles.index(tile)]
            assert cycle[0] == scale
            assert _congruence_key(cycle) == tuple(v * scale * scale for v in key)
            floats = [value / scale for value in cycle[1:]]
            assert floats == [float(value) for v in corners for value in (v.x, v.y)]

    @given(wide_pairs())
    def test_tiles_of_int_and_rational_pairs(self, pair):
        tess = build_tessellation(*pair)
        for tile in tess.tiles:
            self.assert_matches_definitions(tile, tess)

    @given(st.builds(Tile, st.just("t"), st.sampled_from(TileClass), *[wide_spinors] * 3))
    def test_hand_built_tiles(self, tile):
        self.assert_matches_definitions(tile)

    def test_hand_built_rational_tile(self):
        anchor, edge1 = Spinor(Fraction(1, 2), 0), Spinor(Fraction(2, 3), 1)
        tile = Tile("t", TileClass.GREEN, anchor, edge1, Spinor(0, 1))
        self.assert_matches_definitions(tile)
        assert tile.vertices[2] == Spinor(Fraction(7, 6), 2)
        assert tile.signed_area == Fraction(2, 3)


def public_tiles(a, b):
    """The fifteen tiles of the pair as ``Tile(...)`` makes them from
    fields built in ``Spinor`` arithmetic, in the order of the layout."""
    c = -(a + b)
    triple, starred = (a, b, c), (star(a), star(b), star(c))
    squares, reds, greens, light_reds = [], [], [], []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        x, y, sx, sz = triple[i], triple[j], starred[i], starred[k]
        nx, ny, nz = "abc"[i], "abc"[j], "abc"[k]
        squares.append(Tile(f"sq_{nx}", TileClass.YELLOW_SQUARE, ZERO, x, sx))
        reds.append(Tile(f"red_{nx}*{ny}", TileClass.RED_CENTRAL, ZERO, sx, y))
        greens.append(Tile(f"green_{nx}{ny}", TileClass.GREEN, sx, x, y))
        greens.append(Tile(f"green_{nz}*{nx}*", TileClass.GREEN, x, sz, sx))
        light_reds.append(Tile(f"lred_{nz}*{ny}", TileClass.LIGHT_RED, x + sx, sz, y))
    return (*squares, *reds, *greens, *light_reds)


def reported(value):
    """A value and its type: equal values of another type differ."""
    return (value, type(value))


@st.composite
def mixed_scale_pairs(draw):
    # one spinor integral and one rational, in either order
    whole = draw(st.builds(Spinor, st.integers(-(10**12), 10**12), st.integers(-(10**12), 10**12)))
    pair = (whole, draw(rational_spinors))
    if draw(st.booleans()):
        pair = pair[::-1]
    assume(cross(*pair) != 0)
    return pair


class TestBuiltTilesMatchPublicTiles:
    """``build_tessellation`` makes every tile on the pair's scale and
    hands it its integer form; each must be the tile ``Tile(...)`` makes
    from the same fields, and a tessellation of tiles made by
    ``Tile(...)``, each on a scale of its own, must write the same JSON
    and SVG and report the same values, of the same types."""

    @staticmethod
    def assert_matches_public_tiles(a, b):
        tess = build_tessellation(a, b)
        assert tess.c == -(a + b)
        references = public_tiles(a, b)
        for tile, reference in zip(tess.tiles, references, strict=True):
            public = Tile(tile.label, tile.tile_class, tile.anchor, tile.edge1, tile.edge2)
            # the fields are those of the layout's definition
            assert tile == reference and hash(tile) == hash(reference)
            for other in (public, reference):
                assert tile == other and other == tile
                assert hash(tile) == hash(other)
                assert reported(tile.signed_area) == reported(other.signed_area)
                assert tile.vertices[1:] == other.vertices[1:]
                assert [reported(v) for p in tile.vertices[1:] for v in (p.x, p.y)] == [
                    reported(v) for p in other.vertices[1:] for v in (p.x, p.y)
                ]
                assert reported(tile_area_shoelace(tile)) == reported(tile_area_shoelace(other))
            assert repr(tile) == repr(public)
            assert tile.vertices == public.vertices
        arrows = RenderOptions(show_spinor_arrows=True, show_labels=False)
        for tiles in (references, tuple(Tile(t.label, t.tile_class, t.anchor, t.edge1, t.edge2) for t in tess.tiles)):
            assembled = Tessellation(a=tess.a, b=tess.b, c=tess.c, tiles=tiles)
            assert assembled == tess
            assert json.dumps(tessellation_to_json_dict(assembled)) == json.dumps(tessellation_to_json_dict(tess))
            assert render_tessellation(assembled) == render_tessellation(tess)
            assert render_tessellation(assembled, arrows) == render_tessellation(tess, arrows)
            # the readers report the same values, of the same types: repr
            # tells an int from an equal Fraction
            for reader in (summarize, butterfly_areas, observation_constant):
                ours, built = reader(assembled), reader(tess)
                assert ours == built and repr(ours) == repr(built)
            assert check_observations(assembled) == check_observations(tess)

    @given(wide_pairs())
    def test_wide_pairs(self, pair):
        self.assert_matches_public_tiles(*pair)

    @given(mixed_scale_pairs())
    def test_pairs_of_an_integral_and_a_rational_spinor(self, pair):
        self.assert_matches_public_tiles(*pair)

    def test_tiles_of_a_pair_have_mixed_own_scales(self):
        a, b = Spinor(Fraction(1, 2), 0), Spinor(-3, 2)
        self.assert_matches_public_tiles(a, b)
        assert {t._lattice[0] for t in public_tiles(a, b)} == {1, 2}
        assert {t._lattice[0] for t in build_tessellation(a, b).tiles} == {2}

    def test_equal_areas_share_one_reported_value(self):
        tess = build_tessellation(Spinor(Fraction(1, 2), Fraction(2, 3)), Spinor(-1, Fraction(2, 5)))
        greens = [t.signed_area for t in tess.tiles[6:12]]
        assert all(area is greens[0] for area in greens)
        # light red i repeats red i + 1
        for i, j in ((0, 1), (1, 2), (2, 0)):
            assert tess.tiles[12 + i].signed_area is tess.tiles[3 + j].signed_area
        report = summarize(tess)
        assert report.green_area is greens[0] is report.midcircle_abc
        # each reader reports a value built once per tessellation
        assert summarize(tess).curvature_d is report.curvature_d is butterfly_areas(tess)[0]


class TestTileAreasAreCurvatures:
    """The paper's link at every magnitude: each tile's area is the cross
    product of the edges of its own vertex cycle, and the central reds
    and greens give the curvatures ``from_spinor_pair`` computes."""

    @staticmethod
    def assert_tiles_give_curvatures(a, b):
        tess = build_tessellation(a, b)
        for tile in tess.tiles:
            _, x0, y0, x1, y1, _, _, x3, y3 = tile._lattice
            assert tile._cross == (x1 - x0) * (y3 - y0) - (x3 - x0) * (y1 - y0)
        report, family = summarize(tess), from_spinor_pair(a, b)
        # repr tells an int from an equal Fraction
        assert report.red_areas == family.shared_curvatures
        assert repr(report.red_areas) == repr(family.shared_curvatures)
        assert {report.curvature_d, report.curvature_d_prime} == {family.d1, family.d2}

    @given(wide_pairs())
    def test_wide_pairs(self, pair):
        self.assert_tiles_give_curvatures(*pair)

    @given(mixed_scale_pairs())
    def test_pairs_of_an_integral_and_a_rational_spinor(self, pair):
        self.assert_tiles_give_curvatures(*pair)


class TestFigureAreas:
    def test_summary_values(self, figure):
        report = summarize(figure)
        assert report.square_areas == (9, 5, 8)
        assert report.red_areas == (2, 6, 3)
        assert report.green_area == 6
        assert report.light_red_areas == (2, 6, 3)
        assert report.curvature_d == 23
        assert report.curvature_d_prime == -1
        assert report.midcircle_abc == 6
        assert report.midcircles_with_d == (15, 11, 14)
        assert report.midcircles_with_d_prime == (3, -1, 2)
        assert report.descartes_residual_d == 0
        assert report.descartes_residual_d_prime == 0
        assert not report.has_overlap

    def test_butterflies_all_equal_d(self, figure):
        assert butterfly_areas(figure) == (23, 23, 23)

    def test_observation_constant(self, figure):
        assert observation_constant(figure) == 11

    def test_total_area(self, figure):
        assert sum(t.signed_area for t in figure.tiles) == 80

    def test_all_observations_pass(self, figure):
        results = check_observations(figure)
        assert len(results) == 5
        assert all(r.passed for r in results)
        assert [r.name for r in results] == [
            "greens_equal_area",
            "greens_pair_up_congruent",
            "light_reds_congruent_to_reds",
            "square_equals_adjacent_reds",
            "square_plus_opposite_red_constant",
        ]


class TestObservationsCanFail:
    """Each observation reads the tiles of its roles: a tile of another
    area in a role fails the observations that read that role, and only
    those."""

    @staticmethod
    def swapped(tess, index):
        # the tile at ``index`` with its second edge doubled: same label
        # and class, twice the area
        tiles = list(tess.tiles)
        old = tiles[index]
        tiles[index] = Tile(old.label, old.tile_class, old.anchor, old.edge1, old.edge2 + old.edge2)
        return Tessellation(a=tess.a, b=tess.b, c=tess.c, tiles=tuple(tiles))

    def verdicts(self, tess, index):
        return {r.name: r.passed for r in check_observations(self.swapped(tess, index))}

    def test_figure_witnesses(self, figure):
        assert [r.witness for r in check_observations(figure)] == [
            "areas ['6']",
            "each plain green matches its starred partner",
            "light [(5, 8, 6), (5, 9, 6), (8, 9, 6)] vs central [(5, 8, 6), (5, 9, 6), (8, 9, 6)]",
            "sq_a: 9 vs 9; sq_b: 5 vs 5; sq_c: 8 vs 8",
            "sums ['11', '11', '11'], reds total 11",
        ]

    def test_a_green_of_another_area_fails(self, figure):
        assert figure.tiles[6].label == "green_ab"
        assert self.verdicts(figure, 6) == {
            "greens_equal_area": False,
            "greens_pair_up_congruent": False,
            "light_reds_congruent_to_reds": True,
            "square_equals_adjacent_reds": True,
            "square_plus_opposite_red_constant": True,
        }

    def test_summary_refuses_greens_of_two_areas(self, figure):
        # a typed error, not an assert, so that it holds under python -O
        with pytest.raises(InconsistentTiles) as caught:
            summarize(self.swapped(figure, 6))
        assert str(caught.value) == (
            "the six greens must share one area, got green_ab 12, green_c*a* 6, "
            "green_bc 6, green_a*b* 6, green_ca 6, green_b*c* 6"
        )

    def test_a_central_red_of_another_area_fails(self, figure):
        assert figure.tiles[3].label == "red_a*b"
        assert self.verdicts(figure, 3) == {
            "greens_equal_area": True,
            "greens_pair_up_congruent": True,
            "light_reds_congruent_to_reds": False,
            "square_equals_adjacent_reds": False,
            "square_plus_opposite_red_constant": False,
        }


class TestUnitPair:
    def test_summary_values(self):
        report = summarize(build_tessellation(Spinor(1, 0), Spinor(0, 1)))
        assert report.square_areas == (1, 1, 2)
        assert report.red_areas == (1, 1, 0)
        assert report.green_area == 1
        assert report.curvature_d == 4
        assert report.curvature_d_prime == 0
        assert report.midcircles_with_d == (2, 2, 3)
        assert report.midcircles_with_d_prime == (0, 0, 1)


class TestAreaRoutes:
    def test_three_routes_agree_on_figure(self, figure):
        for tile in figure.tiles:
            by_shoelace = tile_area_shoelace(tile)
            by_pick = tile_area_pick(tile)
            assert tile.signed_area == by_shoelace == by_pick

    def test_pick_counts_for_known_square(self, figure):
        # 3x3 axis-aligned square: 4 interior and 12 boundary points
        assert tile_area_pick(figure.tile("sq_a")) == 9

    def test_pick_rejects_fractional_vertices(self):
        tile = Tile("t", TileClass.GREEN, Spinor(Fraction(1, 2), 0), Spinor(1, 0), Spinor(0, 1))
        with pytest.raises(NonIntegralVertices):
            tile_area_pick(tile)
        # an integer anchor with a fractional edge
        tile = Tile("t", TileClass.GREEN, Spinor(2, -1), Spinor(1, Fraction(1, 3)), Spinor(0, 1))
        with pytest.raises(NonIntegralVertices):
            tile_area_pick(tile)
        # fractional and folded: the vertices are refused first
        tile = Tile("t", TileClass.GREEN, ZERO, Spinor(0, Fraction(1, 2)), Spinor(1, 0))
        assert tile.signed_area < 0
        with pytest.raises(NonIntegralVertices):
            tile_area_pick(tile)
        # whole values spelled as fractions are integer points
        one = Fraction(1, 1)
        tile = Tile("t", TileClass.GREEN, Spinor(-one, one), Spinor(2 * one, one), Spinor(-one, 3 * one))
        assert tile._lattice[0] == 1
        assert tile_area_pick(tile) == 7

    def test_pick_rejects_negative_orientation(self):
        tile = Tile("t", TileClass.GREEN, ZERO, Spinor(0, 1), Spinor(1, 0))
        with pytest.raises(NegativeOrientation):
            tile_area_pick(tile)

    @given(
        st.builds(
            Tile,
            st.just("t"),
            st.just(TileClass.GREEN),
            st.builds(Spinor, st.integers(-6, 6), st.integers(-6, 6)),
            int_spinors,
            int_spinors,
        ).filter(lambda t: cross(t.edge1, t.edge2) > 0)
    )
    def test_pick_matches_shoelace_on_lattice_parallelograms(self, tile):
        assert tile_area_pick(tile) == tile_area_shoelace(tile) == tile.signed_area

    @given(lattice_tiles)
    def test_pick_counts_match_the_point_by_point_count(self, tile):
        assert _pick_counts(tile) == brute_pick_counts(tile)
        assert tile_area_pick(tile) == tile.signed_area

    def test_pick_counts_match_on_the_benchmark_pairs(self):
        inputs = _bench_inputs()
        tiles = 0
        for seed in (1, 2, 3):
            for kind, a_text, b_text in inputs.tess_pairs(seed):
                a, b = Spinor.parse(a_text), Spinor.parse(b_text)
                if kind != "small" or not inputs.fully_positive((a.x, a.y), (b.x, b.y)):
                    continue
                for tile in build_tessellation(a, b).tiles:
                    assert _pick_counts(tile) == brute_pick_counts(tile), (a_text, b_text, tile.label)
                    tiles += 1
        assert tiles == 3 * 60 * 15

    def test_pick_on_the_integer_tile_of_a_partly_rational_pair(self):
        # every tile is made on the pair's scale, 2: sq_b has integer
        # corners on that scale and is counted, the other fourteen have
        # a corner off the integer lattice
        tess = build_tessellation(Spinor(Fraction(1, 2), 0), Spinor(-3, 2))
        picked = {}
        for tile in tess.tiles:
            assert tile._lattice[0] == 2
            try:
                picked[tile.label] = tile_area_pick(tile)
            except NonIntegralVertices:
                picked[tile.label] = None
        assert picked == {tile.label: None for tile in tess.tiles} | {"sq_b": 13}
        assert _pick_counts(tess.tile("sq_b")) == brute_pick_counts(tess.tile("sq_b")) == (12, 4)

    @given(partly_rational_pairs())
    def test_pick_on_partly_rational_pairs(self, pair):
        # a tile with integer corners is counted whatever the pair's
        # scale; any other is refused, before its orientation is read
        for tile in build_tessellation(*pair).tiles:
            integer = all(value.denominator == 1 for v in tile.vertices for value in (v.x, v.y))
            if not integer:
                with pytest.raises(NonIntegralVertices):
                    tile_area_pick(tile)
            elif tile.signed_area <= 0:
                with pytest.raises(NegativeOrientation):
                    tile_area_pick(tile)
            else:
                assert _pick_counts(tile) == brute_pick_counts(tile)
                assert tile_area_pick(tile) == tile.signed_area

    def test_pick_counts_a_tall_thin_tile_by_its_one_column(self):
        # area 1 in a bounding box about 2·10^9 rows tall, with one
        # column between its sides: no interior point, and the four
        # corners on the boundary
        tile = Tile("t", TileClass.GREEN, Spinor(-7, 5), Spinor(1, 10**9), Spinor(1, 10**9 + 1))
        assert _pick_counts(tile) == (0, 4)
        assert tile_area_pick(tile) == 1


class TestBoundary:
    def test_figure_vertices_frozen(self, figure):
        expected = [
            (5, -2), (5, 1), (4, 3), (2, 5),
            (-1, 5), (-3, 4), (-5, 2), (-5, -1),
            (-4, -3), (-2, -5), (1, -5), (3, -4),
        ]
        assert [(p.x, p.y) for p in dodecagon_boundary(figure)] == expected

    def test_boundary_area_equals_tile_sum(self, figure):
        assert polygon_area(dodecagon_boundary(figure)) == 80

    @pytest.mark.parametrize("pair", [(Spinor(3, 0), Spinor(-1, 2)), (Spinor(2, 1), Spinor(1, -3))])
    def test_boundary_points_are_tile_vertices_unfolded_and_folded(self, pair):
        tess = build_tessellation(*pair)
        corners = {v for tile in tess.tiles for v in tile.vertices}
        assert set(dodecagon_boundary(tess)) <= corners

    @given(st.one_of(generic_pairs(), wide_pairs()))
    def test_boundary_points_are_tile_vertices(self, pair):
        # x + z⋆ is a corner of the green tile anchored at x, the other
        # three of the light red anchored at x + x⋆; so the tile corners
        # alone bound the drawing
        tess = build_tessellation(*pair)
        corners = {v for tile in tess.tiles for v in tile.vertices}
        assert set(dodecagon_boundary(tess)) <= corners

    @given(generic_pairs())
    def test_tile_sum_equals_boundary_area(self, pair):
        tess = build_tessellation(*pair)
        total = sum(t.signed_area for t in tess.tiles)
        assert total == polygon_area(dodecagon_boundary(tess))


class TestStructure:
    @given(generic_pairs())
    def test_observations_hold_for_any_nondegenerate_pair(self, pair):
        tess = build_tessellation(*pair)
        assert all(r.passed for r in check_observations(tess))

    @given(generic_pairs())
    def test_summary_identities(self, pair):
        a, b = pair
        tess = build_tessellation(a, b)
        report = summarize(tess)
        twist = cross(a, b)
        assert report.green_area == twist
        assert report.curvature_d - report.curvature_d_prime == 4 * twist
        assert report.descartes_residual_d == 0
        assert report.descartes_residual_d_prime == 0
        for square, with_d, with_dp in zip(
            report.square_areas, report.midcircles_with_d, report.midcircles_with_d_prime
        ):
            assert with_d == square + report.green_area
            assert with_dp == square - report.green_area

    @given(generic_pairs())
    def test_butterflies_equal_d(self, pair):
        tess = build_tessellation(*pair)
        d = summarize(tess).curvature_d
        # signed areas make the identity hold for folded layouts too
        assert butterfly_areas(tess) == (d, d, d)

    @given(generic_pairs())
    def test_swapping_generators_preserves_class_area_multisets(self, pair):
        # reds and squares come from symmetric products, so their signed
        # areas survive the swap; greens come from the cross product,
        # which is antisymmetric, so their orientation flips
        a, b = pair
        forward = build_tessellation(a, b)
        backward = build_tessellation(b, a)
        for tile_class in TileClass:
            ours = sorted(t.signed_area for t in forward.tiles_of(tile_class))
            theirs = sorted(t.signed_area for t in backward.tiles_of(tile_class))
            if tile_class is TileClass.GREEN:
                assert ours == sorted(-area for area in theirs)
            else:
                assert ours == theirs

    @pytest.mark.parametrize("pair", [(Spinor(3, 0), Spinor(-1, 2)), (Spinor(3, 1), Spinor(-2, 3))])
    def test_adjacency_labels_match_geometry_for_positive_layouts(self, pair):
        # on layouts with every tile positively oriented, the role-based
        # pairing coincides with literal shared vertices: square i meets
        # its side reds i and i - 1 in two points and its opposite red
        # i + 1 only at 0
        tess = build_tessellation(*pair)
        assert not tess.has_overlap
        reds = tess.tiles[3:6]
        for i, j, k in _CYCLE:
            square = set(tess.tiles[i].vertices)
            for red in (reds[k], reds[i]):
                assert len(square & set(red.vertices)) == 2
            assert square & set(reds[j].vertices) == {ZERO}


class TestOverlap:
    def test_folded_layout_flags_overlap(self):
        tess = build_tessellation(Spinor(2, 1), Spinor(1, -3))
        assert tess.has_overlap
        report = summarize(tess)
        assert report.green_area == -7
        assert report.has_overlap

    def test_rational_generators(self):
        tess = build_tessellation(Spinor(Fraction(3, 2), 0), Spinor(Fraction(-1, 2), 1))
        report = summarize(tess)
        # quarter-scale of the figure layout
        assert report.square_areas == (Fraction(9, 4), Fraction(5, 4), 2)
        assert report.curvature_d == Fraction(23, 4)


class TestJson:
    def test_payload_shape(self, figure):
        payload = tessellation_to_json_dict(figure)
        assert payload["a"] == "3,0"
        assert payload["b"] == "-1,2"
        assert payload["c"] == "-2,-2"
        assert payload["has_overlap"] is False
        assert len(payload["tiles"]) == 15
        first = payload["tiles"][0]
        assert first["label"] == "sq_a"
        assert first["class"] == "yellow_square"
        assert first["vertices"] == ["0,0", "3,0", "3,3", "0,3"]
        assert first["area"] == "9"
        report = payload["report"]
        assert report["curvature_D"] == "23"
        assert report["curvature_Dprime"] == "-1"
        assert report["midcircles_with_D"] == ["15", "11", "14"]
        assert report["descartes_residual_D"] == "0"


# rationals with denominators up to 1e4 and magnitudes up to 1e12
rational_components = st.builds(
    Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**4)
)
rational_spinors = st.builds(Spinor, rational_components, rational_components)


def _whole(value):
    """The value as the package reports it: ``int`` when whole."""
    return value.numerator if value.denominator == 1 else value


def reference_report(tess):
    """The fields of ``summarize``, each value computed in ``Fraction``
    arithmetic from the tile edges."""
    areas = [cross(t.edge1, t.edge2) for t in tess.tiles]
    squares = areas[0:3]
    red_c, red_a, red_b = areas[3:6]
    green = areas[6]
    base = red_a + red_b + red_c
    d, d_prime = base + 2 * green, base - 2 * green

    def residual(fourth):
        total = base + fourth
        return 2 * (red_a**2 + red_b**2 + red_c**2 + fourth**2) - total * total

    return {
        "square_areas": squares,
        "red_areas": [red_a, red_b, red_c],
        "green_area": green,
        "light_red_areas": areas[12:15],
        "curvature_d": d,
        "curvature_d_prime": d_prime,
        "midcircle_abc": green,
        "midcircles_with_d": [s + green for s in squares],
        "midcircles_with_d_prime": [s - green for s in squares],
        "descartes_residual_d": residual(d),
        "descartes_residual_d_prime": residual(d_prime),
    }


def reference_observations(tess):
    """``(name, passed, witness)`` of each observation, from ``Fraction``
    areas and congruence keys."""
    tiles = tess.tiles
    areas = [cross(t.edge1, t.edge2) for t in tiles]

    def key(tile):
        n1, n2 = norm_sq(tile.edge1), norm_sq(tile.edge2)
        values = (min(n1, n2), max(n1, n2), abs(dot(tile.edge1, tile.edge2)))
        return tuple(_whole(v) for v in values)

    greens = sorted(set(str(g) for g in areas[6:12]))
    light = sorted(key(t) for t in tiles[12:15])
    central = sorted(key(t) for t in tiles[3:6])
    sides = [areas[5] + areas[3], areas[3] + areas[4], areas[4] + areas[5]]
    constants = [areas[0] + areas[4], areas[1] + areas[5], areas[2] + areas[3]]
    reds = areas[3] + areas[4] + areas[5]
    return [
        ("greens_equal_area", len(greens) == 1, f"areas {greens}"),
        (
            "greens_pair_up_congruent",
            [key(tiles[i]) for i in (6, 8, 10)] == [key(tiles[i]) for i in (9, 11, 7)],
            "each plain green matches its starred partner",
        ),
        ("light_reds_congruent_to_reds", light == central, f"light {light} vs central {central}"),
        (
            "square_equals_adjacent_reds",
            sides == areas[0:3],
            "; ".join(f"{tiles[i].label}: {areas[i]} vs {sides[i]}" for i in range(3)),
        ),
        (
            "square_plus_opposite_red_constant",
            all(v == reds for v in constants),
            f"sums {[str(v) for v in constants]}, reds total {reds}",
        ),
    ]


# the JSON names of the summary fields whose names differ
_JSON_NAMES = {
    "curvature_d": "curvature_D",
    "curvature_d_prime": "curvature_Dprime",
    "midcircle_abc": "midcircle_ABC",
    "midcircles_with_d": "midcircles_with_D",
    "midcircles_with_d_prime": "midcircles_with_Dprime",
    "descartes_residual_d": "descartes_residual_D",
    "descartes_residual_d_prime": "descartes_residual_Dprime",
}


def reference_json(tess):
    """``tessellation_to_json_dict`` from ``Spinor`` vertices and the
    reference report."""
    tiles = []
    for t in tess.tiles:
        corners = (t.anchor, t.anchor + t.edge1, t.anchor + t.edge1 + t.edge2, t.anchor + t.edge2)
        tiles.append({
            "label": t.label,
            "class": t.tile_class.value,
            "vertices": [v.format() for v in corners],
            "area": str(cross(t.edge1, t.edge2)),
        })
    return {
        "a": tess.a.format(),
        "b": tess.b.format(),
        "c": tess.c.format(),
        "has_overlap": any(cross(t.edge1, t.edge2) < 0 for t in tess.tiles),
        "tiles": tiles,
        "report": {
            _JSON_NAMES.get(name, name): [str(v) for v in value] if isinstance(value, list) else str(value)
            for name, value in reference_report(tess).items()
        },
    }


def assert_reported(ours, reference):
    """Equal as values and as text, and ``int`` exactly when whole."""
    assert list(ours) == list(reference)
    assert [str(v) for v in ours] == [str(v) for v in reference]
    for value in ours:
        assert type(value) is (int if value.denominator == 1 else Fraction)


class TestRationalPairsMatchFractionArithmetic:
    """A rational pair runs on one integer scale per tessellation; every
    reported value must be the one ``Fraction`` arithmetic gives, for
    the pair and for its swap, which folds when the pair does not."""

    @given(rational_spinors, rational_spinors)
    def test_reports_match_the_fraction_reference(self, a, b):
        assume(cross(a, b) != 0)
        for x, y in ((a, b), (b, a)):
            tess = build_tessellation(x, y)
            report = summarize(tess)
            reference = reference_report(tess)
            for name, value in reference.items():
                ours = getattr(report, name)
                if isinstance(value, list):
                    assert_reported(ours, value)
                else:
                    assert_reported([ours], [value])
            overlap = any(cross(t.edge1, t.edge2) < 0 for t in tess.tiles)
            assert report.has_overlap is tess.has_overlap is overlap
            assert_reported(butterfly_areas(tess), [reference["curvature_d"]] * 3)
            reds = sum(cross(t.edge1, t.edge2) for t in tess.tiles[3:6])
            assert_reported([observation_constant(tess)], [reds])
            assert [
                (r.name, r.passed, r.witness) for r in check_observations(tess)
            ] == reference_observations(tess)
            assert tessellation_to_json_dict(tess) == reference_json(tess)

            family = from_spinor_pair(x, y)
            ab, twist = dot(x, y), abs(2 * cross(x, y))
            big_a, big_b = norm_sq(y) + ab, norm_sq(x) + ab
            total = big_a + big_b - ab
            assert_reported(family.quadruple_1.as_tuple(), [big_a, big_b, -ab, total + twist])
            assert_reported(family.quadruple_2.as_tuple(), [big_a, big_b, -ab, total - twist])

    def test_whole_values_of_a_rational_pair_are_ints(self):
        a, b = Spinor.parse("1/2,1/2"), Spinor.parse("3/2,-1/2")
        tess = build_tessellation(a, b)
        report = summarize(tess)
        assert (report.descartes_residual_d, report.descartes_residual_d_prime) == (0, 0)
        assert type(report.descartes_residual_d) is int
        assert type(report.descartes_residual_d_prime) is int
        assert report.midcircles_with_d[2] == 3 and type(report.midcircles_with_d[2]) is int
        family = from_spinor_pair(a, b)
        assert repr(family.quadruple_1) == (
            "DescartesQuadruple(a=3, b=1, c=Fraction(-1, 2), d=Fraction(11, 2))"
        )
        # A + B + C = |a|² + |b|² + a·b is whole for this pair
        whole = build_tessellation(a, Spinor.parse("1/2,-1/2"))
        assert observation_constant(whole) == 1
        assert type(observation_constant(whole)) is int


def _bits_pairs():
    """200 seeded pairs as ``spintile tess`` reads them: small ints, ints
    up to 1e12, rationals with denominators up to 1e4, folded pairs and
    whole values written as fractions."""
    rng = random.Random("tessellation bits")

    def small():
        return rng.randint(-9, 9)

    def huge():
        return rng.randint(-(10**12), 10**12)

    def rational():
        return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))

    def spelled(value):
        # whole values as fractions ("12/4"), the others as p/q
        if isinstance(value, int):
            scale = rng.randint(2, 9)
            return f"{value * scale}/{scale}"
        return str(value)

    kinds = [(small, str)] * 50 + [(huge, str)] * 40 + [(rational, str)] * 50
    kinds += [(small, spelled)] * 20 + [(rational, spelled)] * 10
    for make, text in kinds:
        while True:
            a, b = Spinor(make(), make()), Spinor(make(), make())
            if cross(a, b) != 0:
                break
        yield f"{text(a.x)},{text(a.y)}", f"{text(b.x)},{text(b.y)}"
    folded = 0
    while folded < 30:
        a, b = Spinor(small(), rational()), Spinor(small(), small())
        if cross(a, b) != 0 and build_tessellation(a, b).has_overlap:
            folded += 1
            yield f"{a.x},{a.y}", f"{b.x},{b.y}"


def _mixed_scale_pairs():
    """150 seeded pairs whose tiles do not all share one own scale, as
    ``spintile tess`` reads them: one spinor integral and the other
    rational, every coordinate over a denominator of its own, and whole
    values written as fractions beside rationals."""
    rng = random.Random("mixed-scale tessellation bits")
    denominators = (2, 3, 4, 5, 6, 7, 9, 10, 12, 1009)

    def small():
        return str(rng.randint(-9, 9))

    def rational():
        return str(Fraction(rng.randint(-(10**6), 10**6), rng.choice(denominators)))

    def over_one_of_its_own():
        return f"{rng.randint(-60, 60)}/{rng.choice(denominators)}"

    def spelled():
        # a whole value as a fraction ("12/4") or a rational
        if rng.random() < 0.5:
            scale = rng.randint(2, 9)
            return f"{rng.randint(-40, 40) * scale}/{scale}"
        return rational()

    yield "1/2,0", "-3,2"
    kinds = [(small, rational), (rational, small)] * 25 + [(over_one_of_its_own,) * 2] * 50
    kinds += [(spelled, spelled)] * 49
    for first, second in kinds:
        while True:
            a_text, b_text = f"{first()},{first()}", f"{second()},{second()}"
            if rng.random() < 0.5:
                a_text, b_text = b_text, a_text
            if cross(Spinor.parse(a_text), Spinor.parse(b_text)) != 0:
                break
        yield a_text, b_text


def _tessellation_lines(pairs):
    """The ``tess`` text, ``tess --json`` and two SVGs of each pair."""
    arrows = RenderOptions(show_spinor_arrows=True, show_labels=False)
    for a_text, b_text in pairs:
        for extra in ([], ["--json"]):
            out = io.StringIO()
            with redirect_stdout(out):
                assert run(["tess", f"--a={a_text}", f"--b={b_text}", *extra]) == 0
            yield out.getvalue()
        tess = build_tessellation(Spinor.parse(a_text), Spinor.parse(b_text))
        yield render_tessellation(tess)
        yield render_tessellation(tess, arrows)


class TestTessellationBits:
    """The tessellation outputs are pinned bit for bit: every exact value
    printed by ``tess`` and ``tess --json``, and every SVG coordinate,
    label and viewBox.  A change to the exact arithmetic, to the floats
    drawn from it or to the bounding box shows here."""

    def test_seeded_outputs_digest(self):
        text = "\n".join(_tessellation_lines(_bits_pairs()))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b702fff3e487e75c56e409068cf770413a4c146f46a0cd012289dbeb1f7841f2"
        )

    def test_mixed_scale_outputs_digest(self):
        # pairs whose fifteen tiles have different own scales: each tile
        # is reported on the pair's scale, as each value would be on its own
        text = "\n".join(_tessellation_lines(_mixed_scale_pairs()))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "10b3a4edb5bfd68386bc576d0c59019d7ad94f1b07a8635e87c2fa3d50478824"
        )
