"""Fifteen-tile layouts: exact areas, boundary, and structural facts."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintile import (
    DegenerateInput,
    NegativeOrientation,
    NonIntegralVertices,
    Spinor,
    Tile,
    TileClass,
    build_tessellation,
    butterfly_areas,
    check_observations,
    cross,
    dodecagon_boundary,
    observation_constant,
    polygon_area,
    summarize,
    tessellation_to_json_dict,
    tile_area_pick,
    tile_area_shoelace,
    vertex_set,
)
from spintile.spinors import ZERO

int_spinors = st.builds(Spinor, st.integers(-9, 9), st.integers(-9, 9))


def generic_pairs():
    return st.tuples(int_spinors, int_spinors).filter(lambda p: cross(*p) != 0)


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
        assert tile.vertices is tile.vertices
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
        # pairing coincides with literal shared vertices: a square meets
        # each side red in two points and its opposite red only at 0
        from spintile.tessellation import _OPPOSITE_RED, _SIDE_REDS

        tess = build_tessellation(*pair)
        assert not tess.has_overlap
        for square in tess.tiles_of(TileClass.YELLOW_SQUARE):
            for label in _SIDE_REDS[square.label]:
                shared = vertex_set(square) & vertex_set(tess.tile(label))
                assert len(shared) == 2
            opposite = tess.tile(_OPPOSITE_RED[square.label])
            assert vertex_set(square) & vertex_set(opposite) == {(0, 0)}


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
