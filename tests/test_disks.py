"""Disk geometry: symbols, placement, tangency spinors, the six laws."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from spintile import (
    CollinearTangencyPoints,
    EnumerationJob,
    FloatOverflow,
    NoConsistentPlacement,
    NonPositiveCurvature,
    NotTangent,
    PlacedDisk,
    RenderOptions,
    SpintileError,
    Spinor,
    Symbol,
    ZeroCurvature,
    ZeroRadius,
    circle_through_points,
    cross,
    dot,
    enumerate_records,
    euclid_square,
    from_spinor_pair,
    midcircle_through_tangencies,
    norm_sq,
    place_configuration,
    place_quadruple,
    realize_fourth,
    render_configuration,
    scaled_tolerance,
    symbol_join,
    tangency_point,
    tangency_spinor,
    verify_spinor_laws,
)
from spintile import disks as disks_module
from spintile.disks import _ADD_ORDER, _SEARCHES, _SIGNS, drawable_midcircles

SVG = "{http://www.w3.org/2000/svg}"

# one hand-checkable frame: the (2, 3, 6) triple inscribed in the unit
# circle (curvature -1 about the origin), with 23 in the middle gap
FRAME = {
    -1: PlacedDisk.from_curvature(-1.0, (0.0, 0.0)),
    2: PlacedDisk.from_curvature(2.0, (0.5, 0.0)),
    3: PlacedDisk.from_curvature(3.0, (0.0, 2.0 / 3.0)),
    6: PlacedDisk.from_curvature(6.0, (0.5, 2.0 / 3.0)),
    23: PlacedDisk.from_curvature(23.0, (8.0 / 23.0, 12.0 / 23.0)),
}

FRAME_SYMBOLS = {
    -1: Symbol(0, 0, -1),
    2: Symbol(1, 0, 2),
    3: Symbol(0, 2, 3),
    6: Symbol(3, 4, 6),
    23: Symbol(8, 12, 23),
}


def approx_spinor(actual, expected, tol=1e-12):
    assert actual.u[0] == pytest.approx(expected[0], abs=tol)
    assert actual.u[1] == pytest.approx(expected[1], abs=tol)


class TestScaledTolerance:
    def test_absolute_below_knee(self):
        assert scaled_tolerance(1e-9, 500.0) == 1e-9

    def test_relative_above_knee(self):
        assert scaled_tolerance(1e-9, 2e3) == pytest.approx(2e-9)


class TestSymbol:
    def test_from_center_and_curvature(self):
        s = Symbol.from_center_and_curvature("1/2", 0, 2)
        assert (s.x_dot, s.y_dot, s.beta) == (1, 0, 2)
        assert s.center() == (Fraction(1, 2), 0)
        assert s.radius() == Fraction(1, 2)

    def test_zero_curvature_rejected(self):
        with pytest.raises(ZeroCurvature):
            Symbol(1, 1, 0)

    def test_negative_curvature_center(self):
        s = Symbol.from_center_and_curvature(0, 0, -1)
        assert s.center() == (0, 0)
        assert s.radius() == -1


class TestSymbolJoin:
    @pytest.mark.parametrize(
        "pair, expected",
        [
            ((2, 3), (-3, 4, 5)),
            ((2, 6), (0, 8, 8)),
            ((3, 6), (9, 0, 9)),
            ((2, 23), (-7, 24, 25)),
            ((2, -1), (1, 0, 1)),
            ((3, -1), (0, 2, 2)),
            ((6, -1), (3, 4, 5)),
        ],
    )
    def test_frame_joins_are_pythagorean(self, pair, expected):
        i, j = pair
        triple = symbol_join(FRAME_SYMBOLS[i], FRAME_SYMBOLS[j])
        assert triple.as_tuple() == expected

    @pytest.mark.parametrize(
        "pair, generator",
        [
            ((2, 3), Spinor(1, 2)),
            ((2, 6), Spinor(2, 2)),
            ((3, 6), Spinor(3, 0)),
            ((2, 23), Spinor(3, 4)),
            ((2, -1), Spinor(1, 0)),
            ((3, -1), Spinor(1, 1)),
            ((6, -1), Spinor(2, 1)),
        ],
    )
    def test_join_is_the_squared_tangency_spinor(self, pair, generator):
        i, j = pair
        triple = symbol_join(FRAME_SYMBOLS[i], FRAME_SYMBOLS[j])
        assert triple == euclid_square(generator)

    def test_reversed_join_flips_legs(self):
        triple = symbol_join(FRAME_SYMBOLS[3], FRAME_SYMBOLS[2])
        assert triple.as_tuple() == (3, -4, 5)

    def test_non_tangent_pair_rejected(self):
        with pytest.raises(NotTangent, match="not a Pythagorean triple"):
            symbol_join(FRAME_SYMBOLS[23], FRAME_SYMBOLS[-1])

    def test_internal_tangency_rejected(self):
        outer = Symbol.from_center_and_curvature(0, 0, 1)
        hole = Symbol.from_center_and_curvature("1/2", 0, -2)
        with pytest.raises(NotTangent, match="internal"):
            symbol_join(outer, hole)


class TestPlacedDisk:
    def test_zero_radius_rejected(self):
        with pytest.raises(ZeroRadius):
            PlacedDisk(center=(0.0, 0.0), radius=0.0, curvature=1.0)

    def test_zero_curvature_rejected(self):
        with pytest.raises(ZeroCurvature):
            PlacedDisk.from_curvature(0.0, (0.0, 0.0))

    def test_inconsistent_radius_rejected(self):
        with pytest.raises(ValueError):
            PlacedDisk(center=(0.0, 0.0), radius=0.5, curvature=3.0)

    def test_negative_curvature_round_trip(self):
        disk = PlacedDisk.from_curvature(-1.0, (0.0, 0.0))
        assert disk.radius == -1.0

    @pytest.mark.parametrize(
        "center, radius, curvature",
        [
            ((0.0, 0.0), math.nan, math.nan),
            ((math.inf, 0.0), 1.0, 1.0),
            ((math.nan, 0.0), 1.0, 1.0),
            # an int centre beyond the float range
            ((10**400, 0.0), 1.0, 1.0),
        ],
    )
    def test_non_finite_values_rejected(self, center, radius, curvature):
        with pytest.raises(FloatOverflow):
            PlacedDisk(center=center, radius=radius, curvature=curvature)

    @pytest.mark.parametrize(
        "center", [(0.0, 1.5), (-0.0, 0.0), (0.0, -0.0), (3, -2), (-1e300, 5e-324)]
    )
    def test_stored_centre_is_not_seen(self, center):
        # the complex centre kept for the geometry is no field: equality,
        # hash and repr see the centre as given, signs of zero included
        disk = PlacedDisk(center, 0.5, 2.0)
        assert disk == PlacedDisk(center, 0.5, 2.0)
        assert hash(disk) == hash((center, 0.5, 2.0))
        assert repr(disk) == f"PlacedDisk(center={center!r}, radius=0.5, curvature=2.0)"
        assert disk.center is center
        stored, expected = disk.center_complex(), complex(*center)
        assert stored == expected
        assert [math.copysign(1.0, part) for part in (stored.real, stored.imag)] == [
            math.copysign(1.0, part) for part in (expected.real, expected.imag)
        ]


class TestTangencySpinor:
    @pytest.mark.parametrize(
        "pair, expected",
        [
            ((2, 3), (1.0, 2.0)),
            ((2, 6), (2.0, 2.0)),
            ((3, 6), (3.0, 0.0)),
            ((2, 23), (3.0, 4.0)),
            ((3, 23), (5.0, -1.0)),
            ((6, 23), (2.0, -5.0)),
            ((2, -1), (1.0, 0.0)),
            ((3, -1), (1.0, 1.0)),
            ((6, -1), (2.0, 1.0)),
        ],
    )
    def test_frame_values(self, pair, expected):
        i, j = pair
        spinor = tangency_spinor(FRAME[i], FRAME[j])
        approx_spinor(spinor, expected)

    def test_reversal_multiplies_by_i(self):
        spinor = tangency_spinor(FRAME[3], FRAME[2])
        # i*(1, 2) = (-2, 1), folded to the principal branch (2, -1)
        approx_spinor(spinor, (2.0, -1.0))

    def test_norm_sq_is_curvature_sum(self):
        for i, j in ((2, 3), (3, 6), (2, -1), (6, 23)):
            spinor = tangency_spinor(FRAME[i], FRAME[j])
            assert spinor.norm_sq() == pytest.approx(i + j, abs=1e-12)

    def test_source_labels_carried(self):
        spinor = tangency_spinor(FRAME[2], FRAME[3], source=("A", "C"))
        assert spinor.source == ("A", "C")
        assert spinor.as_complex() == pytest.approx(complex(1, 2))

    def test_non_tangent_pair_rejected(self):
        moved = PlacedDisk.from_curvature(3.0, (0.0, 1.0))
        with pytest.raises(NotTangent):
            tangency_spinor(FRAME[2], moved)

    def test_non_tangent_disks_23_and_minus_1(self):
        with pytest.raises(NotTangent):
            tangency_spinor(FRAME[23], FRAME[-1])

    def test_tangency_is_tested_at_the_library_tolerance(self):
        # a gap off by 1e-6 fails the fixed 1e-9, and no caller loosens it
        nudged = PlacedDisk.from_curvature(3.0, (0.0, 2.0 / 3.0 + 1e-6))
        with pytest.raises(NotTangent, match="exceeds tolerance 1e-09$"):
            tangency_spinor(FRAME[2], nudged)
        with pytest.raises(TypeError):
            tangency_spinor(FRAME[2], nudged, tolerance=1e-3)


class TestTangencyPoint:
    def test_external_pair(self):
        point = tangency_point(FRAME[2], FRAME[3])
        assert point == pytest.approx((0.2, 0.4))

    def test_internal_pair_stays_on_far_side(self):
        point = tangency_point(FRAME[2], FRAME[-1])
        assert point == pytest.approx((1.0, 0.0))

    def test_opposite_radii_rejected(self):
        d1 = PlacedDisk.from_curvature(1.0, (0.0, 0.0))
        d2 = PlacedDisk.from_curvature(-1.0, (3.0, 0.0))
        with pytest.raises(NotTangent):
            tangency_point(d1, d2)


class TestPlacement:
    def test_example_triple(self):
        a, b, c = place_configuration(2, 3, 6)
        assert a.center == (0.0, 0.0)
        assert b.center == pytest.approx((5.0 / 6.0, 0.0))
        assert c.center == pytest.approx((8.0 / 15.0, 2.0 / 5.0))

    def test_fraction_curvatures_accepted(self):
        a, b, c = place_configuration(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        assert b.center == pytest.approx((4.0, 0.0))
        assert c.center[1] > 0

    # a value that does not compare with 0, such as "a", is not positive
    @pytest.mark.parametrize("bad", [(2, 3, 0), (2, 3, -1), (0, 0, 0), ("a", 1, 1), (1, None, 1)])
    def test_non_positive_curvature_rejected(self, bad):
        with pytest.raises(NonPositiveCurvature):
            place_configuration(*bad)

    def test_realize_larger_root(self):
        placed = place_configuration(2, 3, 6)
        fourth = realize_fourth(placed, 23)
        for disk in placed:
            gap = abs(fourth.center_complex() - disk.center_complex())
            assert gap == pytest.approx(disk.radius + fourth.radius, abs=1e-12)

    def test_realize_smaller_root_with_negative_curvature(self):
        placed = place_configuration(2, 3, 6)
        fourth = realize_fourth(placed, -1)
        assert fourth.center == pytest.approx((0.3, -0.4))
        for disk in placed:
            gap = abs(fourth.center_complex() - disk.center_complex())
            assert gap == pytest.approx(abs(disk.radius + fourth.radius), abs=1e-12)

    def test_realize_judges_each_candidate_by_all_three_disks(self):
        # the on-axis candidate touches disk 20 exactly but misses 105
        # and 48; the crossing misses 20 only by rounding, so it wins
        placed = place_configuration(105, 48, 20)
        fourth = realize_fourth(placed, -7)
        for disk in placed:
            gap = abs(fourth.center_complex() - disk.center_complex())
            assert gap == pytest.approx(abs(disk.radius + fourth.radius), rel=1e-12, abs=0)

    def test_realize_rejects_non_root(self):
        placed = place_configuration(2, 3, 6)
        with pytest.raises(NoConsistentPlacement):
            realize_fourth(placed, 7)

    def test_realize_takes_no_tolerance(self):
        # placement tests tangency at the library default; a caller's
        # tolerance grades only the laws of verify_spinor_laws
        placed = place_configuration(2, 3, 6)
        with pytest.raises(TypeError):
            realize_fourth(placed, 23, tolerance=1e-3)

    def test_realize_rejects_zero_curvature(self):
        placed = place_configuration(2, 3, 6)
        with pytest.raises(ZeroCurvature):
            realize_fourth(placed, 0)

    def test_quadruple_comes_back_in_input_order(self):
        # -1 is realized against the three positive curvatures after it
        disks = place_quadruple((-1, 2, 3, 6))
        assert tuple(disk.curvature for disk in disks) == (-1.0, 2.0, 3.0, 6.0)
        placed = place_configuration(2, 3, 6)
        assert disks[1:] == placed
        assert disks[0] == realize_fourth(placed, -1)

    def test_quadruple_needs_three_positive_curvatures(self):
        with pytest.raises(
            NonPositiveCurvature,
            match="^need at least three positive curvatures to place a configuration$",
        ):
            place_quadruple((-1, 0, 1, 1))

    def test_quadruple_needs_four_curvatures(self):
        with pytest.raises(ValueError, match="need 4 curvatures, got 3"):
            place_quadruple((2, 3, 6))


class TestMidcircles:
    def test_inner_triple(self):
        mid = midcircle_through_tangencies(FRAME[2], FRAME[3], FRAME[6])
        assert mid.curvature == pytest.approx(6.0, abs=1e-12)
        assert mid.center == pytest.approx((1.0 / 3.0, 0.5))

    def test_triple_with_outer_circle(self):
        mid = midcircle_through_tangencies(FRAME[2], FRAME[3], FRAME[-1])
        assert mid.curvature == pytest.approx(1.0, abs=1e-12)
        assert mid.center == pytest.approx((1.0, 1.0))

    def test_drawable_midcircles_compute_each_tangency_point_once(self, monkeypatch):
        disks = place_quadruple([2, 3, 6, 23])
        expected = [
            midcircle_through_tangencies(*(d for i, d in enumerate(disks) if i != skip)) for skip in range(4)
        ]
        calls = []
        point = disks_module._tangency_point
        monkeypatch.setattr(disks_module, "_tangency_point", lambda *args: calls.append(args) or point(*args))
        assert drawable_midcircles(disks, "ABCD") == expected
        assert len(calls) == 6
        assert drawable_midcircles(disks[:3], "ABC") == expected[3:]
        # a drawing of fewer than three or more than four disks has none
        assert drawable_midcircles(disks[:2], "AB") == drawable_midcircles(disks + disks[:1], "ABCDA") == []

    @pytest.mark.parametrize(
        "circle",
        [
            ((1.0 / 3.0, 0.5), 1.0 / 6.0),
            ((-2.5e7, 1e-9), 3e-12),
            ((0.0, 0.0), 1.5e308),
            ((0.0, 0.0), math.inf),  # curvature 0
            ((0.0, 0.0), 5e-324),  # curvature beyond the float range
            ((math.inf, 0.0), 1.0),
            ((0.0, math.nan), 1.0),
            ((math.nan, math.nan), math.nan),
            ((0.0, 0.0), 0.0),  # 1 / radius divides by zero
        ],
    )
    def test_the_law_check_curvature_is_the_placed_midcircle_curvature(self, monkeypatch, circle):
        # thm3 reads 1 / radius without placing the midcircle: the value,
        # or the error and its message, of the placed disk's curvature
        monkeypatch.setattr(disks_module, "circle_through_points", lambda *points: circle)
        points = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        outcomes = []
        for curvature in (lambda: disks_module._midcircle(*points).curvature,
                          lambda: disks_module._midcircle_curvature(*points)):
            try:
                outcomes.append(("value", curvature()))
            except (SpintileError, ZeroDivisionError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_the_law_check_places_no_midcircle(self, monkeypatch):
        disks = place_quadruple([2, 3, 6, 23])
        expected = verify_spinor_laws(disks).law_residuals
        monkeypatch.setattr(disks_module, "_midcircle", None)
        assert verify_spinor_laws(disks).law_residuals == expected

    def test_collinear_points_rejected(self):
        with pytest.raises(CollinearTangencyPoints):
            circle_through_points((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))

    def test_circle_through_points_example(self):
        center, radius = circle_through_points((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0))
        assert center == pytest.approx((0.0, 0.0), abs=1e-12)
        assert radius == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "points",
        [
            ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)),
            # a triangle of doubled area about 1e-14 inside the unit box
            ((0.3, 0.1), (0.3 + 1e-7, 0.1), (0.3, 0.1 + 1e-7)),
            ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)),
            ((0.5, -0.5), (0.5, -0.5), (0.5, -0.5)),
        ],
    )
    def test_circle_through_points_at_every_scale(self, points):
        # a power of 4 scales floats exactly, so the circle through the
        # scaled points is the scaled circle bit for bit, or there is
        # none at any scale
        try:
            (ux, uy), radius = circle_through_points(*points)
        except CollinearTangencyPoints:
            radius = None
        for m in range(-30, 31):
            k = 4.0**m
            scaled = [(x * k, y * k) for x, y in points]
            if radius is None:
                with pytest.raises(CollinearTangencyPoints):
                    circle_through_points(*scaled)
            else:
                assert circle_through_points(*scaled) == ((ux * k, uy * k), radius * k)

    def test_line_oracle_over_scales(self):
        # thm3's circle through a triple's tangency points has curvature
        # sqrt(β1β2 + β2β3 + β3β1), and is a line exactly when that sum is
        # 0: the closed form is the oracle, from scale 1e-6 to 1e12
        rng = random.Random("midcircle line oracle")
        families = lines = 0
        while families < 400:
            a = Spinor(rng.randint(-30, 30), rng.randint(-30, 30))
            b = Spinor(rng.randint(-30, 30), rng.randint(-30, 30))
            if cross(a, b) == 0:
                continue
            families += 1
            family = from_spinor_pair(a, b)
            for root in (family.d1, family.d2):
                quadruple = (*family.shared_curvatures, root)
                if 0 in quadruple:  # a line, not a disk, to place
                    continue
                for e in (-6, -3, 0, 3, 6, 9, 12):
                    scale = Fraction(10) ** e
                    disks = place_quadruple([scale * v for v in quadruple])
                    bound = 1e-9 * float(scale) * max(abs(v) for v in quadruple)
                    for triple in combinations(range(4), 3):
                        b1, b2, b3 = (quadruple[i] for i in triple)
                        square = b1 * b2 + b2 * b3 + b3 * b1
                        where = (quadruple, e, triple)
                        if square == 0:
                            lines += 1
                            with pytest.raises(CollinearTangencyPoints):
                                midcircle_through_tangencies(*(disks[i] for i in triple))
                            continue
                        mid = midcircle_through_tangencies(*(disks[i] for i in triple))
                        expected = float(scale) * math.sqrt(square)
                        assert abs(mid.curvature - expected) <= bound, where
        assert lines > 0


class TestSpinorLaws:
    @pytest.mark.parametrize("fourth", [23, -1])
    def test_figure_configurations_pass(self, fourth):
        placed = place_configuration(2, 3, 6)
        disks = placed + (realize_fourth(placed, fourth),)
        report = verify_spinor_laws(disks)
        assert report.passed
        assert set(report.law_residuals) == {
            "prop1",
            "thm2",
            "thm3",
            "thm4_curl",
            "thm5a_div",
            "thm5b_add",
        }
        assert all(value <= 1e-9 for value in report.law_residuals.values())
        assert len(report.spinors) == 6

    def test_frame_configuration_passes(self):
        report = verify_spinor_laws(
            [FRAME[2], FRAME[3], FRAME[6], FRAME[23]], labels=("A", "C", "B", "D")
        )
        assert report.passed
        assert report.scale == 23.0

    def test_degenerate_midcircle_handled_as_line(self):
        # (2, 2, 3) with fourth root -1: the triple (2, 2, -1) has its
        # three tangency points on one line, so the circle through them
        # degenerates; the dot law still holds with curvature zero
        placed = place_configuration(2, 2, 3)
        disks = placed + (realize_fourth(placed, -1),)
        with pytest.raises(CollinearTangencyPoints):
            midcircle_through_tangencies(placed[0], placed[1], disks[3])
        report = verify_spinor_laws(disks)
        assert report.passed

    def test_fourth_center_on_the_axis_of_the_first_two(self):
        # (3, 6, 7) with fourth root -2: the fourth center sits exactly
        # on the line through the first two centers, so the two center
        # loci are internally tangent instead of crossing; rounding in
        # the height term must not push the candidate off the axis
        placed = place_configuration(3, 6, 7)
        fourth = realize_fourth(placed, -2)
        assert fourth.center[1] == pytest.approx(0.0, abs=1e-12)
        report = verify_spinor_laws(placed + (fourth,))
        assert report.passed
        assert max(report.law_residuals.values()) < 1e-11

    def test_tight_tolerance_grades_instead_of_rejecting(self):
        # an unreachable tolerance must still produce a graded report:
        # structure detection keeps the default floor, the verdict
        # reflects the honest residuals
        placed = place_configuration(2, 3, 6)
        disks = placed + (realize_fourth(placed, 23),)
        report = verify_spinor_laws(disks, tolerance=1e-18)
        assert not report.passed
        assert len(report.law_residuals) == 6

    def test_tampered_configuration_fails(self):
        placed = place_configuration(2, 3, 6)
        fourth = realize_fourth(placed, 23)
        nudged = PlacedDisk.from_curvature(
            23.0, (fourth.center[0] + 1e-2, fourth.center[1])
        )
        report = verify_spinor_laws(placed + (nudged,), tolerance=5e-2)
        assert not report.passed

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1e-9])
    def test_a_tolerance_that_is_not_positive_and_finite_is_refused(self, tolerance):
        # D 70 units off A: graded at inf it would pass, and at nan no
        # tangency would be refused and the report would hold NaN
        placed = place_configuration(2, 3, 6)
        moved = PlacedDisk.from_curvature(23.0, (50.0, 50.0))
        message = f"tolerance must be a positive finite number, got {tolerance!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_spinor_laws(placed + (moved,), tolerance)

    def test_json_payload(self):
        placed = place_configuration(2, 3, 6)
        report = verify_spinor_laws(placed + (realize_fourth(placed, 23),))
        payload = report.to_json_dict()
        assert [entry["label"] for entry in payload["disks"]] == ["A", "B", "C", "D"]
        assert payload["passed"] is True
        assert payload["tolerance"] == 1e-9
        assert len(payload["spinors"]) == 6
        assert payload["spinors"][0]["pair"] == ["A", "B"]
        assert set(payload["law_residuals"]) == set(report.law_residuals)
        assert payload["sign_assignment"]


def _seeded_curvatures():
    """A fixed seeded set of quadruples: 200 families with |entry| <= 30,
    both roots, each at scale 1, 1e-6 and 1e6."""
    rng = random.Random("verify_spinor_laws report bits")
    families = 0
    while families < 200:
        a = Spinor(rng.randint(-30, 30), rng.randint(-30, 30))
        b = Spinor(rng.randint(-30, 30), rng.randint(-30, 30))
        if cross(a, b) == 0:
            continue
        families += 1
        family = from_spinor_pair(a, b)
        for root in (family.d1, family.d2):
            for scale in (1, Fraction(1, 10**6), 10**6):
                yield [scale * v for v in (*family.shared_curvatures, root)]


def _report_lines():
    """One line per report (or error) over ``_seeded_curvatures``,
    placed as ``spintile verify`` places them and graded at three
    tolerances."""
    for curvatures in _seeded_curvatures():
        try:
            disks = place_quadruple(curvatures)
            for tolerance in (1e-18, 1e-9, 5e-2):
                report = verify_spinor_laws(disks, tolerance)
                yield json.dumps(report.to_json_dict())
        except SpintileError as exc:
            yield f"{type(exc).__name__}: {exc}"


class TestReportBits:
    """The law check's reports are pinned bit for bit: every residual,
    spinor component (with the sign of zero), sign choice and its key
    order, verdict and error message.  A change to the arithmetic, or
    to the order of its floating-point operations, shows here."""

    def test_seeded_reports_digest(self):
        text = "\n".join(_report_lines())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "00201ac68d3c309d9aa2730e4da83dc86550fb11ab5e9f6c15790f1447a21572"
        )

    def test_figure_quadruple_residuals_and_signs(self):
        placed = place_configuration(2, 3, 6)
        report = verify_spinor_laws(placed + (realize_fourth(placed, 23),))
        assert {name: repr(value) for name, value in report.law_residuals.items()} == {
            "prop1": "7.105427357601002e-15",
            "thm2": "3.552713678800501e-15",
            "thm3": "4.973799150320701e-14",
            "thm4_curl": "9.930136612989092e-16",
            "thm5a_div": "9.485749680535094e-16",
            "thm5b_add": "9.485749680535094e-16",
        }
        assert list(report.law_residuals) == [
            "prop1", "thm2", "thm3", "thm4_curl", "thm5a_div", "thm5b_add"
        ]
        assert list(report.sign_assignment.items()) == [
            ("thm4_curl[BCD]", "+BC +1·CD -1·DB"),
            ("thm4_curl[ACD]", "+AC -1·CD +1·DA"),
            ("thm4_curl[ABD]", "+AB -1·BD -1·DA"),
            ("thm4_curl[ABC]", "+AB -1·BC -1·CA"),
            ("thm5a_div[->A]", "+B -1·C +1·D"),
            ("thm5a_div[->B]", "+A +1·C -1·D"),
            ("thm5a_div[->C]", "+A +1·B -1·D"),
            ("thm5a_div[->D]", "+A -1·B -1·C"),
            ("thm5b_add[A->B]", "-1·AC +1·AD"),
            ("thm5b_add[A->C]", "-1·AB +1·AD"),
            ("thm5b_add[A->D]", "+1·AB +1·AC"),
            ("thm5b_add[B->A]", "-1·BC +1·BD"),
            ("thm5b_add[B->C]", "-1·BA +1·BD"),
            ("thm5b_add[B->D]", "+1·BA +1·BC"),
            ("thm5b_add[C->A]", "-1·CB +1·CD"),
            ("thm5b_add[C->B]", "-1·CA +1·CD"),
            ("thm5b_add[C->D]", "+1·CA +1·CB"),
            ("thm5b_add[D->A]", "+1·DB -1·DC"),
            ("thm5b_add[D->B]", "+1·DA +1·DC"),
            ("thm5b_add[D->C]", "-1·DA +1·DB"),
        ]
        # A and B sit on the x axis: the imaginary part is +0.0, not -0.0
        assert [(s.source, repr(s.u)) for s in report.spinors] == [
            (("A", "B"), "(2.23606797749979, 0.0)"),
            (("A", "C"), "(2.6832815729997477, 0.8944271909999159)"),
            (("A", "D"), "(4.919349550499537, 0.8944271909999162)"),
            (("B", "C"), "(1.3416407864998738, 2.6832815729997477)"),
            (("B", "D"), "(1.341640786499874, 4.919349550499538)"),
            (("C", "D"), "(3.577708763999663, -4.024922359499621)"),
        ]

    @pytest.mark.parametrize(
        "moved, message",
        [
            (0, "center gap 0.33333333333333326 vs |r1+r2| 0.8333333333333333"),
            (1, "center gap 1.3333333333333333 vs |r1+r2| 0.8333333333333333"),
            (2, "center gap 1.1080513425729772 vs |r1+r2| 0.6666666666666666"),
            (3, "center gap 1.026676323001422 vs |r1+r2| 0.5434782608695652"),
        ],
    )
    def test_non_tangent_input_names_the_first_failing_pair(self, moved, message):
        placed = place_configuration(2, 3, 6)
        disks = list(placed + (realize_fourth(placed, 23),))
        x, y = disks[moved].center
        disks[moved] = PlacedDisk.from_curvature(disks[moved].curvature, (x + 0.5, y))
        with pytest.raises(NotTangent) as caught:
            verify_spinor_laws(disks)
        assert str(caught.value) == f"{message} exceeds tolerance 1e-09"

    def test_wrong_argument_lengths_rejected(self):
        placed = place_configuration(2, 3, 6)
        with pytest.raises(ValueError, match="3 disks and 5 labels"):
            verify_spinor_laws(placed, labels=("A", "B", "C", "D", "E"))


# labels a payload may hold: XML's reserved characters, a format
# character and the text of a negative zero, which stay as written
ODD_LABELS = ("&", "<b>", "50%", "-0.000000000000")


def _configuration_svg_lines():
    """Each quadruple of ``_seeded_curvatures`` placed by ``place_quadruple``
    and drawn with its midcircles (a line triple left out, as ``render
    --midcircles`` does) and with none, labels on and off, with no labels,
    the default ones and ``ODD_LABELS``; then its first three disks alone."""
    default = ("A", "B", "C", "D")
    for curvatures in _seeded_curvatures():
        try:
            disks = place_quadruple(curvatures)
            midcircles = []
            for skip in range(4):
                with contextlib.suppress(CollinearTangencyPoints):
                    midcircles.append(
                        midcircle_through_tangencies(*(d for i, d in enumerate(disks) if i != skip))
                    )
            for drawn, labels in ((disks, default), (disks[:3], default[:3])):
                for mids in (midcircles[len(disks) - len(drawn) :], ()):
                    for options in (RenderOptions(), RenderOptions(show_labels=False)):
                        for given in (None, labels, ODD_LABELS[: len(drawn)]):
                            yield render_configuration(drawn, mids, options, given)
        except SpintileError as exc:
            yield f"{type(exc).__name__}: {exc}"


class TestConfigurationBits:
    """The configuration drawing and the sign texts of the law check are
    pinned bit for bit: every circle, dash, label, font size and viewBox,
    and every sign key and text for labels other than A, B, C, D."""

    def test_seeded_svg_digest(self):
        digest = hashlib.sha256()
        for line in _configuration_svg_lines():
            digest.update(line.encode())
            digest.update(b"\n")
        assert digest.hexdigest() == (
            "8a7ed1dd1003db15ccaf917637c9b9b76f482df8baf53582bf9b0aa7d03225b0"
        )

    def test_odd_labels_keep_their_text(self):
        disks = place_quadruple([2, 3, 6, 23])
        document = render_configuration(disks, (), RenderOptions(), ODD_LABELS)
        texts = [element.text for element in ET.fromstring(document).iter(f"{SVG}text")]
        assert texts == ["&=2", "<b>=3", "50%=6", "-0.000000000000=23"]

    def test_seeded_sign_assignments_for_other_labels(self):
        labels = ("P", "Qq", "&", "-0")
        lines = []
        for curvatures in _seeded_curvatures():
            with contextlib.suppress(SpintileError):
                report = verify_spinor_laws(place_quadruple(curvatures), labels=labels)
                lines.append(json.dumps(list(report.sign_assignment.items())))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "8d480d2d4dd0dd2f5e4045daa94d7e69b22ec23b9d68e2baaf5fe21159038cb8"

    def test_figure_sign_assignment_for_other_labels(self):
        report = verify_spinor_laws(place_quadruple([2, 3, 6, 23]), labels=("P", "Qq", "&", "-0"))
        # every fourth entry: thm4_curl, thm5a_div and three thm5b_add
        assert list(report.sign_assignment.items())[::4] == [
            ("thm4_curl[Qq&-0]", "+Qq& +1·&-0 -1·-0Qq"),
            ("thm5a_div[->P]", "+Qq -1·& +1·-0"),
            ("thm5b_add[P->Qq]", "-1·P& +1·P-0"),
            ("thm5b_add[Qq->&]", "-1·QqP +1·Qq-0"),
            ("thm5b_add[&->-0]", "+1·&P +1·&Qq"),
        ]


def _sign_search(
    x: tuple[float, float],
    b: tuple[float, float],
    c: tuple[float, float],
    order: tuple[int, ...] = (0, 1, 2, 3),
) -> tuple[float, int]:
    """Smallest |x + s2·b + s3·c| over the signs s2, s3 = ±1, the search
    that ``verify_spinor_laws`` runs inline for each entry of ``_SEARCHES``.

    The candidates are summed left to right and taken in ``order`` from
    (+,+), (+,−), (−,+), (−,−); the first minimum wins, and position 0
    stands when no candidate is below infinity.  Returns the minimum and
    its position in ``order``.
    """
    (x0, x1), (b0, b1), (c0, c1) = x, b, c
    p0, p1 = x0 + b0, x1 + b1
    m0, m1 = x0 - b0, x1 - b1
    sizes = (
        math.hypot(p0 + c0, p1 + c1),
        math.hypot(p0 - c0, p1 - c1),
        math.hypot(m0 + c0, m1 + c1),
        math.hypot(m0 - c0, m1 - c1),
    )
    best, choice = math.inf, 0
    for position, k in enumerate(order):
        if sizes[k] < best:
            best, choice = sizes[k], position
    return best, choice


def _loop_sign_search(vector):
    """The sign search as a plain double loop over (s1, s2) = ±1 with
    ``vector(s1, s2)`` the candidate; the first strict minimum wins."""
    best, best_signs = math.inf, (1, 1)
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            size = math.hypot(*vector(s1, s2))
            if size < best:
                best, best_signs = size, (int(s1), int(s2))
    return best, best_signs


class TestSignSearch:
    """``_sign_search`` equals the loop forms of thm4/thm5a
    (x + s2·b + s3·c) and thm5b (s1·a + s2·b − g) bit for bit, ties,
    signed zeros and non-finite components included."""

    SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 1e308, -1e308, math.inf, math.nan)
    POSITION = {(1, 1): 0, (1, -1): 1, (-1, 1): 2, (-1, -1): 3}

    def test_matches_the_loop_forms(self):
        rng = random.Random(20261018)
        for n in range(10000):
            special = n % 2
            x, b, c = (
                tuple(
                    rng.choice(self.SPECIAL) if special else rng.uniform(-10.0, 10.0)
                    for _ in range(2)
                )
                for _ in range(3)
            )
            best, signs = _loop_sign_search(
                lambda s2, s3: (x[0] + s2 * b[0] + s3 * c[0], x[1] + s2 * b[1] + s3 * c[1])
            )
            found, position = _sign_search(x, b, c)
            assert (repr(found), position) == (repr(best), self.POSITION[signs])
            best, signs = _loop_sign_search(
                lambda s1, s2: (s1 * x[0] + s2 * b[0] - c[0], s1 * x[1] + s2 * b[1] - c[1])
            )
            found, position = _sign_search(x, b, c, _ADD_ORDER)
            assert (repr(found), position) == (repr(best), self.POSITION[signs])

    def test_the_law_check_runs_the_same_searches(self):
        # verify_spinor_laws runs the searches of _SEARCHES inline: over the
        # seeded quadruples its residuals and the signs of its texts are
        # those of _sign_search on the spinors of each ordered pair
        laws = ("thm4_curl", "thm5a_div", "thm5b_add")
        for curvatures in _seeded_curvatures():
            try:
                disks = place_quadruple(curvatures)
                report = verify_spinor_laws(disks)
            except SpintileError:
                continue
            u = {
                4 * i + j: tangency_spinor(disks[i], disks[j]).u
                for i in range(4)
                for j in range(4)
                if i != j
            }
            worst = dict.fromkeys(laws, 0.0)
            for (law, x, b, c, order), text in zip(_SEARCHES, report.sign_assignment.values()):
                best, position = _sign_search(u[x], u[b], u[c], order)
                assert re.findall("([+-]1)·", text) == list(_SIGNS[position])
                worst[laws[law]] = max(worst[laws[law]], best)
            assert [repr(worst[law]) for law in laws] == [
                repr(report.law_residuals[law]) for law in laws
            ]

    def test_labels_spell_their_own_texts(self):
        # labels equal as values but formatted apart get their own texts
        disks = place_quadruple([2, 3, 6, 23])
        ints = verify_spinor_laws(disks, labels=(1, 2, 3, 4))
        floats = verify_spinor_laws(disks, labels=(1.0, 2.0, 3.0, 4.0))
        assert list(ints.sign_assignment)[0] == "thm4_curl[234]"
        assert list(floats.sign_assignment)[0] == "thm4_curl[2.03.04.0]"


class TestClosure:
    """Every zero-free quadruple that ``enumerate`` prints verifies, in
    every order."""

    def test_every_order_of_every_bound_7_quadruple_passes(self):
        quadruples = set()
        for record in enumerate_records(EnumerationJob(bound=7)):
            for root in (record.d1, record.d2):
                quadruple = (record.a, record.b, record.c, root)
                if 0 not in quadruple:
                    quadruples.add(tuple(sorted(quadruple)))
        orders, failures = 0, []
        for quadruple in sorted(quadruples):
            for order in set(permutations(quadruple)):
                orders += 1
                try:
                    if not verify_spinor_laws(place_quadruple(order)).passed:
                        failures.append((order, "FAIL"))
                except SpintileError as exc:
                    failures.append((order, type(exc).__name__))
        assert (len(quadruples), orders) == (2288, 52740)
        assert failures == []


class TestRoundTrip:
    """Numeric spinors of a realized family match the exact generators."""

    @staticmethod
    def check_family(a, b):
        family = from_spinor_pair(a, b)
        big_a, big_b, big_c = family.shared_curvatures
        if not (big_a > 0 and big_b > 0 and big_c > 0):
            return False
        c = -a - b
        # pair (big_b, big_c) carries |a|², (big_c, big_a) |b|², (big_a, big_b) |c|²
        disks = place_configuration(big_a, big_c, big_b)
        nu_a = tangency_spinor(disks[2], disks[1])
        nu_b = tangency_spinor(disks[1], disks[0])
        nu_c = tangency_spinor(disks[0], disks[2])
        scale = max(norm_sq(u) for u in (a, b, c))
        tol = scaled_tolerance(1e-9, float(scale))
        for numeric, exact in ((nu_a, a), (nu_b, b), (nu_c, c)):
            assert abs(numeric.norm_sq() - norm_sq(exact)) <= tol
        pairs = (((nu_a, nu_b), (a, b)), ((nu_b, nu_c), (b, c)), ((nu_c, nu_a), (c, a)))
        for (nu1, nu2), (e1, e2) in pairs:
            z1, z2 = nu1.as_complex(), nu2.as_complex()
            numeric_dot = z1.real * z2.real + z1.imag * z2.imag
            numeric_cross = z1.real * z2.imag - z2.real * z1.imag
            assert abs(abs(numeric_dot) - abs(dot(e1, e2))) <= tol
            assert abs(abs(numeric_cross) - abs(cross(e1, e2))) <= tol
        return True

    def test_figure_generators(self):
        assert self.check_family(Spinor(3, 0), Spinor(-1, 2))

    def test_random_positive_families(self):
        rng = random.Random(20260816)
        checked = 0
        while checked < 25:
            a = Spinor(rng.randint(-8, 8), rng.randint(-8, 8))
            b = Spinor(rng.randint(-8, 8), rng.randint(-8, 8))
            if a.is_zero() or b.is_zero() or cross(a, b) == 0:
                continue
            if self.check_family(a, b):
                checked += 1
