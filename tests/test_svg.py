"""Rendering: deterministic bytes, faithful coordinates, honest shapes."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from spintile import (
    FloatOverflow,
    RenderOptions,
    Spinor,
    build_tessellation,
    midcircle_through_tangencies,
    place_configuration,
    place_quadruple,
    realize_fourth,
    render_configuration,
    render_tessellation,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def written(value: float) -> str:
    """A number as the SVG writes it: 12 decimals, a negative zero as zero."""
    text = f"{value:.12f}"
    return "0.000000000000" if text == "-0.000000000000" else text


def all_elements(svg_text: str, tag: str):
    root = ET.fromstring(svg_text)
    return root.iter(f"{SVG_NS}{tag}")


@pytest.fixture(scope="module")
def figure_svg():
    return render_tessellation(build_tessellation(Spinor(3, 0), Spinor(-1, 2)))


@pytest.fixture(scope="module")
def configuration_pieces():
    placed = place_configuration(2, 3, 6)
    disks = placed + (realize_fourth(placed, 23),)
    mids = [
        midcircle_through_tangencies(*(disks[i] for i in range(4) if i != skip))
        for skip in range(4)
    ]
    return disks, mids


class TestDeterminism:
    def test_tessellation_bytes_stable(self, figure_svg):
        again = render_tessellation(build_tessellation(Spinor(3, 0), Spinor(-1, 2)))
        assert again == figure_svg

    def test_configuration_bytes_stable(self, configuration_pieces):
        disks, mids = configuration_pieces
        first = render_configuration(disks, mids)
        second = render_configuration(disks, mids)
        assert first == second

    def test_no_negative_zero_in_output(self, figure_svg):
        assert "-0.000000000000" not in figure_svg

    def test_tiny_negative_corners_are_written_as_zero(self):
        # corners of about -1e-14 round to a negative zero at 12 decimals
        tess = build_tessellation(Spinor(Fraction(-1, 10**14), 1), Spinor(1, Fraction(-3, 10**15)))
        document = render_tessellation(tess)
        assert "-0.000000000000" not in document
        tiny = 0
        for tile, points in zip(tess.tiles, re.findall(r'<polygon [^>]*points="([^"]*)"', document)):
            # float() of a Fraction is correctly rounded, as int true division is
            corners = [float(value) for vertex in tile.vertices for value in (vertex.x, vertex.y)]
            tiny += sum(1 for value in corners if -5e-13 < value < 0)
            pairs = zip(corners[0::2], corners[1::2])
            assert points == " ".join(f"{written(x)},{written(y)}" for x, y in pairs)
        assert tiny > 0


class TestTessellationOutput:
    def test_is_well_formed_xml(self, figure_svg):
        ET.fromstring(figure_svg)

    def test_fifteen_polygons_with_class_attributes(self, figure_svg):
        polygons = list(all_elements(figure_svg, "polygon"))
        assert len(polygons) == 15
        classes = [p.get("class") for p in polygons]
        assert classes.count("yellow_square") == 3
        assert classes.count("red_central") == 3
        assert classes.count("green") == 6
        assert classes.count("light_red") == 3

    def test_labels_carry_exact_areas(self, figure_svg):
        texts = sorted(t.text for t in all_elements(figure_svg, "text"))
        expected = sorted(["9", "5", "8", "2", "6", "3"] + ["6"] * 6 + ["2", "6", "3"])
        assert texts == expected

    def test_labels_can_be_disabled(self):
        tess = build_tessellation(Spinor(3, 0), Spinor(-1, 2))
        svg = render_tessellation(tess, RenderOptions(show_labels=False))
        assert list(all_elements(svg, "text")) == []

    def test_polygon_points_use_twelve_decimals(self, figure_svg):
        first = next(all_elements(figure_svg, "polygon"))
        points = first.get("points")
        assert points == (
            "0.000000000000,0.000000000000 3.000000000000,0.000000000000 "
            "3.000000000000,3.000000000000 0.000000000000,3.000000000000"
        )

    def test_viewbox_includes_margin(self, figure_svg):
        match = re.search(r'viewBox="([^"]+)"', figure_svg)
        x, y, w, h = (float(part) for part in match.group(1).split())
        # content spans x,y in [-5, 5]; flipped box keeps a visible margin
        assert x < -5 and y < -5
        assert x + w > 5 and y + h > 5
        margin = min(-5 - x, -5 - y, x + w - 5, y + h - 5)
        assert margin >= 0.05 * max(w, h)

    def test_positive_tiles_use_flat_palette_fills(self, figure_svg):
        fills = {p.get("fill") for p in all_elements(figure_svg, "polygon")}
        assert fills == {"#f0d264", "#d95f4c", "#7fbf6f", "#edada0"}

    def test_folded_layout_gets_hatched(self):
        tess = build_tessellation(Spinor(2, 1), Spinor(1, -3))
        svg = render_tessellation(tess)
        hatched = [
            p for p in all_elements(svg, "polygon") if p.get("fill", "").startswith("url(#hatch_")
        ]
        negative = [t for t in tess.tiles if t.signed_area < 0]
        assert len(hatched) == len(negative) > 0

    def test_spinor_arrows_optional(self):
        tess = build_tessellation(Spinor(3, 0), Spinor(-1, 2))
        bare = render_tessellation(tess)
        armed = render_tessellation(tess, RenderOptions(show_spinor_arrows=True))
        assert len(list(all_elements(bare, "line"))) == 0
        assert len(list(all_elements(armed, "line"))) == 3

    def test_width_floor(self):
        with pytest.raises(ValueError):
            RenderOptions(width_px=32)


def test_width_beyond_the_float_range_is_a_typed_error(configuration_pieces):
    # the height is width_px·h/w in floats, and 10**400 has no float
    options = RenderOptions(width_px=10**400)
    disks, mids = configuration_pieces
    with pytest.raises(FloatOverflow):
        render_tessellation(build_tessellation(Spinor(3, 0), Spinor(-1, 2)), options)
    with pytest.raises(FloatOverflow):
        render_configuration(disks, mids, options)


class TestConfigurationOutput:
    def test_is_well_formed_xml(self, configuration_pieces):
        disks, mids = configuration_pieces
        ET.fromstring(render_configuration(disks, mids))

    def test_solid_and_dashed_circle_counts(self, configuration_pieces):
        disks, mids = configuration_pieces
        svg = render_configuration(disks, mids)
        circles = list(all_elements(svg, "circle"))
        solid = [c for c in circles if c.get("class") == "disk"]
        dashed = [c for c in circles if c.get("class") == "midcircle"]
        assert len(solid) == 4
        assert len(dashed) == 4
        assert all(c.get("stroke-dasharray") for c in dashed)
        assert all(c.get("stroke-dasharray") is None for c in solid)

    def test_negative_curvature_drawn_with_absolute_radius(self):
        placed = place_configuration(2, 3, 6)
        disks = placed + (realize_fourth(placed, -1),)
        svg = render_configuration(disks)
        radii = sorted(float(c.get("r")) for c in all_elements(svg, "circle"))
        assert radii == pytest.approx([1 / 6, 1 / 3, 1 / 2, 1.0])

    def test_curvature_labels(self, configuration_pieces):
        disks, _ = configuration_pieces
        svg = render_configuration(disks, labels=("A", "B", "C", "D"))
        texts = {t.text for t in all_elements(svg, "text")}
        assert texts == {"A=2", "B=3", "C=6", "D=23"}

    @pytest.mark.parametrize("labels", [("A",), ("A", "B", "C", "D", "E")], ids=["fewer", "more"])
    @pytest.mark.parametrize("show_labels", [True, False])
    def test_label_count_must_match_disk_count(self, labels, show_labels):
        # fewer labels ended in a bare IndexError, more were dropped
        disks = place_quadruple([2, 3, 6, 23])
        expected = f"need one label per disk, got 4 disks and {len(labels)} labels"
        with pytest.raises(ValueError, match=f"^{expected}$"):
            render_configuration(disks, (), RenderOptions(show_labels=show_labels), labels)

    def test_circles_fit_inside_viewbox(self, configuration_pieces):
        disks, mids = configuration_pieces
        svg = render_configuration(disks, mids)
        match = re.search(r'viewBox="([^"]+)"', svg)
        x, y, w, h = (float(part) for part in match.group(1).split())
        for circle in all_elements(svg, "circle"):
            cx = float(circle.get("cx"))
            cy = -float(circle.get("cy"))  # undo the y-flip group
            r = float(circle.get("r"))
            assert x <= cx - r and cx + r <= x + w
            assert y <= cy - r and cy + r <= y + h

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            render_configuration(())
