"""Deterministic SVG rendering for tessellations and disk configurations.

Output is plain-text SVG assembled with fixed attribute order and fixed
12-decimal coordinate formatting, so the same input always yields the
same bytes.  Geometry is emitted in mathematical coordinates inside a
single y-flipped group (SVG's y-axis points down); text labels are
individually flipped back so they stay readable.  A tessellation is
drawn from its one integer form, its corner table: the fifteen tiles of
a pair share 22 corners among their 60 vertices, each an (x, y) of ints
over the scale.  Each corner coordinate is converted to a float and
formatted once per render, each corner written as one ``"x,y"`` text,
and each polygon takes the texts of the four corners of its cycle.
Every number is written by ``_formatted``: 12 decimals and each
negative zero as zero, a list in one format call.  The calls are
grouped, one each for the viewBox, the corners, the rest of a
tessellation's body (hatch step, stroke, arrows, label size and places)
and a configuration's body (widths, circles, label places and sizes);
the lines then reuse those texts, and label texts go in as written.  The
hatch patterns of a tessellation are one constant template, ``_DEFS``,
filled in with the step and the stroke width.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

from ._frozen import frozen
from .errors import FloatOverflow
from .tessellation import Tessellation, TileClass

if TYPE_CHECKING:  # annotations only: rendering a tessellation needs no disks
    from .disks import PlacedDisk

DEFAULT_PALETTE: Mapping[TileClass, str] = {
    TileClass.YELLOW_SQUARE: "#f0d264",
    TileClass.RED_CENTRAL: "#d95f4c",
    TileClass.GREEN: "#7fbf6f",
    TileClass.LIGHT_RED: "#edada0",
}

_MARGIN = 0.08  # fraction of the larger extent kept clear around content
# a label from a payload is any string: escape what XML text reserves
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


@frozen
class RenderOptions:
    """How a scene is drawn.  ``show_midcircles`` is read by nothing:
    ``render_configuration`` draws whatever midcircles it is given."""

    width_px: int = 640
    show_labels: bool = True
    show_midcircles: bool = False
    show_spinor_arrows: bool = False

    def __post_init__(self) -> None:
        if self.width_px < 64:
            raise ValueError(f"width_px must be at least 64, got {self.width_px}")


def _formatted(values: list[float]) -> list[str]:
    """Each value with 12 decimals, in one format call, and each negative
    zero written as zero, so that equal geometry gives equal bytes."""
    # every text has exactly 12 decimals and a "-" only as its sign, so
    # the replace meets only whole negative zeros
    text = ("%.12f " * len(values)) % tuple(values)
    return text.replace("-0.000000000000 ", "0.000000000000 ").split()


def _viewbox(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[float, float, float, float]:
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    margin = _MARGIN * max(max_x - min_x, max_y - min_y, 1e-9)
    return (
        min_x - margin,
        min_y - margin,
        (max_x - min_x) + 2 * margin,
        (max_y - min_y) + 2 * margin,
    )


def _svg_document(
    defs: list[str], body: list[str], box: tuple[float, float, float, float], width_px: int
) -> str:
    """The document: ``defs``, then ``body`` drawn in math coordinates
    inside the one y-flipped group, framed by ``box``, the drawing's
    extent (x, y, width, height) in math coordinates."""
    x, y, w, h = box
    # the y-flip group negates the box's y-range
    top = -(y + h)
    try:
        ratio = width_px * h / w
    except OverflowError:  # an int width_px with no float
        raise FloatOverflow("image width is beyond the float range") from None
    if not all(math.isfinite(value) for value in (x, top, w, h, ratio)):
        raise FloatOverflow("drawing extent is beyond the float range")
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{max(1, round(ratio))}" '
        f'viewBox="{" ".join(_formatted([x, top, w, h]))}">'
    )
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', head, *defs, '<g transform="scale(1,-1)">']
    return "\n".join([*lines, *body, "</g>", "</svg>"]) + "\n"


# the defs of a tessellation, one hatch pattern per tile class for its
# negatively oriented tiles and the arrow marker, to be filled in with
# the pattern's step and stroke width, as formatted
_DEFS = "\n".join(
    [
        "<defs>",
        *[
            f'<pattern id="hatch_{tile_class.value}" patternUnits="userSpaceOnUse" '
            'width="%(step)s" height="%(step)s">'
            f'<rect width="%(step)s" height="%(step)s" fill="{DEFAULT_PALETTE[tile_class]}"/>'
            '<path d="M 0 0 L %(step)s %(step)s" stroke="#333333" '
            'stroke-width="%(width)s"/>'
            "</pattern>"
            for tile_class in TileClass
        ],
        '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#1561ad"/></marker>',
        "</defs>",
    ]
)


# the polygon of a tile of each class, hatched when it is negatively
# oriented, to be filled in with the "x,y" texts of its four corners and
# its stroke width, as formatted
_POLYGONS = {
    (tile_class, negative): (
        f'<polygon class="{tile_class.value}" points="%s %s %s %s" '
        f'fill="{f"url(#hatch_{tile_class.value})" if negative else DEFAULT_PALETTE[tile_class]}" '
        'stroke="#333333" stroke-width="%s"/>'
    )
    for tile_class in TileClass
    for negative in (False, True)
}


def _flipped_text(x: str, y: str, size: str, content: str) -> str:
    """Upright text at math point (x, y), for use inside the y-flip group;
    the coordinates and the font size ``size`` are as formatted.

    The inner scale(1,-1) cancels the group flip, so the composed
    transform is a pure translation to the flipped point.
    """
    return (
        f'<text transform="translate({x},{y}) scale(1,-1)" '
        f'font-family="sans-serif" font-size="{size}" '
        f'text-anchor="middle" dominant-baseline="middle" '
        f'fill="#1a1a1a">{content}</text>'
    )


def render_tessellation(tess: Tessellation, options: RenderOptions | None = None) -> str:
    """Render the fifteen tiles; labels carry the exact areas."""
    options = options or RenderOptions()
    scale, corners, cycles = tess._scale, tess._corners, tess._cycles
    xs, ys = zip(*corners)
    # every drawn point lies in the hull of the tile corners, which
    # include the twelve dodecagon points, so this is the one conversion
    # to float that can overflow.  Int true division is correctly rounded
    # and rounding is monotonic, so the extremes of the ints over L give
    # the extremes of the corner floats
    try:
        texts = _formatted([value / scale for value in xs + ys])
        box = _viewbox((min(xs) / scale, max(xs) / scale), (min(ys) / scale, max(ys) / scale))
    except OverflowError:
        raise FloatOverflow("tessellation coordinates too large to draw as floats") from None
    points = [f"{x},{y}" for x, y in zip(texts[: len(xs)], texts[len(xs) :])]
    extent = max(box[2], box[3])
    stroke = extent * 0.004
    # the other numbers go through one format call: the hatch step and
    # the stroke, the arrows' width and ends, then the label size and
    # places; each width and size is the same for every element
    numbers = [stroke * 6, stroke]
    if options.show_spinor_arrows:
        numbers.append(stroke * 2)
        numbers += [float(v) for vector in (tess.a, tess.b, tess.c) for v in (vector.x, vector.y)]
    if options.show_labels:
        # the centre of a tile is the midpoint of its diagonal from the anchor
        half = 2 * scale
        numbers.append(extent * 0.035)
        numbers += [(xs[i0] + xs[i2]) / half for i0, _, i2, _ in cycles]
        numbers += [(ys[i0] + ys[i2]) / half for i0, _, i2, _ in cycles]
    step, stroke_text, *rest = _formatted(numbers)
    body: list[str] = []
    for tile, (i0, i1, i2, i3), area in zip(tess.tiles, cycles, tess._areas):
        polygon = _POLYGONS[tile.tile_class, area < 0]
        body.append(polygon % (points[i0], points[i1], points[i2], points[i3], stroke_text))
    if options.show_spinor_arrows:
        arrow_width, x1, y1, x2, y2, x3, y3, *rest = rest
        for x, y in ((x1, y1), (x2, y2), (x3, y3)):
            body.append(
                f'<line x1="0.000000000000" y1="0.000000000000" x2="{x}" y2="{y}" '
                f'stroke="#1561ad" stroke-width="{arrow_width}" marker-end="url(#arrow)"/>'
            )
    if options.show_labels:
        size, *centres = rest
        count = len(cycles)
        for x, y, area in zip(centres[:count], centres[count:], tess._areas):
            body.append(_flipped_text(x, y, size, tess._text(area)))
    defs = _DEFS % {"step": step, "width": stroke_text}
    return _svg_document([defs], body, box, options.width_px)


def _curvature_label(value: float) -> str:
    return f"{value:.10g}"


def render_configuration(
    disks: Sequence[PlacedDisk],
    midcircles: Sequence[PlacedDisk] = (),
    options: RenderOptions | None = None,
    labels: Sequence[str] | None = None,
) -> str:
    """Render placed disks (solid) and mid-circles (dashed).

    A negative-curvature disk is drawn as its boundary circle with the
    absolute radius; its label sits near the top of that circle rather
    than at the center it does not contain.  ``labels``, when given,
    holds one label per disk.
    """
    if labels is not None and len(labels) != len(disks):
        raise ValueError(f"need one label per disk, got {len(disks)} disks and {len(labels)} labels")
    options = options or RenderOptions()
    everything = (*disks, *midcircles)
    if not everything:
        raise ValueError("nothing to render")
    # (x, y, |radius|) of each circle, disks first
    circles = [(*disk.center, abs(disk.radius)) for disk in everything]
    xs: list[float] = []
    ys: list[float] = []
    for x, y, reach in circles:
        xs += (x - reach, x + reach)
        ys += (y - reach, y + reach)
    box = _viewbox(xs, ys)
    extent = max(box[2], box[3])
    stroke = extent * 0.004
    # every number of the body goes through one format call: the widths,
    # each circle, then each label's y and font size
    numbers = [stroke, stroke * 4, stroke * 3]
    for circle in circles:
        numbers += circle
    if options.show_labels:
        for disk, (_, y, reach) in zip(disks, circles):
            label_y = y + 0.9 * reach if disk.curvature < 0 else y
            numbers += (label_y, min(extent * 0.04, max(reach * 0.6, extent * 0.012)))
    texts = _formatted(numbers)
    width, dash_on, dash_off = texts[:3]
    count, end = len(disks), 3 + 3 * len(circles)
    places = list(zip(texts[3:end:3], texts[4:end:3], texts[5:end:3]))
    body: list[str] = []
    for x, y, r in places[:count]:
        body.append(
            f'<circle class="disk" cx="{x}" cy="{y}" r="{r}" fill="none" stroke="#20488c" '
            f'stroke-width="{width}"/>'
        )
    for x, y, r in places[count:]:
        body.append(
            f'<circle class="midcircle" cx="{x}" cy="{y}" r="{r}" fill="none" stroke="#b3432b" '
            f'stroke-width="{width}" stroke-dasharray="{dash_on} {dash_off}"/>'
        )
    if options.show_labels:
        label_places = zip(disks, places, texts[end::2], texts[end + 1 :: 2])
        for index, (disk, (x, _, _), y, size) in enumerate(label_places):
            text = _curvature_label(disk.curvature)
            if labels is not None:
                text = f"{labels[index].translate(_XML_TEXT)}={text}"
            body.append(_flipped_text(x, y, size, text))
    return _svg_document([], body, box, options.width_px)
