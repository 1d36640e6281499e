"""Deterministic SVG rendering for tessellations and disk configurations.

Output is plain-text SVG assembled with fixed attribute order and fixed
12-decimal coordinate formatting, so the same input always yields the
same bytes.  Geometry is emitted in mathematical coordinates inside a
single y-flipped group (SVG's y-axis points down); text labels are
individually flipped back so they stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .disks import PlacedDisk
from .errors import FloatOverflow
from .tessellation import Tessellation, Tile, TileClass, dodecagon_boundary

DEFAULT_PALETTE: Mapping[TileClass, str] = {
    TileClass.YELLOW_SQUARE: "#f0d264",
    TileClass.RED_CENTRAL: "#d95f4c",
    TileClass.GREEN: "#7fbf6f",
    TileClass.LIGHT_RED: "#edada0",
}

_MARGIN = 0.08  # fraction of the larger extent kept clear around content


@dataclass(frozen=True)
class RenderOptions:
    width_px: int = 640
    show_labels: bool = True
    show_midcircles: bool = False
    show_spinor_arrows: bool = False
    palette: Mapping[TileClass, str] = field(
        default_factory=lambda: dict(DEFAULT_PALETTE)
    )

    def __post_init__(self) -> None:
        if self.width_px < 64:
            raise ValueError(f"width_px must be at least 64, got {self.width_px}")


def _fmt(value: float) -> str:
    out = f"{value:.12f}"
    # normalize the negative zero so equal geometry gives equal bytes
    if out == "-0.000000000000":
        return "0.000000000000"
    return out


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
    body: list[str], box: tuple[float, float, float, float], width_px: int
) -> str:
    x, y, w, h = box
    height_px = max(1, round(width_px * h / w))
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height_px}" '
        f'viewBox="{_fmt(x)} {_fmt(y)} {_fmt(w)} {_fmt(h)}">'
    )
    return "\n".join(['<?xml version="1.0" encoding="UTF-8"?>', head, *body, "</svg>"]) + "\n"


def _hatch_defs(palette: Mapping[TileClass, str], unit: float) -> list[str]:
    """One hatch pattern per tile class, used for negatively oriented tiles."""
    lines = ["<defs>"]
    step = unit * 6
    for tile_class in TileClass:
        color = palette[tile_class]
        lines.append(
            f'<pattern id="hatch_{tile_class.value}" patternUnits="userSpaceOnUse" '
            f'width="{_fmt(step)}" height="{_fmt(step)}">'
            f'<rect width="{_fmt(step)}" height="{_fmt(step)}" fill="{color}"/>'
            f'<path d="M 0 0 L {_fmt(step)} {_fmt(step)}" stroke="#333333" '
            f'stroke-width="{_fmt(unit)}"/>'
            "</pattern>"
        )
    lines.append(
        '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#1561ad"/></marker>'
    )
    lines.append("</defs>")
    return lines


def _tile_polygon(tile: Tile, palette: Mapping[TileClass, str], stroke: float) -> str:
    points = " ".join(
        f"{_fmt(float(v.x))},{_fmt(float(v.y))}" for v in tile.vertices
    )
    if tile.signed_area < 0:
        fill = f"url(#hatch_{tile.tile_class.value})"
    else:
        fill = palette[tile.tile_class]
    return (
        f'<polygon class="{tile.tile_class.value}" points="{points}" '
        f'fill="{fill}" stroke="#333333" stroke-width="{_fmt(stroke)}"/>'
    )


def _flipped_text(x: float, y: float, size: float, content: str) -> str:
    """Upright text at math point (x, y), for use inside the y-flip group.

    The inner scale(1,-1) cancels the group flip, so the composed
    transform is a pure translation to the flipped point.
    """
    return (
        f'<text transform="translate({_fmt(x)},{_fmt(y)}) scale(1,-1)" '
        f'font-family="sans-serif" font-size="{_fmt(size)}" '
        f'text-anchor="middle" dominant-baseline="middle" '
        f'fill="#1a1a1a">{content}</text>'
    )


def render_tessellation(tess: Tessellation, options: RenderOptions | None = None) -> str:
    """Render the fifteen tiles; labels carry the exact areas."""
    options = options or RenderOptions()
    corners = [v for tile in tess.tiles for v in tile.vertices]
    corners.extend(dodecagon_boundary(tess))
    # every drawn point lies in the hull of these corners, so this is the
    # one conversion to float that can overflow
    try:
        xs = [float(v.x) for v in corners]
        ys = [float(v.y) for v in corners]
    except OverflowError:
        raise FloatOverflow("tessellation coordinates too large to draw as floats") from None
    box_x, box_y, box_w, box_h = _viewbox(xs, ys)
    extent = max(box_w, box_h)
    stroke = extent * 0.004
    body: list[str] = []
    body.extend(_hatch_defs(options.palette, stroke))
    body.append('<g transform="scale(1,-1)">')
    for tile in tess.tiles:
        body.append(_tile_polygon(tile, options.palette, stroke))
    if options.show_spinor_arrows:
        for name, vector in (("a", tess.a), ("b", tess.b), ("c", tess.c)):
            body.append(
                f'<line x1="0.000000000000" y1="0.000000000000" '
                f'x2="{_fmt(float(vector.x))}" y2="{_fmt(float(vector.y))}" '
                f'stroke="#1561ad" stroke-width="{_fmt(stroke * 2)}" '
                'marker-end="url(#arrow)"/>'
            )
    if options.show_labels:
        for tile in tess.tiles:
            center = tile.anchor + Fraction(1, 2) * (tile.edge1 + tile.edge2)
            body.append(
                _flipped_text(
                    float(center.x),
                    float(center.y),
                    extent * 0.035,
                    str(tile.signed_area),
                )
            )
    body.append("</g>")
    # the y-flip group negates the box's y-range
    flipped_box = (box_x, -(box_y + box_h), box_w, box_h)
    return _svg_document(body, flipped_box, options.width_px)


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
    than at the center it does not contain.
    """
    options = options or RenderOptions()
    everything = list(disks) + list(midcircles)
    if not everything:
        raise ValueError("nothing to render")
    xs: list[float] = []
    ys: list[float] = []
    for disk in everything:
        reach = abs(disk.radius)
        xs.extend((disk.center[0] - reach, disk.center[0] + reach))
        ys.extend((disk.center[1] - reach, disk.center[1] + reach))
    box_x, box_y, box_w, box_h = _viewbox(xs, ys)
    extent = max(box_w, box_h)
    stroke = extent * 0.004
    body: list[str] = []
    body.append('<g transform="scale(1,-1)">')
    for disk in disks:
        body.append(
            f'<circle class="disk" cx="{_fmt(disk.center[0])}" cy="{_fmt(disk.center[1])}" '
            f'r="{_fmt(abs(disk.radius))}" fill="none" stroke="#20488c" '
            f'stroke-width="{_fmt(stroke)}"/>'
        )
    for disk in midcircles:
        body.append(
            f'<circle class="midcircle" cx="{_fmt(disk.center[0])}" cy="{_fmt(disk.center[1])}" '
            f'r="{_fmt(abs(disk.radius))}" fill="none" stroke="#b3432b" '
            f'stroke-width="{_fmt(stroke)}" stroke-dasharray="{_fmt(stroke * 4)} {_fmt(stroke * 3)}"/>'
        )
    if options.show_labels:
        for index, disk in enumerate(disks):
            if disk.curvature < 0:
                label_y = disk.center[1] + 0.9 * abs(disk.radius)
            else:
                label_y = disk.center[1]
            size = min(extent * 0.04, max(abs(disk.radius) * 0.6, extent * 0.012))
            text = _curvature_label(disk.curvature)
            if labels is not None:
                text = f"{labels[index]}={text}"
            body.append(_flipped_text(disk.center[0], label_y, size, text))
    body.append("</g>")
    flipped_box = (box_x, -(box_y + box_h), box_w, box_h)
    return _svg_document(body, flipped_box, options.width_px)
