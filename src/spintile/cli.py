"""Command-line interface.

Subcommands:
  tess       tessellate a spinor pair and report exact areas/curvatures
  solve      fourth curvature(s) completing three tangent circles
  quad       integral quadruple family generated by a spinor pair
  verify     place a quadruple and check every spinor law numerically
  enumerate  stream quadruple families over an integer spinor box
  render     draw a tessellation or configuration JSON payload as SVG

Exit codes: 0 success, 1 domain/math failure (error name on stderr),
2 usage error.  ``verify --tolerance``, else the environment variable
DESCARTES_TOLERANCE, else 1e-9 grades the law residuals of ``verify``
only (its law check's tangency test reads it too, never below 1e-9);
either must be a positive finite number.  Every other numeric test uses
the fixed 1e-9: placing disks, ``realize_fourth`` included, and the
tangency test of ``render --midcircles``.

Start-up is most of the wall time of one call, so a call builds only
its own subcommand's arguments, and its handler imports only what that
subcommand runs, ``json`` included:
``quad`` and ``solve`` load ``quadruples``, ``verify`` loads ``disks``,
``tess`` loads ``tessellation`` (and ``svg`` with ``--svg``),
``enumerate`` loads ``enumeration``, and ``render`` loads ``svg`` with
``tessellation`` or ``disks``.  All of them load ``spinors``, but only
a value that is not an integer loads ``fractions``, and a frozen class
compiles its constructor only when the call first builds one.

An exact result with more digits than Python writes as text
(``sys.get_int_max_str_digits()``) fails with ``TooManyDigits``, exit
code 1; ``quad`` and ``tess`` format their whole output before they
print it or draw an SVG, so they then write nothing.  A decimal argument
that would expand past that limit is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
from typing import TYPE_CHECKING, Iterator

from .errors import InvalidPayload, SpintileError, TooManyDigits
from .spinors import Rational, Spinor, _parse_part, cross

if TYPE_CHECKING:
    from .enumeration import Shard


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _env_tolerance() -> float | None:
    raw = os.environ.get("DESCARTES_TOLERANCE")
    if raw is None:
        return None
    try:
        return _tolerance(raw)
    except argparse.ArgumentTypeError as exc:
        raise SystemExit(f"DESCARTES_TOLERANCE: {exc}")


def _parse_spinor(text: str) -> Spinor:
    try:
        return Spinor.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_rationals(text: str, expected: int) -> list[Rational]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise argparse.ArgumentTypeError(
            f"expected {expected} comma-separated values, got {len(parts)}"
        )
    try:
        return [_parse_part(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _json_text(payload: object) -> str:
    import json

    return json.dumps(payload, indent=2)


def _cmd_tess(args: argparse.Namespace) -> int:
    from .tessellation import (
        build_tessellation,
        butterfly_areas,
        check_observations,
        observation_constant,
        summarize,
        tessellation_to_json_dict,
    )

    tess = build_tessellation(args.a, args.b)
    # the whole text is formatted before the SVG is drawn and before any
    # of it is printed, so a value too long to write leaves no output
    if args.json:
        text = _json_text(tessellation_to_json_dict(tess))
    else:
        report = summarize(tess)
        sq = report.square_areas
        red = report.red_areas
        lines = [
            f"pair a={tess.a.format()} b={tess.b.format()} (c={tess.c.format()})",
            f"squares   |a|^2={sq[0]} |b|^2={sq[1]} |c|^2={sq[2]}",
            f"reds      A={red[0]} B={red[1]} C={red[2]}",
            f"greens    G={report.green_area} (all six)",
            "light reds " + " ".join(str(v) for v in report.light_red_areas),
            f"D={report.curvature_d} D'={report.curvature_d_prime}",
            f"midcircle of (A,B,C): {report.midcircle_abc}",
            "midcircles with D: " + " ".join(str(v) for v in report.midcircles_with_d),
            "midcircles with D': " + " ".join(str(v) for v in report.midcircles_with_d_prime),
            "butterflies " + " ".join(str(v) for v in butterfly_areas(tess)),
            f"square + opposite red constant: {observation_constant(tess)}",
            f"descartes residuals: D -> {report.descartes_residual_d}, "
            f"D' -> {report.descartes_residual_d_prime}",
        ]
        for observation in check_observations(tess):
            status = "ok" if observation.passed else "FAILED"
            lines.append(f"observation {observation.name}: {status}")
        lines.append(f"overlap: {'yes' if tess.has_overlap else 'no'}")
        text = "\n".join(lines)
    if args.svg is not None:
        from .svg import render_tessellation

        document = render_tessellation(tess)
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(document)
    print(text)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from .quadruples import fourth_curvatures

    a, b, c = args.curvatures
    result = fourth_curvatures(a, b, c)
    if args.json:
        payload = {
            "curvatures": [str(a), str(b), str(c)],
            "larger": str(result.larger) if result.exact else result.larger,
            "smaller": str(result.smaller) if result.exact else result.smaller,
            "exact": result.exact,
        }
        print(_json_text(payload))
        return 0
    kind = "exact" if result.exact else "inexact"
    print(f"{result.larger}, {result.smaller} ({kind})")
    return 0


def _cmd_quad(args: argparse.Namespace) -> int:
    from .quadruples import from_spinor_pair

    family = from_spinor_pair(args.a, args.b)
    a_curv, b_curv, c_curv = family.shared_curvatures
    if args.json:
        payload = {
            "a": family.generator_a.format(),
            "b": family.generator_b.format(),
            "A": str(a_curv),
            "B": str(b_curv),
            "C": str(c_curv),
            "D1": str(family.d1),
            "D2": str(family.d2),
        }
        print(_json_text(payload))
        return 0
    print(
        f"A={a_curv} B={b_curv} C={c_curv} D1={family.d1} D2={family.d2}"
        f"  (cross={cross(family.generator_a, family.generator_b)})"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .disks import DEFAULT_TOLERANCE, place_quadruple, verify_spinor_laws

    tolerance = args.tolerance or _env_tolerance() or DEFAULT_TOLERANCE
    disks = place_quadruple(args.curvatures)
    report = verify_spinor_laws(disks, tolerance)
    if args.json:
        print(_json_text(report.to_json_dict()))
    else:
        quad_text = ",".join(str(v) for v in args.curvatures)
        print(f"quadruple ({quad_text}) placed:")
        for label, disk in zip(report.labels, disks):
            print(
                f"  {label}: center ({disk.center[0]:.12g}, {disk.center[1]:.12g}) "
                f"radius {disk.radius:.12g}"
            )
        print(f"law residuals (tolerance {tolerance:g}):")
        for name, value in report.law_residuals.items():
            print(f"  {name:10s} {value:.3e}")
        print(f"result: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from . import enumeration

    job = enumeration.EnumerationJob(
        bound=args.bound,
        primitive_only=args.primitive,
        output_format=args.format,
        shard=args.shard,
        include_zero=args.include_zero,
    )
    records = enumeration.enumerate_records(job)
    if args.out is None:
        enumeration.write_stream(records, sys.stdout, job.output_format)
    else:
        enumeration.write_records(records, args.out, job.output_format)
    return 0


@contextlib.contextmanager
def _malformed_payload(path: str) -> Iterator[None]:
    """Turn text that is not JSON or is nested too deep to read, a missing
    or ill-typed field, one that does not parse or is beyond the float
    range, or a disk that ``PlacedDisk`` refuses into ``InvalidPayload``."""
    try:
        yield
    except (
        ArithmeticError, AttributeError, IndexError, KeyError, RecursionError, TypeError, ValueError
    ) as exc:
        raise InvalidPayload(f"{path}: malformed payload ({type(exc).__name__}: {exc})") from None


@contextlib.contextmanager
def _digit_limit() -> Iterator[None]:
    """Turn Python's refusal to write an int of more digits than its
    limit into ``TooManyDigits``.  Every other ``ValueError`` passes."""
    try:
        yield
    except ValueError as exc:
        if not str(exc).startswith("Exceeds the limit ("):
            raise
        limit = sys.get_int_max_str_digits()
        raise TooManyDigits(
            f"an exact result has more than {limit} digits, the most Python writes as text "
            "(python -X int_max_str_digits=N raises the limit)"
        ) from None


def _spelled(value: object) -> str:
    """A value read from a payload, as its JSON spells it."""
    import json

    return json.dumps(value)


def _finite(value: object) -> float:
    """A number of a disk payload as a finite float.  Only a JSON number
    is one: ``float`` would parse a string and take a boolean as 0 or 1.
    ``json`` reads ``NaN`` and ``Infinity``, which are refused too."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {_spelled(value)}")
    try:
        result = float(value)
    except OverflowError:  # an int beyond the float range
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"expected a finite number, got {_spelled(value)}")
    return result


def _shaped(value: object, kind: type, rule: str):
    """A payload value that must be a ``kind``, by ``rule``."""
    if not isinstance(value, kind):
        raise TypeError(f"{rule}, got {_spelled(value)}")
    return value


def _center(value: object) -> tuple[float, float]:
    """A disk payload's centre, a list of two numbers, as floats."""
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError(f"a center must be a list of two numbers, got {_spelled(value)}")
    return _finite(value[0]), _finite(value[1])


def _label(entry: dict, index: int) -> str:
    """A disk payload's label, a string or a number, as text, or the
    disk's index when it has none.  A string that does not encode as
    UTF-8, one holding a lone surrogate such as ``"\\ud800"``, is not
    text, and the SVG could not hold it."""
    label = entry.get("label", index)
    if isinstance(label, bool) or not isinstance(label, (str, int, float)):
        raise TypeError(f"a label must be a string or a number, got {_spelled(label)}")
    text = str(label)
    try:
        text.encode()
    except UnicodeEncodeError:
        raise ValueError(f"a label must be text that encodes as UTF-8, got {_spelled(label)}") from None
    return text


def _cmd_render(args: argparse.Namespace) -> int:
    import json

    from . import svg

    with open(args.from_json, encoding="utf-8") as handle, _malformed_payload(args.from_json):
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise InvalidPayload(f"{args.from_json} does not hold a JSON object")
    options = svg.RenderOptions(
        width_px=args.width_px,
        show_labels=not args.no_labels,
        show_spinor_arrows=args.spinor_arrows,
    )
    if "tiles" in payload:
        from .tessellation import build_tessellation

        with _malformed_payload(args.from_json):
            pair = [Spinor.parse(_shaped(payload[k], str, "a spinor must be a string")) for k in "ab"]
        document = svg.render_tessellation(build_tessellation(*pair), options)
    elif "disks" in payload:
        from .disks import PlacedDisk, drawable_midcircles

        with _malformed_payload(args.from_json):
            entries = [
                _shaped(entry, dict, "a disk must be an object")
                for entry in _shaped(payload["disks"], list, "the disks must be a list")
            ]
            disks = [
                PlacedDisk(
                    center=_center(entry["center"]),
                    radius=_finite(entry["radius"]),
                    curvature=_finite(entry["curvature"]),
                )
                for entry in entries
            ]
            labels = [_label(entry, i) for i, entry in enumerate(entries)]
        if not disks:
            raise InvalidPayload(f"{args.from_json}: the payload lists no disks to render")
        midcircles = drawable_midcircles(disks, labels) if args.midcircles else []
        document = svg.render_configuration(disks, midcircles, options, labels)
    else:
        raise SystemExit("json payload has neither 'tiles' nor 'disks'")
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document)
    return 0


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_shard(text: str) -> Shard:
    from .enumeration import Shard

    index, _, count = text.partition("/")
    try:
        return Shard(index=int(index), count=int(count))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like 'i/k' with 0 <= i < k, got {text!r}"
        ) from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _width_px(text: str) -> int:
    value = _int(text)
    if value < 64:
        raise argparse.ArgumentTypeError(f"width must be at least 64px, got {value}")
    return value


# values like "-1,2", "-1/2,2/3" or "-1e5,2" must parse as option values,
# not flags
_NEGATIVE_VALUE = re.compile(r"^-\d+([eE][-+]?\d+)?([,/.]\S*)?$|^-\d*\.\d+\S*$")


def _pair_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=_parse_spinor, required=True, metavar="X,Y")
    parser.add_argument("--b", type=_parse_spinor, required=True, metavar="X,Y")
    parser.add_argument("--json", action="store_true")


def _tess_arguments(parser: argparse.ArgumentParser) -> None:
    _pair_arguments(parser)
    parser.add_argument("--svg", metavar="PATH", help="also write an SVG rendering")


def _curvatures_argument(parser: argparse.ArgumentParser, count: int) -> None:
    parser.add_argument(
        "--curvatures",
        type=lambda t: _parse_rationals(t, count),
        required=True,
        metavar=",".join("ABCD"[:count]),
    )


def _solve_arguments(parser: argparse.ArgumentParser) -> None:
    _curvatures_argument(parser, 3)
    parser.add_argument("--json", action="store_true")


def _verify_arguments(parser: argparse.ArgumentParser) -> None:
    _curvatures_argument(parser, 4)
    parser.add_argument("--tolerance", type=_tolerance, default=None)
    parser.add_argument("--json", action="store_true")


def _enumerate_arguments(parser: argparse.ArgumentParser) -> None:
    from .enumeration import FORMATS

    parser.add_argument("--bound", type=_positive_int, required=True)
    parser.add_argument("--primitive", action="store_true")
    parser.add_argument("--format", default="csv", choices=FORMATS)
    parser.add_argument("--out", metavar="PATH")
    # a string default goes through _parse_shard only when enumerate runs
    parser.add_argument(
        "--shard",
        type=_parse_shard,
        default="0/1",
        help="K/N: keep the pairs whose first spinor's squared norm is a row that "
        "shard K of N owns; rows go by descending point count to the least-loaded "
        "shard, and the N files merge into the unsharded one; with --out and N > 1, "
        "also writes OUT.json, which merge_shards needs",
    )
    parser.add_argument(
        "--include-zero",
        action="store_true",
        help="keep pairs with a zero spinor: one zero gives the canonical strip 0:0:1:1, two 0:0:0:0",
    )


def _render_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--from-json", required=True, metavar="PATH")
    parser.add_argument("--out", required=True, metavar="PATH")
    parser.add_argument("--midcircles", action="store_true")
    parser.add_argument("--width-px", type=_width_px, default=640)
    parser.add_argument("--no-labels", action="store_true")
    parser.add_argument("--spinor-arrows", action="store_true")


# each subcommand once, in the order --help lists them: its help line,
# its handler and the function that adds its arguments
_COMMANDS = {
    "tess": ("tessellate a spinor pair", _cmd_tess, _tess_arguments),
    "solve": ("solve for the fourth curvature", _cmd_solve, _solve_arguments),
    "quad": ("quadruple family of a spinor pair", _cmd_quad, _pair_arguments),
    "verify": ("place a quadruple and check all laws", _cmd_verify, _verify_arguments),
    "enumerate": ("enumerate spinor-pair families", _cmd_enumerate, _enumerate_arguments),
    "render": ("render a JSON payload to SVG", _cmd_render, _render_arguments),
}


def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of a call to ``command``.  It lists every subcommand,
    for ``--help`` and the ``invalid choice`` error, but only ``command``
    gets its arguments."""
    parser = argparse.ArgumentParser(
        prog="spintile",
        description="Exact tessellations of spinor pairs and the tangent-circle "
        "configurations they encode.",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, add_arguments) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if name == command:
            subparser._negative_number_matcher = _NEGATIVE_VALUE
            add_arguments(subparser)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    # argparse takes the first argument that is not an option as the
    # subcommand; the top-level parser has no option that takes a value
    command = next((arg for arg in argv if not arg.startswith("-")), "")
    try:
        args = build_parser(command).parse_args(argv)
        _, handler, _ = _COMMANDS[args.command]
        with _digit_limit():
            return handler(args)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; our own SystemExit
        # carries either a code or a message treated as a usage problem
        code = exc.code
        if code is None:
            return 0
        if isinstance(code, int):
            return code
        print(code, file=sys.stderr)
        return 2
    except SpintileError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
