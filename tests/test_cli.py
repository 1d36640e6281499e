"""Command-line behavior: output formats, exit codes, tolerance plumbing."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from spintile import cli, merge_shards
from spintile.cli import _parse_rationals, run


class TestTess:
    def test_human_report(self, capsys):
        assert run(["tess", "--a", "3,0", "--b", "-1,2"]) == 0
        out = capsys.readouterr().out
        assert "pair a=3,0 b=-1,2 (c=-2,-2)" in out
        assert "squares   |a|^2=9 |b|^2=5 |c|^2=8" in out
        assert "reds      A=2 B=6 C=3" in out
        assert "greens    G=6 (all six)" in out
        assert "light reds 2 6 3" in out
        assert "D=23 D'=-1" in out
        assert "midcircle of (A,B,C): 6" in out
        assert "midcircles with D: 15 11 14" in out
        assert "midcircles with D': 3 -1 2" in out
        assert "butterflies 23 23 23" in out
        assert "square + opposite red constant: 11" in out
        assert "descartes residuals: D -> 0, D' -> 0" in out
        assert out.count(": ok") == 5
        assert "overlap: no" in out

    def test_json_report(self, capsys):
        assert run(["tess", "--a", "3,0", "--b", "-1,2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c"] == "-2,-2"
        assert payload["report"]["curvature_D"] == "23"
        assert payload["report"]["square_areas"] == ["9", "5", "8"]
        assert len(payload["tiles"]) == 15

    def test_fractional_pair(self, capsys):
        assert run(["tess", "--a", "3/2,0", "--b", "-1/2,1"]) == 0
        assert "D=23/4" in capsys.readouterr().out

    def test_svg_side_output(self, tmp_path, capsys):
        path = tmp_path / "figure.svg"
        assert run(["tess", "--a", "3,0", "--b", "-1,2", "--svg", str(path)]) == 0
        capsys.readouterr()
        ET.fromstring(path.read_text())

    def test_degenerate_pair_fails_cleanly(self, capsys):
        assert run(["tess", "--a", "2,1", "--b", "4,2"]) == 1
        assert "DegenerateInput" in capsys.readouterr().err

    def test_missing_argument_is_usage_error(self, capsys):
        assert run(["tess", "--a", "3,0"]) == 2

    def test_malformed_spinor_is_usage_error(self, capsys):
        assert run(["tess", "--a", "3,0,1", "--b", "-1,2"]) == 2
        assert run(["tess", "--a", "x,1", "--b", "-1,2"]) == 2

    def test_decimal_components_are_exact_rationals(self, capsys):
        # "0.5" is decimal notation for the exact rational 1/2
        assert run(["tess", "--a", "0.5,1", "--b", "-1,2"]) == 0
        out = capsys.readouterr().out
        assert "pair a=1/2,1 b=-1,2" in out

    @pytest.mark.parametrize("spelling", ["3,0", "3/1,0/1", "3.0,0.0"])
    def test_spellings_of_whole_values_give_identical_bytes(self, spelling, tmp_path, capsys):
        def outputs(a_text: str) -> tuple[str, str, bytes]:
            path = tmp_path / f"{a_text.replace('/', '_')}.svg"
            argv = ["tess", "--a", a_text, "--b", "-1,2"]
            assert run(argv) == 0
            text = capsys.readouterr().out
            assert run([*argv, "--json"]) == 0
            payload = capsys.readouterr().out
            assert run([*argv, "--svg", str(path)]) == 0
            capsys.readouterr()
            return text, payload, path.read_bytes()

        text, payload, drawing = outputs(spelling)
        assert "pair a=3,0 b=-1,2" in text
        assert (text, payload, drawing) == outputs("3,0")

    def test_svg_of_huge_coordinates_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "huge.svg"
        # corners beyond the float range, then finite corners whose extent
        # is beyond it
        for pair in (["--a", "1e400,0", "--b", "0,1"], ["--a=-1e308,1", "--b=1,1"]):
            assert run(["tess", *pair, "--svg", str(path)]) == 1, pair
            assert capsys.readouterr().err.startswith("FloatOverflow: "), pair
            assert not path.exists(), pair


def _choices(*names: str) -> str:
    """Choices as this Python's argparse lists them in an ``invalid
    choice`` error: older releases quote them (3.13.0 does), newer ones
    do not (3.13.13)."""
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("name", choices=["a"])
    with pytest.raises(argparse.ArgumentError) as error:
        probe.parse_args(["b"])
    quoted = "'a'" in str(error.value)
    return ", ".join(f"'{name}'" if quoted else name for name in names)


_USAGE = "usage: spintile [-h] {tess,solve,quad,verify,enumerate,render} ...\n"
_TESS_USAGE = "usage: spintile tess [-h] --a X,Y --b X,Y [--json] [--svg PATH]\n"
_ENUMERATE_USAGE = """\
usage: spintile enumerate [-h] --bound BOUND [--primitive]
                          [--format {csv,jsonl}] [--out PATH] [--shard SHARD]
                          [--include-zero]
"""
_RENDER_USAGE = """\
usage: spintile render [-h] --from-json PATH --out PATH [--midcircles]
                       [--width-px WIDTH_PX] [--no-labels] [--spinor-arrows]
"""

# what the parser prints at 80 columns: each subcommand's help, and the
# usage errors of the top level, of a missing option and of a bad choice
_HELP = {
    "--help": _USAGE + """
Exact tessellations of spinor pairs and the tangent-circle configurations they
encode.

positional arguments:
  {tess,solve,quad,verify,enumerate,render}
    tess                tessellate a spinor pair
    solve               solve for the fourth curvature
    quad                quadruple family of a spinor pair
    verify              place a quadruple and check all laws
    enumerate           enumerate spinor-pair families
    render              render a JSON payload to SVG

options:
  -h, --help            show this help message and exit
""",
    "tess --help": _TESS_USAGE + """
options:
  -h, --help  show this help message and exit
  --a X,Y
  --b X,Y
  --json
  --svg PATH  also write an SVG rendering
""",
    "solve --help": """\
usage: spintile solve [-h] --curvatures A,B,C [--json]

options:
  -h, --help          show this help message and exit
  --curvatures A,B,C
  --json
""",
    "quad --help": """\
usage: spintile quad [-h] --a X,Y --b X,Y [--json]

options:
  -h, --help  show this help message and exit
  --a X,Y
  --b X,Y
  --json
""",
    "verify --help": """\
usage: spintile verify [-h] --curvatures A,B,C,D [--tolerance TOLERANCE]
                       [--json]

options:
  -h, --help            show this help message and exit
  --curvatures A,B,C,D
  --tolerance TOLERANCE
  --json
""",
    "enumerate --help": _ENUMERATE_USAGE + """
options:
  -h, --help            show this help message and exit
  --bound BOUND
  --primitive
  --format {csv,jsonl}
  --out PATH
  --shard SHARD         K/N: keep the pairs whose first spinor's squared norm
                        is a row that shard K of N owns; rows go by descending
                        point count to the least-loaded shard, and the N files
                        merge into the unsharded one; with --out and N > 1,
                        also writes OUT.json, which merge_shards needs
  --include-zero        keep pairs with a zero spinor: one zero gives the
                        canonical strip 0:0:1:1, two 0:0:0:0
""",
    "render --help": _RENDER_USAGE + """
options:
  -h, --help           show this help message and exit
  --from-json PATH
  --out PATH
  --midcircles
  --width-px WIDTH_PX
  --no-labels
  --spinor-arrows
""",
}

_USAGE_ERRORS = {
    "": _USAGE + "spintile: error: the following arguments are required: command\n",
    "bogus": _USAGE
    + "spintile: error: argument command: invalid choice: 'bogus' (choose from "
    + _choices("tess", "solve", "quad", "verify", "enumerate", "render")
    + ")\n",
    "tess --a 1,2": _TESS_USAGE
    + "spintile tess: error: the following arguments are required: --b\n",
    # an option before the subcommand: the subcommand still parses its own
    "--json quad --a 3,0 --b -1,2": _USAGE + "spintile: error: unrecognized arguments: --json\n",
    "enumerate --bound 1 --format xml": _ENUMERATE_USAGE
    + "spintile enumerate: error: argument --format: invalid choice: 'xml' (choose from "
    + _choices("csv", "jsonl")
    + ")\n",
    # a typed argument's error names the text it refused
    **{
        f"enumerate --bound 1 --shard {bad}": _ENUMERATE_USAGE
        + "spintile enumerate: error: argument --shard: shard must look like 'i/k' with "
        + f"0 <= i < k, got '{bad}'\n"
        for bad in ("x", "1", "1/2/3", "a/b", "3/3", "-1/2", "1.0/2")
    },
    "enumerate --bound abc": _ENUMERATE_USAGE
    + "spintile enumerate: error: argument --bound: invalid int value: 'abc'\n",
    "enumerate --bound 1.5": _ENUMERATE_USAGE
    + "spintile enumerate: error: argument --bound: invalid int value: '1.5'\n",
    "enumerate --bound 0": _ENUMERATE_USAGE
    + "spintile enumerate: error: argument --bound: must be at least 1, got 0\n",
    "render --from-json p.json --out x.svg --width-px wide": _RENDER_USAGE
    + "spintile render: error: argument --width-px: invalid int value: 'wide'\n",
}


class TestParser:
    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", list(_HELP))
    def test_help(self, command, capsys):
        assert run(command.split()) == 0
        assert capsys.readouterr() == (_HELP[command], "")

    @pytest.mark.parametrize("command", list(_USAGE_ERRORS))
    def test_usage_error(self, command, capsys):
        assert run(command.split()) == 2
        assert capsys.readouterr() == ("", _USAGE_ERRORS[command])

    def test_no_arguments(self):
        assert run([]) == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "tess" in capsys.readouterr().out


class TestSolve:
    def test_exact_roots(self, capsys):
        assert run(["solve", "--curvatures", "2,3,6"]) == 0
        assert capsys.readouterr().out.strip() == "23, -1 (exact)"

    def test_negative_leading_curvature_parses(self, capsys):
        assert run(["solve", "--curvatures", "-1,2,2"]) == 0
        assert capsys.readouterr().out.strip() == "3, 3 (exact)"

    def test_negative_leading_curvature_in_exponent_notation_parses(self, capsys):
        assert run(["solve", "--curvatures", "-1e0,2,2"]) == 0
        assert capsys.readouterr().out.strip() == "3, 3 (exact)"

    def test_inexact_roots(self, capsys):
        assert run(["solve", "--curvatures", "1,1,1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("(inexact)")
        larger = float(out.split(",")[0])
        assert larger == pytest.approx(3 + 2 * 3**0.5)

    def test_complex_roots_fail(self, capsys):
        assert run(["solve", "--curvatures", "1,1,-1"]) == 1
        assert "ComplexSolutions" in capsys.readouterr().err

    def test_inexact_smaller_root_keeps_its_digits(self, capsys):
        assert run(["solve", "--curvatures", "1e150,1e150,1"]) == 0
        assert capsys.readouterr().out.strip() == "4e+150, -1.0 (inexact)"

    def test_discriminant_beyond_the_float_range(self, capsys):
        # A·B + B·C + C·A is about 1e400, but both roots are floats
        assert run(["solve", "--curvatures", "1e200,1e200,1"]) == 0
        assert capsys.readouterr().out.strip() == "4e+200, -1.0 (inexact)"

    def test_huge_inexact_roots_fail_cleanly(self, capsys):
        # the larger root, about 1.2e309, is itself beyond the float range
        assert run(["solve", "--curvatures", "1e308,1e308,1e308"]) == 1
        assert capsys.readouterr().err.startswith("FloatOverflow: ")

    def test_json(self, capsys):
        assert run(["solve", "--curvatures", "2,3,6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "curvatures": ["2", "3", "6"],
            "larger": "23",
            "smaller": "-1",
            "exact": True,
        }


def _fraction_route(text: str, expected: int) -> list[Fraction]:
    """The rational parts of ``text`` as each ``Fraction(part)``: the
    reference that ``_parse_rationals`` must agree with."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise argparse.ArgumentTypeError(f"expected {expected} comma-separated values, got {len(parts)}")
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _outcome(parse, text: str, expected: int):
    try:
        values = parse(text, expected)
    except argparse.ArgumentTypeError as exc:
        return "refused", str(exc)
    return values, [str(value) for value in values]


# parts of a rational text: ints, signs, decimals, exponents, fractions,
# a zero denominator, words, an empty part, a digit that is not ASCII and
# ints at and past the digit limit of ``int``
PARTS = [
    "0", "7", "-3", "-0", "+2", "+0", "00012", "2.0", "-2.50", "1e5", "-1e0", "1E-2", "1/2",
    "-1/2", "6/2", "-6/-2", "1/0", "0/0", "nan", "inf", "-inf", "", " ", "x", "1 2", "٣", "١/٢",
    "1_000", "2.", ".5", "1" * 4300, "-" + "1" * 4300, "1" * 5000, "-" + "9" * 5000,
    "1/" + "3" * 5000,
]


class TestParseRationals:
    @pytest.mark.parametrize("part", PARTS, ids=lambda part: repr(part) if len(part) < 20 else f"{len(part)}-chars")
    def test_each_part_parses_as_fraction_does(self, part):
        text = f" {part} ,2"
        expected = _outcome(_fraction_route, text, 2)
        got = _outcome(_parse_rationals, text, 2)
        assert got == expected
        if got[0] != "refused":
            for value in got[0]:
                whole = value.denominator == 1
                assert value.__class__ is (int if whole else Fraction)

    def test_wrong_counts_are_refused_alike(self):
        for text in ("1,2", "1,2,3,4", "", ",,,"):
            assert _outcome(_parse_rationals, text, 3) == _outcome(_fraction_route, text, 3)


# decimals whose exponent expands them past the digit limit of int/str
# conversion, 4300 by default; expanding 1e3000000 takes seconds
HUGE_DECIMALS = ["1e5000", "1e-5000", "1e3000000"]


class TestDigitLimit:
    @pytest.mark.parametrize("part", HUGE_DECIMALS)
    def test_a_decimal_past_the_limit_is_refused_before_it_expands(self, part, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        refusal = rf"^Exceeds the limit \({limit} digits\) for integer string conversion: "
        start = time.perf_counter()
        with pytest.raises(argparse.ArgumentTypeError, match=refusal):
            _parse_rationals(f"{part},2", 2)
        assert run(["tess", "--a", f"{part},0", "--b", "0,1"]) == 2
        assert run(["solve", "--curvatures", f"{part},1,1"]) == 2
        errors = capsys.readouterr().err
        assert f"\nspintile tess: error: argument --a: Exceeds the limit ({limit} digits) " in errors
        assert f"\nspintile solve: error: argument --curvatures: Exceeds the limit ({limit} digits) " in errors
        payload = tmp_path / "tess.json"
        payload.write_text(json.dumps({"a": f"{part},0", "b": "0,1", "tiles": []}))
        assert run(["render", "--from-json", str(payload), "--out", str(tmp_path / "out.svg")]) == 1
        assert capsys.readouterr().err.startswith(f"InvalidPayload: {payload}: malformed payload (ValueError: ")
        assert time.perf_counter() - start < 0.5

    def test_the_refusal_follows_the_limit(self):
        limit = sys.get_int_max_str_digits()
        assert _parse_rationals(f"1e{limit - 1},5e-{limit - 1}", 2) == [10 ** (limit - 1), Fraction(5, 10 ** (limit - 1))]
        for text in (f"1e{limit}", f"10e{limit - 1}", f"1.5e{limit - 1}", f"-0.0e-{limit}", f"1E+{limit}"):
            with pytest.raises(argparse.ArgumentTypeError, match="Exceeds the limit"):
                _parse_rationals(f"{text},0", 2)
        # a text that is no decimal is Fraction's to refuse
        for text in ("1e 99999", "xe99999", "1e--99999", "1e9_9__999"):
            with pytest.raises(argparse.ArgumentTypeError, match="^Invalid literal for Fraction: "):
                _parse_rationals(f"{text},0", 2)
        sys.set_int_max_str_digits(0)
        try:
            assert _parse_rationals("1e5000,1e-5000", 2) == [10**5000, Fraction(1, 10**5000)]
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("argv", [["quad"], ["tess"], ["tess", "--json"]])
    def test_a_result_too_long_to_print_is_a_typed_error(self, argv, capsys):
        # a 2501-digit coordinate is accepted, and |a|² has 5001 digits
        big = "1" + "0" * 2500
        assert run([argv[0], "--a", f"{big},0", "--b", "0,1", *argv[1:]]) == 1
        err = capsys.readouterr().err
        limit = sys.get_int_max_str_digits()
        assert err == (
            f"TooManyDigits: an exact result has more than {limit} digits, the most Python "
            "writes as text (python -X int_max_str_digits=N raises the limit)\n"
        )

    def test_any_other_value_error_is_not_caught(self, monkeypatch):
        def broken(args):
            raise ValueError("Exceeds nothing")

        help_text, _, add_arguments = cli._COMMANDS["quad"]
        monkeypatch.setitem(cli._COMMANDS, "quad", (help_text, broken, add_arguments))
        with pytest.raises(ValueError, match="^Exceeds nothing$"):
            run(["quad", "--a", "1,0", "--b", "0,1"])


class TestQuad:
    def test_human_line(self, capsys):
        assert run(["quad", "--a", "2,1", "--b", "1,-3"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "A=9 B=4 C=1 D1=28 D2=0  (cross=-7)"

    def test_json(self, capsys):
        assert run(["quad", "--a", "3,0", "--b", "-1,2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "a": "3,0",
            "b": "-1,2",
            "A": "2",
            "B": "6",
            "C": "3",
            "D1": "23",
            "D2": "-1",
        }

    def test_negative_exponent_value_is_not_a_flag(self, capsys):
        assert run(["quad", "--a=-1e5,2", "--b", "1,1"]) == 0
        expected = capsys.readouterr().out
        assert run(["quad", "--a", "-1e5,2", "--b", "1,1"]) == 0
        assert capsys.readouterr().out == expected


class TestVerify:
    def test_passing_quadruple(self, capsys):
        assert run(["verify", "--curvatures", "2,3,6,23"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "prop1" in out and "thm5b_add" in out

    def test_passing_quadruple_with_negative_entry(self, capsys):
        assert run(["verify", "--curvatures", "2,3,6,-1"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_json_payload(self, capsys):
        assert run(["verify", "--curvatures", "2,3,6,23", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert [d["label"] for d in payload["disks"]] == ["A", "B", "C", "D"]

    def test_quadruple_at_scale_1e6_passes(self, capsys):
        # 10**6 times (2645, -1456, 3456, 5661): radii near 1e-10, whose
        # tangency points span far less than a unit
        assert run(["verify", "--curvatures", "2645000000,-1456000000,3456000000,5661000000"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("curvatures", ["105,48,-7,20", "-17,238,102,51"])
    def test_order_whose_on_axis_candidate_touches_the_third_disk_passes(
        self, capsys, curvatures
    ):
        assert run(["verify", "--curvatures", curvatures]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_non_descartes_quadruple_fails(self, capsys):
        assert run(["verify", "--curvatures", "2,3,6,7"]) == 1
        assert "NoConsistentPlacement" in capsys.readouterr().err

    def test_too_few_positive_curvatures(self, capsys):
        assert run(["verify", "--curvatures", "0,0,1,1"]) == 1
        assert "NonPositiveCurvature" in capsys.readouterr().err

    def test_unreachable_tolerance_reports_fail(self, capsys):
        assert run(["verify", "--curvatures", "2,3,6,23", "--tolerance", "1e-18"]) == 1
        assert "result: FAIL" in capsys.readouterr().out

    def test_env_tolerance_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("DESCARTES_TOLERANCE", "1e-18")
        assert run(["verify", "--curvatures", "2,3,6,23"]) == 1

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DESCARTES_TOLERANCE", "1e-18")
        assert run(["verify", "--curvatures", "2,3,6,23", "--tolerance", "1e-6"]) == 0

    @pytest.mark.parametrize(
        "curvatures",
        [
            "1,1,1,1e400",
            "1e-400,1,1,1",
            "1e-310,1,1,1",
            # finite floats whose placement squares or heights leave the range
            "1e300,1e300,1e300,1",
            "5.6e-309,1,1,1",
            "1e-300,1,1,1",
            # a height lost to rounding next to two far larger radii
            "1,1,1e16,1",
            # a genuine quadruple (10**159 times that of (1, -30), (-26, -5))
            # whose radius products are below the float range
            "825e159,1025e159,-124e159,156e159",
        ],
    )
    def test_curvatures_beyond_the_float_range_fail_cleanly(self, curvatures, capsys):
        assert run(["verify", "--curvatures", curvatures]) == 1
        assert capsys.readouterr().err.startswith("FloatOverflow: ")

    @pytest.mark.parametrize("bad", ["banana", "-1e-9", "0", "nan", "inf"])
    def test_invalid_env_tolerance_is_usage_error(self, capsys, monkeypatch, bad):
        monkeypatch.setenv("DESCARTES_TOLERANCE", bad)
        assert run(["verify", "--curvatures", "2,3,6,23"]) == 2
        assert "DESCARTES_TOLERANCE" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["banana", "-1", "0", "nan", "inf"])
    def test_invalid_tolerance_flag_is_usage_error(self, capsys, bad):
        assert run(["verify", "--curvatures", "2,3,6,23", "--tolerance", bad]) == 2
        assert "argument --tolerance" in capsys.readouterr().err


class TestEnumerate:
    def test_stdout_stream(self, capsys):
        assert run(["enumerate", "--bound", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "m1,n1,m2,n2,A,B,C,D1,D2,canonical,primitive"
        assert lines[1] == "-1,-1,-1,-1,4,4,-2,6,6,-1:2:2:3,false"
        assert len(lines) == 65

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        assert run(["enumerate", "--bound", "1"]) == 0
        streamed = capsys.readouterr().out
        path = tmp_path / "records.csv"
        assert run(["enumerate", "--bound", "1", "--out", str(path)]) == 0
        assert path.read_text() == streamed

    def test_jsonl_format(self, tmp_path):
        path = tmp_path / "records.jsonl"
        assert run(["enumerate", "--bound", "1", "--format", "jsonl", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 64
        first = json.loads(lines[0])
        assert first["m1"] == -1 and first["primitive"] is False

    def test_include_zero(self, capsys):
        assert run(["enumerate", "--bound", "1", "--include-zero"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 82

    def test_primitive_filter(self, capsys):
        assert run(["enumerate", "--bound", "1", "--primitive"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines
        assert all(line.endswith(",true") for line in lines)

    def test_sharded_runs_merge_to_reference(self, tmp_path, capsys):
        reference = tmp_path / "whole.csv"
        assert run(["enumerate", "--bound", "2", "--out", str(reference)]) == 0
        shard_paths = []
        for i in range(3):
            path = tmp_path / f"part{i}.csv"
            code = run(
                ["enumerate", "--bound", "2", "--shard", f"{i}/3", "--out", str(path)]
            )
            assert code == 0
            shard_paths.append(str(path))
            # the manifest merge_shards needs lands beside the shard
            assert json.loads((tmp_path / f"part{i}.csv.json").read_text())["index"] == i
        merged = tmp_path / "merged.csv"
        assert merge_shards(shard_paths, str(merged), "csv") == 576
        assert merged.read_bytes() == reference.read_bytes()
        # the unsharded file and a shard written to stdout get none
        assert not (tmp_path / "whole.csv.json").exists()
        assert run(["enumerate", "--bound", "2", "--shard", "0/3"]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["whole.csv", "merged.csv"] + [f"part{i}.csv{end}" for i in range(3) for end in ("", ".json")]
        )

    def test_unwritable_out_names_the_requested_path(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        assert run(["enumerate", "--bound", "1", "--out", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and str(path) in err
        assert "x.csv" in err and ".part" not in err

    def test_a_closed_pipe_exits_1_quietly(self, monkeypatch, capsys):
        # a reader such as ``head`` that stops early closes the pipe
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", ClosedPipe())
            assert run(["enumerate", "--bound", "1"]) == 1
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("bad", ["3/3", "-1/2", "x", "1"])
    def test_invalid_shard_is_usage_error(self, bad):
        assert run(["enumerate", "--bound", "1", "--shard", bad]) == 2

    @pytest.mark.parametrize("bad", ["0", "-2", "x"])
    def test_invalid_bound_is_usage_error(self, bad):
        assert run(["enumerate", "--bound", bad]) == 2


def _midcircle_quadruples() -> list[str]:
    """300 seeded genuine quadruples as ``verify --curvatures`` text, each
    with three positive entries and none zero, at scale 1, 1e-6 or 1e6,
    then (-1, 2, 2, 3), whose triple (-1, 2, 2) has its tangency points
    on a line."""
    rng = random.Random("render --midcircles digest")
    out: list[str] = []
    while len(out) < 300:
        a = (rng.randint(-30, 30), rng.randint(-30, 30))
        b = (rng.randint(-30, 30), rng.randint(-30, 30))
        cross = a[0] * b[1] - a[1] * b[0]
        if cross == 0:
            continue
        dot = a[0] * b[0] + a[1] * b[1]
        big_a, big_b, big_c = b[0] ** 2 + b[1] ** 2 + dot, a[0] ** 2 + a[1] ** 2 + dot, -dot
        quadruple = (big_a, big_b, big_c, big_a + big_b + big_c + rng.choice((2, -2)) * cross)
        if 0 in quadruple or sum(v > 0 for v in quadruple) < 3:
            continue
        scale = rng.choice((1, Fraction(1, 10**6), 10**6))
        out.append(",".join(str(scale * v) for v in quadruple))
    return [*out, "-1,2,2,3"]


class TestRender:
    def test_tessellation_payload_round_trip(self, tmp_path, capsys):
        direct = tmp_path / "direct.svg"
        assert run(["tess", "--a", "3,0", "--b", "-1,2", "--svg", str(direct)]) == 0
        capsys.readouterr()
        payload_path = tmp_path / "tess.json"
        assert run(["tess", "--a", "3,0", "--b", "-1,2", "--json"]) == 0
        payload_path.write_text(capsys.readouterr().out)
        rendered = tmp_path / "rendered.svg"
        assert run(["render", "--from-json", str(payload_path), "--out", str(rendered)]) == 0
        assert rendered.read_bytes() == direct.read_bytes()

    def test_huge_tessellation_payload_fails_cleanly(self, tmp_path, capsys):
        assert run(["tess", "--a", "1e400,0", "--b", "0,1", "--json"]) == 0
        payload_path = tmp_path / "huge.json"
        payload_path.write_text(capsys.readouterr().out)
        out_path = tmp_path / "huge.svg"
        assert run(["render", "--from-json", str(payload_path), "--out", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith("FloatOverflow: ")
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [["tess", "--a", "3,0", "--b", "-1,2", "--json"], ["verify", "--curvatures", "2,3,6,23", "--json"]],
        ids=["tessellation", "disks"],
    )
    def test_width_beyond_the_float_range_fails_cleanly(self, tmp_path, capsys, argv):
        assert run(argv) == 0
        payload_path = tmp_path / "payload.json"
        payload_path.write_text(capsys.readouterr().out)
        out_path = tmp_path / "wide.svg"
        wide = "1" + "0" * 400
        assert run(["render", "--from-json", str(payload_path), "--out", str(out_path), "--width-px", wide]) == 1
        err = capsys.readouterr().err
        assert err.startswith("FloatOverflow: ")
        assert "Traceback" not in err
        assert not out_path.exists()

    def test_configuration_payload_with_midcircles(self, tmp_path, capsys):
        assert run(["verify", "--curvatures", "2,3,6,23", "--json"]) == 0
        payload_path = tmp_path / "config.json"
        payload_path.write_text(capsys.readouterr().out)
        out_path = tmp_path / "config.svg"
        code = run(
            [
                "render",
                "--from-json",
                str(payload_path),
                "--out",
                str(out_path),
                "--midcircles",
            ]
        )
        assert code == 0
        svg_text = out_path.read_text()
        assert svg_text.count('class="disk"') == 4
        assert svg_text.count('class="midcircle"') == 4

    def test_line_midcircle_is_not_drawn(self, tmp_path, capsys):
        # the tangency points of (-1, 2, 2) lie on a line: 2·2 − 2 − 2 = 0
        assert run(["verify", "--curvatures", "-1,2,2,3", "--json"]) == 0
        payload_path = tmp_path / "line.json"
        payload_path.write_text(capsys.readouterr().out)
        out_path = tmp_path / "line.svg"
        argv = ["render", "--from-json", str(payload_path), "--out", str(out_path)]
        assert run([*argv, "--midcircles"]) == 0
        svg_text = out_path.read_text()
        assert svg_text.count('class="disk"') == 4
        assert svg_text.count('class="midcircle"') == 3

    def test_three_disk_payload_draws_its_midcircle(self, tmp_path, capsys):
        assert run(["verify", "--curvatures", "2,3,6,23", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["disks"] = payload["disks"][:3]
        payload_path = tmp_path / "triple.json"
        payload_path.write_text(json.dumps(payload))
        out_path = tmp_path / "triple.svg"
        argv = ["render", "--from-json", str(payload_path), "--out", str(out_path)]
        assert run([*argv, "--midcircles"]) == 0
        svg_text = out_path.read_text()
        assert svg_text.count('class="disk"') == 3
        (midcircle,) = [line for line in svg_text.splitlines() if 'class="midcircle"' in line]
        # the circle through the tangency points of curvatures 2, 3, 6 has
        # curvature sqrt(2·3 + 3·6 + 6·2) = 6
        assert 'r="0.166666666667"' in midcircle

    def test_payload_labels_are_escaped(self, tmp_path, capsys):
        assert run(["verify", "--curvatures", "2,3,6,23", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["disks"][0]["label"] = "A&B<c>"
        payload_path = tmp_path / "labels.json"
        payload_path.write_text(json.dumps(payload))
        out_path = tmp_path / "labels.svg"
        assert run(["render", "--from-json", str(payload_path), "--out", str(out_path)]) == 0
        root = ET.fromstring(out_path.read_text())
        texts = [element.text for element in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == "A&B<c>=2"

    @pytest.mark.parametrize(
        "label", [None, True, False, [1, 2], {"x": 1}], ids=["null", "true", "false", "list", "object"]
    )
    def test_a_label_that_is_not_text_or_a_number_is_refused(self, tmp_path, capsys, label):
        assert run(["verify", "--curvatures", "2,3,6,23", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["disks"][1]["label"] = label
        payload_path = tmp_path / "labels.json"
        payload_path.write_text(json.dumps(payload))
        out_path = tmp_path / "labels.svg"
        assert run(["render", "--from-json", str(payload_path), "--out", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"InvalidPayload: {payload_path}: malformed payload (TypeError: ")
        assert f"a label must be a string or a number, got {json.dumps(label)})" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "field, value, refusal",
        [
            ("radius", True, "TypeError: expected a number, got true"),
            ("label", None, "TypeError: a label must be a string or a number, got null"),
            ("center", [float("nan"), 0], "ValueError: expected a finite number, got NaN"),
            ("label", [1, "a"], 'TypeError: a label must be a string or a number, got [1, "a"]'),
            ("radius", "0.5", 'TypeError: expected a number, got "0.5"'),
            ("center", [" 1e0 ", "0.0"], 'TypeError: expected a number, got " 1e0 "'),
            ("curvature", "abc", 'TypeError: expected a number, got "abc"'),
            ("radius", 10**400, f"ValueError: expected a finite number, got {10**400}"),
            ("center", [0.5, 0.5, 7], "TypeError: a center must be a list of two numbers, got [0.5, 0.5, 7]"),
            ("center", 5, "TypeError: a center must be a list of two numbers, got 5"),
            ("label", "\ud800", 'ValueError: a label must be text that encodes as UTF-8, got "\\ud800"'),
        ],
        ids=[
            "true-radius",
            "null-label",
            "nan-center",
            "list-label",
            "string-radius",
            "padded-string-center",
            "abc-curvature",
            "radius-beyond-the-float-range",
            "three-number-center",
            "number-center",
            "lone-surrogate-label",
        ],
    )
    def test_a_refused_value_is_named_as_its_json_spells_it(self, tmp_path, capsys, field, value, refusal):
        assert run(["verify", "--curvatures", "2,3,6,23", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["disks"][2][field] = value
        payload_path = tmp_path / "refused.json"
        payload_path.write_text(json.dumps(payload))
        out_path = tmp_path / "refused.svg"
        assert run(["render", "--from-json", str(payload_path), "--out", str(out_path)]) == 1
        assert capsys.readouterr().err == f"InvalidPayload: {payload_path}: malformed payload ({refusal})\n"
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv, key, value, refusal",
        [
            (["verify", "--curvatures", "2,3,6,23"], "disks", [7, 8], "TypeError: a disk must be an object, got 7"),
            (["verify", "--curvatures", "2,3,6,23"], "disks", 5, "TypeError: the disks must be a list, got 5"),
            (["tess", "--a", "3,0", "--b", "-1,2"], "a", 5, "TypeError: a spinor must be a string, got 5"),
            (["tess", "--a", "3,0", "--b", "-1,2"], "b", [-1, 2], "TypeError: a spinor must be a string, got [-1, 2]"),
        ],
        ids=["int-disks", "number-disks", "number-spinor", "list-spinor"],
    )
    def test_a_badly_shaped_payload_is_named_as_its_json_spells_it(self, tmp_path, capsys, argv, key, value, refusal):
        assert run([*argv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload[key] = value
        payload_path = tmp_path / "refused.json"
        payload_path.write_text(json.dumps(payload))
        out_path = tmp_path / "refused.svg"
        assert run(["render", "--from-json", str(payload_path), "--out", str(out_path)]) == 1
        assert capsys.readouterr().err == f"InvalidPayload: {payload_path}: malformed payload ({refusal})\n"
        assert not out_path.exists()

    def test_string_number_and_missing_labels_keep_their_text(self, tmp_path, capsys):
        assert run(["verify", "--curvatures", "2,3,6,23", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["disks"][0]["label"] = "7"
        payload["disks"][1]["label"] = 7
        payload["disks"][2]["label"] = 0.5
        del payload["disks"][3]["label"]
        payload_path = tmp_path / "labels.json"
        payload_path.write_text(json.dumps(payload))
        out_path = tmp_path / "labels.svg"
        assert run(["render", "--from-json", str(payload_path), "--out", str(out_path)]) == 0
        root = ET.fromstring(out_path.read_text())
        texts = [element.text for element in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts == ["7=2", "7=3", "0.5=6", "3=23"]

    @pytest.mark.parametrize("ensure_ascii", [False, True], ids=["utf8-bytes", "json-escape"])
    def test_a_non_ascii_label_renders_alike_under_an_ascii_locale(self, tmp_path, capsys, ensure_ascii):
        # in the C locale, with locale coercion and UTF-8 mode off, the
        # locale's encoding is ASCII; the payload is JSON, read as UTF-8
        # (RFC 8259), and the SVG is written as the UTF-8 its prolog declares
        assert run(["verify", "--curvatures", "2,3,6,23", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["disks"][0]["label"] = "é"
        payload_path = tmp_path / "label.json"
        payload_path.write_bytes(json.dumps(payload, ensure_ascii=ensure_ascii).encode())
        here, there = tmp_path / "here.svg", tmp_path / "there.svg"
        assert run(["render", "--from-json", str(payload_path), "--out", str(here)]) == 0
        assert "é=2".encode() in here.read_bytes()
        result = subprocess.run(
            [sys.executable, "-m", "spintile.cli", "render", "--from-json", str(payload_path), "--out", str(there)],
            capture_output=True,
            env={**os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert there.read_bytes() == here.read_bytes()

    @pytest.mark.parametrize("count", [3, 4])
    def test_midcircles_of_disks_that_do_not_touch_are_refused(self, tmp_path, capsys, count):
        assert run(["verify", "--curvatures", "2,3,6,23", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["disks"] = payload["disks"][:count]
        payload["disks"][count - 1]["center"] = [5, 5]
        payload_path = tmp_path / "apart.json"
        payload_path.write_text(json.dumps(payload))
        out_path = tmp_path / "apart.svg"
        argv = ["render", "--from-json", str(payload_path), "--out", str(out_path)]
        assert run([*argv, "--midcircles"]) == 1
        moved = "CD"[count - 3]
        assert capsys.readouterr().err.startswith(f"NotTangent: disks A and {moved}: center gap ")
        assert not out_path.exists()
        # without midcircles the disks are drawn where the payload puts them
        assert run(argv) == 0
        assert out_path.read_text().count('class="disk"') == count

    def test_the_tolerance_setting_leaves_midcircle_tangency_fixed(
        self, tmp_path, capsys, monkeypatch
    ):
        # DESCARTES_TOLERANCE grades the law residuals of verify only:
        # render --midcircles tests tangency at the library's fixed 1e-9,
        # so disk D moved by 1e-6 is refused under a setting of 1e-3
        assert run(["verify", "--curvatures", "2,3,6,23", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        x, y = payload["disks"][3]["center"]
        payload["disks"][3]["center"] = [x + 1e-6, y]
        payload_path = tmp_path / "nudged.json"
        payload_path.write_text(json.dumps(payload))
        out_path = tmp_path / "nudged.svg"
        monkeypatch.setenv("DESCARTES_TOLERANCE", "1e-3")
        argv = ["render", "--from-json", str(payload_path), "--out", str(out_path), "--midcircles"]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("NotTangent: disks A and D: center gap ")
        assert not out_path.exists()

    def test_midcircle_render_digest(self, tmp_path, capsys):
        # exit code, stderr and SVG of ``render --midcircles`` for the
        # ``verify --json`` payload of each quadruple, whole and cut to its
        # first and to its last three disks; pinned before the midcircle
        # rule moved from cli to disks
        digest = hashlib.sha256()
        payload_path, out_path = tmp_path / "payload.json", tmp_path / "out.svg"
        argv = ["render", "--from-json", str(payload_path), "--out", str(out_path), "--midcircles"]
        renders = 0
        for curvatures in _midcircle_quadruples():
            run(["verify", "--curvatures", curvatures, "--json"])
            payload = json.loads(capsys.readouterr().out)
            for disks in (payload["disks"], payload["disks"][:3], payload["disks"][1:]):
                payload_path.write_text(json.dumps({**payload, "disks": disks}))
                code = run(argv)
                err = capsys.readouterr().err.replace(str(payload_path), "payload.json")
                svg_bytes = out_path.read_bytes() if out_path.exists() else b""
                out_path.unlink(missing_ok=True)
                for part in (str(code).encode(), err.encode(), svg_bytes):
                    digest.update(b"%d:" % len(part) + part)
                renders += 1
        assert renders == 903
        assert digest.hexdigest() == (
            "bc6a20379d08c8c32e6d84430b29bee50a36b77f63be6257ccbc3fa6416fed0f"
        )

    def test_unrecognized_payload_is_usage_error(self, tmp_path, capsys):
        payload_path = tmp_path / "odd.json"
        payload_path.write_text('{"foo": 1}')
        assert run(["render", "--from-json", str(payload_path), "--out", "x.svg"]) == 2
        assert "neither" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            # radius and curvature disagree
            '{"disks": [{"center": [0, 0], "radius": 0.5, "curvature": 3.0}]}',
            '{"disks": [{"center": [0, 0], "curvature": 2.0}]}',
            '{"disks": [{"center": 0, "radius": 0.5, "curvature": 2.0}]}',
            '{"disks": [7]}',
            '{"disks": []}',
            '{"tiles": [], "a": "1,x", "b": "-1,2"}',
            '{"tiles": [], "b": "-1,2"}',
            "not json",
            "[1, 2]",
            # numbers json reads but a disk cannot hold
            '{"disks": [{"center": [NaN, 0], "radius": 1, "curvature": 1}]}',
            '{"disks": [{"center": [Infinity, 0], "radius": 1, "curvature": 1}]}',
            '{"disks": [{"center": [0, 0], "radius": true, "curvature": 1}]}',
            pytest.param(
                '{"disks": [{"center": [1%s, 0], "radius": 1, "curvature": 1}]}' % ("0" * 400),
                id="integer-beyond-the-float-range",
            ),
            # json reads arrays this deep only past the recursion limit
            pytest.param('{"disks": %s%s}' % ("[" * 100_000, "]" * 100_000), id="nested-100000-deep"),
        ],
    )
    def test_malformed_payload_is_a_typed_error(self, tmp_path, capsys, text):
        payload_path = tmp_path / "bad.json"
        payload_path.write_text(text)
        out_path = tmp_path / "bad.svg"
        assert run(["render", "--from-json", str(payload_path), "--out", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith("InvalidPayload: ")
        assert not out_path.exists()

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run(["render", "--from-json", str(missing), "--out", "x.svg"]) == 1
        assert "i/o error" in capsys.readouterr().err

    def test_width_floor_is_usage_error(self, tmp_path):
        payload_path = tmp_path / "tess.json"
        payload_path.write_text('{"tiles": [], "a": "3,0", "b": "-1,2"}')
        code = run(
            [
                "render",
                "--from-json",
                str(payload_path),
                "--out",
                "x.svg",
                "--width-px",
                "32",
            ]
        )
        assert code == 2


class TestSweep:
    """Seeded argv over the subcommands that compute: every call ends in
    an exit code, whatever its values."""

    POOL = (
        "0", "1", "-1", "3/7", "-22/7", "0.5", "-2.25",
        "1e159", "-1e159", "1e-159", "1e308", "-1e308", "1e-308",
        "1e400", "-1e400", "1e-400",
        "12345678901234567890", "-98765432109876543210",
        "x", "1/0", "nan", "",
    )

    def argvs(self, seed: int, count: int, svg: str) -> list[list[str]]:
        rng = random.Random(seed)

        def values(n: int) -> str:
            return ",".join(rng.choice(self.POOL) for _ in range(n))

        def option(name: str, value: str) -> list[str]:
            return [f"--{name}={value}"] if rng.random() < 0.5 else [f"--{name}", value]

        out = []
        for _ in range(count):
            command = rng.choice(("tess", "quad", "solve", "verify"))
            if command in ("tess", "quad"):
                argv = [command, *option("a", values(2)), *option("b", values(2))]
                if command == "tess":
                    argv += rng.choice(([], ["--json"], ["--svg", svg]))
            elif command == "solve":
                argv = [command, *option("curvatures", values(3))]
            else:
                argv = [command, *option("curvatures", values(4))] + rng.choice(([], ["--json"]))
            out.append(argv)
        return out

    def test_no_subcommand_lets_an_exception_escape(self, tmp_path):
        escaped = []
        for argv in self.argvs(1, 300, str(tmp_path / "sweep.svg")):
            try:
                code = run(argv)
            except Exception as exc:  # anything but an exit code is a failure
                code = repr(exc)
            if code not in (0, 1, 2):
                escaped.append((argv, code))
        assert escaped == []


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Each fenced ``$ spintile …`` block of README.md that runs one
    command and writes no file: the command and its printed lines."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```$", text, flags=re.M | re.S):
        command, *lines = block.splitlines()
        if not command.startswith("$ spintile "):
            continue
        if any(line.startswith("$ ") for line in lines) or re.search(r">|--out|--svg", command):
            continue
        examples.append((command[2:], lines))
    return examples


class TestReadme:
    """The README examples are what the command line prints; a ``...``
    line, indented or not, stands for any run of lines."""

    def test_examples_are_found(self):
        assert [shlex.split(command)[1] for command, _ in _readme_examples()] == [
            "tess", "solve", "quad", "verify", "enumerate",
        ]

    @pytest.mark.parametrize(
        "command, lines",
        [pytest.param(command, lines, id=command.split()[1]) for command, lines in _readme_examples()],
    )
    def test_example_output(self, command, lines, capsys):
        assert run(shlex.split(command)[1:]) == 0
        pattern = "".join(
            r"(?:.*\n)*?" if line.strip() == "..." else re.escape(line) + r"\n" for line in lines
        )
        out = capsys.readouterr().out
        assert re.fullmatch(pattern, out), out


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "spintile.cli", "tess", "--a", "3,0", "--b", "-1,2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "D=23 D'=-1" in result.stdout

    def test_module_invocation_error_path(self):
        result = subprocess.run(
            [sys.executable, "-m", "spintile.cli", "solve", "--curvatures", "1,1,-1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "ComplexSolutions" in result.stderr

    def test_module_invocation_float_overflow(self):
        result = subprocess.run(
            [sys.executable, "-m", "spintile.cli", "verify", "--curvatures", "1e400,1,1,1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("FloatOverflow: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "extra", [[], ["--svg"], ["--json", "--svg"]], ids=["text", "svg", "json-svg"]
    )
    def test_a_report_too_long_to_print_leaves_no_output(self, extra, tmp_path):
        # |a|² of a 2501-digit coordinate has 5001 digits: the call fails
        # before it prints a line of its report or draws its SVG
        svg = tmp_path / "out.svg"
        argv = ["tess", "--a", "1" + "0" * 2500 + ",0", "--b", "0,1", *extra]
        if extra:
            argv.append(str(svg))
        result = subprocess.run(
            [sys.executable, "-m", "spintile.cli", *argv], capture_output=True, text=True
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("TooManyDigits: an exact result has more than ")
        assert not svg.exists()

    def test_degenerate_float_placement_fails_cleanly_under_optimize(self):
        # -O strips asserts: the placement check must raise by itself
        result = subprocess.run(
            [
                sys.executable,
                "-O",
                "-m",
                "spintile.cli",
                "verify",
                "--curvatures",
                "1e300,1e300,1e300,1",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("FloatOverflow: ")
        assert "Traceback" not in result.stderr
