"""Command-line behavior: output formats, exit codes, tolerance plumbing."""

from __future__ import annotations

import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from spintile import merge_shards
from spintile.cli import run


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
        assert run(["tess", "--a", "1e400,0", "--b", "0,1", "--svg", str(path)]) == 1
        assert capsys.readouterr().err.startswith("FloatOverflow: ")
        assert not path.exists()


class TestParser:
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

    def test_inexact_roots(self, capsys):
        assert run(["solve", "--curvatures", "1,1,1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("(inexact)")
        larger = float(out.split(",")[0])
        assert larger == pytest.approx(3 + 2 * 3**0.5)

    def test_complex_roots_fail(self, capsys):
        assert run(["solve", "--curvatures", "1,1,-1"]) == 1
        assert "ComplexSolutions" in capsys.readouterr().err

    def test_huge_inexact_roots_fail_cleanly(self, capsys):
        assert run(["solve", "--curvatures", "1e200,1e200,1"]) == 1
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

    @pytest.mark.parametrize("bad", ["banana", "-1e-9", "0"])
    def test_invalid_env_tolerance_is_usage_error(self, capsys, monkeypatch, bad):
        monkeypatch.setenv("DESCARTES_TOLERANCE", bad)
        assert run(["verify", "--curvatures", "2,3,6,23"]) == 2
        assert "DESCARTES_TOLERANCE" in capsys.readouterr().err


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
        merged = tmp_path / "merged.csv"
        merge_shards(shard_paths, str(merged), "csv")
        assert merged.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("bad", ["3/3", "-1/2", "x", "1"])
    def test_invalid_shard_is_usage_error(self, bad):
        assert run(["enumerate", "--bound", "1", "--shard", bad]) == 2

    @pytest.mark.parametrize("bad", ["0", "-2", "x"])
    def test_invalid_bound_is_usage_error(self, bad):
        assert run(["enumerate", "--bound", bad]) == 2


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

    def test_unrecognized_payload_is_usage_error(self, tmp_path, capsys):
        payload_path = tmp_path / "odd.json"
        payload_path.write_text('{"foo": 1}')
        assert run(["render", "--from-json", str(payload_path), "--out", "x.svg"]) == 2
        assert "neither" in capsys.readouterr().err

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
