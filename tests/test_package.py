"""The package surface: lazy exports, what each command-line call loads,
the console-script entry point, and the frozen value classes."""

from __future__ import annotations

import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import spintile
from spintile import (
    ConfigurationReport,
    DescartesQuadruple,
    EnumerationJob,
    ObservationResult,
    PlacedDisk,
    PythTriple,
    QuadrupleFamily,
    RenderOptions,
    Shard,
    Spinor,
    Symbol,
    TangencySpinorNumeric,
    Tessellation,
    TessellationReport,
    Tile,
    TileClass,
    build_tessellation,
    from_spinor_pair,
    place_quadruple,
    summarize,
    verify_spinor_laws,
)

# every name the package exported when its __init__ imported them all
EXPORTS = (
    "CSV_HEADER CollinearTangencyPoints ComplexSolutions ConfigurationReport "
    "CurlViolation DEFAULT_PALETTE DEFAULT_TOLERANCE DegenerateInput "
    "DescartesQuadruple EnumerationJob FloatOverflow FourthCurvatures "
    "InconsistentTiles InvalidPayload NegativeOrientation NoConsistentPlacement "
    "NonIntegral NonIntegralVertices NonPositiveCurvature NotTangent ObservationResult "
    "PlacedDisk PythTriple QuadrupleFamily QuadrupleRecord RenderOptions Shard "
    "Spinor SpintileError Symbol TangencySpinorNumeric Tessellation "
    "TessellationReport Tile TileClass ZeroCurvature ZeroRadius apollonian_flip "
    "build_tessellation butterfly_areas canonical_form canonicalize "
    "check_observations circle_through_points cross dedup_canonical "
    "descartes_residual dodecagon_boundary dot enumerate_records euclid_square "
    "expected_record_count fourth_curvatures from_spinor_pair from_spinor_triple "
    "merge_shards midcircle_through_tangencies norm_sq observation_constant "
    "pair_curvatures place_configuration place_quadruple polygon_area "
    "read_records realize_fourth render_configuration render_tessellation "
    "scaled_tolerance star summarize symbol_join tangency_point tangency_spinor "
    "tessellation_to_json_dict tile_area_pick tile_area_shoelace "
    "verify_spinor_laws vertex_set write_records"
).split()


def child(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
    )


class TestLazyPackage:
    def test_all_is_the_sorted_export_list(self):
        assert spintile.__all__ == sorted(EXPORTS)

    def test_every_export_resolves_by_name(self):
        namespace: dict = {}
        exec(f"from spintile import {', '.join(EXPORTS)}", namespace)
        assert all(namespace[name] is getattr(spintile, name) for name in EXPORTS)

    def test_star_import_gives_the_exports(self):
        namespace: dict = {}
        exec("from spintile import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(EXPORTS)

    def test_dir_lists_the_exports(self):
        assert set(EXPORTS) <= set(dir(spintile))
        assert "__version__" in dir(spintile)

    def test_submodules_resolve_as_attributes(self):
        assert spintile.svg is sys.modules["spintile.svg"]

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            spintile.no_such_name
        with pytest.raises(ImportError):
            exec("from spintile import no_such_name", {})

    def test_a_name_imports_only_its_submodule(self):
        code = (
            "import sys\n"
            "import spintile\n"
            "assert not [m for m in sys.modules if m.startswith('spintile.')], sys.modules\n"
            "from spintile import place_quadruple\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('spintile.'))))\n"
        )
        loaded = child(code).stdout.split()
        assert loaded == ["spintile._frozen", "spintile.disks", "spintile.errors", "spintile.spinors"]


# a child runs one call and reports the modules the import and the call loaded
_RUN_AND_REPORT = """
import sys
before = set(sys.modules)
from spintile import cli
code = cli.run(sys.argv[1:])
loaded = sorted(set(sys.modules) - before)
print("LOADED", code, *loaded)
"""

_NEVER = {"dataclasses"}
_LAYERS = {"disks", "svg", "tessellation", "enumeration"}


def _not_loaded(*layers: str, json: bool = True) -> set[str]:
    return _NEVER | {f"spintile.{layer}" for layer in layers} | ({"json"} if json else set())


@pytest.fixture(scope="module")
def payloads(tmp_path_factory) -> dict[str, str]:
    from spintile.cli import run

    folder = tmp_path_factory.mktemp("payloads")
    paths = {}
    for name, argv in (
        ("tess", ["tess", "--a", "3,0", "--b", "-1,2", "--json"]),
        ("verify", ["verify", "--curvatures", "2,3,6,23", "--json"]),
    ):
        path = folder / f"{name}.json"
        with open(path, "w") as handle, redirect_stdout(handle):
            assert run(argv) == 0
        paths[name] = str(path)
    paths["svg"] = str(folder / "out.svg")
    return paths


PAIR = ["--a", "3,0", "--b", "-1,2"]
CALLS = [
    (["quad", *PAIR], _not_loaded(*_LAYERS)),
    (["quad", *PAIR, "--json"], _not_loaded(*_LAYERS, json=False)),
    (["solve", "--curvatures", "2,3,6"], _not_loaded(*_LAYERS)),
    (["solve", "--curvatures", "1,1,1", "--json"], _not_loaded(*_LAYERS, json=False)),
    (["verify", "--curvatures", "2,3,6,23"], _not_loaded("svg", "tessellation", "enumeration")),
    (["tess", *PAIR], _not_loaded("disks", "svg", "enumeration")),
    (["tess", *PAIR, "--svg", "{svg}"], _not_loaded("disks", "enumeration")),
    (["enumerate", "--bound", "1"], _not_loaded("disks", "svg", "tessellation")),
    (["render", "--from-json", "{tess}", "--out", "{svg}"], _not_loaded("disks", "enumeration", json=False)),
    (
        ["render", "--from-json", "{verify}", "--out", "{svg}", "--midcircles"],
        _not_loaded("enumeration", json=False),
    ),
    (["--help"], _not_loaded(*_LAYERS, "quadruples")),
]


class TestLeanStartUp:
    @pytest.mark.parametrize("argv, absent", CALLS, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_a_call_loads_only_what_its_subcommand_runs(self, argv, absent, payloads):
        argv = [arg.format(**payloads) for arg in argv]
        report = child(_RUN_AND_REPORT, *argv).stdout.splitlines()[-1].split()
        assert report[:2] == ["LOADED", "0"]
        assert absent.isdisjoint(report[2:]), sorted(absent.intersection(report[2:]))

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["quad", *PAIR], "A=2 B=6 C=3 D1=23 D2=-1"),
            (["verify", "--curvatures", "2,3,6,23"], "result: PASS"),
        ],
    )
    def test_console_script_entry_point(self, argv, expected):
        # what the installed ``spintile`` script runs ([project.scripts])
        code = "import sys\nfrom spintile.cli import main\nsys.exit(main())"
        result = child(code, *argv)
        assert expected in result.stdout and not result.stderr


def _tessellation() -> Tessellation:
    return build_tessellation(Spinor(3, 0), Spinor(-1, 2))


# each frozen class: a maker of one instance, and its fields in order
FROZEN = {
    Spinor: (lambda: Spinor(3, Fraction(-1, 2)), "x y"),
    PythTriple: (lambda: PythTriple(3, 4, 5), "a b c"),
    DescartesQuadruple: (lambda: DescartesQuadruple(-1, 2, 2, 3), "a b c d"),
    QuadrupleFamily: (
        lambda: from_spinor_pair(Spinor(3, 0), Spinor(-1, 2)),
        "quadruple_1 quadruple_2 generator_a generator_b",
    ),
    Tile: (
        lambda: Tile("sq_a", TileClass.YELLOW_SQUARE, Spinor(0, 0), Spinor(3, 0), Spinor(0, 3)),
        "label tile_class anchor edge1 edge2",
    ),
    Tessellation: (_tessellation, "a b c tiles"),
    TessellationReport: (
        lambda: summarize(_tessellation()),
        "square_areas red_areas green_area light_red_areas curvature_d curvature_d_prime "
        "midcircle_abc midcircles_with_d midcircles_with_d_prime descartes_residual_d "
        "descartes_residual_d_prime has_overlap",
    ),
    ObservationResult: (lambda: ObservationResult("greens_equal_area", True, "6"), "name passed witness"),
    Symbol: (lambda: Symbol(2, -4, 2), "x_dot y_dot beta"),
    PlacedDisk: (lambda: PlacedDisk((0.0, 1.5), 0.5, 2.0), "center radius curvature"),
    TangencySpinorNumeric: (lambda: TangencySpinorNumeric((1.0, 0.5), ("A", "B")), "u source"),
    ConfigurationReport: (
        lambda: verify_spinor_laws(place_quadruple([2, 3, 6, 23])),
        "disks labels spinors law_residuals sign_assignment tolerance",
    ),
    Shard: (lambda: Shard(1, 3), "index count"),
    EnumerationJob: (
        lambda: EnumerationJob(2),
        "bound primitive_only output_format shard include_zero",
    ),
    RenderOptions: (
        lambda: RenderOptions(),
        "width_px show_labels show_midcircles show_spinor_arrows",
    ),
}
# a dict field makes these unhashable, as it makes a frozen dataclass
UNHASHABLE = {ConfigurationReport}


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
class TestFrozenClasses:
    def test_repr_names_the_fields_in_order(self, cls):
        make, fields = FROZEN[cls]
        value = make()
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields.split())
        assert repr(value) == f"{cls.__qualname__}({shown})"

    def test_positional_arguments_follow_the_fields(self, cls):
        make, fields = FROZEN[cls]
        value = make()
        assert cls(*(getattr(value, name) for name in fields.split())) == value

    def test_equality_and_hash_see_the_fields(self, cls):
        make, fields = FROZEN[cls]
        first, second = make(), make()
        assert first == second and not first != second
        assert first != tuple(getattr(first, name) for name in fields.split())
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second) == hash(tuple(getattr(first, n) for n in fields.split()))

    def test_fields_refuse_assignment_and_deletion(self, cls):
        make, fields = FROZEN[cls]
        value = make()
        name = fields.split()[0]
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=name):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=name):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert getattr(value, name) is before


class TestFrozenDefaults:
    def test_reprs(self):
        assert repr(Spinor(3, Fraction(-1, 2))) == "Spinor(x=3, y=Fraction(-1, 2))"
        assert repr(EnumerationJob(2)) == (
            "EnumerationJob(bound=2, primitive_only=False, output_format='csv', "
            "shard=Shard(index=0, count=1), include_zero=False)"
        )

    def test_keyword_arguments_and_defaults(self):
        job = EnumerationJob(bound=3, include_zero=True)
        assert (job.primitive_only, job.output_format, job.shard) == (False, "csv", Shard(0, 1))

    def test_post_init_still_validates(self):
        with pytest.raises(TypeError):
            Spinor(0.5, 1)
        with pytest.raises(ValueError):
            Shard(3, 3)
        with pytest.raises(ValueError):
            RenderOptions(width_px=10)
        assert Spinor("1/2", 3).x == Fraction(1, 2)
