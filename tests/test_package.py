"""The package surface: lazy exports, what each command-line call loads,
the console-script entry point, and the frozen value classes."""

from __future__ import annotations

import builtins
import dataclasses
import inspect
import json
import os
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
from spintile._frozen import frozen, trusted

# every name the package exports
EXPORTS = (
    "CSV_HEADER CollinearTangencyPoints ComplexSolutions ConfigurationReport "
    "DEFAULT_PALETTE DEFAULT_TOLERANCE DegenerateInput DescartesQuadruple "
    "EnumerationJob FloatOverflow FourthCurvatures InconsistentTiles InvalidPayload "
    "NegativeOrientation NoConsistentPlacement NonIntegral NonIntegralVertices "
    "NonPositiveCurvature NotTangent ObservationResult PlacedDisk PythTriple "
    "QuadrupleFamily QuadrupleRecord RenderOptions Shard Spinor SpintileError "
    "Symbol TangencySpinorNumeric Tessellation TessellationReport Tile TileClass "
    "TooManyDigits ZeroCurvature ZeroRadius apollonian_flip build_tessellation butterfly_areas "
    "canonical_form canonicalize check_observations circle_through_points cross "
    "descartes_residual dot enumerate_records euclid_square fourth_curvatures "
    "from_spinor_pair merge_shards midcircle_through_tangencies norm_sq "
    "observation_constant pair_curvatures place_configuration place_quadruple "
    "read_records realize_fourth render_configuration render_tessellation "
    "scaled_tolerance star summarize symbol_join tangency_point tangency_spinor "
    "tessellation_to_json_dict tile_area_pick tile_area_shoelace verify_spinor_laws "
    "write_records"
).split()

# names the package no longer exports: compositions of the names above,
# or oracles that live in the tests that compare against them
REMOVED = (
    "CurlViolation dedup_canonical dodecagon_boundary expected_record_count "
    "from_spinor_triple polygon_area vertex_set"
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

    def test_removed_names_do_not_resolve(self):
        for name in REMOVED:
            assert not hasattr(spintile, name)
            with pytest.raises(ImportError):
                exec(f"from spintile import {name}", {})

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


def _not_loaded(*layers: str, json: bool = True, hashlib: bool = True) -> set[str]:
    modules = {name for name, absent in (("json", json), ("hashlib", hashlib)) if absent}
    return _NEVER | {f"spintile.{layer}" for layer in layers} | modules


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
    paths["shard"] = str(folder / "shard.csv")
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
    # a shard file gets a manifest: its sha256 and its JSON text
    (
        ["enumerate", "--bound", "1", "--shard", "0/2", "--out", "{shard}"],
        _not_loaded("disks", "svg", "tessellation", json=False, hashlib=False),
    ),
    (["render", "--from-json", "{tess}", "--out", "{svg}"], _not_loaded("disks", "enumeration", json=False)),
    (
        ["render", "--from-json", "{verify}", "--out", "{svg}", "--midcircles"],
        _not_loaded("enumeration", json=False),
    ),
    (["--help"], _not_loaded(*_LAYERS, "quadruples")),
]


# what fractions loads; a call on integers loads none of it
_RATIONALS = {"fractions", "decimal", "numbers"}


class TestLeanStartUp:
    @pytest.mark.parametrize("argv, absent", CALLS, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_a_call_loads_only_what_its_subcommand_runs(self, argv, absent, payloads):
        argv = [arg.format(**payloads) for arg in argv]
        report = child(_RUN_AND_REPORT, *argv).stdout.splitlines()[-1].split()
        assert report[:2] == ["LOADED", "0"]
        assert absent.isdisjoint(report[2:]), sorted(absent.intersection(report[2:]))
        # every exact value of these calls is an integer; the inexact
        # roots of solve 1,1,1 are floats
        assert _RATIONALS.isdisjoint(report[2:]), sorted(_RATIONALS.intersection(report[2:]))

    def test_the_first_rational_value_binds_fraction(self):
        # a Fraction made before the package needed one is exact, and
        # only the first value that is not an int imports fractions
        code = (
            "import sys\n"
            "from spintile import spinors\n"
            "print(spinors.Spinor(3, -4), 'fractions' in sys.modules, isinstance(spinors.Fraction, type))\n"
            "from fractions import Fraction\n"
            "print(spinors.Spinor(Fraction(1, 2), 3), spinors.Fraction is Fraction)\n"
        )
        assert child(code).stdout.splitlines() == [
            "Spinor(x=3, y=-4) False False",
            "Spinor(x=Fraction(1, 2), y=3) True",
        ]
        code = (
            "from spintile.spinors import Fraction, Spinor, _over\n"
            "print(repr(_over(6, 4)), repr(Fraction(3, 6)), repr(Spinor.parse('0.5,-6/2')))\n"
            "try:\n"
            "    Spinor(0.5, 1)\n"
            "except TypeError as exc:\n"
            "    print(exc)\n"
        )
        assert child(code).stdout.splitlines() == [
            "Fraction(3, 2) Fraction(1, 2) Spinor(x=Fraction(1, 2), y=-3)",
            "coordinate must be an exact rational, got float",
        ]

    def test_a_rational_call_loads_fractions(self):
        argv = ["tess", "--a", "1/2,0", "--b", "0,1"]
        lines = child(_RUN_AND_REPORT, *argv).stdout.splitlines()
        report = lines[-1].split()
        assert report[:2] == ["LOADED", "0"] and _RATIONALS <= set(report[2:])
        assert lines[:-1] == [
            "pair a=1/2,0 b=0,1 (c=-1/2,-1)",
            "squares   |a|^2=1/4 |b|^2=1 |c|^2=5/4",
            "reds      A=1 B=1/4 C=0",
            "greens    G=1/2 (all six)",
            "light reds 1 1/4 0",
            "D=9/4 D'=1/4",
            "midcircle of (A,B,C): 1/2",
            "midcircles with D: 3/4 3/2 7/4",
            "midcircles with D': -1/4 1/2 3/4",
            "butterflies 9/4 9/4 9/4",
            "square + opposite red constant: 5/4",
            "descartes residuals: D -> 0, D' -> 0",
            "observation greens_equal_area: ok",
            "observation greens_pair_up_congruent: ok",
            "observation light_reds_congruent_to_reds: ok",
            "observation square_equals_adjacent_reds: ok",
            "observation square_plus_opposite_red_constant: ok",
            "overlap: no",
        ]

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
        names = fields.split()
        first, second = make(), make()
        values = tuple(getattr(first, name) for name in names)
        assert first == second and not first != second
        assert first != values
        # a class of the same name and fields, frozen or a frozen dataclass
        twin = frozen(type(cls.__name__, (), {"__annotations__": dict.fromkeys(names, "object")}))(*values)
        dataclass_twin = dataclasses.make_dataclass(cls.__qualname__, names, frozen=True)(*values)
        assert first != twin and not first == twin and twin != first
        assert first.__eq__(twin) is NotImplemented and first != dataclass_twin
        assert repr(first) == repr(dataclass_twin)
        if cls in UNHASHABLE:
            for value in (first, dataclass_twin):
                with pytest.raises(TypeError):
                    hash(value)
        else:
            assert hash(first) == hash(second) == hash(values) == hash(dataclass_twin)

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

    def test_a_class_needs_two_fields(self):
        # with one field, the shared methods would read a bare value, not a tuple
        with pytest.raises(TypeError, match="Single: a frozen class needs two fields or more"):
            frozen(type("Single", (), {"__annotations__": {"x": "int"}}))


# each class with a maker that skips validation, and the fields of one
# instance: the constructor refuses the first two, and stores derived
# attributes past the fields of the last two
SKIPPED = {
    Spinor: (1.5, 2),
    DescartesQuadruple: (1, 1, 1, 1),
    Tile: ("sq_a", TileClass.YELLOW_SQUARE, Spinor(0, 0), Spinor(3, 0), Spinor(0, 3)),
    Tessellation: tuple(getattr(_tessellation(), name) for name in ("a", "b", "c", "tiles")),
}


@pytest.mark.parametrize("cls", SKIPPED, ids=lambda cls: cls.__name__)
class TestTrusted:
    def test_is_the_constructed_value(self, cls):
        make, fields = FROZEN[cls]
        made = make()
        value = trusted(cls)(*(getattr(made, name) for name in fields.split()))
        assert value.__class__ is cls
        assert value == made and not value != made
        assert hash(value) == hash(made)
        assert repr(value) == repr(made)

    def test_skips_post_init(self, cls):
        values = SKIPPED[cls]
        value = trusted(cls)(*values)
        names = FROZEN[cls][1].split()
        # nothing is coerced, checked or derived
        assert list(vars(value)) == names
        assert all(getattr(value, name) is given for name, given in zip(names, values))

    def test_fields_come_first_in_field_order(self, cls):
        make, fields = FROZEN[cls]
        names = fields.split()
        made = make()
        assert list(vars(made))[: len(names)] == names
        assert list(vars(trusted(cls)(*(getattr(made, name) for name in names)))) == names


def test_trusted_keeps_what_the_constructor_refuses():
    spinor = trusted(Spinor)(1.5, 2)
    assert spinor.x == 1.5 and spinor.x.__class__ is float
    with pytest.raises(TypeError):
        Spinor(1.5, 2)
    assert trusted(DescartesQuadruple)(1, 1, 1, 1).as_tuple() == (1, 1, 1, 1)
    with pytest.raises(ValueError, match="not a Descartes quadruple"):
        DescartesQuadruple(1, 1, 1, 1)


# a child that counts the package's ``exec`` calls: those of ``_frozen``
# by what each compiles, "__init__" or "trusted", and for which class,
# any other by its module
_COUNT_COMPILES = """
import builtins, collections, json, sys
compiled, run = collections.Counter(), builtins.exec
def counted(source, namespace, *rest):
    caller = sys._getframe(1).f_globals["__name__"]
    if caller == "spintile._frozen":
        compiled[source[4:source.index("(")] + " " + namespace["cls"].__qualname__] += 1
    elif caller.startswith("spintile"):
        compiled[caller] += 1
    return run(source, namespace, *rest)
builtins.exec = counted
import spintile.cli, spintile.disks, spintile.enumeration, spintile.errors
import spintile.quadruples, spintile.spinors, spintile.svg, spintile.tessellation
counts = [dict(compiled)]
sys.path.insert(0, sys.argv[1])
from test_package import FROZEN
made = {cls: [getattr(make(), name) for name in fields.split()] for cls, (make, fields) in FROZEN.items()}
for _ in range(2):
    for cls, values in made.items():
        cls(*values)
    counts.append(dict(compiled))
print(json.dumps(counts))
"""


def test_each_frozen_class_is_generated_once():
    """Importing every submodule compiles the four makers that skip
    validation that the package calls, and the ``__init__`` of ``Shard``,
    whose instance is ``EnumerationJob``'s default; the first
    construction of each other class compiles its ``__init__``, and a
    second construction compiles nothing.  The import system runs each
    module's code with ``exec`` too; only ``_frozen``'s calls are
    counted."""
    imported, first, second = json.loads(child(_COUNT_COMPILES, os.path.dirname(__file__)).stdout)
    makers = {f"trusted {cls.__qualname__}": 1 for cls in (Spinor, DescartesQuadruple, Tile, Tessellation)}
    assert imported == {**makers, "__init__ Shard": 1}
    assert first == second == {**makers, **{f"__init__ {cls.__qualname__}": 1 for cls in FROZEN}}
    assert all(trusted(cls) is trusted(cls) for cls in FROZEN)


def test_a_constructor_is_compiled_at_its_first_use(monkeypatch):
    compiled, run = [], builtins.exec

    def counted(source, namespace, *rest):
        compiled.append(source[4 : source.index("(")])
        return run(source, namespace, *rest)

    monkeypatch.setattr(builtins, "exec", counted)
    Pair = frozen(type("Pair", (), {"__annotations__": {"x": "int", "y": "int"}, "y": 2}))
    assert compiled == []
    # a first call the real __init__ refuses still compiles it once
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'x'"):
        Pair()
    assert compiled == ["__init__"]
    assert Pair(1) == Pair(1, 2) == Pair(x=1, y=2) and repr(Pair(1)) == "Pair(x=1, y=2)"
    assert Pair.__init__.__qualname__ == "Pair.__init__"
    assert str(inspect.signature(Pair)) == "(x, y=2)"
    assert compiled == ["__init__"]
    assert trusted(Pair) is trusted(Pair) and trusted(Pair)(1, 2) == Pair(1)
    assert compiled == ["__init__", "trusted"]


def test_the_package_makers_store_as_the_constructors_do():
    """The values the package makes without validating them hold the same
    attributes, in the same order, as the constructed ones."""
    spinor = Spinor.parse("1/2,3")
    assert list(vars(spinor)) == list(vars(Spinor(Fraction(1, 2), 3))) == ["x", "y"]
    for pair in (("3,0", "-1,2"), ("440/133,661/679", "-59/95,-155/49")):
        a, b = map(Spinor.parse, pair)
        family = from_spinor_pair(a, b)
        for quadruple in (family.quadruple_1, family.quadruple_2):
            assert list(vars(quadruple)) == list(vars(DescartesQuadruple(*quadruple.as_tuple())))
        built = build_tessellation(a, b)
        constructed = Tessellation(built.a, built.b, built.c, built.tiles)
        assert list(vars(built)) == list(vars(constructed))
        for tile in built.tiles:
            fields = (tile.label, tile.tile_class, tile.anchor, tile.edge1, tile.edge2)
            assert list(vars(tile)) == list(vars(Tile(*fields)))
