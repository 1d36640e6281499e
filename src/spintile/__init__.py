"""Exact spinor tessellations and the Descartes circle configurations
they generate.

The library has an exact half (rational spinors, tiles, curvatures,
symbols) and a numeric half (placed disks, tangency spinors, law
verification); the two meet in tests that drive every quantity down
both paths.

The package is lazy (PEP 562): ``from spintile import X`` imports only the
submodule that defines ``X``, on first use, so a command-line call loads
only the code its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name, under the submodule that defines it
_EXPORTS = {
    "errors": (
        "CollinearTangencyPoints",
        "ComplexSolutions",
        "DegenerateInput",
        "FloatOverflow",
        "InconsistentTiles",
        "InvalidPayload",
        "NegativeOrientation",
        "NoConsistentPlacement",
        "NonIntegral",
        "NonIntegralVertices",
        "NonPositiveCurvature",
        "NotTangent",
        "SpintileError",
        "TooManyDigits",
        "ZeroCurvature",
        "ZeroRadius",
    ),
    "spinors": ("PythTriple", "Spinor", "cross", "dot", "euclid_square", "norm_sq", "star"),
    "quadruples": (
        "DescartesQuadruple",
        "FourthCurvatures",
        "QuadrupleFamily",
        "apollonian_flip",
        "canonical_form",
        "canonicalize",
        "descartes_residual",
        "fourth_curvatures",
        "from_spinor_pair",
        "pair_curvatures",
    ),
    "tessellation": (
        "ObservationResult",
        "TessellationReport",
        "Tessellation",
        "Tile",
        "TileClass",
        "build_tessellation",
        "butterfly_areas",
        "check_observations",
        "observation_constant",
        "summarize",
        "tessellation_to_json_dict",
        "tile_area_pick",
        "tile_area_shoelace",
    ),
    "disks": (
        "DEFAULT_TOLERANCE",
        "ConfigurationReport",
        "PlacedDisk",
        "Symbol",
        "TangencySpinorNumeric",
        "circle_through_points",
        "midcircle_through_tangencies",
        "place_configuration",
        "place_quadruple",
        "realize_fourth",
        "scaled_tolerance",
        "symbol_join",
        "tangency_point",
        "tangency_spinor",
        "verify_spinor_laws",
    ),
    "enumeration": (
        "CSV_HEADER",
        "EnumerationJob",
        "QuadrupleRecord",
        "Shard",
        "enumerate_records",
        "merge_shards",
        "read_records",
        "write_records",
    ),
    "svg": ("DEFAULT_PALETTE", "RenderOptions", "render_configuration", "render_tessellation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import an exported name, or a submodule, on first use and keep it."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
