"""Exact-arithmetic numerical invariants of foliated surfaces.

Every value is exact (no float), nothing is random, and equal inputs give byte-identical documents.

``import folcan`` loads no submodule: each one is imported on first use,
when one of its names is read from the package (PEP 562). The public names
below, and the submodules as attributes, are the same objects as eager
imports would give.
"""

import importlib

# each public name, by the submodule that defines it
_EXPORTS = {
    "baskets": (
        "Basket", "LocalProfile", "SingularityKind", "SizeBoundVerdict", "basket_size_bound", "basket_term",
        "basket_uses_extrapolation", "cusp", "dihedral_half", "dihedral_zero", "local_term", "q_index",
        "terminal_cyclic", "uses_extrapolation",
    ),
    "bounds": (
        "BoundReport", "EnumeratedFunction", "EnumerationQuery", "ample_divisor_numerics", "basket_alphabet",
        "enumerate_baskets", "enumerate_hilbert", "km_envelope", "kx2_bounds",
    ),
    "constructions": (
        "AbelianCoverInput", "ConstructionReport", "FibrationNumbers", "RuledCoverInput",
        "abelian_double_cover", "fibration_identities", "riemann_hurwitz", "ruled_double_cover",
        "to_model_numerics",
    ),
    "errors": (
        "DimensionMismatch", "DocumentError", "FolcanError", "InvalidInput", "InvalidOverride",
        "JsonParseError", "NegativeGenus", "NonIntegralGenus", "NonPositiveVolume", "NotIntegral",
        "NotNegativeDefinite", "SingularMatrix",
    ),
    "exact_core": ("format_rational", "parse_rational"),
    "lattice": ("HodgeVerdict", "SymmetricPairing", "hodge_check", "is_negative_definite", "signature", "solve_linear"),
    "riemann_roch": (
        "HilbertFunction", "ModelNumerics", "hilbert_table", "hilbert_value", "integrality_check",
        "integrality_window", "second_difference_check", "to_hilbert_function",
    ),
    "surface_model": (
        "AmplitudeVerdict", "ResolutionData", "SurfaceModel", "mumford_pullback", "nef_check",
        "numerical_amplitude_check", "validate_resolution", "weil_intersect",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
