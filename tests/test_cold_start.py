"""The package namespace is lazy, and each command loads only the modules it runs."""

import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import folcan

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# the names ``folcan`` exported when its __init__ imported every submodule
PUBLIC = {
    "baskets": [
        "Basket", "LocalProfile", "SingularityKind", "SizeBoundVerdict", "basket_size_bound", "basket_term",
        "basket_uses_extrapolation", "cusp", "dihedral_half", "dihedral_zero", "local_term", "q_index",
        "terminal_cyclic", "uses_extrapolation",
    ],
    "bounds": [
        "BoundReport", "EnumeratedFunction", "EnumerationQuery", "ample_divisor_numerics", "basket_alphabet",
        "enumerate_baskets", "enumerate_hilbert", "km_envelope", "kx2_bounds",
    ],
    "constructions": [
        "AbelianCoverInput", "ConstructionReport", "FibrationNumbers", "RuledCoverInput", "abelian_double_cover",
        "fibration_identities", "riemann_hurwitz", "ruled_double_cover", "to_model_numerics",
    ],
    "errors": [
        "DimensionMismatch", "DocumentError", "FolcanError", "InvalidInput", "InvalidOverride", "JsonParseError",
        "NegativeGenus", "NonIntegralGenus", "NonPositiveVolume", "NotIntegral", "NotNegativeDefinite",
        "SingularMatrix",
    ],
    "exact_core": [
        "HodgeVerdict", "SymmetricPairing", "format_rational", "hodge_check", "is_negative_definite",
        "parse_rational", "signature", "solve_linear",
    ],
    "riemann_roch": [
        "HilbertFunction", "ModelNumerics", "hilbert_table", "hilbert_value", "integrality_check",
        "integrality_window", "second_difference_check", "to_hilbert_function",
    ],
    "surface_model": [
        "AmplitudeVerdict", "ResolutionData", "SurfaceModel", "mumford_pullback", "nef_check",
        "numerical_amplitude_check", "validate_resolution", "weil_intersect",
    ],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_every_public_name_is_its_modules_object(module):
    home = importlib.import_module(f"folcan.{module}")
    assert getattr(folcan, module) is home
    for name in PUBLIC[module]:
        namespace: dict = {}
        exec(f"from folcan import {name}", namespace)
        assert namespace[name] is getattr(home, name) is getattr(folcan, name)
        assert name in dir(folcan)


def test_all_lists_the_public_names():
    assert len(NAMES) == 68
    assert sorted(folcan.__all__) == NAMES
    assert folcan.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        folcan.no_such_name
    assert not hasattr(folcan, "check_limit")  # a submodule's name that the package does not export
    with pytest.raises(ImportError):
        exec("from folcan import no_such_name", {})


COLD_START = textwrap.dedent("""
    import io, json, sys

    LAZY = ("folcan.lattice", "folcan.surface_model", "folcan.constructions", "csv")

    def loaded():
        return [name for name in LAZY if name in sys.modules]

    def call(*argv):
        out, err = io.StringIO(), io.StringIO()
        assert run(list(argv), stdout=out, stderr=err) == 0, err.getvalue()
        assert out.getvalue()

    import folcan
    report = {"package": sorted(name for name in sys.modules if name.startswith("folcan."))}
    import folcan.cli
    from folcan.cli import run
    report["cli"] = loaded()
    call("enumerate", "--k1", "1", "--k2", "1", "--s", "6", "--chi", "0", "--cap", "4", "--max-cusps", "2")
    call("bounds", "--k1", "8", "--k2", "8", "--s", "1", "--kx2", "3")
    call("hilbert", "--numerics", sys.argv[2], "--mmax", "6")
    report["json"] = loaded()
    call("intersect", "--model", sys.argv[1], "--left", "D", "--right", "D")
    report["intersect"] = loaded()
    call("example", "ruled", "--k", "2", "--g", "2", "--q", "0")
    report["example"] = loaded()
    call("--format", "csv", "bounds", "--k1", "8", "--k2", "8", "--s", "1")
    report["csv"] = loaded()
    print(json.dumps(report))
""")


def test_a_fresh_process_loads_only_the_modules_it_runs(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "basis_labels": ["s", "e"],
        "pairing": [["0", "1"], ["1", "-2"]],
        "resolution": {"exceptional_indices": [1], "strict_transforms": {"D": ["1", "0"]}},
    }))
    numerics = tmp_path / "numerics.json"
    numerics.write_text(json.dumps({
        "k1": "1", "k2": "0", "chi": 1,
        "basket": [{"kind": "TerminalCyclic", "n": 2}, {"kind": "TerminalCyclic", "n": 2}],
    }))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(model), str(numerics)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "package": [],
        "cli": [],
        "json": [],
        "intersect": ["folcan.lattice", "folcan.surface_model"],
        "example": ["folcan.lattice", "folcan.surface_model", "folcan.constructions"],
        "csv": ["folcan.lattice", "folcan.surface_model", "folcan.constructions", "csv"],
    }


# the bilinear-form layer that moved from exact_core to lattice; exact_core still exports it
MOVED = ("Factor", "HodgeVerdict", "SymmetricPairing", "hodge_check", "is_negative_definite", "signature", "solve_linear")


@pytest.mark.parametrize("name", MOVED)
def test_exact_core_still_exports_each_lattice_name(name):
    exact_core, lattice = importlib.import_module("folcan.exact_core"), importlib.import_module("folcan.lattice")
    home = getattr(lattice, name)
    assert getattr(exact_core, name) is home
    assert vars(exact_core)[name] is home  # kept: later reads skip the module's __getattr__
    namespace: dict = {}
    exec(f"from folcan.exact_core import {name}", namespace)
    assert namespace[name] is home
    assert name in dir(exact_core)


def test_exact_core_lists_the_lattice_names_before_any_is_read():
    script = "import sys, folcan.exact_core as ec; print(set(dir(ec)) >= set(sys.argv[1:]), 'folcan.lattice' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script, *MOVED], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]


def test_exact_core_refuses_an_unknown_name():
    exact_core = importlib.import_module("folcan.exact_core")
    with pytest.raises(AttributeError, match="no_such_name"):
        exact_core.no_such_name
    assert not hasattr(exact_core, "ModelNumerics")  # another module's name
    with pytest.raises(ImportError):
        exec("from folcan.exact_core import no_such_name", {})
