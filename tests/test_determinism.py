"""Byte-identical stdout across processes whose string hash seeds differ.

Each query runs the CLI in two fresh interpreters, under ``PYTHONHASHSEED``
0 and 1, through ``python -c 'from folcan.cli import main; main()'`` (the
package has no ``__main__``, and ``src`` goes on ``PYTHONPATH``, so nothing
needs installing), and the two stdouts must be equal byte for byte: set and
dict iteration order must never reach the output. The second enumerate
query has fractional k1, cusps and the divides rule, so the m = 1 screen
works over a common denominator above 2. The hilbert document has
fractional k1, a cusp, a dihedral-half point and an index-5 point: an
extrapolated, integral table.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SHIM = "from folcan.cli import main; main()"
NUMERICS = {
    "k1": "14/5",
    "k2": "3",
    "chi": 2,
    "basket": [{"kind": "NonQGorCusp"}, {"kind": "DihedralHalf"}, {"kind": "TerminalCyclic", "n": 5}],
}
QUERIES = {
    "enumerate": ["enumerate", "--k1", "1", "--k2", "0", "--s", "12", "--chi", "0,1,2", "--cap", "4",
                  "--max-cusps", "2"],
    "screen": ["enumerate", "--k1", "1/2", "--k2", "1", "--s", "6", "--chi", "0,3", "--cap", "3", "--max-cusps", "2",
               "--q-index-divides"],
    "hilbert": ["hilbert", "--numerics", "{numerics}", "--mmax", "40"],
}


@pytest.mark.parametrize("output_format", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_stdout_does_not_depend_on_the_hash_seed(name, output_format, tmp_path):
    numerics = tmp_path / "hilbert_numerics.json"
    numerics.write_text(json.dumps(NUMERICS))
    argv = ["--format", output_format] + [arg.format(numerics=numerics) for arg in QUERIES[name]]
    runs = []
    for seed in ("0", "1"):
        path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        runs.append(
            subprocess.Popen(
                [sys.executable, "-c", SHIM, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
            )
        )
    results = [(run.returncode, out, err) for run in runs for out, err in [run.communicate(timeout=120)]]
    status, out, err = results[0]
    assert status == 0 and err == b"" and out, (status, err)
    assert results[1] == results[0]
    if output_format == "json" and name != "hilbert":
        assert json.loads(out)["count"] > 0  # a nonempty family, so its order is exercised
