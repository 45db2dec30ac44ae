"""Corrections rendered from the integer form, against the Fraction definition.

A ``HilbertFunction`` holds its integer form (D, a, b, c); its ``Fraction``
corrections are a view built on first read. The documents render each
correction from c[r] / D instead, so these tests check the texts of the
``hilbert`` JSON, the ``enumerate`` JSON and the ``enumerate`` CSV against
``format_rational`` of ``basket_term`` at indices 30 and 60 (the golden files
stop at s = 6), and that an ``enumerate`` run builds no view at all.
"""

import csv
import io
import json
from fractions import Fraction

import pytest

from folcan.baskets import basket_term, q_index
from folcan.cli import run
from folcan.exact_core import format_rational
from folcan.riemann_roch import HilbertFunction
from folcan.serialization import basket_from_json


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, stdout=out, stderr=err) == 0, err.getvalue()
    return out.getvalue()


def expected_corrections(basket, period):
    # the Fraction definition: residue r holds the basket's term at r or T
    return [format_rational(basket_term(basket, r or period)) for r in range(period)]


@pytest.mark.parametrize("s,k1,k2", [(30, "1", "-2"), (60, "1", "-2"), (60, "5/6", "0")])
def test_corrections_equal_the_fraction_definition(tmp_path, s, k1, k2):
    # the enumerate JSON and CSV list each function at its minimal period; the
    # hilbert JSON of a witness lists its table at the witness's own index
    argv = ["enumerate", f"--k1={k1}", f"--k2={k2}", "--s", str(s), "--chi", "0,1", "--cap", "4",
            "--max-cusps", "2", "--q-index-divides"]
    functions = json.loads(invoke(argv))["functions"]
    rows = list(csv.reader(io.StringIO(invoke(["--format", "csv", *argv]))))
    assert rows[0][4] == "correction" and len(rows) == len(functions) + 1 >= 40
    texts, tables = set(), 0
    path = tmp_path / "numerics.json"
    for entry, row in zip(functions, rows[1:]):
        function = entry["function"]
        for witness in entry["witnesses"]:
            basket = basket_from_json(witness)
            expected = expected_corrections(basket, function["period"])
            assert function["correction"] == expected and row[4] == " ".join(expected)
        texts |= set(function["correction"])
        if function["chi"] == 1 and len(entry["witnesses"]) > 1:  # a sample of the witnesses, at one chi
            path.write_text(json.dumps({"k1": k1, "k2": k2, "chi": 1, "basket": witness}))
            table = json.loads(invoke(["hilbert", "--numerics", str(path), "--mmax", "0"]))["hilbert_function"]
            assert table["correction"] == expected_corrections(basket, q_index(basket))
            tables += 1
    assert tables >= 5 and any("/" in t for t in texts) and any("/" not in t for t in texts)


def test_enumerate_builds_no_correction_view(monkeypatch):
    # every HilbertFunction an enumerate run makes is built by _from_integers
    # or copied by _copy (cusp variants, the merged forms and, through
    # _with_chi, their chi copies); none of them may hold its Fraction view
    # after the JSON document is written
    built = []
    from_integers, copy, with_chi = HilbertFunction._from_integers, HilbertFunction._copy, HilbertFunction._with_chi

    def recorded(func):
        built.append(func)
        return func

    monkeypatch.setattr(HilbertFunction, "_from_integers", classmethod(lambda cls, *a: recorded(from_integers(*a))))
    monkeypatch.setattr(HilbertFunction, "_with_chi", lambda self, chi: recorded(with_chi(self, chi)))
    monkeypatch.setattr(HilbertFunction, "_copy", lambda self, *a, **kw: recorded(copy(self, *a, **kw)))
    # the s = 60 cap 4 rungs of the benchmark ladder accept no part under the
    # exact index, so this one reads q_index_divides; s = 12 cap 6 is the
    # ladder's high-acceptance rung
    rungs = [["--s", "60", "--cap", "4", "--q-index-divides"], ["--s", "12", "--cap", "6"]]
    for rung in rungs:
        built.clear()
        argv = ["enumerate", "--k1", "1", "--k2", "0", "--chi", "0,1,2", "--max-cusps", "2", *rung]
        functions = json.loads(invoke(argv))["functions"]
        assert len(functions) >= 90 and len(built) >= len(functions)
        assert [vars(h) for h in built if "correction" in vars(h)] == []
    # the view is built on first read, from the integer form
    h = built[-1]
    den, _, _, c = h._integer_form
    assert h.correction == tuple(Fraction(x, den) for x in c)
    assert "correction" in vars(h)
