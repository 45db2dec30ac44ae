import contextlib
import hashlib
import io
import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

import folcan.cli
import folcan.constructions
import folcan.surface_model
from folcan.cli import run
from folcan.surface_model import mumford_pullback


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    status = run(argv, stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture
def model_file(tmp_path):
    doc = {
        "basis_labels": ["s", "e"],
        "pairing": [["0", "1"], ["1", "-2"]],
        "distinguished_classes": {"twice": ["2", "0"]},
        "resolution": {
            "exceptional_indices": [1],
            "strict_transforms": {"D": ["1", "0"]},
        },
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def numerics_file(tmp_path):
    doc = {
        "k1": "1",
        "k2": "0",
        "chi": 1,
        "basket": [{"kind": "TerminalCyclic", "n": 2}, {"kind": "TerminalCyclic", "n": 2}],
    }
    path = tmp_path / "numerics.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_intersect_named_weil_class(model_file):
    status, out, err = invoke(["intersect", "--model", model_file, "--left", "D", "--right", "D"])
    assert status == 0 and err == ""
    payload = json.loads(out)
    assert payload["value"] == "1/2"
    assert payload["pullback_left"] == ["1", "1/2"]


def test_intersect_vector_literals(model_file):
    status, out, _ = invoke(["intersect", "--model", model_file, "--left", "1,0", "--right", "0,1"])
    assert status == 0
    # pullbacks pair to zero with the exceptional curve
    assert json.loads(out)["value"] == "0"


def test_intersect_negative_vector_equals_form(model_file):
    # leading minus must not be read as a flag
    status, out, _ = invoke(["intersect", "--model", model_file, "--left=-1,0", "--right", "1,0"])
    assert status == 0
    assert json.loads(out)["left"] == ["-1", "0"]


def test_intersect_distinguished_name(model_file):
    status, out, _ = invoke(["intersect", "--model", model_file, "--left", "twice", "--right", "D"])
    assert status == 0
    assert json.loads(out)["value"] == "1"


def test_intersect_unknown_name(model_file):
    status, out, err = invoke(["intersect", "--model", model_file, "--left", "nope", "--right", "D"])
    assert status == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_input"
    assert "nope" in error["message"]


def test_intersect_missing_file(tmp_path):
    status, _, err = invoke(["intersect", "--model", str(tmp_path / "absent.json"), "--left", "D", "--right", "D"])
    assert status == 1
    assert json.loads(err)["error"]["code"] == "io_error"


def test_intersect_unparseable_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    status, _, err = invoke(["intersect", "--model", str(path), "--left", "D", "--right", "D"])
    assert status == 1
    assert json.loads(err)["error"]["code"] == "json_parse_error"


INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(INT_LIMIT == 0, reason="the interpreter has no int-string limit")


@pytest.mark.parametrize("content", [
    pytest.param(json.dumps({"k1": "1", "k2": "0", "chi": 1}).encode("utf-16"), id="utf16"),
    pytest.param(b"\xe9", id="latin1-byte"),
    pytest.param(b"[" * 100_000, id="nested-past-the-recursion-limit"),
    pytest.param(b'{"k1": "1", "k2": "0", "chi": 1%s}' % (b"0" * INT_LIMIT), id="integer-past-the-int-string-limit",
                 marks=needs_int_limit),
])
def test_documents_that_do_not_parse_are_json_parse_errors(content, tmp_path):
    path = tmp_path / "numerics.json"
    path.write_bytes(content)
    status, out, err = invoke(["hilbert", "--numerics", str(path), "--mmax", "2"])
    assert (status, out) == (1, "")
    assert json.loads(err)["error"]["code"] == "json_parse_error"


@needs_int_limit
@pytest.mark.parametrize("output_format", ["json", "csv"])
@pytest.mark.parametrize("command", ["bounds", "intersect"])
def test_results_past_the_int_string_limit_are_refused(command, output_format, model_file, tmp_path):
    # each input integer has INT_LIMIT / 2 + 1 digits, so it parses, and the
    # result holds its square: k2^2 / k1 in bounds, the pairing in intersect
    big = "9" * (INT_LIMIT // 2 + 1)
    if command == "bounds":
        argv = ["bounds", "--k1", "1", "--k2", big, "--s", "1"]
    else:
        argv = ["intersect", "--model", model_file, "--left", f"{big},0", "--right", f"{big},0"]
    target = tmp_path / "report.txt"
    status, out, err = invoke(["--format", output_format, "--out", str(target)] + argv)
    assert (status, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_input" and error["context"] == {"limit": INT_LIMIT}
    assert not target.exists()


def test_intersect_document_error(tmp_path):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"basis_labels": ["a"]}))
    status, _, err = invoke(["intersect", "--model", str(path), "--left", "a", "--right", "a"])
    assert status == 1
    assert json.loads(err)["error"]["code"] == "document_error"


def test_intersect_validation_error(tmp_path):
    doc = {
        "basis_labels": ["e"],
        "pairing": [["1"]],
        "resolution": {"exceptional_indices": [0]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    status, _, err = invoke(["intersect", "--model", str(path), "--left", "e", "--right", "e"])
    assert status == 2
    assert json.loads(err)["error"]["code"] == "not_negative_definite"


def test_hilbert_table(numerics_file):
    status, out, _ = invoke(["hilbert", "--numerics", numerics_file, "--mmax", "4"])
    assert status == 0
    payload = json.loads(out)
    assert payload["integral"] is True
    assert payload["values"] == [[0, "1"], [1, "1"], [2, "3"], [3, "5"], [4, "9"]]
    assert payload["hilbert_function"]["correction"] == ["0", "-1/2"]


def test_hilbert_csv(numerics_file):
    status, out, _ = invoke(["--format", "csv", "hilbert", "--numerics", numerics_file, "--mmax", "2"])
    assert status == 0
    assert out == "m,P\n0,1\n1,1\n2,3\n"


def test_format_flag_after_subcommand(numerics_file, tmp_path):
    # both flag positions must produce identical output
    status, out, _ = invoke(["hilbert", "--numerics", numerics_file, "--mmax", "2", "--format", "csv"])
    assert status == 0
    assert out == "m,P\n0,1\n1,1\n2,3\n"

    out_path = tmp_path / "table.csv"
    status, out, _ = invoke(
        ["example", "ruled", "--k", "2", "--g", "2", "--q", "0", "--format", "csv", "--out", str(out_path)]
    )
    assert status == 0
    assert out == ""
    assert out_path.read_text().startswith("quantity,value\nkf2,")


def test_hilbert_zero_rows(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"k1": "2", "k2": "2", "chi": 7}))
    status, out, _ = invoke(["hilbert", "--numerics", str(path), "--mmax", "0"])
    assert status == 0
    assert json.loads(out)["values"] == [[0, "7"]]


def test_hilbert_non_integral_still_reports(tmp_path):
    path = tmp_path / "frac.json"
    path.write_text(json.dumps({"k1": "1", "k2": "0", "chi": 1, "basket": [{"kind": "TerminalCyclic", "n": 2}]}))
    status, out, _ = invoke(["hilbert", "--numerics", str(path), "--mmax", "1"])
    assert status == 0
    payload = json.loads(out)
    assert payload["integral"] is False
    assert payload["values"][1] == [1, "5/4"]
    assert "hilbert_function" not in payload


def test_enumerate_reference(tmp_path):
    argv = ["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "1", "--cap", "2", "--max-cusps", "1"]
    status, out, _ = invoke(argv)
    assert status == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    corrections = [f["function"]["correction"] for f in payload["functions"]]
    assert corrections == [["-1", "-3/2"], ["0", "-1/2"]]
    assert all(len(f["witnesses"]) == 4 for f in payload["functions"])
    # value tables are part of the document
    assert payload["functions"][1]["values"]["0"] == "1"
    assert payload["functions"][1]["values"]["4"] == "9"


def test_enumerate_worker_count_bytes(tmp_path):
    base = ["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "0,1", "--cap", "3"]
    reference = invoke(base + ["--max-cusps", "2", "--workers", "1"])
    for workers in ("2", "4"):
        assert invoke(base + ["--max-cusps", "2", "--workers", workers]) == reference
    # --no-cusps is --max-cusps 0, whatever --max-cusps says
    no_cusps = invoke(base + ["--max-cusps", "0"])
    assert no_cusps[0] == 0 and json.loads(no_cusps[1])["query"]["max_cusps"] == 0
    assert invoke(base + ["--no-cusps"]) == no_cusps
    assert invoke(base + ["--max-cusps", "2", "--no-cusps"]) == no_cusps


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--workers", "0"], "worker_count must be a positive integer, got 0"),
        (["--no-cusps", "--max-cusps=-1"], "max_cusps must be nonnegative, got -1"),
    ],
)
def test_enumerate_refuses_bad_workers_and_cusps(flags, message):
    status, out, err = invoke(["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "0", "--cap", "1"] + flags)
    assert status == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_input"
    assert error["message"] == message


def test_enumerate_csv():
    argv = ["--format", "csv", "enumerate", "--k1", "2", "--k2", "2", "--s", "1", "--chi", "1", "--cap", "0"]
    status, out, _ = invoke(argv)
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "k1,k2,chi,period,correction,extrapolated,witness_count"
    assert lines[1] == "2,2,1,1,0,false,1"


def test_enumerate_rejects_bad_volume():
    status, _, err = invoke(["enumerate", "--k1", "0", "--k2", "0", "--s", "1", "--chi", "1", "--cap", "0"])
    assert status == 2
    assert json.loads(err)["error"]["code"] == "non_positive_volume"


def test_bounds_reference():
    status, out, _ = invoke(["bounds", "--k1", "8", "--k2", "8", "--s", "1"])
    assert status == 0
    payload = json.loads(out)
    assert payload == {
        "interval_empty": False,
        "kx2_lower_exclusive": "-192",
        "kx2_upper": "8",
    }


def test_bounds_with_kx2():
    status, out, _ = invoke(["bounds", "--k1", "8", "--k2", "8", "--s", "1", "--kx2", "8"])
    payload = json.loads(out)
    assert status == 0
    assert payload["D_squared"] == "200"
    assert payload["D_dot_KX"] == "40"
    assert payload["kx2_in_window"] is True


def test_bounds_variant_reported():
    status, out, _ = invoke(["bounds", "--k1", "1", "--k2", "0", "--s", "2"])
    payload = json.loads(out)
    assert payload["kx2_lower_exclusive"] == "-64"
    assert payload["kx2_lower_exclusive_variant"] == "-32"


def test_example_ruled():
    status, out, _ = invoke(["example", "ruled", "--k", "2", "--g", "2", "--q", "2"])
    assert status == 0
    payload = json.loads(out)
    assert payload["kf2"] == "8"
    assert payload["kf_dot_kx"] == "12"
    assert payload["fiber_genus"] == 2
    assert payload["aux_branch_dot_fiber"] == "6"
    assert "assumptions" in payload


def test_example_abelian():
    status, out, _ = invoke(["example", "abelian", "--d", "2", "--n", "1"])
    payload = json.loads(out)
    assert payload["kf2"] == "16"
    assert payload["fiber_genus"] == 5


def test_example_sweep_csv():
    status, out, _ = invoke(["--format", "csv", "example", "ruled", "--k", "2", "--g", "2", "--q", "0", "--sweep", "q=0..3"])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "q,kf2,kf_dot_kx,fiber_genus"
    assert len(lines) == 5
    # kf2 column constant, kf_dot_kx rising with q
    assert [line.split(",")[1] for line in lines[1:]] == ["8"] * 4
    assert [line.split(",")[2] for line in lines[1:]] == ["4", "8", "12", "16"]


def test_example_sweep_bad_param():
    status, _, err = invoke(["example", "abelian", "--d", "2", "--n", "0", "--sweep", "q=0..3"])
    assert status == 2
    assert json.loads(err)["error"]["code"] == "invalid_input"
    # a ruled family's k must be even, so it is not a sweep parameter: refused
    # before any report is built, even over one value
    for sweep in ("k=2..4", "k=2..2"):
        status, out, err = invoke(["example", "ruled", "--k", "2", "--g", "2", "--q", "0", "--sweep", sweep])
        assert status == 2 and out == ""
        assert json.loads(err)["error"]["message"] == "sweep parameter 'k' not in ('g', 'q')"
    # a malformed or empty range is a usage error
    for sweep, message in (
        ("n1..3", "sweep must look like param=a..b, got 'n1..3'"),
        ("=1..3", "sweep must look like param=a..b, got '=1..3'"),
        ("n=1-3", "sweep must look like param=a..b, got 'n=1-3'"),
        ("n=3..1", "empty sweep range: 'n=3..1'"),
    ):
        status, out, err = invoke(["example", "abelian", "--d", "3", "--n", "2", "--sweep", sweep])
        assert status == 2 and out == "", sweep
        assert err.startswith("usage: folcan") and f"argument --sweep: {message}" in err, err


def test_example_invalid_input():
    status, _, err = invoke(["example", "ruled", "--k", "3", "--g", "2", "--q", "0"])
    assert status == 2
    assert json.loads(err)["error"]["code"] == "invalid_input"


def test_argparse_errors_exit_two(capsys):
    status, _, _ = invoke(["enumerate", "--k1", "x", "--k2", "0", "--s", "1", "--chi", "1", "--cap", "0"])
    assert status == 2
    status, _, _ = invoke(["--format", "xml", "bounds", "--k1", "1", "--k2", "0", "--s", "1"])
    assert status == 2
    status, _, _ = invoke([])
    assert status == 2
    # there is no global --seed: nothing in folcan is random
    status, _, _ = invoke(["--seed", "1", "bounds", "--k1", "1", "--k2", "0", "--s", "1"])
    assert status == 2


def test_out_flag(tmp_path):
    target = tmp_path / "report.json"
    status, out, _ = invoke(["--out", str(target), "bounds", "--k1", "8", "--k2", "8", "--s", "1"])
    assert status == 0 and out == ""
    assert json.loads(target.read_text())["kx2_upper"] == "8"
    # a report that cannot be written is an I/O error, and nothing is printed
    status, out, err = invoke(["--out", str(tmp_path), "bounds", "--k1", "8", "--k2", "8", "--s", "1"])
    assert status == 1 and out == ""
    assert json.loads(err)["error"]["code"] == "io_error"


def test_out_is_written_only_after_the_handler_returns(tmp_path):
    # a refusal (exit 2) and a missing input file (exit 1) create no --out file
    target = tmp_path / "report.json"
    for argv, status, code in (
        (["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--cap", "2", "--chi", ",".join(map(str, range(101)))], 2, "invalid_input"),
        (["hilbert", "--numerics", str(tmp_path / "missing.json"), "--mmax", "3"], 1, "io_error"),
    ):
        got, out, err = invoke(["--out", str(target)] + argv)
        assert (got, out) == (status, "")
        assert json.loads(err)["error"]["code"] == code
        assert not target.exists()


@pytest.mark.parametrize("flag", ["--numerics", "--model", "--out"])
def test_a_nul_byte_in_a_path_is_an_io_error(flag, model_file, numerics_file, tmp_path):
    # open refuses the path with a ValueError before the OS sees it; no --out file is made
    bad = str(tmp_path / "a\0b")
    argv = {
        "--numerics": ["hilbert", "--numerics", bad, "--mmax", "1"],
        "--model": ["intersect", "--model", bad, "--left", "D", "--right", "D"],
        "--out": ["--out", bad, "bounds", "--k1", "8", "--k2", "8", "--s", "1"],
    }[flag]
    status, out, err = invoke(argv)
    assert (status, out) == (1, "")
    assert json.loads(err)["error"] == {"code": "io_error", "message": "embedded null byte", "context": {}}
    assert sorted(os.listdir(tmp_path)) == ["model.json", "numerics.json"]


def test_intersect_refuses_a_model_past_the_exceptional_rank_limit(tmp_path):
    n = folcan.surface_model.MAX_EXCEPTIONAL_RANK + 1
    doc = {
        "basis_labels": [f"c{i}" for i in range(n)],
        "pairing": [["-2" if i == j else str(int(abs(i - j) == 1)) for j in range(n)] for i in range(n)],
        "resolution": {"exceptional_indices": list(range(n))},
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    status, out, err = invoke(["intersect", "--model", str(path), "--left", "c0", "--right", "c0"])
    assert (status, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_input"
    assert error["context"] == {"exceptional_rank": n, "limit": n - 1}


def test_byte_determinism(model_file, numerics_file):
    for argv in (
        ["intersect", "--model", model_file, "--left", "D", "--right", "D"],
        ["hilbert", "--numerics", numerics_file, "--mmax", "6"],
        ["--format", "csv", "hilbert", "--numerics", numerics_file, "--mmax", "6"],
        ["bounds", "--k1", "8", "--k2", "8", "--s", "1"],
        ["example", "abelian", "--d", "3", "--n", "2"],
    ):
        assert invoke(argv) == invoke(argv)


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_intersect_solves_each_pullback_once(model_file, monkeypatch, output_format):
    # the handler reads surface_model's name when it runs, so this one patch counts
    # its calls and any solved inside weil_intersect
    calls = []

    def counting_pullback(resolution, strict):
        calls.append(strict)
        return mumford_pullback(resolution, strict)

    monkeypatch.setattr(folcan.surface_model, "mumford_pullback", counting_pullback)
    status, _, err = invoke(["--format", output_format, "intersect", "--model", model_file, "--left", "D",
                             "--right", "0,1"])
    assert status == 0, err
    assert len(calls) == 2


def test_argparse_output_goes_to_the_given_streams(capsys):
    status, out, err = invoke(["bounds", "--k1", "x"])
    assert status == 2 and out == ""
    assert err.startswith("usage: folcan") and "error:" in err
    status, out, err = invoke(["--help"])
    assert status == 0 and err == ""
    assert out.startswith("usage: folcan") and "Exact numerical invariants of foliated surfaces." in out
    status, out, err = invoke(["enumerate", "--help"])
    assert status == 0 and out.startswith("usage: folcan enumerate") and err == ""
    assert capsys.readouterr() == ("", "")


HELP_AND_USAGE = [
    ["--help"],
    *([name, "--help"] for name in ("intersect", "hilbert", "enumerate", "bounds", "example")),
    ["example", "ruled", "--help"],
    ["enumerate", "--k1", "1"],  # a usage error: its usage text goes to stderr
]


@pytest.mark.parametrize("argv", HELP_AND_USAGE, ids=" ".join)
def test_help_and_usage_do_not_depend_on_the_terminal(argv, monkeypatch):
    seen = []
    for columns in (None, "40", "200"):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        seen.append(invoke(argv))
    assert seen[0] == seen[1] == seen[2]
    status, out, err = seen[0]
    text = out if status == 0 else err
    assert status == (0 if "--help" in argv else 2) and text.startswith("usage: folcan")
    # wrapped at 78 columns, argparse's width when stdout is not a terminal; an error line is not wrapped
    assert max(len(line) for line in text.splitlines() if ": error: " not in line) <= 78


def test_one_parser_serves_many_runs(model_file, numerics_file, tmp_path, monkeypatch):
    out_path = tmp_path / "out.txt"
    bounds = ["bounds", "--k1", "8", "--k2", "8", "--s", "1", "--kx2", "6"]
    hilbert = ["hilbert", "--numerics", numerics_file, "--mmax", "5"]
    cases = [
        ["--help"],
        bounds,
        ["--format", "csv", *bounds],
        [*bounds, "--format", "csv"],
        ["bounds", "--k1", "x", "--k2", "8", "--s", "1"],
        ["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "1", "--cap", "2", "--max-cusps", "1"],
        ["example", "ruled", "--k", "2", "--g", "2", "--q", "0"],
        ["example", "abelian", "--d", "2", "--n", "1", "--sweep", "n=1..4", "--format", "csv"],
        ["example", "ruled", "--help"],
        ["--out", str(out_path), *hilbert],
        [*hilbert, "--format", "csv", "--out", str(out_path)],
        ["--format", "csv", "--out", str(out_path), "example", "abelian", "--d", "2", "--n", "1"],
        ["intersect", "--model", model_file, "--left", "D", "--right", "0,1"],
        ["example", "abelian", "--help"],
        ["enumerate", "--help"],
        ["example"],
        ["--format", "xml", *bounds],
        ["hilbert", "--numerics", numerics_file, "--mmax", "100001"],
        ["intersect", "--model", str(tmp_path / "missing.json"), "--left", "D", "--right", "D"],
    ]
    cases += cases[::-1]

    def run_all():
        results = []
        for argv in cases:
            status, out, err = invoke(argv)
            written = out_path.read_text() if out_path.exists() else None
            out_path.unlink(missing_ok=True)
            results.append((status, out, err, written))
        return results

    fresh = run_all()
    parser = folcan.cli.build_parser()
    monkeypatch.setattr(folcan.cli, "build_parser", lambda: parser)
    assert run_all() == fresh
    statuses = [status for status, *_ in fresh]
    assert statuses.count(0) > len(cases) // 2 and {1, 2} <= set(statuses)
    assert sum(written is not None for *_, written in fresh) == 6


def test_hilbert_mmax_limit(numerics_file, monkeypatch):
    assert folcan.cli.MAX_MMAX == 100_000
    monkeypatch.setattr(folcan.cli, "MAX_MMAX", 5)
    status, out, _ = invoke(["hilbert", "--numerics", numerics_file, "--mmax", "5"])
    assert status == 0 and len(json.loads(out)["values"]) == 6
    status, out, err = invoke(["hilbert", "--numerics", numerics_file, "--mmax", "6"])
    assert status == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_input"
    assert error["message"] == "--mmax 6 is above the limit of 5"
    assert error["context"] == {"mmax": 6, "limit": 5}


def test_module_runs_as_a_script(numerics_file):
    # python -m folcan.cli is the console script: same output, same exit status
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")}

    def script(*argv):
        return subprocess.run([sys.executable, "-m", "folcan.cli", *argv], env=env, capture_output=True, text=True)

    argv = ["bounds", "--k1", "1", "--k2", "0", "--s", "1"]
    done = script(*argv)
    assert (done.returncode, done.stdout, done.stderr) == invoke(argv) and done.stdout
    done = script("hilbert", "--numerics", numerics_file, "--mmax", "100001")
    assert done.returncode == 2 and done.stdout == ""
    assert json.loads(done.stderr)["error"]["code"] == "invalid_input"


def test_example_sweep_limit_returns_at_once(monkeypatch):
    def never(*args):
        raise AssertionError("a report was built for a refused sweep")

    assert folcan.cli.MAX_SWEEP == 10_000
    status, out, _ = invoke(["example", "ruled", "--k", "2", "--g", "2", "--q", "0", "--sweep", "q=5..9"])
    assert status == 0 and len(json.loads(out)) == 5
    monkeypatch.setattr(folcan.constructions, "ruled_double_cover", never)
    monkeypatch.setattr(folcan.constructions, "abelian_double_cover", never)
    for argv, length, limit in (
        (["example", "ruled", "--k", "2", "--g", "2", "--q", "0", "--sweep", "q=0..100000000"], 100000001, 10_000),
        (["example", "ruled", "--k", "2", "--g", "2", "--q", "0", "--sweep", "q=5..9"], 5, 4),
        (["--format", "csv", "example", "abelian", "--d", "3", "--n", "2", "--sweep", "d=3..7"], 5, 4),
    ):
        monkeypatch.setattr(folcan.cli, "MAX_SWEEP", limit)
        status, out, err = invoke(argv)
        assert status == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "invalid_input"
        assert error["message"] == f"the sweep spans {length} values, above the limit of {limit}"
        assert error["context"] == {"sweep": length, "limit": limit}


def test_enumerate_basket_limit_returns_at_once(monkeypatch):
    import folcan.bounds

    def never(*args):
        raise AssertionError("baskets were generated for a refused query")

    monkeypatch.setattr(folcan.bounds, "enumerate_baskets", never)
    argv = ["enumerate", "--k1", "1", "--k2", "0", "--s", "60", "--chi", "0", "--cap", "1000000", "--max-cusps", "2"]
    status, out, err = invoke(argv)
    assert status == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_input"
    assert error["context"]["limit"] == folcan.bounds.MAX_BASKETS == 1_000_000
    assert error["context"]["baskets"] > error["context"]["limit"]
    assert error["message"] == (
        f"the query spans {error['context']['baskets']} baskets, above the limit of {folcan.bounds.MAX_BASKETS}"
    )


def test_enumerate_chi_limit_returns_at_once(monkeypatch):
    import folcan.bounds

    def never(*args):
        raise AssertionError("baskets were generated for a refused query")

    base = ["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--cap", "2", "--max-cusps", "1", "--chi"]
    status, out, _ = invoke(base + [",".join(map(str, range(100)))])
    assert status == 0 and json.loads(out)["count"] == 200
    monkeypatch.setattr(folcan.bounds, "enumerate_baskets", never)
    status, out, err = invoke(base + [",".join(map(str, range(101)))])
    assert status == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_input"
    assert error["context"] == {"chi_values": 101, "limit": folcan.bounds.MAX_CHI} == {"chi_values": 101, "limit": 100}
    assert error["message"] == "the query asks for 101 chi values, above the limit of 100"


def test_oversized_period_returns_at_once(tmp_path, monkeypatch):
    import folcan.baskets

    calls = []
    original = folcan.baskets.local_term

    def counting(profile, m):
        calls.append(m)
        return original(profile, m)

    monkeypatch.setattr(folcan.baskets, "local_term", counting)
    doc = {"k1": "1", "k2": "0", "chi": 1, "basket": [{"kind": "TerminalCyclic", "n": 10**6}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for argv, period in (
        (["hilbert", "--numerics", str(path), "--mmax", "3"], 10**6),
        (["--format", "csv", "hilbert", "--numerics", str(path), "--mmax", "3"], 10**6),
        (["enumerate", "--k1", "1", "--k2", "0", "--s", "1000003", "--chi", "0", "--cap", "1"], 1000003),
    ):
        status, out, err = invoke(argv)
        assert status == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "invalid_input"
        assert error["context"] == {"period": period, "limit": 100_000}
    # both formats refuse the period before any row or term table is evaluated
    assert len(calls) == 0


def test_non_canonical_rationals_are_refused(tmp_path):
    status, out, err = invoke(["bounds", "--k1", "2/4", "--k2", "0", "--s", "2"])
    assert status == 2 and out == ""
    assert "not a canonical rational: '2/4'" in err
    doc = {"k1": "1", "k2": " 0", "chi": 1, "basket": []}
    path = tmp_path / "padded.json"
    path.write_text(json.dumps(doc))
    status, out, err = invoke(["hilbert", "--numerics", str(path), "--mmax", "1"])
    assert status == 1 and out == ""
    assert json.loads(err)["error"]["code"] == "document_error"


# each integer flag, --chi entry and --sweep endpoint, with a command line
# that exits 0 when "{}" is replaced by the valid value given with it
INTEGER_FLAGS = [
    (["hilbert", "--numerics", "NUMERICS", "--mmax", "{}"], "3"),
    (["enumerate", "--k1", "1", "--k2", "0", "--s", "{}", "--chi", "0", "--cap", "1"], "2"),
    (["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "0", "--cap", "{}"], "1"),
    (["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "0", "--cap", "1", "--max-cusps", "{}"], "1"),
    (["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "0", "--cap", "1", "--workers", "{}"], "2"),
    (["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "{}", "--cap", "1"], "-1"),
    (["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "0,{}", "--cap", "1"], "3"),
    (["bounds", "--k1", "1", "--k2", "0", "--s", "{}"], "3"),
    (["example", "ruled", "--k", "{}", "--g", "2", "--q", "0"], "2"),
    (["example", "ruled", "--k", "2", "--g", "{}", "--q", "0"], "3"),
    (["example", "ruled", "--k", "2", "--g", "2", "--q", "{}"], "1"),
    (["example", "abelian", "--d", "{}", "--n", "2"], "3"),
    (["example", "abelian", "--d", "3", "--n", "{}"], "2"),
    (["example", "ruled", "--k", "2", "--g", "2", "--q", "0", "--sweep", "q={}..2"], "0"),
    (["example", "ruled", "--k", "2", "--g", "2", "--q", "0", "--sweep", "q=0..{}"], "2"),
]
NON_CANONICAL_INTEGERS = ["٣", " 1_0 ", "1_0", "+7", "007", "-0", "", " 3", "3 ", "1.0", "0x1", "²"]


@pytest.mark.parametrize("template,valid", INTEGER_FLAGS, ids=[" ".join(t) for t, _ in INTEGER_FLAGS])
def test_integer_flags_are_strict(template, valid, numerics_file):
    def argv(value):
        return [numerics_file if arg == "NUMERICS" else arg.replace("{}", value) for arg in template]

    status, out, err = invoke(argv(valid))
    assert status == 0 and err == ""
    for text in NON_CANONICAL_INTEGERS:
        status, out, err = invoke(argv(text))
        assert status == 2 and out == "", text
        assert "not a canonical integer" in err, text


@pytest.mark.parametrize("chi", ["", ",", "0,", ",0", "0,,1"])
def test_empty_chi_entries_are_usage_errors(chi):
    status, out, err = invoke(["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", chi, "--cap", "1"])
    assert status == 2 and out == ""
    assert "not a canonical integer: ''" in err


def test_negative_integer_flags_reach_their_checks(numerics_file):
    status, out, err = invoke(["hilbert", "--numerics", numerics_file, "--mmax=-3"])
    assert status == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "invalid_input"
    status, _, err = invoke(["bounds", "--k1", "1", "--k2", "0", "--s=-3"])
    assert status == 2 and json.loads(err)["error"]["code"] == "invalid_input"


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_enumerate_cap_zero_returns_at_once():
    # with --cap 0 nothing scans the divisors of s (three scans took about 20 s
    # at s = 10^16 on a 2-core VM); the digests are of the stdout the
    # divisor-scanning code printed
    from fractions import Fraction

    from folcan.bounds import EnumerationQuery, enumerate_hilbert

    s = 10**16
    query = EnumerationQuery(k1=Fraction(1), k2=Fraction(1), s=s, chi_set={0, 2}, basket_cap=0, max_cusps=2,
                             q_index_divides=True)
    with time_limit(1):
        assert len(enumerate_hilbert(query)) == 6
    argv = ["enumerate", "--k1", "1", "--k2", "1", "--s", str(s), "--chi", "0,2", "--cap", "0", "--max-cusps", "2",
            "--q-index-divides"]
    for prefix, digest in (
        ([], "2eae25797a8762c18274bd9bc8aa937c7f5130129b7ae7de523fcf3a5fbd9845"),
        (["--format", "csv"], "27f27ffd6636bda1c6405cfd07668b20ac6cac24b516ded6419e4f47e12b52bc"),
    ):
        with time_limit(1):
            status, out, err = invoke(prefix + argv)
        assert status == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class Recorder(io.StringIO):
    """A stdout that keeps every write, an empty one included."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@needs_int_limit
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_enumerate_values_past_the_int_string_limit_are_refused(to_file, tmp_path):
    # k1 = 2 * 10^(L - 1) has L digits, so it parses, and P(4) = 8 k1 has L + 1;
    # the document is written as it is made, so the refusal must come before its first byte
    target = tmp_path / "functions.json"
    flags = ["--out", str(target)] if to_file else []
    tail = ["--k2", "0", "--s", "1", "--chi", "0", "--cap", "0"]
    out, err = Recorder(), io.StringIO()
    status = run(flags + ["enumerate", "--k1", "2" + "0" * (INT_LIMIT - 1)] + tail, out, err)
    assert (status, out.writes) == (2, [])
    error = json.loads(err.getvalue())["error"]
    assert error["code"] == "invalid_input" and error["context"] == {"limit": INT_LIMIT}
    assert not target.exists()
    # one digit less, the largest value, P(4) = 16 * 10^(L - 2), has exactly L digits and is written
    status, out, err = invoke(flags + ["enumerate", "--k1", "2" + "0" * (INT_LIMIT - 2)] + tail)
    assert (status, err) == (0, "")
    values = json.loads(target.read_text() if to_file else out)["functions"][0]["values"]
    assert max(len(text) for text in values.values()) == len(values["4"]) == INT_LIMIT


@pytest.mark.parametrize("case", ["chi-limit", "basket-limit", "period-limit", "out-directory", "out-nul-byte"])
def test_failed_enumerate_runs_write_nothing_to_stdout(case, tmp_path):
    small = ["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "0,1", "--cap", "2"]
    argv, status, code = {
        "chi-limit": (small[:-4] + ["--chi", ",".join(map(str, range(101))), "--cap", "2"], 2, "invalid_input"),
        "basket-limit": (["enumerate", "--k1", "1", "--k2", "0", "--s", "60", "--chi", "0", "--cap", "9",
                          "--max-cusps", "2"], 2, "invalid_input"),
        "period-limit": (["enumerate", "--k1", "1", "--k2", "0", "--s", "100001", "--chi", "0", "--cap", "1"],
                         2, "invalid_input"),
        "out-directory": (["--out", str(tmp_path)] + small, 1, "io_error"),
        "out-nul-byte": (["--out", str(tmp_path / "a\0b")] + small, 1, "io_error"),
    }[case]
    out, err = Recorder(), io.StringIO()
    assert run(argv, out, err) == status
    assert out.writes == []
    assert json.loads(err.getvalue())["error"]["code"] == code
    assert os.listdir(tmp_path) == []



def test_out_is_opened_at_the_first_piece(tmp_path, monkeypatch):
    # run reads the first piece of a handler's document before it opens --out, so a
    # refusal raised while that piece is made leaves no file and nothing on stdout
    from folcan.errors import InvalidInput

    def refused(payload):
        raise InvalidInput("refused while the first piece is made")
        yield

    monkeypatch.setattr(folcan.serialization, "iterdumps", refused)
    target = tmp_path / "functions.json"
    argv = ["--out", str(target), "enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "0", "--cap", "2"]
    out, err = Recorder(), io.StringIO()
    assert run(argv, out, err) == 2
    assert out.writes == [] and not target.exists()
    assert json.loads(err.getvalue())["error"]["code"] == "invalid_input"

def test_streamed_enumerate_documents_equal_dumps_of_the_whole_payload(tmp_path):
    # the document is written one entry at a time; its bytes are those of
    # serialization.dumps over the whole payload, on stdout and in --out alike
    from fractions import Fraction
    import random

    from folcan.bounds import EnumerationQuery, enumerate_hilbert
    from folcan.serialization import dumps, enumerated_function_to_json

    rng = random.Random(35)
    queries = [(1, 0, 2, 0, [0], 0), (1, 0, 2, 2, [1], 1), (1, 1, 6, 3, [-1, 0, 4], 2)]  # none, one chi, several
    queries += [(rng.randint(1, 3), rng.randint(-3, 3), rng.choice((1, 2, 3, 4, 6, 12)), rng.randint(0, 3),
                 rng.sample(range(-2, 5), rng.randint(1, 3)), rng.randint(0, 2)) for _ in range(6)]
    counts = []
    for k1, k2, s, cap, chis, cusps in queries:
        query = EnumerationQuery(k1=Fraction(k1), k2=Fraction(k2), s=s, chi_set=chis, basket_cap=cap, max_cusps=cusps)
        found = enumerate_hilbert(query)
        memo: dict = {}
        payload = {
            "count": len(found),
            "functions": [enumerated_function_to_json(entry, memo) for entry in found],
            "query": {**vars(query), "chi_set": sorted(chis)},
        }
        expected = dumps(payload)
        argv = ["enumerate", "--k1", str(k1), f"--k2={k2}", "--s", str(s), f"--chi={','.join(map(str, chis))}",
                "--cap", str(cap), "--max-cusps", str(cusps)]
        out, err = Recorder(), io.StringIO()
        assert run(argv, out, err) == 0 and err.getvalue() == ""
        assert out.getvalue() == expected
        # one write per entry, plus the head, the closing bracket and the tail
        assert len(out.writes) == len(found) + 3
        target = tmp_path / "functions.json"
        assert invoke(["--out", str(target)] + argv) == (0, "", "")
        assert target.read_text(encoding="utf-8") == expected
        counts.append(len(found))
    assert counts[0] == 0 and counts[1] > 0 and len(set(counts)) > 3


def test_the_largest_chi_query_streams_in_bounded_memory():
    # the 100-chi query prints 13.0 MB of JSON; written as it is made it peaked at
    # 19.9 MB of RSS in a child writing to os.devnull (2-core VM, CPython 3.11), and
    # at 83.4 MB when the whole document was built before its first byte. The
    # child's own peak is read, since an in-process StringIO would hold all the
    # text: on Linux its VmHWM, because ru_maxrss keeps the peak of the process
    # it was started from (43 MB read from under pytest), elsewhere ru_maxrss
    pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")}
    chis = ",".join(map(str, range(folcan.bounds.MAX_CHI)))
    code = (
        "import os, resource, sys\n"
        "from folcan.cli import run\n"
        "argv = ['enumerate', '--k1', '1', '--k2', '0', '--s', '12', '--cap', '6', '--max-cusps', '2', '--chi', sys.argv[1]]\n"
        "with open(os.devnull, 'w') as sink:\n"
        "    status = run(argv, sink, sys.stderr)\n"
        "try:\n"
        "    with open('/proc/self/status') as lines:\n"
        "        peak = next(int(line.split()[1]) for line in lines if line.startswith('VmHWM:'))\n"
        "except OSError:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // (1024 if sys.platform == 'darwin' else 1)\n"
        "print(status, peak)\n"
    )
    done = subprocess.run([sys.executable, "-c", code, chis], env=env, capture_output=True, text=True, timeout=120)
    assert done.stderr == ""
    status, peak_kib = map(int, done.stdout.split())
    assert status == 0
    assert peak_kib < 40 * 1024, f"peak RSS {peak_kib / 1024:.1f} MB"
