"""Unit tests of the benchmark's own parts: self time, tracing, inputs, checks.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _table(spans, names):
    """spans: (name, parent, start, end, returned True)."""
    kind = array("H", [names.index(s[0]) for s in spans])
    parent = array("q", [s[1] for s in spans])
    start = array("d", [s[2] for s in spans])
    end = array("d", [s[3] for s in spans])
    flag = array("b", [s[4] for s in spans])
    return tracing.span_table(names, kind, parent, start, end, flag)


def test_self_time_on_a_synthetic_span_tree():
    names = ["A", "B", "C", "D", "E", "F", "G", "unused"]
    table = _table(
        [
            ("A", -1, 0.0, 10.0, 0),
            ("B", 0, 1.0, 4.0, 1),
            ("C", 1, 2.0, 3.0, 0),
            ("B", 0, 5.0, 6.0, 0),
            ("D", -1, 20.0, 30.0, 0),
            ("E", 4, 21.0, 25.0, 1),  # overlapping children: union is 21..28
            ("E", 4, 23.0, 28.0, 1),
            ("F", -1, 40.0, 45.0, 0),
            ("G", 7, 44.0, 47.0, 0),  # runs past its parent: clipped to 44..45
        ],
        names,
    )
    assert table["A"] == (1, 6.0, 0)
    assert table["B"] == (2, 3.0, 1)
    assert table["C"] == (1, 1.0, 0)
    assert table["D"] == (1, 3.0, 0)
    assert table["E"] == (2, 9.0, 2)
    assert table["F"] == (1, 4.0, 0)
    assert table["G"] == (1, 3.0, 0)
    assert table["unused"] == (0, 0.0, 0)


def test_install_patches_every_namespace_and_uninstall_restores():
    import folcan.bounds
    import folcan.cli
    import folcan.riemann_roch
    from folcan.bounds import EnumerationQuery, enumerate_hilbert

    original = folcan.riemann_roch.integrality_check
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert folcan.bounds.integrality_check is folcan.riemann_roch.integrality_check
        assert folcan.bounds.integrality_check is not original
        query = EnumerationQuery(k1=1, k2=0, s=2, chi_set={1}, basket_cap=2, max_cusps=1)
        found = folcan.bounds.enumerate_hilbert(query)
    finally:
        uninstall()
    assert folcan.bounds.integrality_check is original
    assert folcan.cli.integrality_check is original
    assert folcan.bounds.enumerate_hilbert is enumerate_hilbert
    table = tracing.span_table(tracer.names, tracer.kind, tracer.parent, tracer.start, tracer.end, tracer.flag)
    parents = {
        tracer.names[tracer.kind[tracer.parent[i]]]
        for i in range(len(tracer.start))
        if tracer.names[tracer.kind[i]] == "riemann_roch.integrality_check"
    }
    # called by bounds (bound by name there) and inside to_hilbert_function
    assert parents == {"bounds.enumerate_hilbert", "riemann_roch.to_hilbert_function"}
    accepted = sum(len(entry.witnesses) for entry in found)
    assert table["riemann_roch.to_hilbert_function"][0] == accepted
    assert table["riemann_roch.integrality_check"][2] == 2 * accepted
    assert tracer.counters["bounds.functions"] == len(found) == 2
    assert tracer.counters["bounds.enumerate_baskets.yielded"] == workloads.basket_count(2, 2, 1)


def test_resolution_construction_and_solves_are_counted():
    from fractions import Fraction as F

    from folcan.exact_core import SymmetricPairing
    from folcan.surface_model import ResolutionData, SurfaceModel, weil_intersect

    rows = [[1, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]]
    model = SurfaceModel(("s", "e1", "e2", "e3"), SymmetricPairing.from_rows(rows))
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        res = ResolutionData(model, (1, 2, 3))
        value = weil_intersect(res, (1, 0, 0, 0), (1, 0, 0, 0))
    finally:
        uninstall()
    table = tracing.span_table(tracer.names, tracer.kind, tracer.parent, tracer.start, tracer.end, tracer.flag)
    assert table["surface_model.ResolutionData"][0] == 1
    assert table["exact_core.signature"][0] == 1
    assert table["surface_model.mumford_pullback"][0] == 2
    assert table["exact_core.solve_linear"][0] == 2
    chain = workloads.Resolution([[int(x) for x in row] for row in rows], (1, 2, 3), True)
    assert value == workloads.weil_oracle(chain, (1, 0, 0, 0), (1, 0, 0, 0)) == F(7, 4)
    dense = workloads.Resolution(chain.gram, chain.exceptional, False)
    assert workloads.weil_oracle(dense, (1, 0, 0, 0), (1, 0, 0, 0)) == value


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_equal_seeds_give_identical_inputs(name, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = workloads.generate(name, 7, str(a))
    again = workloads.generate(name, 7, str(b))
    other = workloads.generate(name, 8, None)
    assert first.inputs_digest == again.inputs_digest != other.inputs_digest
    assert len(first.ops) == len(other.ops)
    for file_name in first.files:
        assert (a / file_name).read_bytes() == (b / file_name).read_bytes()


def test_checks_reject_wrong_outputs():
    workload = workloads.generate("chain_intersect", 1, None)
    op = workload.ops[0]
    with pytest.raises(workloads.CheckFailed):
        op.check(0, "12345/7\n", "")
    invalid = next(op for op in workloads.generate("cli_docs", 1, None).ops if op.label.startswith("invalid"))
    with pytest.raises(workloads.CheckFailed):
        invalid.check(0, "", "")


def test_benchmark_json_lists_the_metrics_run_py_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
