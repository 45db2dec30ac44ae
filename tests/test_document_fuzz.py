"""Seeded malformed documents through the CLI readers: an error object, never a traceback.

Valid model and numerics documents are mutated at every path: a key is
dropped, or a value is replaced by null, a boolean, a float, a list, an
object or a 10^30 integer. Every single mutation is run, then seeded runs of
two or three stacked mutations, through ``intersect`` (model documents) and
``hilbert`` (numerics documents). A run that fails must exit 1 or 2 with an
empty stdout and exactly one JSON error object whose code is documented;
``run`` must never raise. A mutation can leave a valid document (dropping an
optional key, chi = 10^30); such a run must exit 0 and print a JSON report.
"""

import copy
import io
import json
import random

import folcan.cli
import folcan.errors
from folcan.cli import run

MODEL = {
    "basis_labels": ["C", "E1", "E2", "f"],
    "pairing": [
        ["-1", "1", "0", "1"],
        ["1", "-2", "1", "0"],
        ["0", "1", "-2", "0"],
        ["1", "0", "0", "0"],
    ],
    "canonical_class": ["-2", "0", "0", "-1"],
    "distinguished_classes": {"H": ["1", "0", "0", "1/2"]},
    "resolution": {"exceptional_indices": [1, 2], "strict_transforms": {"D": ["1", "0", "0", "0"]}},
}
NUMERICS = {
    "k1": "1",
    "k2": "0",
    "chi": 1,
    "kx2": "1/2",
    "general_type": True,
    "basket": [
        {"kind": "TerminalCyclic", "n": 3, "override": ["0", "-1/3", "-1/3"]},
        {"kind": "TerminalCyclic", "n": 2},
        {"kind": "DihedralZero", "n": 1},
        {"kind": "DihedralHalf"},
        {"kind": "NonQGorCusp"},
    ],
}
REPLACEMENTS = [None, True, False, 1.5, [], ["1"], {}, {"n": 2}, 10**30]
# every code an error object may carry: the domain errors, bad JSON and I/O
CODES = {
    cls.code for cls in vars(folcan.errors).values() if isinstance(cls, type) and issubclass(cls, Exception)
} | {"json_parse_error", "io_error"}


def paths(doc, prefix=()):
    """Every path into ``doc``: the root, each object key and each list position."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from paths(value, prefix + (key,))


def mutate(doc, path, replacement, drop):
    """A copy of ``doc`` with the value at ``path`` dropped or replaced."""
    if not path:
        return copy.deepcopy(replacement)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(replacement)
    return doc


def single_mutations(doc):
    for path in paths(doc):
        if path:
            yield mutate(doc, path, None, drop=True)
        for replacement in REPLACEMENTS:
            yield mutate(doc, path, replacement, drop=False)


def stacked_mutations(doc, rng, count):
    for _ in range(count):
        mutated = doc
        for _ in range(rng.randint(2, 3)):
            choices = list(paths(mutated))
            path = rng.choice(choices)
            mutated = mutate(mutated, path, rng.choice(REPLACEMENTS), drop=bool(path) and rng.random() < 0.3)
        yield mutated


def check_run(argv):
    out, err = io.StringIO(), io.StringIO()
    status = run(argv, stdout=out, stderr=err)
    if status == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
        return status
    assert status in (1, 2), status
    assert out.getvalue() == ""
    body = json.loads(err.getvalue())
    assert list(body) == ["error"] and sorted(body["error"]) == ["code", "context", "message"]
    assert body["error"]["code"] in CODES, body
    return status


def test_mutated_documents_end_in_a_documented_error(tmp_path, monkeypatch):
    # the command lines are fixed, so one parser serves every run (building
    # it is most of a small run's time); the documents are what varies
    parser = folcan.cli.build_parser()
    monkeypatch.setattr(folcan.cli, "build_parser", lambda: parser)
    rng = random.Random(7)
    path = tmp_path / "doc.json"
    statuses = []
    for doc, command in ((MODEL, "intersect"), (NUMERICS, "hilbert")):
        documents = list(single_mutations(doc))
        documents += list(stacked_mutations(doc, rng, 1500 - len(documents)))
        for mutated in documents:
            path.write_text(json.dumps(mutated))
            if command == "intersect":
                argv = ["intersect", "--model", str(path), "--left", "D", "--right", "K"]
            else:
                argv = ["hilbert", "--numerics", str(path), "--mmax", "3"]
            statuses.append(check_run(argv))
    assert len(statuses) >= 3000
    # most mutations break the document; both error exits occur
    assert statuses.count(0) < len(statuses) // 5
    assert {1, 2} <= set(statuses)
