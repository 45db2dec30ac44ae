"""Golden bytes: SHA-256 of the stdout of ``intersect``, ``bounds``, ``example`` and ``hilbert``.

The digests were recorded before the flat reports (intersect, bounds and
single examples) were moved onto one shared renderer; any change to the
bytes of the output (key order, CSV layout, boolean spelling, vector cells)
fails here. Every case runs in both JSON and CSV. The intersect cases name
a strict transform, ``K``, a distinguished class, a basis label and a
vector literal, on a model document with a ``resolution`` block and on one
without. The bounds cases run with and without ``--kx2``, with and without
the linear-in-s variant, and on the degenerate empty window.
"""

import hashlib
import io
import json

import pytest

from folcan.cli import run

_LATTICE = {
    "basis_labels": ["C", "E1", "E2", "f"],
    "pairing": [
        ["-1", "1", "0", "1"],
        ["1", "-2", "1", "0"],
        ["0", "1", "-2", "0"],
        ["1", "0", "0", "0"],
    ],
    "canonical_class": ["-2", "0", "0", "-1"],
    "distinguished_classes": {"H": ["1", "0", "0", "1/2"]},
}
DOCUMENTS = {
    "resolved": {
        **_LATTICE,
        "resolution": {"exceptional_indices": [1, 2], "strict_transforms": {"D": ["1", "0", "0", "0"]}},
    },
    "plain": _LATTICE,
    "integral": {
        "k1": "1",
        "k2": "0",
        "chi": 1,
        "basket": [{"kind": "TerminalCyclic", "n": 2}, {"kind": "TerminalCyclic", "n": 2}],
    },
    "fractional": {
        "k1": "1/2",
        "k2": "1/3",
        "chi": 2,
        "basket": [{"kind": "TerminalCyclic", "n": 3}, {"kind": "DihedralHalf"}, {"kind": "NonQGorCusp"}],
    },
}


def _intersect(doc, left, right):
    return ["intersect", "--model", doc, f"--left={left}", f"--right={right}"]


CASES = [
    ("intersect-strict-K", _intersect("resolved", "D", "K")),
    ("intersect-distinguished-label", _intersect("resolved", "H", "E2")),
    ("intersect-vector-strict", _intersect("resolved", "1/2,0,-1,3", "D")),
    ("intersect-plain-K-vector", _intersect("plain", "K", "1,1/3,0,-2")),
    ("intersect-plain-distinguished-label", _intersect("plain", "H", "f")),
    ("bounds-s1", ["bounds", "--k1", "8", "--k2", "8", "--s", "1"]),
    ("bounds-variant", ["bounds", "--k1", "1/2", "--k2", "-3", "--s", "3"]),
    ("bounds-kx2-in-window", ["bounds", "--k1", "2", "--k2", "5", "--s", "2", "--kx2", "7/2"]),
    ("bounds-kx2-outside", ["bounds", "--k1", "1", "--k2", "1", "--s", "1", "--kx2=-30"]),
    ("bounds-empty-window", ["bounds", "--k1", "1", "--k2", "-4", "--s", "1", "--kx2", "16"]),
    ("example-ruled", ["example", "ruled", "--k", "2", "--g", "3", "--q", "1"]),
    ("example-abelian", ["example", "abelian", "--d", "3", "--n", "2"]),
    ("example-ruled-sweep", ["example", "ruled", "--k", "4", "--g", "2", "--q", "0", "--sweep", "q=0..3"]),
    ("example-abelian-sweep", ["example", "abelian", "--d", "2", "--n", "0", "--sweep", "d=2..4"]),
    ("hilbert-integral", ["hilbert", "--numerics", "integral", "--mmax", "7"]),
    ("hilbert-fractional", ["hilbert", "--numerics", "fractional", "--mmax", "7"]),
]

DIGESTS = {
    ("intersect-strict-K", "json"): "f67b7b4d35d14c78f91ca2f69b28668da0a84c8429e108eb69c9cacaf4cab6c1",
    ("intersect-strict-K", "csv"): "a468b1cc8a742a2c76cb9f405fa7938257c2d30312788d5d4cd73b1b72f2c754",
    ("intersect-distinguished-label", "json"): "61fe7d97a762b86d9eb88bbf9c85b421016a55bda3399c9d74067f28a83b36f6",
    ("intersect-distinguished-label", "csv"): "d277fea0e1c7adc7782904c616580c3129c906bc0b56b1ac3ebddf627c4485ee",
    ("intersect-vector-strict", "json"): "147083a9451ad49e9b91c63e222c3aee9ba36287d7c1fe27a2ddcb6ddd93620c",
    ("intersect-vector-strict", "csv"): "266bd298e23509deff7595ddaabe73741a61d99a630e9fb8dc3ba40b879c9f85",
    ("intersect-plain-K-vector", "json"): "89ec14c52f73edcb7b5f120ea65aa48717fada3198476bcd9fdbce7ef625ecb8",
    ("intersect-plain-K-vector", "csv"): "111bb034bb1f345a6e0c7c696fff03f4992903c78c445e3422db612926a2a3a0",
    ("intersect-plain-distinguished-label", "json"): "6300e82ba14a902439a40dce31f135d6e0a9f0d70ddce280e77b4c5dd0e5335a",
    ("intersect-plain-distinguished-label", "csv"): "98684aa4d1951f998058ac85d679187409051e6c9bfec816cebdf92985864365",
    ("bounds-s1", "json"): "3ce0ab66376ce25d8e09c6a2d87b6f9ac00fd2b9d0adf62d6e6c5c47db9c2bed",
    ("bounds-s1", "csv"): "bd685690a20775eaf259d3642a1ad80650c894c3b9782d3ac2c82ecae8752383",
    ("bounds-variant", "json"): "c91269825505616d5be6df4ca651e63239fa2ffd2f06bc85ef65d4c80ea2bbf5",
    ("bounds-variant", "csv"): "748bd7a385d2046dc9e0c349f2f66346f1d07a00a507e9b46d7b68528ccef8d0",
    ("bounds-kx2-in-window", "json"): "8e515e5b746830f29371c0b4a201ab285d4d3a440cea5ca068b05178f22aabbb",
    ("bounds-kx2-in-window", "csv"): "9da570a13d45f543ccfa9d0d311d3fd0cad7cddb0498e026851dfdd10370cac9",
    ("bounds-kx2-outside", "json"): "28d1966e1c658146e226749ac831724817d897b7e467d58329474ad2b2f08071",
    ("bounds-kx2-outside", "csv"): "56f5eb3562892a7d00bf3dd5f3f6dd6a6846e674a06ddb71b51cfacc87dd1d38",
    ("bounds-empty-window", "json"): "8fb4f953cf9c1e157d17aae9ab25691e06ac63495dc754a805a120872227d16f",
    ("bounds-empty-window", "csv"): "3d8d7b5b482e4ed8a69106a2d90366d45c4fd7252f0534fb72d1976df8b70ab4",
    ("example-ruled", "json"): "8b39338f5f12169cee197a30b5d19b0836b6342c10e44fcc663eb01f913401f1",
    ("example-ruled", "csv"): "e049383b5f4265948b0d527c44c2ef5378cf5e22e0a287c86782d562a3092e21",
    ("example-abelian", "json"): "be9f6c5a1264b1874a3c4d7880debb8e2ab745bf969875b9fae2ec23635fcaa7",
    ("example-abelian", "csv"): "84d51d7e76352dbeed5aca78e432c67b4710f15b6ce9c2449e594ed7c408926e",
    ("example-ruled-sweep", "json"): "a0d346085fc99f2237c85f3b5eb5489c7cdb40da500212f42af41fbe6c372b79",
    ("example-ruled-sweep", "csv"): "050df8cbb05d679d9d4b46595c8309da29bde281a5780c604098d8305bc81801",
    ("example-abelian-sweep", "json"): "df342a9b092ca040b49050ddccf631c69f21ff3e26db818f5abd2ea09ae054fe",
    ("example-abelian-sweep", "csv"): "61ce1539ae4e73471a1ab2f4605b927b3376b69ba21328fd15373d1de30ccbe5",
    ("hilbert-integral", "json"): "6eb0e6bab76d83e5e4d7a4fd8dd8c9e093abe8af4c512e3ab9ad0c8540a6308a",
    ("hilbert-integral", "csv"): "23c4c9134b4c40f20e491785c6a22a1dde44c04b4573647014ff556bee40e450",
    ("hilbert-fractional", "json"): "5b1feb2bfb6c78264800e9248f021a43f7dccb24c154eddc84cac07a019fafb5",
    ("hilbert-fractional", "csv"): "907348e08b248223f4493784d7b39003646e26359d0ff1c4e615c6784d97f5ea",
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_cli")
    paths = {}
    for name, doc in DOCUMENTS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return {name: str(path) for name, path in paths.items()}


def stdout_digest(argv, documents):
    argv = [documents.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == 0, err.getvalue()
    assert err.getvalue() == ""
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("output_format", ["json", "csv"])
@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden_digest(name, argv, output_format, documents):
    digest = stdout_digest(["--format", output_format] + argv, documents)
    assert digest == DIGESTS[(name, output_format)]
