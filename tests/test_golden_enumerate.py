"""Golden bytes: SHA-256 of ``folcan enumerate`` stdout on a small query ladder.

The digests were recorded before the enumerator was rewritten to scan each
basket once in integer arithmetic; any change to the bytes of the output
(ordering, witnesses, extrapolation flags, formatting) fails here. The
ladder covers JSON and CSV, ``--no-cusps``, ``--q-index-divides``,
fractional k1, negative chi, several chi values at once, an empty result
and a ``--workers`` value above 1.
"""

import hashlib
import io

import pytest

from folcan.cli import run

CSV = ["--format", "csv"]
LADDER = [
    (
        ["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "1", "--cap", "2", "--max-cusps", "1"],
        "3fe1e5fd6aa0df080dba46a0f35176551cb50e02b123c646b1bbcc520aad5305",
    ),
    (
        CSV + ["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "1", "--cap", "2", "--max-cusps", "1"],
        "dae38af4e1b1f4a3094cbc4f6c7ed108f2bbc9e3dc774eba65627c6ad41042c1",
    ),
    (
        ["enumerate", "--k1", "1", "--k2", "1", "--s", "2", "--chi=-1,0,2", "--cap", "3", "--max-cusps", "2",
         "--workers", "3"],
        "8a468ae80628c5a2dae9bef56698c9e2ace3ef9dfb5b27c1a467316cb2b89a60",
    ),
    (
        CSV + ["enumerate", "--k1", "1", "--k2", "1", "--s", "6", "--chi=-1,2", "--cap", "3", "--max-cusps", "1",
               "--no-cusps"],
        "730195124a17e4675f7b7969d09c82bb7af77f952fb00d730bcb82dd009b3528",
    ),
    (
        ["enumerate", "--k1", "2", "--k2", "0", "--s", "6", "--chi", "1,3", "--cap", "3", "--max-cusps", "1",
         "--q-index-divides"],
        "7c5bf8ad546c22115828fb85f110ef022660b0133bd5ea042993bc8f9cbf2253",
    ),
    (
        CSV + ["enumerate", "--k1", "2", "--k2", "0", "--s", "4", "--chi=-2,1", "--cap", "3", "--q-index-divides",
               "--no-cusps"],
        "75a5f8e530b6cc5e28d6b9de9107df409e2e18f5bdfb0de358566b2881296b33",
    ),
    (
        ["enumerate", "--k1", "1/2", "--k2", "0", "--s", "4", "--chi=-1,2", "--cap", "3", "--max-cusps", "1"],
        "86f2a6431d016f180c62d938f1418426587305ad694f66adb3d9bdf7799d3a6e",
    ),
    (
        CSV + ["enumerate", "--k1", "1/2", "--k2", "0", "--s", "6", "--chi", "0", "--cap", "3", "--max-cusps", "2",
               "--q-index-divides"],
        "be06f44611cfdd4a873a66dcaf5c316550852f1abebdbe9165a89d5696fde704",
    ),
    (
        ["enumerate", "--k1", "1/2", "--k2", "0", "--s", "2", "--chi=-3,0", "--cap", "4", "--max-cusps", "2",
         "--no-cusps"],
        "f5ac7779c5b61a069f5fd33c64541892c7fc5b82d8f55e5ba472c61cbee4cd69",
    ),
    (
        ["enumerate", "--k1", "1/9", "--k2", "1/3", "--s", "3", "--chi=-3,0", "--cap", "4", "--max-cusps", "1"],
        "e9e11c55c9ed31a95b4f904be725421ace9d63a460062ea7c3edaf7f6f50af51",
    ),
]


@pytest.mark.parametrize("argv,digest", LADDER, ids=[" ".join(argv) for argv, _ in LADDER])
def test_enumerate_stdout_matches_golden_digest(argv, digest):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == 0, err.getvalue()
    assert err.getvalue() == ""
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest
