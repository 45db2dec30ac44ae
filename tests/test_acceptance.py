"""Acceptance gate: one test per release criterion, timed, oracle-backed.

Each test prints exactly one line "ACCEPTANCE <n> <label>: PASS" when its
criterion holds within the stated runtime budget; a failure surfaces as an
ordinary test failure naming the criterion.
"""

import io
import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from folcan.baskets import Basket, cusp, dihedral_half, dihedral_zero, terminal_cyclic
from folcan.bounds import EnumerationQuery, enumerate_hilbert, kx2_bounds
from folcan.cli import run
from folcan.constructions import (
    AbelianCoverInput,
    RuledCoverInput,
    abelian_double_cover,
    fibration_identities,
    ruled_double_cover,
)
from folcan.exact_core import parse_rational
from folcan.lattice import SymmetricPairing, hodge_check
from folcan.riemann_roch import (
    ModelNumerics,
    hilbert_value,
    integrality_check,
    second_difference_check,
    to_hilbert_function,
)
from folcan.serialization import dumps, model_from_json, model_to_json, rational_to_json
from folcan.surface_model import ResolutionData, SurfaceModel, mumford_pullback


def F(num, den=1):
    return Fraction(num, den)


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s (budget {budget_seconds}s)"
    print(f"ACCEPTANCE {number} {label}: PASS")


def test_acceptance_1_ruled_grid():
    with criterion(1, "ruled double-cover grid", 1.0):
        for k, g, q in itertools.product((2, 4, 6), (2, 3, 4), (0, 2, 5)):
            report = ruled_double_cover(RuledCoverInput(k=k, g=g, q=q))
            assert report.kf2 == 2 * k * g * (g - 1)
            assert report.fiber_genus == g
            assert report.kf_dot_kx - report.kf2 == 4 * (g - 1) * (q - 1)


def test_acceptance_2_abelian_grid():
    with criterion(2, "abelian double-cover grid", 1.0):
        for d, n in itertools.product((2, 3), (0, 1, 2, 3, 5)):
            report = abelian_double_cover(AbelianCoverInput(d=d, n=n))
            assert report.fiber_genus == d * (n * n + 1) + 1
            assert report.auxiliary["polarization_dot_graph"] == 2 * d * (n * n + 1)
            assert report.kf2 == 4 * d * d
            assert report.kf_dot_kx == 4 * d * d


def _chain_resolution(length):
    # strict class with square 1 meeting the first curve of a (-2)-chain
    n = length + 1
    rows = [[F(0)] * n for _ in range(n)]
    rows[0][0] = F(1)
    rows[0][1] = rows[1][0] = F(1)
    for i in range(1, n):
        rows[i][i] = F(-2)
        if i + 1 < n:
            rows[i][i + 1] = rows[i + 1][i] = F(1)
    model = SurfaceModel(tuple(f"c{i}" for i in range(n)), SymmetricPairing.from_rows(rows))
    return ResolutionData(model, tuple(range(1, n)))


def _random_resolution(rng):
    ne, ns = rng.randint(1, 5), rng.randint(1, 2)
    n = ne + ns
    b = [[rng.randint(-3, 3) for _ in range(ne)] for _ in range(ne)]
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(ne):
        for j in range(ne):
            rows[ns + i][ns + j] = F(-sum(b[k][i] * b[k][j] for k in range(ne)) - (1 if i == j else 0))
    for i in range(ns):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = F(rng.randint(-4, 4))
        for j in range(ne):
            rows[i][ns + j] = rows[ns + j][i] = F(rng.randint(-3, 3))
    model = SurfaceModel(tuple(f"c{i}" for i in range(n)), SymmetricPairing.from_rows(rows))
    return ResolutionData(model, tuple(range(ns, n)))


def test_acceptance_3_mumford_orthogonality():
    with criterion(3, "resolution pullback orthogonality", 5.0):
        for length in range(1, 11):
            res = _chain_resolution(length)
            strict = (F(1),) + (F(0),) * length
            pulled = mumford_pullback(res, strict)
            image = res.ambient.pairing.apply(pulled)
            for j in res.exceptional_indices:
                assert image[j] == 0
        rng = random.Random(20260822)
        for _ in range(200):
            res = _random_resolution(rng)
            n = res.ambient.rank
            strict = tuple(F(rng.randint(-5, 5), rng.choice([1, 2])) for _ in range(n))
            pulled = mumford_pullback(res, strict)
            image = res.ambient.pairing.apply(pulled)
            for j in res.exceptional_indices:
                assert image[j] == 0
            if all(res.ambient.pairing.apply(strict)[j] == 0 for j in res.exceptional_indices):
                assert pulled == strict
            # manufactured Cartier case: a strict already orthogonal stays put
            orthogonal = tuple(
                F(0) if i in res.exceptional_indices else strict[i] for i in range(n)
            )
            corrected = mumford_pullback(res, orthogonal)
            if all(res.ambient.pairing.apply(orthogonal)[j] == 0 for j in res.exceptional_indices):
                assert corrected == orthogonal


def test_acceptance_4_index_inequality():
    with criterion(4, "index-theorem inequality suite", 5.0):
        pairing = SymmetricPairing.diagonal([1, -1, -1, -1])
        rng = random.Random(4)
        checked = 0
        trial = 0
        while checked < 500:
            trial += 1
            d1 = [F(rng.randint(-6, 6)) for _ in range(4)]
            if trial % 7 == 0:
                d2 = [F(rng.randint(-2, 2)) * x for x in d1]
            else:
                d2 = [F(rng.randint(-6, 6)) for _ in range(4)]
            a1, a2 = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
            verdict = hodge_check(pairing, d1, d2, a1, a2)
            if not verdict.hypothesis_met:
                continue
            assert verdict.inequality_holds
            s11 = pairing.pair(d1, d1)
            s12 = pairing.pair(d1, d2)
            s22 = pairing.pair(d2, d2)
            assert verdict.equality == (s11 * s22 - s12 * s12 == 0)
            checked += 1


def _random_numerics(rng):
    letters = [
        lambda: terminal_cyclic(rng.randint(2, 6)),
        lambda: dihedral_zero(rng.choice([1, 2])),
        dihedral_half,
        cusp,
    ]
    basket = Basket(tuple(rng.choice(letters)() for _ in range(rng.randint(0, 3))))
    return ModelNumerics(
        k1=F(rng.randint(1, 12), rng.choice([1, 2, 4])),
        k2=F(rng.randint(-10, 10), rng.choice([1, 2])),
        chi=rng.randint(-4, 6),
        basket=basket,
    )


def test_acceptance_5_table_engine():
    with criterion(5, "characteristic table engine", 5.0):
        worked = ModelNumerics(k1=F(1), k2=F(0), chi=1, basket=Basket.of(terminal_cyclic(2), terminal_cyclic(2)))
        assert [hilbert_value(worked, m) for m in range(5)] == [1, 1, 3, 5, 9]
        rng = random.Random(5)
        emitted = 0
        for _ in range(1000):
            num = _random_numerics(rng)
            assert hilbert_value(num, 0) == num.chi
            if integrality_check(num):
                h = to_hilbert_function(num)
                assert second_difference_check(h)
                emitted += 1
        assert emitted > 0


def _oracle_letters(s):
    # inline local-term tables, no package calls: name -> (index, term at m >= 1)
    letters = {"DZ1": (1, lambda m: F(0))}
    if s % 2 == 0:
        letters["DZ2"] = (2, lambda m: F(0))
        letters["DH"] = (2, lambda m: F(-1, 2) if m % 2 else F(0))
    for n in range(2, s + 1):
        if s % n == 0:
            letters[f"T{n}"] = (n, lambda m, n=n: F(-(m % n) * (n - m % n), 2 * n))
    return letters


def _oracle_span(k1, k2, s):
    # two periods of the integrality window, plus m = 0
    return 2 * math.lcm(s, 2 * k1.denominator, 2 * k2.denominator) + 1


def _oracle_enumeration(k1, k2, s, chis, cap, max_cusps, divides):
    """Brute force: value table on [0, span) -> set of (letter names, cusp count) witnesses."""
    letters = _oracle_letters(s)
    span = _oracle_span(k1, k2, s)
    found = {}
    for size in range(cap + 1):
        for combo in itertools.combinations_with_replacement(sorted(letters), size):
            q = math.lcm(*(letters[name][0] for name in combo))
            if q != s and not (divides and s % q == 0):
                continue
            for cusps in range(max_cusps + 1):
                for chi in chis:
                    values = []
                    for m in range(span):
                        total = (k1 * m * m - k2 * m) / 2 + chi
                        if m >= 1:
                            total += sum(letters[name][1](m) for name in combo) - cusps
                        values.append(total)
                    if all(v.denominator == 1 for v in values):
                        found.setdefault(tuple(values), set()).add((combo, cusps))
    return found


_LETTER_NAMES = {"DihedralZero": "DZ", "DihedralHalf": "DH", "TerminalCyclic": "T"}


def _produced(result, span):
    produced = {}
    for entry in result:
        witnesses = set()
        for basket in entry.witnesses:
            names = []
            for p in basket:
                if p.kind.value in _LETTER_NAMES:
                    suffix = "" if p.kind.value == "DihedralHalf" else str(p.local_index)
                    names.append(_LETTER_NAMES[p.kind.value] + suffix)
            witnesses.add((tuple(sorted(names)), len(basket) - len(names)))
        # extrapolated exactly when some witness has a terminal point of index >= 4
        assert entry.function.extrapolated == any(
            name.startswith("T") and int(name[1:]) >= 4 for combo, _ in witnesses for name in combo
        )
        table = tuple(entry.function.value(m) for m in range(span))
        assert table not in produced
        produced[table] = witnesses
    return produced


def test_acceptance_6_enumerator_oracle():
    with criterion(6, "enumeration against brute force", 10.0):
        oracle = _oracle_enumeration(F(1), F(0), 2, {1}, 2, 1, False)
        assert len(oracle) == 2
        query = EnumerationQuery(
            k1=F(1), k2=F(0), s=2, chi_set=frozenset({1}), basket_cap=2, max_cusps=1
        )
        result = enumerate_hilbert(query)
        assert len(result) == 2
        assert _produced(result, _oracle_span(F(1), F(0), 2)) == oracle
        # several chi values at once, two cusps, both index filters
        functions = 0
        for s in (2, 3, 4, 6):
            for k1, k2 in ((F(1), F(1)), (F(1, 2), F(0))):
                for divides in (False, True):
                    chis = {-1, 0, 2}
                    query = EnumerationQuery(
                        k1=k1, k2=k2, s=s, chi_set=frozenset(chis), basket_cap=3, max_cusps=2,
                        q_index_divides=divides,
                    )
                    oracle = _oracle_enumeration(k1, k2, s, chis, 3, 2, divides)
                    assert _produced(enumerate_hilbert(query), _oracle_span(k1, k2, s)) == oracle
                    functions += len(oracle)
        assert functions > 100


def test_acceptance_7_bound_chain():
    with criterion(7, "bound chain and fibration identities", 1.0):
        report = kx2_bounds(8, 8, 1)
        assert report.kx2_upper == 8
        assert report.kx2_lower_exclusive == -192
        rng = random.Random(7)
        for _ in range(100):
            kx2 = F(rng.randint(-60, 60), rng.randint(1, 15))
            numbers = fibration_identities(kx2, rng.randint(2, 9), rng.randint(0, 5))
            assert numbers.kx2_back == kx2


def _random_model_document(rng):
    with_resolution = rng.random() < 0.7
    if with_resolution:
        res = _random_resolution(rng)
        model = res.ambient
    else:
        n = rng.randint(1, 4)
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = F(rng.randint(-9, 9), rng.choice([1, 2, 3]))
        model = SurfaceModel(tuple(f"c{i}" for i in range(n)), SymmetricPairing.from_rows(rows))
        res = None
    if res is not None and rng.random() < 0.5:
        res = ResolutionData(
            model,
            res.exceptional_indices,
            {"D": tuple(F(rng.randint(-3, 3)) for _ in range(model.rank))},
        )
    model = SurfaceModel(
        model.basis_labels,
        model.pairing,
        canonical_class=(
            tuple(F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(model.rank))
            if rng.random() < 0.5
            else None
        ),
        distinguished_classes=(
            {"A": tuple(F(rng.randint(-4, 4)) for _ in range(model.rank))}
            if rng.random() < 0.5
            else {}
        ),
    )
    if res is not None:
        res = ResolutionData(model, res.exceptional_indices, res.strict_transforms)
    return model, res


def test_acceptance_8_serialization_round_trip():
    with criterion(8, "bit-exact serialization", 5.0):
        rng = random.Random(8)
        for _ in range(1000):
            value = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
            assert parse_rational(rational_to_json(value)) == value
        for _ in range(50):
            model, res = _random_model_document(rng)
            text = dumps(model_to_json(model, res))
            loaded_model, loaded_res = model_from_json(json.loads(text))
            assert loaded_model == model
            assert loaded_res == res
            assert dumps(model_to_json(loaded_model, loaded_res)) == text
        # and through an actual command invocation, twice, byte-identical
        out1, out2 = io.StringIO(), io.StringIO()
        argv = ["bounds", "--k1", "8", "--k2", "8", "--s", "1"]
        assert run(argv, stdout=out1, stderr=io.StringIO()) == 0
        assert run(argv, stdout=out2, stderr=io.StringIO()) == 0
        assert out1.getvalue() == out2.getvalue()
