"""enumerate_hilbert against a plain scan that checks every basket in full.

The reference below runs ``enumerate_baskets``, then ``q_index``, then
``integrality_check`` on every basket of matching index (no per-part state,
no screen at m = 1), compresses each accepted basket with
``to_hilbert_function`` and merges on the canonical form. Seeded queries
cover fractional k1 and k2, cusps and both index rules, and a few
queries of the benchmark's size (s = 30 and 60, cap 5 and 6) follow.
"""

import random
from fractions import Fraction

import pytest

import folcan.bounds
from folcan.baskets import Basket, SingularityKind, q_index, terminal_cyclic
from folcan.bounds import EnumerationQuery, enumerate_baskets, enumerate_hilbert
from folcan.errors import InvalidInput
from folcan.riemann_roch import (
    MAX_PERIOD,
    ModelNumerics,
    hilbert_table,
    hilbert_value,
    integrality_check,
    to_hilbert_function,
)


def _key(basket):
    return tuple(p.sort_key for p in basket)


def reference(query):
    """(k1, k2, chi, period, correction, extrapolated, witnesses) per function, in output order."""
    groups = {}
    for basket in enumerate_baskets(query.s, query.basket_cap, query.max_cusps):
        idx = q_index(basket)
        if idx != query.s and not (query.q_index_divides and query.s % idx == 0):
            continue
        num = ModelNumerics(k1=query.k1, k2=query.k2, chi=0, basket=basket)
        if not integrality_check(num):
            continue
        h = to_hilbert_function(num)
        witnesses, flags = groups.setdefault(h.canonical_form(), ([], []))
        witnesses.append(basket)
        flags.append(h.extrapolated)
    return [
        (k1, k2, chi, period, correction, any(flags), tuple(sorted(witnesses, key=_key)))
        for chi in sorted(query.chi_set)
        for (k1, k2, _, period, correction), (witnesses, flags) in sorted(groups.items())
    ]


def observed(query):
    return [
        (h.k1, h.k2, h.chi, h.period, h.correction, h.extrapolated, entry.witnesses)
        for entry in enumerate_hilbert(query)
        for h in [entry.function]
    ]


def _queries(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield EnumerationQuery(
            k1=Fraction(rng.randint(1, 12), rng.randint(1, 4)),
            k2=Fraction(rng.randint(-12, 12), rng.randint(1, 4)),
            s=rng.choice(list(range(1, 13)) + [30]),
            chi_set=frozenset(rng.sample(range(-2, 4), rng.randint(1, 3))),
            basket_cap=rng.randint(0, 4),
            max_cusps=rng.randint(0, 2),
            q_index_divides=rng.random() < 0.5,
        )


def test_enumerate_hilbert_matches_the_full_scan():
    witnesses = fractional = 0
    for query in _queries(20261018, 200):
        expected = reference(query)
        assert observed(query) == expected, query
        found = sum(len(row[-1]) for row in expected if row[2] == min(query.chi_set))
        witnesses += found
        fractional += bool(found and (query.k1.denominator > 1 or query.k2.denominator > 1))
    # the seeds reach accepted baskets, with fractional k1 or k2 among them
    assert witnesses > 100 and fractional >= 3


@pytest.mark.parametrize(
    "k1,k2,s,cap,max_cusps,q_index_divides",
    [
        (Fraction(1), Fraction(1), 60, 5, 0, True),
        (Fraction(1), Fraction(0), 30, 6, 1, False),
        (Fraction(1, 2), Fraction(3), 30, 5, 2, True),
    ],
)
def test_bench_size_queries_match_the_full_scan(k1, k2, s, cap, max_cusps, q_index_divides):
    query = EnumerationQuery(
        k1=k1, k2=k2, s=s, chi_set=frozenset({-1, 2}), basket_cap=cap, max_cusps=max_cusps,
        q_index_divides=q_index_divides,
    )
    expected = reference(query)
    assert len(expected) > 100  # each reaches accepted baskets
    assert observed(query) == expected


@pytest.mark.parametrize("q_index_divides", [False, True])
def test_parts_past_the_screen_are_checked_once(monkeypatch, q_index_divides):
    # k1 = k2 = 1/2: P(1) is the sum of the m = 1 terms, an integer for two
    # dihedral-half points, whose table still fails at m = 2; each such part
    # is checked on its first basket only, its cusp variants are skipped
    query = EnumerationQuery(
        k1=Fraction(1, 2), k2=Fraction(1, 2), s=2, chi_set=frozenset({0}), basket_cap=4,
        max_cusps=2, q_index_divides=q_index_divides,
    )
    original = folcan.bounds.integrality_check
    calls = []

    def counting(num):
        verdict = original(num)
        calls.append((num.basket, verdict))
        return verdict

    monkeypatch.setattr(folcan.bounds, "integrality_check", counting)
    result = enumerate_hilbert(query)

    def finite(basket):
        return tuple(p for p in basket if p.kind is not SingularityKind.NON_QGOR_CUSP)

    checked = {
        finite(b)
        for b in enumerate_baskets(2, 4, 2)
        if (q_index(b) == 2 or (q_index_divides and 2 % q_index(b) == 0))
        and hilbert_value(ModelNumerics(k1=query.k1, k2=query.k2, chi=0, basket=b), 1).denominator == 1
        and not original(ModelNumerics(k1=query.k1, k2=query.k2, chi=0, basket=b))
    }
    witnesses = sum(len(e.witnesses) for e in result)
    assert len(checked) >= 10
    assert len(calls) == witnesses + len(checked)
    assert {finite(b) for b, verdict in calls if not verdict} == checked


def test_period_limit_comes_before_the_screen():
    s = MAX_PERIOD + 1
    query = EnumerationQuery(k1=Fraction(1), k2=Fraction(0), s=s, chi_set=frozenset({0}), basket_cap=1)
    with pytest.raises(InvalidInput) as info:
        enumerate_hilbert(query)
    assert info.value.context == {"period": s, "limit": MAX_PERIOD}
    # the same period is refused by the full check of terminal_cyclic(s)
    with pytest.raises(InvalidInput):
        integrality_check(ModelNumerics(k1=1, k2=0, chi=0, basket=Basket.of(terminal_cyclic(s))))
    # cap 0 builds no letter: only the empty basket, of index 1
    relaxed = EnumerationQuery(
        k1=Fraction(1), k2=Fraction(1), s=s, chi_set=frozenset({0}), basket_cap=0, q_index_divides=True
    )
    assert [e.witnesses for e in enumerate_hilbert(relaxed)] == [(Basket(),)]


def _shift_queries(seed):
    # max_cusps 2, s in {6, 12, 30, 60}, both k2 parities, both index rules,
    # k1 = 1/2 on one query
    rng = random.Random(seed)
    for i, s in enumerate((6, 12, 30, 60, 6, 12, 30, 60)):
        yield EnumerationQuery(
            k1=Fraction(1, 2) if i == 5 else Fraction(1),
            k2=Fraction(i % 2 + 2 * rng.randint(-3, 3)),
            s=s,
            chi_set=frozenset(rng.sample(range(-2, 4), 2)),
            basket_cap=rng.randint(3, 4),
            max_cusps=2,
            q_index_divides=i >= 4,
        )


def test_cusp_variants_take_their_part_table_shifted(monkeypatch):
    # every witness's numerics, as the enumeration built it (a cusp variant
    # from its part's table and verdict), against one built from its basket
    original = folcan.bounds.to_hilbert_function
    built = {}

    def recording(num):
        built[num.basket] = num
        return original(num)

    monkeypatch.setattr(folcan.bounds, "to_hilbert_function", recording)
    cusped = 0
    for query in _shift_queries(20261019):
        built.clear()
        result = enumerate_hilbert(query)
        witnesses = {w for entry in result for w in entry.witnesses}
        assert set(built) == witnesses, query
        for basket, num in built.items():
            fresh = ModelNumerics(k1=query.k1, k2=query.k2, chi=0, basket=basket)
            assert hilbert_table(num)._integer_form == hilbert_table(fresh)._integer_form
            assert num._verdict == fresh._verdict is None
            assert integrality_check(num) and integrality_check(fresh)
            h, expected = to_hilbert_function(num), to_hilbert_function(fresh)
            assert h == expected and h.extrapolated == expected.extrapolated
            cusped += any(p.kind is SingularityKind.NON_QGOR_CUSP for p in basket)
        # each chi copy against the witnesses' own tables at that chi
        for entry in result:
            h = entry.function
            tables = [
                to_hilbert_function(ModelNumerics(k1=query.k1, k2=query.k2, chi=h.chi, basket=w))
                for w in entry.witnesses
            ]
            assert all(t == h for t in tables)
            assert h.extrapolated == any(t.extrapolated for t in tables)
    assert cusped >= 150  # the shifted path is reached
