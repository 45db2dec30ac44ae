"""Two metamorphic relations of enumerate_hilbert, at the benchmark's size.

Neither needs a reference result (Chen, Cheung and Yiu 1998, *Metamorphic
testing*), so both run on any admitted query:

* chi shift: each function at chi + 1 is the one at chi plus 1 at every m,
  with the same witnesses;
* cusp shift: each accepted finite-index part comes with all its cusp
  variants up to max_cusps, and each cusp lowers P(m) by 1 at every m >= 1.

Each relation is also run on seeded faults, put into the enumeration by
monkeypatching, and must fail there.
"""

import random
from fractions import Fraction

import pytest

import folcan.bounds
from folcan.baskets import SingularityKind
from folcan.bounds import EnumeratedFunction, EnumerationQuery, enumerate_hilbert
from folcan.riemann_roch import HilbertFunction, ModelNumerics, window_length


def _queries(seed):
    # s = 60 cap 5 and s = 12 cap 6, max_cusps 2, both k2 parities, both index rules
    rng = random.Random(seed)
    for s, cap, parity, divides in ((60, 5, 1, False), (60, 5, 0, True), (12, 6, 0, False), (12, 6, 1, True)):
        chi = rng.randint(-2, 2)
        yield EnumerationQuery(
            k1=Fraction(1), k2=Fraction(parity + 2 * rng.randint(-3, 3)), s=s,
            chi_set=frozenset({chi, chi + 1, chi + 2}), basket_cap=cap, max_cusps=2, q_index_divides=divides,
        )


QUERIES = list(_queries(20261019))


def _window(query, h):
    return range(2 * window_length(h.period, query.k1, query.k2) + 1)


def chi_shift_violations(query, result):
    """Functions at chi + 1 that are not the ones at chi plus 1, paired on their witnesses."""
    by_chi = {chi: {} for chi in query.chi_set}
    for entry in result:
        by_chi.setdefault(entry.function.chi, {})[entry.witnesses] = entry.function
    violations = [("chi", chi) for chi in by_chi.keys() - query.chi_set]
    for chi in sorted(query.chi_set):
        if chi + 1 not in query.chi_set:
            continue
        low, high = by_chi[chi], by_chi[chi + 1]
        violations += [("witnesses", chi, w) for w in set(low) ^ set(high)]
        for witnesses in set(low) & set(high):
            h, shifted = low[witnesses], high[witnesses]
            if any(shifted.value(m) != h.value(m) + 1 for m in _window(query, h)):
                violations.append(("values", chi, witnesses))
    return violations


def cusp_shift_violations(query, result):
    """Parts without all their cusp variants, and variants not one lower per cusp at m >= 1."""
    violations = []
    for chi in query.chi_set:
        parts = {}
        for entry in result:
            if entry.function.chi != chi:
                continue
            for basket in entry.witnesses:
                finite = tuple(p for p in basket if p.kind is not SingularityKind.NON_QGOR_CUSP)
                parts.setdefault(finite, {})[len(basket) - len(finite)] = entry.function
        for part, variants in parts.items():
            if sorted(variants) != list(range(query.max_cusps + 1)):
                violations.append(("variants", chi, part))
                continue
            h = variants[0]
            for cusps, shifted in variants.items():
                if shifted.value(0) != h.value(0) or any(
                    shifted.value(m) != h.value(m) - cusps for m in _window(query, h)[1:]
                ):
                    violations.append(("values", chi, part, cusps))
    return violations


RELATIONS = {"chi shift": chi_shift_violations, "cusp shift": cusp_shift_violations}


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: f"s{q.s}-cap{q.basket_cap}-k2{q.k2}")
def test_relations_hold(query):
    result = enumerate_hilbert(query)
    cusped = sum(p.kind is SingularityKind.NON_QGOR_CUSP for e in result for b in e.witnesses for p in b)
    assert cusped and sum(len(e.witnesses) for e in result) >= 100  # the query reaches cusp variants
    for name, violations in RELATIONS.items():
        assert violations(query, result) == [], name


def _off_by_one_chi(monkeypatch, top):
    # the highest chi's copies are built one too high
    original = HilbertFunction._with_chi
    monkeypatch.setattr(HilbertFunction, "_with_chi", lambda self, chi: original(self, chi + (chi == top)))


def _dropped_witness(monkeypatch, top):
    # the highest chi's functions lose their last witness
    def dropping(function, witnesses):
        return EnumeratedFunction(function, witnesses[:-1] if function.chi == top else witnesses)

    monkeypatch.setattr(folcan.bounds, "EnumeratedFunction", dropping)


def _off_by_one_cusp(monkeypatch, top):
    # a variant with j cusps takes its part's table shifted by j + 1
    original = ModelNumerics._with_cusps
    monkeypatch.setattr(ModelNumerics, "_with_cusps", lambda self, basket, cusps: original(self, basket, cusps + 1))


def _dropped_variant(monkeypatch, top):
    # the variants with the most cusps fail their check
    original = folcan.bounds.integrality_check

    def failing(num):
        cusps = sum(p.kind is SingularityKind.NON_QGOR_CUSP for p in num.basket)
        return cusps < 2 and original(num)

    monkeypatch.setattr(folcan.bounds, "integrality_check", failing)


@pytest.mark.parametrize(
    "relation,fault",
    [
        ("chi shift", _off_by_one_chi),
        ("chi shift", _dropped_witness),
        ("cusp shift", _off_by_one_cusp),
        ("cusp shift", _dropped_variant),
    ],
    ids=lambda x: x if isinstance(x, str) else x.__name__.strip("_"),
)
def test_relations_fail_on_a_seeded_fault(monkeypatch, relation, fault):
    for query in QUERIES[:1] + QUERIES[2:3]:
        with monkeypatch.context() as patch:
            fault(patch, max(query.chi_set))
            result = enumerate_hilbert(query)
        assert RELATIONS[relation](query, result), (relation, fault.__name__, query)
