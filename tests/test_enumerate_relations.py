"""Metamorphic relations of enumerate_hilbert, at the benchmark's size.

None needs a reference result (Chen, Cheung and Yiu 1998, *Metamorphic
testing*), so all run on any admitted query:

* chi shift: each function at chi + 1 is the one at chi plus 1 at every m,
  with the same witnesses;
* cusp shift: each accepted finite-index part comes with all its cusp
  variants up to max_cusps, and each cusp lowers P(m) by 1 at every m >= 1;
* divisor union: the ``q_index_divides`` family for s is the union over the
  divisors t of s of the exact families for t, witnesses and flags included;
* cap and cusp monotonicity: the family at cap - 1 (at max_cusps - 1) is
  contained in the family at cap (at max_cusps), each function's witnesses
  contained in its witnesses there;
* witnesses: each witness's listed values are its ``hilbert_value`` (the
  ``Fraction`` definition) on the listed window, and its q_index is s
  (divides s, under ``q_index_divides``).

Each relation is also run on seeded faults, put into the enumeration by
monkeypatching, and must fail there.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

import folcan.bounds
from folcan.baskets import SingularityKind, q_index
from folcan.bounds import EnumeratedFunction, EnumerationQuery, enumerate_hilbert
from folcan.exact_core import format_rational
from folcan.riemann_roch import HilbertFunction, ModelNumerics, hilbert_value, window_length
from folcan.serialization import enumerated_function_to_json


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


def _family(result):
    # each function (chi included) with its witnesses and its flag
    return {e.function: (set(e.witnesses), e.function.extrapolated) for e in result}


def _inclusion_violations(small, large):
    # functions of small missing from large, and those whose witnesses are not all there
    return [("function", h) for h in small.keys() - large.keys()] + [
        ("witnesses", h) for h in small.keys() & large.keys() if not small[h][0] <= large[h][0]
    ]


def divisor_union_violations(query, result):
    """Where the q_index_divides family for s and the union of the exact families for t | s differ.

    The query's own result stands for its side; the other side is enumerated.
    """
    def family(t, divides):
        if (t, divides) == (query.s, query.q_index_divides):
            return result
        return enumerate_hilbert(dataclasses.replace(query, s=t, q_index_divides=divides))

    union = {}
    for t in (t for t in range(1, query.s + 1) if query.s % t == 0):
        for h, (witnesses, flag) in _family(family(t, False)).items():
            kept, kept_flag = union.get(h, (set(), False))
            union[h] = kept | witnesses, kept_flag or flag
    divides = _family(family(query.s, True))
    return [("function", h) for h in divides.keys() ^ union.keys()] + [
        ("witnesses", h) for h in divides.keys() & union.keys() if divides[h] != union[h]
    ]


def cap_monotone_violations(query, result):
    """Functions at cap - 1, or their witnesses, missing from the family at cap."""
    smaller = enumerate_hilbert(dataclasses.replace(query, basket_cap=query.basket_cap - 1))
    return _inclusion_violations(_family(smaller), _family(result))


def cusp_monotone_violations(query, result):
    """Functions at max_cusps - 1, or their witnesses, missing from the family at max_cusps."""
    smaller = enumerate_hilbert(dataclasses.replace(query, max_cusps=query.max_cusps - 1))
    return _inclusion_violations(_family(smaller), _family(result))


def witness_violations(query, result):
    """Witnesses whose listed values are not their hilbert_value, or whose index does not fit s."""
    violations = []
    for entry in result:
        listed = enumerated_function_to_json(entry)["values"]
        for basket in entry.witnesses:
            index = q_index(basket)
            if index != query.s and not (query.q_index_divides and query.s % index == 0):
                violations.append(("index", basket))
            num = ModelNumerics(k1=query.k1, k2=query.k2, chi=entry.function.chi, basket=basket)
            if listed != {str(m): format_rational(hilbert_value(num, m)) for m in range(len(listed))}:
                violations.append(("values", num.chi, basket))
    return violations


RELATIONS = {
    "chi shift": chi_shift_violations,
    "cusp shift": cusp_shift_violations,
    "divisor union": divisor_union_violations,
    "cap monotone": cap_monotone_violations,
    "cusp monotone": cusp_monotone_violations,
    "witnesses": witness_violations,
}


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


def _last_witness_kept(monkeypatch, top):
    # the merge keeps each function's last witness only
    monkeypatch.setattr(folcan.bounds, "EnumeratedFunction", lambda function, witnesses: EnumeratedFunction(
        function, witnesses[-1:]))


def _first_witness_kept(monkeypatch, top):
    # the merge keeps each function's first witness only
    monkeypatch.setattr(folcan.bounds, "EnumeratedFunction", lambda function, witnesses: EnumeratedFunction(
        function, witnesses[:1]))


def _exact_index_only(monkeypatch, top):
    # q_index_divides is read as an exact index
    original = folcan.bounds._part_decisions
    monkeypatch.setattr(folcan.bounds, "_part_decisions", lambda query, letters: original(
        dataclasses.replace(query, q_index_divides=False), letters))


def _any_index(monkeypatch, top):
    # an exact index is read as q_index_divides
    original = folcan.bounds._part_decisions
    monkeypatch.setattr(folcan.bounds, "_part_decisions", lambda query, letters: original(
        dataclasses.replace(query, q_index_divides=True), letters))


def _cusps_descending(monkeypatch, top):
    # the scan lists each part's cusp variants from the most cusps down
    original = folcan.bounds.enumerate_baskets

    def descending(s, cap, max_cusps):
        groups = zip(*[original(s, cap, max_cusps)] * (max_cusps + 1))
        return (basket for group in groups for basket in reversed(group))

    monkeypatch.setattr(folcan.bounds, "enumerate_baskets", descending)


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


# s = 60 cap 5 and s = 12 cap 6 under each index rule. The exact families at
# s = 60 have one witness per function and none at cap 4, so the faults that
# touch only witnesses are run where a function has several
EXACT, DIVIDES = QUERIES[0::2], QUERIES[1::2]


def _case(relation, fault, queries=EXACT):
    return pytest.param(relation, fault, queries, id=f"{relation}-{fault.__name__.strip('_')}")


@pytest.mark.parametrize(
    "relation,fault,queries",
    [
        _case("chi shift", _off_by_one_chi),
        _case("chi shift", _dropped_witness),
        _case("cusp shift", _off_by_one_cusp),
        _case("cusp shift", _dropped_variant),
        _case("divisor union", _exact_index_only),
        _case("divisor union", _last_witness_kept, QUERIES[0::3]),
        _case("cap monotone", _last_witness_kept, DIVIDES),
        _case("cap monotone", _first_witness_kept, DIVIDES),
        _case("cusp monotone", _cusps_descending),
        _case("witnesses", _off_by_one_cusp),
        _case("witnesses", _any_index),
    ],
)
def test_relations_fail_on_a_seeded_fault(monkeypatch, relation, fault, queries):
    for query in queries:
        with monkeypatch.context() as patch:
            fault(patch, max(query.chi_set))
            violations = RELATIONS[relation](query, enumerate_hilbert(query))
        assert violations, (relation, fault.__name__, query)
