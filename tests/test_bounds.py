import math
import random
from fractions import Fraction

import pytest

from folcan.baskets import Basket, SingularityKind, cusp, dihedral_half, dihedral_zero, q_index, terminal_cyclic
from folcan.bounds import (
    EnumeratedFunction,
    EnumerationQuery,
    ample_divisor_numerics,
    basket_alphabet,
    enumerate_baskets,
    enumerate_hilbert,
    km_envelope,
    kx2_bounds,
)
from folcan.errors import InvalidInput, NonPositiveVolume
from folcan.riemann_roch import second_difference_check


def F(num, den=1):
    return Fraction(num, den)


def test_kx2_bounds_examples():
    r = kx2_bounds(8, 8, 1)
    assert (r.kx2_upper, r.kx2_lower_exclusive) == (8, -192)
    assert r.kx2_lower_exclusive_variant is None  # coincide at s = 1
    assert not r.interval_empty

    r = kx2_bounds(1, 0, 2)
    assert (r.kx2_upper, r.kx2_lower_exclusive) == (0, -64)
    assert r.kx2_lower_exclusive_variant == -32

    r = kx2_bounds(8, 0, 1)
    assert (r.kx2_upper, r.kx2_lower_exclusive) == (0, -128)


def test_kx2_bounds_interval():
    # the window is nonempty except exactly at k2 = -4 s k1
    assert not kx2_bounds(1, 0, 1).interval_empty
    degenerate = kx2_bounds(1, -4, 1)
    assert degenerate.kx2_upper == degenerate.kx2_lower_exclusive == 16
    assert degenerate.interval_empty
    rng = random.Random(41)
    for _ in range(100):
        k1 = F(rng.randint(1, 20), rng.choice([1, 2, 4]))
        k2 = F(rng.randint(-20, 20), rng.choice([1, 2]))
        s = rng.randint(1, 5)
        r = kx2_bounds(k1, k2, s)
        if k2 == -4 * s * k1:
            assert r.interval_empty
        else:
            assert r.kx2_lower_exclusive < r.kx2_upper


def test_kx2_bounds_rejects():
    with pytest.raises(NonPositiveVolume):
        kx2_bounds(0, 1, 1)
    with pytest.raises(NonPositiveVolume):
        kx2_bounds(-2, 1, 1)
    with pytest.raises(InvalidInput):
        kx2_bounds(1, 1, 0)


def test_ample_divisor_numerics():
    assert ample_divisor_numerics(8, 8, 8, 1) == (200, 40)
    assert ample_divisor_numerics(3, 0, 0, 2) == (192, 0)
    assert ample_divisor_numerics(1, 0, -4, 2) == (60, -4)


def test_km_envelope():
    assert km_envelope(2, 3, 0, 0, 9)  # exact value, zero envelope
    assert not km_envelope(2, 3, 0, 1, 13)  # |13-9| = 4 > 3
    assert km_envelope(2, 3, 5, 0, 13)
    with pytest.raises(InvalidInput):
        km_envelope(2, 0, 1, 1, 0)


def test_basket_alphabet():
    assert [p.kind for p in basket_alphabet(1)] == [SingularityKind.DIHEDRAL_ZERO]
    a2 = basket_alphabet(2)
    assert [(p.kind.value, p.local_index) for p in a2] == [
        ("DihedralHalf", 2),
        ("DihedralZero", 1),
        ("DihedralZero", 2),
        ("TerminalCyclic", 2),
    ]
    a6 = basket_alphabet(6)
    terminals = [p.local_index for p in a6 if p.kind is SingularityKind.TERMINAL_CYCLIC]
    assert terminals == [2, 3, 6]
    # odd index: no dihedral letters beyond index 1
    a3 = basket_alphabet(3)
    assert [(p.kind.value, p.local_index) for p in a3] == [("DihedralZero", 1), ("TerminalCyclic", 3)]
    # the divisor-pair scan finds every divisor, square roots included
    for s in (36, 97, 360, 1024):
        terminals = [p.local_index for p in basket_alphabet(s) if p.kind is SingularityKind.TERMINAL_CYCLIC]
        assert terminals == [n for n in range(2, s + 1) if s % n == 0]


def baskets_as_sets(stream):
    out = []
    for b in stream:
        out.append(tuple((p.kind.value, p.local_index) for p in b))
    return out


def test_enumerate_baskets_examples():
    listing = baskets_as_sets(enumerate_baskets(1, 2, 0))
    assert listing == [
        (),
        (("DihedralZero", 1),),
        (("DihedralZero", 1), ("DihedralZero", 1)),
    ]

    listing = set(baskets_as_sets(enumerate_baskets(2, 1, 0)))
    assert listing == {
        (),
        (("DihedralHalf", 2),),
        (("DihedralZero", 1),),
        (("DihedralZero", 2),),
        (("TerminalCyclic", 2),),
    }

    listing = baskets_as_sets(enumerate_baskets(2, 0, 1))
    assert listing == [(), (("NonQGorCusp", None),)]


def test_enumerate_baskets_no_duplicates():
    listing = list(enumerate_baskets(2, 2, 1))
    assert len(listing) == len(set(listing))
    assert listing == list(enumerate_baskets(2, 2, 1))
    # 1 + 4 + 10 finite-index combos, each with 0 or 1 cusps
    assert len(listing) == 30
    for b in listing:
        assert q_index(b) in (1, 2)


def test_query_validation():
    with pytest.raises(InvalidInput):
        EnumerationQuery(k1=F(1), k2=F(0), s=2, chi_set=frozenset({F(1, 2)}), basket_cap=1)
    with pytest.raises(InvalidInput):
        EnumerationQuery(k1=F(1), k2=F(0), s=0, chi_set=frozenset({1}), basket_cap=1)
    with pytest.raises(InvalidInput):
        EnumerationQuery(k1=F(1), k2=F(0), s=1, chi_set=frozenset({1}), basket_cap=-1)
    for flag in ("no", 1, 0, None):
        with pytest.raises(InvalidInput, match="q_index_divides must be a bool"):
            EnumerationQuery(k1=F(1), k2=F(0), s=4, chi_set=frozenset({0}), basket_cap=2, q_index_divides=flag)


def test_query_rejects_non_integer_sizes():
    base = dict(k1=F(1), k2=F(0), s=2, chi_set=frozenset({1}), basket_cap=1)
    for field, bad in (("basket_cap", 2.5), ("basket_cap", True), ("basket_cap", "2"), ("max_cusps", 1.5),
                       ("max_cusps", True), ("s", 2.0)):
        with pytest.raises(InvalidInput, match=f"{field} must be a (nonnegative|positive) integer"):
            EnumerationQuery(**{**base, field: bad})
    # inputs rejected before the shared check keep their messages
    for field, bad in (("basket_cap", -1), ("max_cusps", -2), ("max_cusps", -0.5)):
        with pytest.raises(InvalidInput) as info:
            EnumerationQuery(**{**base, field: bad})
        assert str(info.value) == f"{field} must be nonnegative, got {bad!r}"
    with pytest.raises(InvalidInput) as info:
        list(enumerate_baskets(2, 2.5, 0))
    assert str(info.value) == "cap must be a nonnegative integer, got 2.5"
    with pytest.raises(InvalidInput) as info:
        kx2_bounds(1, 0, 0)
    assert str(info.value) == "s must be a positive integer, got 0"


def test_enumerate_hilbert_reference_query():
    query = EnumerationQuery(
        k1=F(1), k2=F(0), s=2, chi_set=frozenset({1}), basket_cap=2, max_cusps=1
    )
    result = enumerate_hilbert(query)
    assert len(result) == 2
    cusped, plain = result  # lexicographic: correction (-1, -3/2) sorts first
    assert plain.function.correction == (F(0), F(-1, 2))
    assert cusped.function.correction == (F(-1), F(-3, 2))
    assert plain.function.period == cusped.function.period == 2
    # both realized by several baskets, deduplicated
    assert len(plain.witnesses) == 4
    assert len(cusped.witnesses) == 4
    for witness in plain.witnesses:
        assert q_index(witness) == 2
    # shifted variant differs from the plain one by 1 at every m >= 1
    for m in range(1, 9):
        assert plain.function.value(m) - cusped.function.value(m) == 1
    assert plain.function.value(0) == cusped.function.value(0) == 1


def test_enumerate_hilbert_polynomial_query():
    query = EnumerationQuery(k1=F(2), k2=F(2), s=1, chi_set=frozenset({1}), basket_cap=0)
    result = enumerate_hilbert(query)
    assert len(result) == 1
    only = result[0]
    assert only.witnesses == (Basket(),)
    assert [only.function.value(m) for m in range(5)] == [1, 1, 3, 7, 13]


def test_enumerate_hilbert_empty_chi():
    query = EnumerationQuery(k1=F(1), k2=F(0), s=1, chi_set=frozenset(), basket_cap=2)
    assert enumerate_hilbert(query) == ()


def test_enumerate_hilbert_rejects_nonpositive():
    query = EnumerationQuery(k1=F(0), k2=F(0), s=1, chi_set=frozenset({1}), basket_cap=0)
    with pytest.raises(NonPositiveVolume):
        enumerate_hilbert(query)


def test_enumerate_hilbert_divisibility_relaxation():
    strict = EnumerationQuery(k1=F(2), k2=F(0), s=2, chi_set=frozenset({1}), basket_cap=2)
    relaxed = EnumerationQuery(
        k1=F(2), k2=F(0), s=2, chi_set=frozenset({1}), basket_cap=2, q_index_divides=True
    )
    strict_result = enumerate_hilbert(strict)
    relaxed_result = enumerate_hilbert(relaxed)
    # strict: a trivial-correction function (index-2 dihedral-zero witnesses)
    # and the {DihedralHalf x2} one; relaxing only adds index-1 witnesses
    assert len(strict_result) == len(relaxed_result) == 2
    assert [e.function for e in strict_result] == [e.function for e in relaxed_result]
    trivial_strict, trivial_relaxed = strict_result[0], relaxed_result[0]
    assert trivial_strict.function.correction == (F(0),)
    assert set(trivial_strict.witnesses) < set(trivial_relaxed.witnesses)
    assert Basket() in trivial_relaxed.witnesses
    assert Basket() not in trivial_strict.witnesses


def test_enumerate_hilbert_monotone():
    def functions(cap, cusps, chis):
        query = EnumerationQuery(
            k1=F(1), k2=F(0), s=2, chi_set=frozenset(chis), basket_cap=cap, max_cusps=cusps
        )
        return {e.function for e in enumerate_hilbert(query)}

    small = functions(2, 0, {1})
    bigger_cap = functions(3, 0, {1})
    more_cusps = functions(2, 2, {1})
    more_chi = functions(2, 0, {0, 1})
    assert small <= bigger_cap
    assert small <= more_cusps
    assert small <= more_chi


def test_enumerate_hilbert_emitted_invariants():
    query = EnumerationQuery(
        k1=F(1), k2=F(0), s=2, chi_set=frozenset({0, 1, 2}), basket_cap=3, max_cusps=1
    )
    result = enumerate_hilbert(query)
    assert result
    for entry in result:
        h = entry.function
        assert second_difference_check(h)
        for m in range(0, 4 * h.period + 1):
            assert h.value(m).denominator == 1
        assert entry.witnesses == tuple(sorted(entry.witnesses, key=lambda b: tuple(p.sort_key for p in b)))


def test_each_rejected_finite_part_is_checked_once(monkeypatch):
    # a cusp adds the integer -1 at every m >= 1, so a basket is rejected
    # exactly when its finite-index part is; a part whose P(1) is not an
    # integer is rejected unchecked, any other is checked once
    import folcan.bounds

    query = EnumerationQuery(
        k1=F(1, 2), k2=F(1), s=6, chi_set=frozenset({0, 3}), basket_cap=3, max_cusps=2
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

    from folcan.riemann_roch import ModelNumerics, hilbert_value

    def numerics(b):
        return ModelNumerics(k1=query.k1, k2=query.k2, chi=0, basket=b)

    matching = [b for b in enumerate_baskets(6, 3, 2) if q_index(b) == 6]
    failing = [b for b in matching if not original(numerics(b))]
    rejected_parts = {finite(b) for b in failing}
    checked_parts = {finite(b) for b in failing if hilbert_value(numerics(b), 1).denominator == 1}
    witnesses = sum(len(e.witnesses) for e in result if e.function.chi == 0)
    assert witnesses and len(failing) > len(rejected_parts)  # the query exercises the skip
    assert len(calls) == len(checked_parts) + witnesses
    assert sum(verdict for _, verdict in calls) == witnesses
    rejected_calls = [finite(b) for b, verdict in calls if not verdict]
    assert len(rejected_calls) == len(set(rejected_calls)) and set(rejected_calls) == checked_parts


def test_basket_count_limit(monkeypatch):
    import folcan.bounds

    query = EnumerationQuery(k1=F(1), k2=F(0), s=2, chi_set=frozenset({1}), basket_cap=2, max_cusps=1)
    spanned = len(list(enumerate_baskets(2, 2, 1)))
    assert spanned == 30  # C(4 + 2, 2) * (1 + 1): four letters divide s = 2
    monkeypatch.setattr(folcan.bounds, "MAX_BASKETS", spanned)
    assert len(enumerate_hilbert(query)) == 2
    monkeypatch.setattr(folcan.bounds, "MAX_BASKETS", spanned - 1)
    with pytest.raises(InvalidInput) as info:
        enumerate_hilbert(query)
    assert str(info.value) == "the query spans 30 baskets, above the limit of 29"
    assert info.value.code == "invalid_input"
    assert info.value.context == {"baskets": 30, "limit": 29}


def test_generated_baskets_are_canonical():
    # enumerate_baskets builds each basket without sorting it; the sorting
    # constructor and the sort-based generation are the reference
    import itertools
    import math

    for s in (1, 2, 6, 12, 30, 60):
        letters = basket_alphabet(s)
        for cap in range(5):
            for max_cusps in range(3):
                generated = list(enumerate_baskets(s, cap, max_cusps))
                for basket in generated:
                    assert basket.profiles == Basket(basket.profiles).profiles, basket
                sorted_construction = [
                    Basket(combo + (cusp(),) * cusps)
                    for size in range(cap + 1)
                    for combo in itertools.combinations_with_replacement(letters, size)
                    for cusps in range(max_cusps + 1)
                ]
                assert generated == sorted_construction, (s, cap, max_cusps)
                assert len(generated) == math.comb(len(letters) + cap, cap) * (max_cusps + 1)


def test_cap_zero_does_not_build_the_alphabet(monkeypatch):
    # with cap 0 the one finite part is empty: neither the count, the P(1)
    # screen nor the generator needs the O(sqrt s) alphabet of s
    import folcan.bounds

    def never(s):
        raise AssertionError("the alphabet was built for a cap-0 query")

    monkeypatch.setattr(folcan.bounds, "basket_alphabet", never)
    s = 10**16
    assert [len(b) for b in enumerate_baskets(s, 0, 2)] == [0, 1, 2]
    query = EnumerationQuery(k1=F(1), k2=F(1), s=s, chi_set=frozenset({0, 2}), basket_cap=0, max_cusps=2,
                             q_index_divides=True)
    found = enumerate_hilbert(query)
    # the empty basket with 0, 1 or 2 cusps: P(m) = (m^2 - m)/2 + chi - cusps at m >= 1
    assert [(entry.function.chi, entry.function.correction) for entry in found] == [
        (chi, (F(-cusps),)) for chi in (0, 2) for cusps in (2, 1, 0)
    ]
    assert [len(entry.witnesses[0]) for entry in found] == [2, 1, 0] * 2
    assert enumerate_hilbert(EnumerationQuery(k1=F(1), k2=F(1), s=s, chi_set={0}, basket_cap=0)) == ()


def test_enumerate_baskets_groups_each_part_with_its_cusps():
    # enumerate_hilbert walks the scan in chunks of max_cusps + 1: each chunk
    # is one finite-index part with 0, 1, ..., max_cusps cusps in that order
    rng = random.Random(20261018)
    for _ in range(12):
        s, cap, max_cusps = rng.choice((1, 2, 6, 12, 30, 60)), rng.randint(0, 4), rng.randint(0, 3)
        scan = list(enumerate_baskets(s, cap, max_cusps))
        assert len(scan) % (max_cusps + 1) == 0
        for start in range(0, len(scan), max_cusps + 1):
            chunk = scan[start:start + max_cusps + 1]
            parts = {tuple(p for p in b if p.kind is not SingularityKind.NON_QGOR_CUSP) for b in chunk}
            cusps = [sum(p.kind is SingularityKind.NON_QGOR_CUSP for p in b) for b in chunk]
            assert len(parts) == 1 and cusps == list(range(max_cusps + 1)), (s, cap, max_cusps, chunk)


def test_scanned_baskets_keep_the_slotted_contract():
    # enumerate_baskets fills each basket's one slot directly; every basket it
    # yields must still behave as one made by the sorting constructor, and
    # pickling differs between versions for slotted frozen dataclasses
    import copy
    import dataclasses
    import pickle

    rng = random.Random(20261020)
    # odd s puts the cusps after letter 1 of the alphabet, even s after letter 3
    draws = [(rng.choice((1, 3, 5, 9, 15, 45)), rng.randint(1, 3), rng.randint(1, 2)) for _ in range(3)]
    draws += [(rng.choice((2, 6, 12, 30, 60)), rng.randint(1, 3), rng.randint(1, 2)) for _ in range(3)]
    draws += [(rng.choice((1, 2, 9, 12, 60)), rng.randint(0, 3), 0) for _ in range(3)]
    for s, cap, max_cusps in draws:
        for basket in enumerate_baskets(s, cap, max_cusps):
            assert type(basket) is Basket
            resorted = Basket(basket.profiles[::-1])
            assert basket == resorted and hash(basket) == hash(resorted), (s, cap, max_cusps, basket)
            assert not hasattr(basket, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                basket.profiles = ()
            with pytest.raises(dataclasses.FrozenInstanceError):
                del basket.profiles
            # a name that is no field has no slot to go to; the frozen
            # __setattr__ of a slotted dataclass raises TypeError for it on
            # some versions, where a dict-backed one raised FrozenInstanceError
            with pytest.raises((AttributeError, TypeError)):
                basket.extra = 1
            for twin in (pickle.loads(pickle.dumps(basket)), copy.deepcopy(basket), copy.copy(basket)):
                assert type(twin) is Basket and twin == basket and twin.profiles == basket.profiles
                assert hash(twin) == hash(basket)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        basket = Basket.of(cusp(), terminal_cyclic(5), dihedral_half())
        assert pickle.loads(pickle.dumps(basket, protocol)) == basket, protocol


def test_part_decisions_walk_in_step_with_the_scan():
    # enumerate_hilbert compresses the scan's groups with the decisions that
    # _part_decisions yields: each must be the verdict of the index and P(1)
    # tests on the group's own cusp-free basket, and both walks must end together
    from folcan.bounds import _part_decisions
    from folcan.riemann_roch import ModelNumerics, hilbert_value

    rng = random.Random(20261019)
    cases = [(1, 3, 0), (1, 0, 2), (7, 3, 1), (60, 0, 0), (60, 2, 2), (60, 3, 1)]
    cases += [(rng.choice((1, 3, 5, 6, 12, 15, 30, 60)), rng.randint(0, 4), rng.randint(0, 2)) for _ in range(10)]
    verdicts = set()
    for s, cap, max_cusps in cases:
        letters = basket_alphabet(s) if cap else ()
        for k2, divides in ((F(0), False), (F(1), False), (F(0), True), (F(-3), True)):
            query = EnumerationQuery(k1=F(1), k2=k2, s=s, chi_set={0}, basket_cap=cap, max_cusps=max_cusps,
                                     q_index_divides=divides)
            scan = enumerate_baskets(s, cap, max_cusps)
            decisions = _part_decisions(query, letters)
            groups = 0
            for group in zip(*[scan] * (max_cusps + 1)):
                part = group[0]
                index = q_index(part)
                expected = (index == s or (divides and s % index == 0)) and hilbert_value(
                    ModelNumerics(k1=query.k1, k2=k2, chi=0, basket=part), 1
                ).denominator == 1
                assert next(decisions) == expected, (s, cap, max_cusps, k2, divides, part)
                groups += 1
                verdicts.add(expected)
            assert next(decisions, None) is None and next(scan, None) is None, (s, cap, max_cusps)
            assert groups == math.comb(len(basket_alphabet(s)) + cap, cap)
    assert verdicts == {False, True}


def test_one_table_per_part_that_reaches_the_check(monkeypatch):
    # a cusp variant takes its part's table shifted by -1 per cusp, so a table
    # is built from a basket's profiles once per finite-index part that reaches
    # the integrality check, not once per checked variant
    import functools

    import folcan.bounds
    from folcan.riemann_roch import ModelNumerics

    build = ModelNumerics.__dict__["_table"].func
    built, checked = [], []

    def counting_build(num):
        built.append(num.basket)
        return build(num)

    table = functools.cached_property(counting_build)
    table.__set_name__(ModelNumerics, "_table")
    monkeypatch.setattr(ModelNumerics, "_table", table)
    original = folcan.bounds.integrality_check
    monkeypatch.setattr(folcan.bounds, "integrality_check", lambda num: checked.append(num.basket) or original(num))
    query = EnumerationQuery(k1=F(1, 2), k2=F(1), s=6, chi_set=frozenset({0, 3}), basket_cap=3, max_cusps=2)
    result = enumerate_hilbert(query)

    def finite(basket):
        return Basket(tuple(p for p in basket if p.kind is not SingularityKind.NON_QGOR_CUSP))

    parts = {finite(b) for b in checked}
    witnesses = sum(len(e.witnesses) for e in result if e.function.chi == 0)
    assert witnesses and len(checked) >= 2 * len(parts)  # cusp variants are checked
    assert len(built) == len(set(built)) == len(parts) and set(built) == parts
